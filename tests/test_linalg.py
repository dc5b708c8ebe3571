import random

import pytest
from hypothesis import given, settings, strategies as st

from hopfring.cyclo import cyclo_field
from hopfring.linalg import (
    Mat,
    _add_scaled,
    SpanBuilder,
    Subspace,
    bilinear_radical,
    image,
    invert,
    kernel_basis,
    kronecker,
    quotient_operator,
    rank,
    restrict_operator,
    solve,
)

F3 = cyclo_field(3)


def rand_mat(field, rows, cols, rng):
    return Mat.from_rows(
        field, [[field.random(rng, 4, 2) for _ in range(cols)] for _ in range(rows)]
    )


def test_kernel_of_zero_and_identity():
    z = Mat.zeros(F3, 3, 3)
    assert kernel_basis(z) == Subspace.full(F3, 3)
    assert kernel_basis(Mat.identity(F3, 3)) == Subspace.zero(F3, 3)


def test_kernel_of_singular_cyclotomic_matrix():
    q = F3.q
    m = Mat.from_rows(F3, [[F3.one, q], [q * q, F3.one]])
    ker = kernel_basis(m)
    assert ker.dim == 1
    v = list(ker.rows[0])
    assert all(c.is_zero() for c in m.apply(v))


def test_rank_nullity_randomized():
    rng = random.Random(42)
    for _ in range(30):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        m = rand_mat(F3, r, c, rng)
        assert rank(m) + kernel_basis(m).dim == c


def test_kernel_vectors_annihilate():
    rng = random.Random(43)
    for _ in range(20):
        m = rand_mat(F3, 3, 5, rng)
        for row in kernel_basis(m).rows:
            assert all(x.is_zero() for x in m.apply(list(row)))


def test_kronecker_identities():
    assert kronecker(Mat.identity(F3, 2), Mat.identity(F3, 3)) == Mat.identity(F3, 6)
    rng = random.Random(1)
    a = rand_mat(F3, 2, 2, rng)
    assert kronecker(a, Mat.zeros(F3, 3, 3)).is_zero()


def test_kronecker_trace_multiplicative():
    rng = random.Random(2)
    for _ in range(10):
        a = rand_mat(F3, 3, 3, rng)
        b = rand_mat(F3, 3, 3, rng)
        assert kronecker(a, b).trace() == a.trace() * b.trace()


def test_kronecker_associative():
    rng = random.Random(3)
    a = rand_mat(F3, 2, 2, rng)
    b = rand_mat(F3, 2, 3, rng)
    c = rand_mat(F3, 3, 2, rng)
    assert kronecker(kronecker(a, b), c) == kronecker(a, kronecker(b, c))


def test_kronecker_mixed_product():
    rng = random.Random(4)
    a = rand_mat(F3, 2, 3, rng)
    b = rand_mat(F3, 3, 2, rng)
    c = rand_mat(F3, 3, 2, rng)
    d = rand_mat(F3, 2, 3, rng)
    assert kronecker(a * b, c * d) == kronecker(a, c) * kronecker(b, d)


def test_bilinear_radical_basics():
    assert bilinear_radical(Mat.identity(F3, 4)).dim == 0
    assert bilinear_radical(Mat.zeros(F3, 4, 4)).dim == 4
    with pytest.raises(ValueError):
        bilinear_radical(Mat.zeros(F3, 2, 3))


def test_bilinear_radical_rejects_asymmetric():
    m = Mat.zeros(F3, 2, 2)
    m.data[0][1] = F3.one
    with pytest.raises(ValueError):
        bilinear_radical(m)


def test_trace_form_of_cyclotomic_field_is_nondegenerate():
    # Q(zeta_3) as a 2-dimensional algebra over Q with basis 1, z:
    # left multiplications L_1 = I and L_z = [[0,-1],[1,-1]] since z^2 = -1 - z
    one, zero = F3.one, F3.zero
    l1 = Mat.identity(F3, 2)
    lz = Mat.from_rows(F3, [[zero, -one], [one, -one]])
    basis = [l1, lz]
    gram = Mat.from_rows(
        F3, [[(basis[i] * basis[j]).trace() for j in range(2)] for i in range(2)]
    )
    assert gram.data[0][0] == F3.from_int(2)
    assert gram.data[0][1] == -one
    assert gram.data[1][1] == -one
    assert bilinear_radical(gram).dim == 0


def test_solve_particular_and_kernel():
    rng = random.Random(5)
    for _ in range(20):
        m = rand_mat(F3, 3, 4, rng)
        x0 = [F3.random(rng) for _ in range(4)]
        b = m.apply(x0)
        x = solve(m, b)
        assert x is not None
        assert m.apply(x) == b
        # x0 - x lies in the kernel
        assert kernel_basis(m).contains([u - v for u, v in zip(x0, x)])


def test_solve_inconsistent():
    m = Mat.zeros(F3, 2, 2)
    assert solve(m, [F3.one, F3.zero]) is None


def test_image_dimension():
    rng = random.Random(6)
    m = rand_mat(F3, 4, 3, rng)
    assert image(m).dim == rank(m)
    for j in range(3):
        assert image(m).contains(m.column(j))


def test_restriction_and_quotient_commute_with_inclusion():
    # T is block triangular, so span(e0, e1) is invariant
    q = F3.q
    t = Mat.from_rows(
        F3,
        [
            [F3.one, q, q * q],
            [F3.zero, q, F3.one],
            [F3.zero, F3.zero, q],
        ],
    )
    w = Subspace.from_vectors(
        F3, 3, [[F3.one, F3.zero, F3.zero], [F3.zero, F3.one, F3.zero]]
    )
    r = restrict_operator(t, w)
    for row in w.rows:
        img = t.apply(list(row))
        coords = w.coords(img)
        back = [F3.zero] * 3
        for c, brow in zip(coords, w.rows):
            for j in range(3):
                back[j] = back[j] + c * brow[j]
        assert back == img
    assert r.rows == 2
    qop = quotient_operator(t, w)
    assert qop.rows == 1
    assert qop.data[0][0] == q


def test_restriction_rejects_noninvariant():
    t = Mat.from_rows(F3, [[F3.zero, F3.one], [F3.one, F3.zero]])
    w = Subspace.from_vectors(F3, 2, [[F3.one, F3.zero]])
    with pytest.raises(ValueError):
        restrict_operator(t, w)


def test_subspace_canonical_under_shuffle():
    rng = random.Random(7)
    vecs = [[F3.random(rng) for _ in range(5)] for _ in range(3)]
    s1 = Subspace.from_vectors(F3, 5, vecs)
    shuffled = list(vecs)
    rng.shuffle(shuffled)
    mixed = [
        [a + b for a, b in zip(shuffled[0], shuffled[1])],
        shuffled[1],
        shuffled[2],
        [c * F3.q for c in shuffled[0]],
    ]
    s2 = Subspace.from_vectors(F3, 5, mixed)
    assert s1 == s2


def test_span_builder_matches_batch():
    rng = random.Random(8)
    vecs = [[F3.random(rng) for _ in range(6)] for _ in range(8)]
    sb = SpanBuilder(F3, 6)
    for v in vecs:
        sb.insert(v)
    assert sb.to_subspace() == Subspace.from_vectors(F3, 6, vecs)


# -- property tests ------------------------------------------------------------

FIELDS = {n: cyclo_field(n) for n in (3, 4)}
PROPS = settings(max_examples=60, deadline=None)


def _elements(F):
    """Small elements of F, zero about a third of the time."""
    coord = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    nonzero = st.lists(coord, min_size=F.phi, max_size=F.phi).map(F.element)
    return st.one_of(st.just(F.zero), nonzero)


@st.composite
def fields_and_matrices(draw, max_rows=5, max_cols=6):
    """A field of order 3 or 4 and a matrix over it whose rank is often
    below both of its dimensions (a product through a thin middle)."""
    F = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    mid = draw(st.integers(1, max(rows, cols)))
    elts = _elements(F)
    a = Mat.from_rows(F, draw(st.lists(st.lists(elts, min_size=mid, max_size=mid),
                                       min_size=rows, max_size=rows)))
    b = Mat.from_rows(F, draw(st.lists(st.lists(elts, min_size=cols, max_size=cols),
                                       min_size=mid, max_size=mid)))
    return F, a * b


def _combine(F, coeffs, vectors, ncols):
    out = [F.zero] * ncols
    for c, v in zip(coeffs, vectors):
        out = [x + c * y for x, y in zip(out, v)]
    return out


@PROPS
@given(fields_and_matrices())
def test_rank_nullity_property(fm):
    F, m = fm
    ker = kernel_basis(m)
    assert rank(m) + ker.dim == m.cols
    for row in ker.rows:
        assert all(x.is_zero() for x in m.apply(list(row)))


@PROPS
@given(fields_and_matrices(), st.randoms(use_true_random=False))
def test_from_vectors_invariant_under_row_operations(fm, rng):
    F, m = fm
    vecs = [list(r) for r in m.data]
    s1 = Subspace.from_vectors(F, m.cols, vecs)
    mixed = list(vecs)
    rng.shuffle(mixed)
    units = [F.q_pow(rng.randrange(F.n)) * rng.choice([1, -2, 3]) for _ in mixed]
    mixed = [[c * u for c in v] for v, u in zip(mixed, units)]
    for i in range(1, len(mixed)):
        mixed[i] = [x + F.q * y for x, y in zip(mixed[i], mixed[i - 1])]
    mixed.append(_combine(F, [F.one] * len(vecs), vecs, m.cols))
    assert Subspace.from_vectors(F, m.cols, mixed) == s1
    assert s1.dim == rank(m)


@PROPS
@given(fields_and_matrices(), st.randoms(use_true_random=False))
def test_span_builder_any_insertion_order(fm, rng):
    F, m = fm
    vecs = [list(r) for r in m.data]
    batch = Subspace.from_vectors(F, m.cols, vecs)
    order = list(vecs)
    rng.shuffle(order)
    sb = SpanBuilder(F, m.cols)
    grew = [sb.insert(v) for v in order]
    assert sum(grew) == batch.dim
    assert sb.to_subspace() == batch


@PROPS
@given(fields_and_matrices(), st.data())
def test_coords_rebuild_and_reduce_detects_membership(fm, data):
    F, m = fm
    span = Subspace.from_vectors(F, m.cols, m.data)
    elts = _elements(F)
    coeffs = data.draw(st.lists(elts, min_size=m.rows, max_size=m.rows))
    inside = _combine(F, coeffs, m.data, m.cols)
    coords = span.coords(inside)
    assert _combine(F, coords, span.rows, m.cols) == inside
    assert all(c.is_zero() for c in span.reduce(inside))
    other = data.draw(st.lists(elts, min_size=m.cols, max_size=m.cols))
    contained = rank(Mat.from_rows(F, list(m.data) + [other])) == span.dim
    assert all(c.is_zero() for c in span.reduce(other)) == contained
    assert span.contains(other) == contained
    if not contained:
        with pytest.raises(ValueError):
            span.coords(other)


@PROPS
@given(fields_and_matrices(), st.data())
def test_solve_none_exactly_when_inconsistent(fm, data):
    F, m = fm
    b = data.draw(st.one_of(
        st.lists(_elements(F), min_size=m.rows, max_size=m.rows),
        st.lists(_elements(F), min_size=m.cols, max_size=m.cols).map(m.apply),
    ))
    aug = Mat.from_rows(F, [list(r) + [bv] for r, bv in zip(m.data, b)])
    x = solve(m, b)
    assert (x is None) == (rank(aug) > rank(m))
    if x is not None:
        assert m.apply(x) == b


@PROPS
@given(fields_and_matrices(max_rows=5, max_cols=5))
def test_invert_is_two_sided_inverse(fm):
    F, m = fm
    sq = Mat.from_rows(F, [r[: min(m.rows, m.cols)] for r in m.data[: min(m.rows, m.cols)]])
    if rank(sq) < sq.rows:
        with pytest.raises(ValueError):
            invert(sq)
        return
    inv = invert(sq)
    eye = Mat.identity(F, sq.rows)
    assert inv * sq == eye and sq * inv == eye


# -- the incremental span on sparse and dense rows -------------------------------

AMBIENT = 5


def _span_steps(F):
    coeff = st.sampled_from(
        [F.q_pow(i) for i in range(F.n)] + [-F.one, F.from_int(2), F.one + F.q]
    )
    fresh = st.dictionaries(st.integers(0, AMBIENT - 1), coeff, max_size=AMBIENT)
    # a fresh sparse row, or a combination of two earlier ones
    step = st.one_of(
        fresh.map(lambda v: ("fresh", v)),
        st.tuples(st.integers(0, 20), st.integers(0, 20), coeff, coeff).map(
            lambda t: ("combo",) + t
        ),
    )
    return st.lists(step, max_size=10)


def _span_builder_properties(F, steps):
    sparse, dense = SpanBuilder(F, AMBIENT), SpanBuilder(F, AMBIENT)
    made = []
    prefix = []
    rank_before = 0
    for step in steps:
        if step[0] == "fresh" or not made:
            vec = dict(step[1]) if step[0] == "fresh" else {}
        else:
            _, i, j, ci, cj = step
            vec = _add_scaled({}, ci, made[i % len(made)])
            _add_scaled(vec, cj, made[j % len(made)])
        made.append(vec)
        row = [vec.get(k, F.zero) for k in range(AMBIENT)]
        prefix.append(row)
        rank_after = Subspace.from_vectors(F, AMBIENT, prefix).dim
        grows = rank_after > rank_before
        rank_before = rank_after
        vec_before, row_before = dict(vec), list(row)
        assert sparse.insert(vec) == grows
        assert dense.insert(row) == grows
        # the caller's row is not modified
        assert vec == vec_before and row == row_before
    batch = Subspace.from_vectors(F, AMBIENT, prefix)
    for sb in (sparse, dense):
        assert sb.dim == batch.dim
        assert sb.to_subspace() == batch
        for lead, row in sb._rows.items():
            assert min(row) == lead and row[lead].is_one()
            assert all(not c.is_zero() for c in row.values())


_F3, _F5 = cyclo_field(3), cyclo_field(5)


@settings(max_examples=80, deadline=None)
@given(_span_steps(_F3))
def test_span_builder_grows_with_rank_n3(steps):
    _span_builder_properties(_F3, steps)


@settings(max_examples=80, deadline=None)
@given(_span_steps(_F5))
def test_span_builder_grows_with_rank_n5(steps):
    _span_builder_properties(_F5, steps)
