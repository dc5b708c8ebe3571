import random

import pytest
from hypothesis import given, settings, strategies as st

from hopfring.cyclo import cyclo_field
from hopfring.fdalg import trace_form
from hopfring.linalg import (
    Mat,
    _add_scaled,
    SpanBuilder,
    Subspace,
    image,
    invert,
    kernel_basis,
    kronecker,
    quotient_operator,
    restrict_operator,
    rref_rows,
    solve,
)

F3 = cyclo_field(3)


def dense_row(F, row, n):
    """A sparse row (column -> scalar) as a dense list of length n."""
    return [row.get(j, F.zero) for j in range(n)]


def rand_mat(field, rows, cols, rng):
    return Mat.from_rows(
        field, [[field.random(rng, 4, 2) for _ in range(cols)] for _ in range(rows)]
    )


def _dense_rref(vectors, ncols):
    """Reference reduced row echelon form by plain dense Gauss-Jordan, the
    first nonzero entry of each column as its pivot: dense rows and their
    pivot columns, in pivot order."""
    work = [list(v) for v in vectors]
    rows, pivots = [], []
    for col in range(ncols):
        i = next((i for i, r in enumerate(work) if not r[col].is_zero()), None)
        if i is None:
            continue
        prow = work.pop(i)
        inv = prow[col].inverse()
        prow = [c * inv for c in prow]
        for r in work + rows:
            f = r[col]
            if not f.is_zero():
                r[:] = [x - f * y for x, y in zip(r, prow)]
        rows.append(prow)
        pivots.append(col)
    return rows, pivots


def _ref_span(F, vectors, ncols):
    """The span of vectors as a Subspace on the reference echelon rows."""
    rows, pivots = _dense_rref(vectors, ncols)
    sparse = [{j: c for j, c in enumerate(r) if not c.is_zero()} for r in rows]
    return Subspace(F, ncols, sparse, pivots)


def rank(m):
    """Rank of m by the reference elimination."""
    return len(_dense_rref(dense(m), m.cols)[1])


def test_kernel_of_zero_and_identity():
    z = Mat.zeros(F3, 3, 3)
    assert kernel_basis(z) == Subspace.full(F3, 3)
    assert kernel_basis(Mat.identity(F3, 3)) == Subspace.zero(F3, 3)


def test_kernel_of_singular_cyclotomic_matrix():
    q = F3.q
    m = Mat.from_rows(F3, [[F3.one, q], [q * q, F3.one]])
    ker = kernel_basis(m)
    assert ker.dim == 1
    v = dense_row(F3, ker.rows[0], m.cols)
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
            assert all(x.is_zero() for x in m.apply(dense_row(F3, row, 5)))


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


def test_trace_form_of_cyclotomic_field_is_nondegenerate():
    # Q(zeta_3) as a 2-dimensional algebra over Q with basis 1, z, where
    # z^2 = -1 - z: Tr(L_1) = 2, Tr(L_z) = -1, Tr(L_z^2) = -2 + 1 = -1
    one = F3.one
    table = {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one}, (1, 1): {0: -one, 1: -one}}
    form = trace_form(F3, [0, 1], lambda u, v: table[(u, v)])
    gram = Mat.from_rows(F3, [[form(i, j) for j in range(2)] for i in range(2)])
    assert gram[0, 0] == F3.from_int(2)
    assert gram[0, 1] == gram[1, 0] == -one
    assert gram[1, 1] == -one
    assert kernel_basis(gram).dim == 0


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
        assert image(m).contains([m[i, j] for i in range(m.rows)])


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
        img = t.apply(dense_row(F3, row, 3))
        coords = w.coords(img)
        back = [F3.zero] * 3
        for c, brow in zip(coords, w.rows):
            for j in range(3):
                back[j] = back[j] + c * brow.get(j, F3.zero)
        assert back == img
    assert r.rows == 2
    qop = quotient_operator(t, w)
    assert qop.rows == 1
    assert qop[0, 0] == q


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
    assert sb.to_subspace() == Subspace.from_vectors(F3, 6, vecs) == _ref_span(F3, vecs, 6)


# -- property tests ------------------------------------------------------------

FIELDS = {n: cyclo_field(n) for n in (3, 4, 5)}
# a scalar of Q(zeta_5) has four coordinates and costs about twice one of
# Q(zeta_3) or Q(zeta_4), so it is drawn half as often as each of them
FIELD_DRAWS = (3, 4, 3, 4, 5)
PROPS = settings(max_examples=60, deadline=None)


def _elements(F):
    """Small elements of F, zero about a third of the time."""
    coord = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    nonzero = st.lists(coord, min_size=F.phi, max_size=F.phi).map(F.element)
    return st.one_of(st.just(F.zero), nonzero)


@st.composite
def fields_and_matrices(draw, max_rows=5, max_cols=6):
    """A field of order 3, 4 or 5 and a matrix over it whose rank is often
    below both of its dimensions (a product through a thin middle)."""
    F = FIELDS[draw(st.sampled_from(FIELD_DRAWS))]
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    mid = draw(st.integers(1, max(rows, cols)))
    elts = _elements(F)
    a = Mat.from_rows(F, draw(st.lists(st.lists(elts, min_size=mid, max_size=mid),
                                       min_size=rows, max_size=rows)))
    b = Mat.from_rows(F, draw(st.lists(st.lists(elts, min_size=cols, max_size=cols),
                                       min_size=mid, max_size=mid)))
    return F, a * b


def dense(m):
    """The entries of m as dense rows, read through indexing."""
    return [[m[i, j] for j in range(m.cols)] for i in range(m.rows)]


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
        assert all(x.is_zero() for x in m.apply(dense_row(F, row, m.cols)))


@PROPS
@given(fields_and_matrices(), st.randoms(use_true_random=False))
def test_from_vectors_invariant_under_row_operations(fm, rng):
    F, m = fm
    vecs = dense(m)
    s1 = Subspace.from_vectors(F, m.cols, vecs)
    mixed = list(vecs)
    rng.shuffle(mixed)
    units = [F.q_pow(rng.randrange(F.n)) * rng.choice([1, -2, 3]) for _ in mixed]
    mixed = [[c * u for c in v] for v, u in zip(mixed, units)]
    for i in range(1, len(mixed)):
        mixed[i] = [x + F.q * y for x, y in zip(mixed[i], mixed[i - 1])]
    mixed.append(_combine(F, [F.one] * len(vecs), vecs, m.cols))
    assert Subspace.from_vectors(F, m.cols, mixed) == s1
    assert s1 == _ref_span(F, vecs, m.cols)


@PROPS
@given(fields_and_matrices(), st.randoms(use_true_random=False))
def test_span_builder_any_insertion_order(fm, rng):
    F, m = fm
    vecs = dense(m)
    batch = _ref_span(F, vecs, m.cols)
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
    span = Subspace.from_vectors(F, m.cols, dense(m))
    elts = _elements(F)
    coeffs = data.draw(st.lists(elts, min_size=m.rows, max_size=m.rows))
    inside = _combine(F, coeffs, dense(m), m.cols)
    coords = span.coords(inside)
    rows = [dense_row(F, r, m.cols) for r in span.rows]
    assert _combine(F, coords, rows, m.cols) == inside
    assert span.reduce(inside) == {}
    other = data.draw(st.lists(elts, min_size=m.cols, max_size=m.cols))
    contained = rank(Mat.from_rows(F, dense(m) + [other])) == span.dim
    assert (span.reduce(other) == {}) == contained
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
    aug = Mat.from_rows(F, [r + [bv] for r, bv in zip(dense(m), b)])
    x = solve(m, b)
    assert (x is None) == (rank(aug) > rank(m))
    if x is not None:
        assert m.apply(x) == b


@PROPS
@given(fields_and_matrices(max_rows=5, max_cols=5))
def test_invert_is_two_sided_inverse(fm):
    F, m = fm
    k = min(m.rows, m.cols)
    sq = Mat.from_rows(F, [r[:k] for r in dense(m)[:k]])
    if rank(sq) < sq.rows:
        with pytest.raises(ValueError):
            invert(sq)
        return
    inv = invert(sq)
    eye = Mat.identity(F, sq.rows)
    assert inv * sq == eye and sq * inv == eye


# -- the sparse rows of Mat against a dense reference ---------------------------


def _no_stored_zeros(m):
    """Every stored entry is a nonzero scalar inside the shape (equality and
    hashing of Mat depend on it)."""
    assert len(m.sparse_rows) == m.rows
    for row in m.sparse_rows:
        for j, v in row.items():
            assert 0 <= j < m.cols and not v.is_zero()


def _draw_matrix(data, F, rows, cols):
    elts = _elements(F)
    return data.draw(st.lists(st.lists(elts, min_size=cols, max_size=cols),
                              min_size=rows, max_size=rows))


def _dense_product(F, x, y, inner):
    return [
        [sum((x[i][k] * y[k][j] for k in range(inner)), F.zero) for j in range(len(y[0]))]
        for i in range(len(x))
    ]


def _dense_kron(x, y):
    return [
        [x[ia][ja] * y[ib][jb] for ja in range(len(x[0])) for jb in range(len(y[0]))]
        for ia in range(len(x))
        for ib in range(len(y))
    ]


@PROPS
@given(fields_and_matrices(), st.data())
def test_sparse_arithmetic_matches_dense(fm, data):
    F, m = fm
    r, c = m.rows, m.cols
    dm = dense(m)
    other = _draw_matrix(data, F, r, c)
    k = data.draw(st.integers(1, 4))
    right = _draw_matrix(data, F, c, k)
    om, rm = Mat.from_rows(F, other), Mat.from_rows(F, right)
    assert dense(om) == other and dense(rm) == right
    results = {
        "+": (m + om, [[x + y for x, y in zip(a, b)] for a, b in zip(dm, other)]),
        "-": (m - om, [[x - y for x, y in zip(a, b)] for a, b in zip(dm, other)]),
        "*": (m * rm, _dense_product(F, dm, right, c)),
        "transpose": (m.transpose(), [[dm[i][j] for i in range(r)] for j in range(c)]),
        "kronecker": (kronecker(m, rm), _dense_kron(dm, right)),
        "scale": (m.scale(F.q), [[x * F.q for x in a] for a in dm]),
    }
    for name, (got, ref) in results.items():
        _no_stored_zeros(got)
        assert (got.rows, got.cols) == (len(ref), len(ref[0])), name
        assert dense(got) == ref, name
    _no_stored_zeros(m.scale(F.zero))
    assert m.scale(F.zero) == Mat.zeros(F, r, c)
    vec = data.draw(st.lists(_elements(F), min_size=c, max_size=c))
    assert m.apply(vec) == [sum((x * v for x, v in zip(a, vec)), F.zero) for a in dm]
    assert m.trace() == sum((dm[i][i] for i in range(min(r, c))), F.zero)
    assert m.to_json() == {
        "rows": r, "cols": c, "entries": [[x.serialize() for x in a] for a in dm],
    }


@PROPS
@given(fields_and_matrices(), st.integers(1, 3))
def test_kronecker_with_an_identity_factor_given_by_size(fm, d):
    F, m = fm
    eye = Mat.identity(F, d)
    for got, ref in ((kronecker(d, m), kronecker(eye, m)), (kronecker(m, d), kronecker(m, eye))):
        _no_stored_zeros(got)
        assert got == ref and hash(got) == hash(ref)


@PROPS
@given(fields_and_matrices(), st.data())
def test_equality_and_hash_follow_the_entries(fm, data):
    F, m = fm
    same = Mat.from_rows(F, dense(m))
    assert same == m and hash(same) == hash(m)
    # a sum that cancels leaves no zero behind, so it equals the zero matrix
    diff = m - same
    _no_stored_zeros(diff)
    zero = Mat.zeros(F, m.rows, m.cols)
    assert diff == zero and hash(diff) == hash(zero) and diff.is_zero()
    assert m + zero == m
    i = data.draw(st.integers(0, m.rows - 1))
    j = data.draw(st.integers(0, m.cols - 1))
    bumped = dense(m)
    bumped[i][j] = bumped[i][j] + F.one
    assert Mat.from_rows(F, bumped) != m
    assert m != Mat.zeros(F, m.rows, m.cols + 1)


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
        rank_after = len(_dense_rref(prefix, AMBIENT)[1])
        grows = rank_after > rank_before
        rank_before = rank_after
        vec_before, row_before = dict(vec), list(row)
        assert sparse.insert(vec) == grows
        assert dense.insert(row) == grows
        # the caller's row is not modified
        assert vec == vec_before and row == row_before
    batch = _ref_span(F, prefix, AMBIENT)
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


# -- the sparse echelon rows of Subspace against dense references ---------------


def _dense_split(rows, pivots, vec):
    """Coordinates and residual of vec against dense reduced echelon rows:
    each row in turn is subtracted, scaled by vec's entry at its pivot."""
    v = list(vec)
    coords = []
    for row, p in zip(rows, pivots):
        f = v[p]
        coords.append(f)
        v = [x - f * y for x, y in zip(v, row)]
    return coords, v


@PROPS
@given(fields_and_matrices(), st.data())
def test_subspace_rows_are_the_sparse_rref(fm, data):
    F, m = fm
    vecs = dense(m)
    ref_rows, ref_pivots = _dense_rref(vecs, m.cols)
    rows, pivots = rref_rows(m.sparse_rows, F, m.cols)
    assert tuple(pivots) == tuple(ref_pivots)
    assert [dense_row(F, r, m.cols) for r in rows] == ref_rows
    for row in rows:
        assert all(0 <= j < m.cols and not c.is_zero() for j, c in row.items())
    # sparse and dense inputs mixed, built through SpanBuilder
    half = data.draw(st.integers(0, m.rows))
    span = Subspace.from_vectors(F, m.cols, m.sparse_rows[:half] + vecs[half:])
    assert span.pivots == tuple(ref_pivots)
    assert [dense_row(F, r, m.cols) for r in span.rows] == ref_rows
    for row in span.rows:
        assert all(0 <= j < m.cols and not c.is_zero() for j, c in row.items())
    same = Subspace.from_vectors(F, m.cols, vecs[::-1])
    assert same == span and hash(same) == hash(span)
    assert span.to_json()["basis"] == [[c.serialize() for c in r] for r in ref_rows]
    elts = _elements(F)
    coeffs = data.draw(st.lists(elts, min_size=m.rows, max_size=m.rows))
    other = data.draw(st.lists(elts, min_size=m.cols, max_size=m.cols))
    for vec in (_combine(F, coeffs, vecs, m.cols), other):
        coords, resid = _dense_split(ref_rows, ref_pivots, vec)
        got = span.reduce(vec)
        assert dense_row(F, got, m.cols) == resid
        assert all(not c.is_zero() for c in got.values())
        assert span.reduce({j: c for j, c in enumerate(vec) if not c.is_zero()}) == got
        comp = [j for j in range(m.cols) if j not in ref_pivots]
        assert span.quotient_coords(vec) == [resid[j] for j in comp]
        inside = all(c.is_zero() for c in resid)
        assert span.contains(vec) == inside
        if inside:
            assert span.coords(vec) == coords
        else:
            with pytest.raises(ValueError):
                span.coords(vec)
