import random

import pytest
from hypothesis import given, settings, strategies as st

from hopfring.cyclo import cyclo_field
from hopfring.fdalg import TableAlgebra, trace_form
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


# -- dense references: the library takes and returns sparse rows only ----------


def dense_row(F, row, n):
    """A sparse row (column -> scalar) as a dense list of length n."""
    return [row.get(j, F.zero) for j in range(n)]


def sparse_row(vec):
    """A dense list as a sparse row, with no stored zero."""
    return {j: c for j, c in enumerate(vec) if not c.is_zero()}


def mat_from_rows(F, data):
    """The matrix with the given dense rows."""
    cols = len(data[0]) if data else 0
    assert all(len(r) == cols for r in data)
    return Mat(F, len(data), cols, [sparse_row(r) for r in data])


def dense(m):
    """The entries of m as dense rows, read through indexing."""
    return [[m[i, j] for j in range(m.cols)] for i in range(m.rows)]


def apply(m, vec):
    """m times the dense column vector vec, as a dense list."""
    return [sum((x * v for x, v in zip(r, vec)), m.field.zero) for r in dense(m)]


def rand_mat(field, rows, cols, rng):
    return mat_from_rows(
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


def _dense_solve(F, m, b):
    """The solution of mx = b with the free variables at zero, by the
    reference elimination of the augmented rows; None when inconsistent."""
    rows, pivots = _dense_rref([r + [bv] for r, bv in zip(dense(m), b)], m.cols + 1)
    if pivots and pivots[-1] == m.cols:
        return None
    x = [F.zero] * m.cols
    for r, p in zip(rows, pivots):
        x[p] = r[m.cols]
    return x


def _ref_span(F, vectors, ncols):
    """The span of dense vectors as a Subspace on the reference echelon rows."""
    rows, pivots = _dense_rref(vectors, ncols)
    return Subspace(F, ncols, [sparse_row(r) for r in rows], pivots)


def _span(F, vectors, ncols):
    """The span of dense vectors by the library, through their sparse rows."""
    return Subspace.from_vectors(F, ncols, [sparse_row(v) for v in vectors])


def rank(m):
    """Rank of m by the reference elimination."""
    return len(_dense_rref(dense(m), m.cols)[1])


def test_kernel_of_zero_and_identity():
    z = Mat.zeros(F3, 3, 3)
    assert kernel_basis(z) == Subspace.full(F3, 3)
    assert kernel_basis(Mat.identity(F3, 3)) == Subspace.zero(F3, 3)


def test_kernel_of_singular_cyclotomic_matrix():
    q = F3.q
    m = mat_from_rows(F3, [[F3.one, q], [q * q, F3.one]])
    ker = kernel_basis(m)
    assert ker.dim == 1
    v = dense_row(F3, ker.rows[0], m.cols)
    assert all(c.is_zero() for c in apply(m, v))


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
            assert all(x.is_zero() for x in apply(m, dense_row(F3, row, 5)))


def _truncated_polynomials():
    """Q(zeta_3)[t] / (t^3) on the basis 1, t, t^2."""
    return TableAlgebra(F3, 3, lambda i, j: {i + j: F3.one} if i + j < 3 else {})


def test_dense_lists_are_rejected():
    # the sparse row is the only vector form: a dense list is a TypeError,
    # not a vector read some other way
    vec = [F3.zero, F3.q, F3.one]
    with pytest.raises(TypeError):
        SpanBuilder(F3, 3).insert(vec)
    with pytest.raises(TypeError):
        Subspace.from_vectors(F3, 3, [vec])
    alg = _truncated_polynomials()
    with pytest.raises(TypeError):
        alg.mul_vec(vec, {0: F3.one})
    with pytest.raises(TypeError):
        alg.mul_vec({0: F3.one}, vec)
    assert alg.mul_vec({1: F3.one}, {1: F3.q}) == {2: F3.q}
    assert alg.mul_vec({1: F3.one}, {2: F3.q}) == {}


def test_table_algebra_idempotents_and_orthogonality():
    # upper triangular 2 x 2 matrices on the basis e11, e12, e22
    one = F3.one
    table = {(0, 0): {0: one}, (0, 1): {1: one}, (1, 2): {1: one}, (2, 2): {2: one}}
    alg = TableAlgebra(F3, 3, lambda i, j: table.get((i, j), {}))
    e11, e12, e22 = {0: one}, {1: one}, {2: one}
    for e in (e11, e22, {0: one, 2: one}, {0: one, 1: F3.q}, {}):
        assert alg.is_idempotent(e)
    assert not alg.is_idempotent({0: F3.from_int(2)}) and not alg.is_idempotent(e12)
    assert alg.orthogonal(e11, e22) and alg.orthogonal(e12, e12)
    # e12 e11 = 0 but e11 e12 = e12
    assert not alg.is_commutative()
    assert not alg.orthogonal(e12, e11) and not alg.orthogonal(e11, e12)
    # the diagonal subalgebra commutes, so one product decides orthogonality
    diag = TableAlgebra(F3, 2, lambda i, j: {i: one} if i == j else {})
    assert diag.is_commutative()
    assert diag.orthogonal({0: one}, {1: one})
    assert not diag.orthogonal({0: one}, {0: one, 1: one})


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
    gram = mat_from_rows(F3, [[form(i, j) for j in range(2)] for i in range(2)])
    assert gram[0, 0] == F3.from_int(2)
    assert gram[0, 1] == gram[1, 0] == -one
    assert gram[1, 1] == -one
    assert kernel_basis(gram).dim == 0


def test_solve_particular_and_kernel():
    rng = random.Random(5)
    for _ in range(20):
        m = rand_mat(F3, 3, 4, rng)
        x0 = [F3.random(rng) for _ in range(4)]
        b = apply(m, x0)
        x = solve(m, sparse_row(b))
        assert x is not None
        x = dense_row(F3, x, 4)
        assert apply(m, x) == b
        # x0 - x lies in the kernel
        assert kernel_basis(m).contains(sparse_row([u - v for u, v in zip(x0, x)]))


def test_solve_inconsistent():
    m = Mat.zeros(F3, 2, 2)
    assert solve(m, {0: F3.one}) is None


def test_image_dimension():
    rng = random.Random(6)
    m = rand_mat(F3, 4, 3, rng)
    assert image(m).dim == rank(m)
    for j in range(3):
        assert image(m).contains(sparse_row([m[i, j] for i in range(m.rows)]))


def test_restriction_and_quotient_commute_with_inclusion():
    # T is block triangular, so span(e0, e1) is invariant
    q = F3.q
    t = mat_from_rows(
        F3,
        [
            [F3.one, q, q * q],
            [F3.zero, q, F3.one],
            [F3.zero, F3.zero, q],
        ],
    )
    w = _span(F3, [[F3.one, F3.zero, F3.zero], [F3.zero, F3.one, F3.zero]], 3)
    r = restrict_operator(t, w)
    for row in w.rows:
        img = apply(t, dense_row(F3, row, 3))
        coords = dense_row(F3, w.coords(sparse_row(img)), w.dim)
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
    t = mat_from_rows(F3, [[F3.zero, F3.one], [F3.one, F3.zero]])
    w = _span(F3, [[F3.one, F3.zero]], 2)
    with pytest.raises(ValueError):
        restrict_operator(t, w)


def test_subspace_canonical_under_shuffle():
    rng = random.Random(7)
    vecs = [[F3.random(rng) for _ in range(5)] for _ in range(3)]
    s1 = _span(F3, vecs, 5)
    shuffled = list(vecs)
    rng.shuffle(shuffled)
    mixed = [
        [a + b for a, b in zip(shuffled[0], shuffled[1])],
        shuffled[1],
        shuffled[2],
        [c * F3.q for c in shuffled[0]],
    ]
    s2 = _span(F3, mixed, 5)
    assert s1 == s2


def test_span_builder_matches_batch():
    rng = random.Random(8)
    vecs = [[F3.random(rng) for _ in range(6)] for _ in range(8)]
    sb = SpanBuilder(F3, 6)
    for v in vecs:
        sb.insert(sparse_row(v))
    assert sb.to_subspace() == _span(F3, vecs, 6) == _ref_span(F3, vecs, 6)


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
    a = mat_from_rows(F, draw(st.lists(st.lists(elts, min_size=mid, max_size=mid),
                                       min_size=rows, max_size=rows)))
    b = mat_from_rows(F, draw(st.lists(st.lists(elts, min_size=cols, max_size=cols),
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
        assert all(x.is_zero() for x in apply(m, dense_row(F, row, m.cols)))


@PROPS
@given(fields_and_matrices(), st.randoms(use_true_random=False))
def test_from_vectors_invariant_under_row_operations(fm, rng):
    F, m = fm
    vecs = dense(m)
    s1 = _span(F, vecs, m.cols)
    mixed = list(vecs)
    rng.shuffle(mixed)
    units = [F.q_pow(rng.randrange(F.n)) * rng.choice([1, -2, 3]) for _ in mixed]
    mixed = [[c * u for c in v] for v, u in zip(mixed, units)]
    for i in range(1, len(mixed)):
        mixed[i] = [x + F.q * y for x, y in zip(mixed[i], mixed[i - 1])]
    mixed.append(_combine(F, [F.one] * len(vecs), vecs, m.cols))
    assert _span(F, mixed, m.cols) == s1
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
    grew = [sb.insert(sparse_row(v)) for v in order]
    assert sum(grew) == batch.dim
    assert sb.to_subspace() == batch


@PROPS
@given(fields_and_matrices(), st.data())
def test_coords_rebuild_and_reduce_detects_membership(fm, data):
    F, m = fm
    span = _span(F, dense(m), m.cols)
    elts = _elements(F)
    coeffs = data.draw(st.lists(elts, min_size=m.rows, max_size=m.rows))
    inside = _combine(F, coeffs, dense(m), m.cols)
    coords = span.coords(sparse_row(inside))
    rows = [dense_row(F, r, m.cols) for r in span.rows]
    assert _combine(F, dense_row(F, coords, span.dim), rows, m.cols) == inside
    assert span.reduce(sparse_row(inside)) == {}
    other = data.draw(st.lists(elts, min_size=m.cols, max_size=m.cols))
    contained = rank(mat_from_rows(F, dense(m) + [other])) == span.dim
    assert (span.reduce(sparse_row(other)) == {}) == contained
    assert span.contains(sparse_row(other)) == contained
    if not contained:
        with pytest.raises(ValueError):
            span.coords(sparse_row(other))
    # coordinates, quotient coordinates and solutions against the dense
    # references, each a sparse row with no stored zero
    ref_rows, ref_pivots = _dense_rref(dense(m), m.cols)
    comp = [j for j in range(m.cols) if j not in ref_pivots]
    for vec in (inside, other):
        ref_coords, resid = _dense_split(ref_rows, ref_pivots, vec)
        quotient = span.quotient_coords(sparse_row(vec))
        assert quotient == sparse_row([resid[j] for j in comp])
        assert all(not c.is_zero() for c in quotient.values())
        if vec is inside:
            assert coords == sparse_row(ref_coords)
            assert all(not c.is_zero() for c in coords.values())
    x0 = data.draw(st.lists(elts, min_size=m.cols, max_size=m.cols))
    b_other = data.draw(st.lists(elts, min_size=m.rows, max_size=m.rows))
    for b in (apply(m, x0), b_other):
        x, ref = solve(m, sparse_row(b)), _dense_solve(F, m, b)
        assert (x is None) == (ref is None)
        if x is not None:
            assert x == sparse_row(ref)
            assert all(not c.is_zero() for c in x.values())


@PROPS
@given(fields_and_matrices(), st.data())
def test_solve_none_exactly_when_inconsistent(fm, data):
    F, m = fm
    b = data.draw(st.one_of(
        st.lists(_elements(F), min_size=m.rows, max_size=m.rows),
        st.lists(_elements(F), min_size=m.cols, max_size=m.cols).map(lambda x: apply(m, x)),
    ))
    aug = mat_from_rows(F, [r + [bv] for r, bv in zip(dense(m), b)])
    x = solve(m, sparse_row(b))
    assert (x is None) == (rank(aug) > rank(m))
    if x is not None:
        assert apply(m, dense_row(F, x, m.cols)) == b


@PROPS
@given(fields_and_matrices(max_rows=5, max_cols=5))
def test_invert_is_two_sided_inverse(fm):
    F, m = fm
    k = min(m.rows, m.cols)
    sq = mat_from_rows(F, [r[:k] for r in dense(m)[:k]])
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
    om, rm = mat_from_rows(F, other), mat_from_rows(F, right)
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
    column = m * mat_from_rows(F, [[v] for v in vec])
    _no_stored_zeros(column)
    assert [column[i, 0] for i in range(r)] == [
        sum((x * v for x, v in zip(a, vec)), F.zero) for a in dm
    ]
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
    same = mat_from_rows(F, dense(m))
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
    assert mat_from_rows(F, bumped) != m
    assert m != Mat.zeros(F, m.rows, m.cols + 1)


# -- the incremental span on sparse rows ------------------------------------------

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
    # the second builder takes each row through the dense reference and back
    sparse, roundtrip = SpanBuilder(F, AMBIENT), SpanBuilder(F, AMBIENT)
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
        assert roundtrip.insert(sparse_row(row)) == grows
        # the caller's row is not modified
        assert vec == vec_before and row == row_before
    batch = _ref_span(F, prefix, AMBIENT)
    for sb in (sparse, roundtrip):
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
    # the matrix's own rows and rows rebuilt from the dense reference, mixed
    half = data.draw(st.integers(0, m.rows))
    rebuilt = [sparse_row(v) for v in vecs[half:]]
    span = Subspace.from_vectors(F, m.cols, m.sparse_rows[:half] + rebuilt)
    assert span.pivots == tuple(ref_pivots)
    assert [dense_row(F, r, m.cols) for r in span.rows] == ref_rows
    for row in span.rows:
        assert all(0 <= j < m.cols and not c.is_zero() for j, c in row.items())
    same = _span(F, vecs[::-1], m.cols)
    assert same == span and hash(same) == hash(span)
    assert span.to_json()["basis"] == [[c.serialize() for c in r] for r in ref_rows]
    elts = _elements(F)
    coeffs = data.draw(st.lists(elts, min_size=m.rows, max_size=m.rows))
    other = data.draw(st.lists(elts, min_size=m.cols, max_size=m.cols))
    for vec in (_combine(F, coeffs, vecs, m.cols), other):
        coords, resid = _dense_split(ref_rows, ref_pivots, vec)
        sv = sparse_row(vec)
        got = span.reduce(sv)
        assert dense_row(F, got, m.cols) == resid
        assert all(not c.is_zero() for c in got.values())
        assert sv == sparse_row(vec)  # the caller's row is not modified
        comp = [j for j in range(m.cols) if j not in ref_pivots]
        assert span.quotient_coords(sv) == sparse_row([resid[j] for j in comp])
        inside = all(c.is_zero() for c in resid)
        assert span.contains(sv) == inside
        if inside:
            assert span.coords(sv) == sparse_row(coords)
        else:
            with pytest.raises(ValueError):
                span.coords(sv)
