import random

import pytest
from hypothesis import given, settings, strategies as st

from hopfring import algebra
from hopfring.algebra import (
    AlgebraError,
    AlgebraSpec,
    _merge,
    _ratio,
    build_algebra,
)
from hopfring.cyclo import cyclo_field
from hopfring.linalg import Mat, _add_scaled


def get(family, n, p=None):
    return build_algebra(AlgebraSpec(family, n, p))


def test_spec_validation():
    with pytest.raises(AlgebraError):
        AlgebraSpec("nope", 3)
    with pytest.raises(AlgebraError):
        AlgebraSpec("taft", 2)
    with pytest.raises(AlgebraError):
        AlgebraSpec("hpq", 3)  # missing p
    with pytest.raises(AlgebraError):
        AlgebraSpec("taft", 3, p=1)


def test_dimensions():
    assert get("taft", 3).dim == 9
    assert get("taft_opp", 3).dim == 9
    assert get("tensor_taft", 3).dim == 81
    assert get("hpq", 3, 1).dim == 81


def test_unit_element():
    H = get("tensor_taft", 3)
    rng = random.Random(0)
    for _ in range(20):
        m = H.basis[rng.randrange(H.dim)]
        u = H.monomial(m)
        assert H.mul(H.one, u) == u
        assert H.mul(u, H.one) == u


def test_tensor_taft_da_commutes():
    H = get("tensor_taft", 3)
    d, a = H.gen("d"), H.gen("a")
    assert d * a == H.monomial((1, 0, 0, 1))


def test_hpq_deformed_relation():
    H = get("hpq", 3, 1)
    d, a = H.gen("d"), H.gen("a")
    q = H.field.q
    expect = H.monomial((1, 0, 0, 1), q) + H.one - H.monomial((0, 1, 1, 0))
    assert d * a == expect


def test_hpq_p0_da():
    H = get("hpq", 3, 0)
    d, a = H.gen("d"), H.gen("a")
    assert d * a == H.monomial((1, 0, 0, 1), H.field.q)


def _oracle_tensor_taft(H, u, v):
    n = H.n
    i1, j1, l1, k1 = u
    i2, j2, l2, k2 = v
    if i1 + i2 >= n or k1 + k2 >= n:
        return {}
    mono = (i1 + i2, (j1 + j2) % n, (l1 + l2) % n, k1 + k2)
    return {mono: H.field.q_pow(j1 * i2 + k1 * l2)}


def _oracle_hpq0(H, u, v):
    n = H.n
    i1, j1, l1, k1 = u
    i2, j2, l2, k2 = v
    if i1 + i2 >= n or k1 + k2 >= n:
        return {}
    mono = (i1 + i2, (j1 + j2) % n, (l1 + l2) % n, k1 + k2)
    return {mono: H.field.q_pow((j1 + l1 + k1) * i2 + k1 * (j2 + l2))}


def _oracle_taft(H, u, v, sign):
    n = H.n
    i1, j1 = u
    i2, j2 = v
    if j1 + j2 >= n:
        return {}
    return {((i1 + i2) % n, j1 + j2): H.field.q_pow(sign * j1 * i2)}


@pytest.mark.parametrize("n", [3, 4])
def test_products_against_closed_forms(n):
    rng = random.Random(100 + n)
    HT = get("tensor_taft", n)
    H0 = get("hpq", n, 0)
    for _ in range(200):
        u = HT.basis[rng.randrange(HT.dim)]
        v = HT.basis[rng.randrange(HT.dim)]
        assert HT.mono_mul(u, v) == _oracle_tensor_taft(HT, u, v)
        assert H0.mono_mul(u, v) == _oracle_hpq0(H0, u, v)
    T = get("taft", n)
    Topp = get("taft_opp", n)
    for _ in range(200):
        u = T.basis[rng.randrange(T.dim)]
        v = T.basis[rng.randrange(T.dim)]
        assert T.mono_mul(u, v) == _oracle_taft(T, u, v, 1)
        assert Topp.mono_mul(u, v) == _oracle_taft(Topp, u, v, -1)


def test_hpq1_products_preserve_grading():
    H = get("hpq", 3, 1)
    rng = random.Random(7)
    for _ in range(100):
        u = H.basis[rng.randrange(H.dim)]
        v = H.basis[rng.randrange(H.dim)]
        gu, gv = H.conj_grade(u), H.conj_grade(v)
        expect = ((gu[0] + gv[0]) % 3, (gu[1] + gv[1]) % 3)
        for m in H.mono_mul(u, v):
            assert H.conj_grade(m) == expect


def test_generator_nilpotency_and_order():
    for fam, p in (("tensor_taft", None), ("hpq", 1)):
        H = get(fam, 3, p)
        a = H.gen("a")
        pw = H.one
        for _ in range(2):
            pw = pw * a
        assert not pw.is_zero()
        assert (pw * a).is_zero()
        B = H.left_mult_matrix("b")
        assert B * B * B == Mat.identity(H.field, H.dim)
        assert B != Mat.identity(H.field, H.dim)


def test_group_idempotents_orthogonal_complete():
    for fam, p in (("tensor_taft", None), ("hpq", 0), ("hpq", 1)):
        H = get(fam, 3, p)
        es = H.group_idempotents()
        total = H.zero_elt
        for key, e in es.items():
            total = total + e
            assert e * e == e
        assert total == H.one
        e00 = es[(0, 0)]
        e10 = es[(1, 0)]
        assert (e00 * e10).is_zero()


def test_idempotent_commutation_with_a():
    # moving a past e(i,j) shifts the index by the family's weight shift
    HT = get("tensor_taft", 3)
    H0 = get("hpq", 3, 0)
    assert HT.weight_shift("a") == (1, 0) and H0.weight_shift("a") == (1, 1)
    assert HT.weight_shift("d") == (0, 2) and H0.weight_shift("d") == (2, 2)
    for H in (HT, H0):
        es = H.group_idempotents()
        a = H.gen("a")
        d = H.gen("d")
        sa = H.weight_shift("a")
        sd = H.weight_shift("d")
        for i in range(3):
            for j in range(3):
                assert a * es[(i, j)] == es[((i + sa[0]) % 3, (j + sa[1]) % 3)] * a
                assert d * es[(i, j)] == es[((i + sd[0]) % 3, (j + sd[1]) % 3)] * d


def test_idempotent_eigenvalues():
    H = get("hpq", 3, 0)
    es = H.group_idempotents()
    b, c = H.gen("b"), H.gen("c")
    for (i, j), e in es.items():
        assert b * e == e.scale(H.field.q_pow(i))
        assert c * e == e.scale(H.field.q_pow(j))


def test_serialize_readable():
    H = get("tensor_taft", 3)
    x = H.monomial((1, 0, 0, 1)) + H.monomial((0, 2, 0, 0), H.field.q)
    s = x.serialize()
    assert "ad" in s and "b^2" in s


@pytest.mark.parametrize(
    "family, p, basic, deformed",
    [
        ("taft", None, False, False),
        ("taft_opp", None, False, False),
        ("tensor_taft", None, True, False),
        ("hpq", 0, True, False),
        ("hpq", 1, False, True),
        ("hpq", 2, False, True),
    ],
)
def test_family_flags(family, p, basic, deformed):
    H = get(family, 3, p)
    assert H.basic is basic
    assert H.deformed is deformed


def test_ratio():
    H = get("hpq", 3, 1)
    q = H.field.q
    y = H.gen("a") * H.gen("d") + H.monomial((0, 1, 2, 0), q)
    assert _ratio(y.scale(q), y) == q
    assert _ratio(y, y) == H.field.one
    # proportional on y's first monomial, but not on the second
    x = H.gen("a") * H.gen("d") + H.monomial((0, 1, 2, 0))
    assert _ratio(x, y) is None
    assert _ratio(H.gen("b"), y) is None
    assert _ratio(H.zero_elt, y) is None
    assert _ratio(y, H.zero_elt) is None
    assert _ratio(H.zero_elt, H.zero_elt) is None


# -- sparse merge helpers against a dense reference ------------------------------

F3 = cyclo_field(3)
KEYS = 3
_coord = st.fractions(min_value=-3, max_value=3, max_denominator=2)
_elts = st.lists(_coord, min_size=F3.phi, max_size=F3.phi).map(F3.element)
# the sixth roots of unity are closed under products, so sums cancel often
_units = st.sampled_from([F3.q_pow(i) for i in range(3)] + [-F3.q_pow(i) for i in range(3)])
_nonzero = st.one_of(_units, _units, _elts.filter(lambda c: not c.is_zero()))
_sparse = st.dictionaries(st.integers(0, KEYS - 1), _nonzero, max_size=KEYS)


def _dense(d):
    v = [F3.zero] * KEYS
    for k, c in d.items():
        v[k] = v[k] + c
    return v


def _check_sparse(out, dense):
    assert all(not c.is_zero() for c in out.values())
    assert out == {k: c for k, c in enumerate(dense) if not c.is_zero()}


@settings(max_examples=80, deadline=None)
@given(_sparse, st.lists(st.tuples(st.integers(0, KEYS - 1), _nonzero), max_size=12))
def test_merge_matches_dense(start, updates):
    out = dict(start)
    dense = _dense(start)
    for k, c in updates:
        _merge(out, k, c)
        dense[k] = dense[k] + c
    _check_sparse(out, dense)
    for k, c in list(out.items()):
        _merge(out, k, -c)
    assert out == {}


@settings(max_examples=80, deadline=None)
@given(_sparse, st.lists(st.tuples(_nonzero, _sparse), max_size=6))
def test_add_scaled_matches_dense(start, updates):
    out = dict(start)
    dense = _dense(start)
    for c, terms in updates:
        _add_scaled(out, c, terms)
        dense = [a + c * b for a, b in zip(dense, _dense(terms))]
    _check_sparse(out, dense)
    _add_scaled(out, -F3.one, dict(out))
    assert out == {}


def test_build_cache_keys_on_spec_only(monkeypatch):
    # the construction check is exact, so the sample depth and seed that
    # perfbench and tensor_iso_check still pass change nothing
    builds = []
    real = algebra.Algebra._self_check

    def recording(self):
        builds.append(self.spec.key())
        return real(self)

    monkeypatch.setattr(algebra, "_CACHE", {})
    monkeypatch.setattr(algebra.Algebra, "_self_check", recording)
    spec = AlgebraSpec("tensor_taft", 3)
    first = build_algebra(spec, assoc_sample=200, seed=1)
    assert build_algebra(spec) is first
    assert build_algebra(AlgebraSpec("tensor_taft", 3), 500, 0) is first
    assert builds == [spec.key()]


# -- negative controls: one corrupted rewrite entry must fail the build ----------


@pytest.mark.parametrize(
    "family, n, p, t, mono",
    [
        ("tensor_taft", 5, None, 1, (3, 2, 0, 3)),  # L_b
        ("tensor_taft", 3, None, 1, (2, 1, 0, 2)),  # L_b
        ("hpq", 4, 1, 3, (1, 0, 0, 0)),  # L_d across the deformed d a rule
    ],
)
def test_corrupted_rewrite_fails_build(monkeypatch, family, n, p, t, mono):
    spec = AlgebraSpec(family, n, p)
    relations = {name for name, _ in algebra.defining_relations(build_algebra(spec))}
    real = algebra.Algebra._lmul_gen

    def corrupted(self, t2, mono2):
        out = real(self, t2, mono2)
        if (t2, mono2) == (t, mono):
            out = {m: c * self.field.q for m, c in out.items()}
        return out

    monkeypatch.setattr(algebra.Algebra, "_lmul_gen", corrupted)
    with pytest.raises(AlgebraError, match="violate relations: ") as err:
        algebra.Algebra(spec)
    named = str(err.value).split("violate relations: ")[1].split(", ")
    assert named and set(named) <= relations
