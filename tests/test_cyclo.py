import random
from fractions import Fraction
from functools import partial
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hopfring import cyclo
from hopfring.cyclo import (
    RAT,
    CycloField,
    CycloNum,
    _poly_divmod,
    _sum_of_products,
    cyclo_field,
    q_factorial,
)
from hopfring.linalg import _add_scaled
from oracles import element, parse_element, random_element


@pytest.fixture(scope="module", params=[3, 4, 5])
def field(request):
    return cyclo_field(request.param)


def test_small_order_rejected():
    for bad in (0, 1, 2, -3):
        with pytest.raises(ValueError):
            cyclo_field(bad)


def test_primitive_root_orders(field):
    n = field.n
    q = field.q
    assert q ** n == field.one
    for k in range(1, n):
        assert q ** k != field.one


def test_phi3_vanishes():
    F = cyclo_field(3)
    q = F.q
    assert q * q + q + F.one == F.zero


def test_inverse_of_q_at_4():
    F = cyclo_field(4)
    assert F.q.inverse() == F.q ** 3


def test_as_int_only_for_rational_integers(field):
    assert field.from_int(-7).as_int() == -7
    assert field.zero.as_int() == 0
    assert field.from_rat(RAT(3, 2)).as_int() is None
    assert field.q.as_int() is None
    assert (field.q + field.from_int(2)).as_int() is None
    assert (field.q * field.q.inverse()).as_int() == 1


def test_inverse_of_zero_rejected(field):
    with pytest.raises(ZeroDivisionError):
        field.zero.inverse()


def test_field_axioms_randomized(field):
    rng = random.Random(20240 + field.n)
    one = field.one
    for _ in range(1000):
        a = random_element(field, rng)
        b = random_element(field, rng)
        c = random_element(field, rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if not a.is_zero():
            assert a * a.inverse() == one


def test_subtraction_and_negation(field):
    rng = random.Random(7)
    for _ in range(200):
        a = random_element(field, rng)
        b = random_element(field, rng)
        assert a - b == a + (-b)
        assert a - a == field.zero


def test_integer_powers(field):
    rng = random.Random(11)
    for _ in range(50):
        a = random_element(field, rng)
        if a.is_zero():
            continue
        assert a ** 3 == a * a * a
        assert a ** -2 == (a * a).inverse()
        assert a ** 0 == field.one


def test_q_factorial_base_cases(field):
    assert q_factorial(field, 0) == field.one


def test_q_factorial_examples_n3():
    F = cyclo_field(3)
    assert q_factorial(F, 2) == F.one + F.q
    with pytest.raises(ValueError):
        q_factorial(F, 3)
    with pytest.raises(ValueError):
        q_factorial(F, -1)


def test_q_factorial_vanishing_factor():
    # over Q(zeta_4) the j = 3 value is (1)(1+q)(1+q+q^2); none of the
    # factors vanish, while over Q(zeta_3) already 1+q+q^2 = 0
    F3 = cyclo_field(3)
    prod = F3.one
    for k in range(1, 4):
        s = F3.zero
        for m in range(k):
            s = s + F3.q_pow(m)
        prod = prod * s
    assert prod == F3.zero


def test_q_factorial_matches_product_oracle(field):
    # independent oracle: evaluate the defining product with raw powers
    for j in range(field.n):
        expect = field.one
        for k in range(1, j + 1):
            geo = field.zero
            for m in range(k):
                geo = geo + field.q ** m
            expect = expect * geo
        assert q_factorial(field, j) == expect


def test_serialize_parse_roundtrip(field):
    rng = random.Random(99)
    for _ in range(1000):
        a = random_element(field, rng)
        text = a.serialize()
        b = parse_element(field, text)
        assert b == a
        assert b.serialize() == text


def test_serialize_fixed_forms():
    F = cyclo_field(3)
    assert F.zero.serialize() == "0"
    assert F.one.serialize() == "1"
    assert F.q.serialize() == "z"
    assert (-F.q).serialize() == "-z"
    x = element(F, [RAT(1, 2), RAT(-3)])
    assert x.serialize() == "1/2 - 3*z"
    assert parse_element(F, "1/2 - 3*z") == x


def test_canonical_hash_equality(field):
    rng = random.Random(5)
    for _ in range(100):
        a = random_element(field, rng)
        b = parse_element(field, a.serialize())
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


# -- property tests ------------------------------------------------------------

FIELDS = {n: cyclo_field(n) for n in (3, 4, 5)}
COORD = st.fractions(min_value=-40, max_value=40, max_denominator=12)
PROPS = settings(max_examples=150, deadline=None)


def elements(F):
    return st.lists(COORD, min_size=F.phi, max_size=F.phi).map(partial(element, F))


def field_and(count):
    """A field of order 3, 4 or 5 and `count` of its elements."""
    return st.sampled_from(sorted(FIELDS)).flatmap(
        lambda n: st.tuples(st.just(FIELDS[n]), *[elements(FIELDS[n])] * count)
    )


def _fraction_product(F, a, b):
    """Reference product: Fraction polynomial product, reduced mod Phi_n."""
    prod = [Fraction(0)] * (2 * F.phi - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            prod[i + j] += x * y
    _, rem = _poly_divmod(prod, F.modulus)
    return element(F, rem)


def _assert_canonical(x):
    assert x.den > 0
    assert gcd(x.den, *x.nums) == 1
    assert x.is_zero() == (not any(x.nums))
    if x.is_zero():
        assert x.den == 1


@PROPS
@given(field_and(3))
def test_field_axioms_property(fabc):
    F, a, b, c = fabc
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a
    assert (a - b) + b == a
    assert a * b == _fraction_product(F, a, b)
    if not a.is_zero():
        assert a * a.inverse() == F.one
        assert (b / a) * a == b


@PROPS
@given(field_and(2), st.integers(-30, 30), st.fractions(max_denominator=20))
def test_results_canonical(fab, k, r):
    F, a, b = fab
    for x in (a, b, a + b, a - b, a - a, -a, a * b, a * k, k * a, a.scale(r)):
        _assert_canonical(x)
    assert a * k == a * F.from_int(k) == k * a
    assert a.scale(r) == a * F.from_rat(r)
    if not a.is_zero():
        _assert_canonical(a.inverse())


@PROPS
@given(field_and(1))
def test_serialize_parse_property(fa):
    F, a = fa
    text = a.serialize()
    assert parse_element(F, text) == a
    assert parse_element(F, text).serialize() == text


@PROPS
@given(field_and(2))
def test_hash_is_fraction_tuple_hash(fab):
    F, a, b = fab
    for x in (a, a * b, a + b, F.q_pow(2) * a):
        coords = tuple(Fraction(c, x.den) for c in x.nums)
        assert x.coeffs == coords
        assert hash(x) == hash(coords)
        assert element(F, coords) == x


# -- the integer-only inverse --------------------------------------------------

# phi = 2, 6, 4, 6, 4; the Galois groups at 8 and 12 are not cyclic
WIDE_FIELDS = {n: cyclo_field(n) for n in (6, 7, 8, 9, 12)}


def nonzero_element():
    return st.sampled_from(sorted(WIDE_FIELDS)).flatmap(
        lambda n: elements(WIDE_FIELDS[n]).filter(lambda x: not x.is_zero())
    )


@PROPS
@given(nonzero_element())
def test_inverse_property_wider_orders(a):
    inv = a.inverse()
    assert a * inv == a.field.one
    _assert_canonical(inv)
    assert inv.inverse() == a


@pytest.mark.parametrize("n", [5, 8, 12])
def test_inverse_with_a_missing_conjugate_raises(n):
    # without one automorphism sigma the product is N(x) / sigma(x), which is
    # rational only when x is: every irrational x must be refused
    for drop in range(cyclo_field(n).phi - 1):
        F = cyclo_field(n)
        assert len(F._conj) == F.phi - 1
        del F._conj[drop]
        for x in (F.q, F.q + F.from_int(2), element(F, [RAT(1, 3), 2, -1, 5][: F.phi])):
            with pytest.raises(ArithmeticError):
                x.inverse()


def test_inverse_with_a_negated_conjugate_raises():
    # the product then is -N(x): rational, but not the positive norm
    F = cyclo_field(3)
    F._conj[0] = tuple(tuple(-v for v in col) for col in F._conj[0])
    for x in (F.q, F.from_int(2), F.q + F.from_rat(RAT(1, 2))):
        with pytest.raises(ArithmeticError):
            x.inverse()


def test_inverse_uses_no_fractions(monkeypatch):
    values = []
    for n in (3, 5, 8, 12):
        F = cyclo_field(n)
        values += [F.q, F.q + F.from_rat(RAT(-5, 3)), random_element(F, random.Random(n))]

    def refuse(*args, **kwargs):
        raise AssertionError("Fraction arithmetic in CycloNum.inverse")

    monkeypatch.setattr(cyclo, "Fraction", refuse)
    monkeypatch.setattr(cyclo, "_poly_divmod", refuse)
    inverses = [x.inverse() for x in values]
    monkeypatch.undo()
    for x, inv in zip(values, inverses):
        assert x * inv == x.field.one


# -- the root table ------------------------------------------------------------

ROOT_FIELDS = {n: cyclo_field(n) for n in (3, 4, 5, 6, 7, 8, 9, 12)}


def _plain(x):
    """A copy of x off the root table, so its products take the general path
    (only a test builds such a copy: the field never hands one out)."""
    return CycloNum(x.field, x.nums, x.den)


def _signed_power(F, r):
    """(-1)^(r // n) * z^(r % n) by Fraction division by Phi_n (no table)."""
    n = F.n
    _, rem = _poly_divmod([RAT(0)] * (r % n) + [RAT(1)], F.modulus)
    x = element(F, rem)
    return -x if r >= n else x


# the values +-q^k of each order as (nums, den), computed without the table
ROOT_VALUES = {
    n: {(v.nums, v.den) for v in (_signed_power(F, r) for r in range(2 * n))}
    for n, F in ROOT_FIELDS.items()
}


def _assert_value_rule(x):
    """x is its field's table object exactly when its value is +-q^k."""
    F = x.field
    if (x.nums, x.den) in ROOT_VALUES[F.n]:
        assert x._root is not None and x is F._roots[x._root]
    else:
        assert x._root is None


def roots_and_element():
    """A field of order in ROOT_FIELDS, two table roots and one element."""

    def draw(n):
        F = ROOT_FIELDS[n]
        root = st.integers(0, 2 * n - 1).map(lambda r: F._roots[r])
        return st.tuples(root, root, elements(F))

    return st.sampled_from(sorted(ROOT_FIELDS)).flatmap(draw)


@PROPS
@given(roots_and_element())
def test_root_products_match_general_multiply(rsx):
    r, s, x = rsx
    F = x.field
    assert r == _signed_power(F, r._root)
    cases = (
        (r * x, _plain(r) * x),
        (x * r, x * _plain(r)),
        (r * s, _plain(r) * _plain(s)),
        (-r, -_plain(r)),
    )
    for got, want in cases:
        assert (got.nums, got.den) == (want.nums, want.den)
        _assert_canonical(got)
    assert r * x == _fraction_product(F, r, x)
    # root times root and the negated root stay on the table
    for y in (r * s, -r):
        assert y._root is not None and y is F._roots[y._root]
    if not x.is_zero():
        # the roots form a group: r * x is a root exactly when x is one
        assert ((r * x)._root is None) == (x._root is None) and (x * r).den == x.den


@PROPS
@given(
    st.sampled_from([4, 6, 8, 12]).flatmap(
        lambda n: st.tuples(st.integers(0, n - 1), elements(ROOT_FIELDS[n]))
    )
)
def test_even_order_alias(kx):
    # -q^k = q^(k + n/2) for even n: two table indices, one object
    k, x = kx
    F = x.field
    neg, alias = -F.q_pow(k), F.q_pow(k + F.n // 2)
    assert neg is alias and F._roots[F.n + k] is alias
    assert neg * x == alias * x == _plain(alias) * x
    assert neg * F.q == alias * F.q
    assert neg.serialize() == alias.serialize()


def _wrong_red(red):
    """The reduction table with its last row's first entry off by one."""
    return red[:-1] + [(red[-1][0] + 1,) + red[-1][1:]]


def _corrupt_intern_map(F, part):
    if part == "intern-key":
        F._root_of[F._roots[1].nums] = F._roots[2]  # q's key bound to the q^2 object
    else:
        del F._root_of[F._roots[F.n].nums]  # -1 missing from the map


@pytest.mark.parametrize("n", [3, 4, 5, 12])
@pytest.mark.parametrize(
    "part", ["column", "product", "negation", "value", "intern-key", "intern-missing"]
)
def test_root_table_check_catches_corruption(n, part):
    F = cyclo_field(n)
    F._check_roots()
    if part == "column":
        # the product code behind root * z^i, generated from a wrong table
        F._kernel = cyclo._product_kernel(_wrong_red(F._red))
    elif part == "product":
        F._root_prod[2][n - 1] = F._roots[0]  # q^2 * q^(n-1) read as 1
    elif part == "negation":
        F._root_prod[n + 1][n] = F._roots[n + 1]  # -(-q) read as -q
    elif part == "value":
        F._roots[3] = CycloNum(F, F._roots[2].nums, 1)
    else:
        _corrupt_intern_map(F, part)
    with pytest.raises(ArithmeticError):
        F._check_roots()


def test_field_construction_runs_the_root_check(monkeypatch):
    generate = cyclo._product_kernel
    monkeypatch.setattr(cyclo, "_product_kernel", lambda red: generate(_wrong_red(red)))
    for n in (3, 5, 12):
        # the wrong last row is x^(2 phi - 2) = z^(phi-1) * z^(phi-1)
        top = cyclo.euler_phi(n) - 1
        with pytest.raises(ArithmeticError, match=r"wrong on z\^%d \* z\^%d$" % (top, top)):
            cyclo_field(n)
    monkeypatch.undo()
    build = CycloField._build_roots

    def corrupt(self):
        build(self)
        self._root_prod[self.n][1] = self._roots[1]  # -1 * q read as q

    monkeypatch.setattr(CycloField, "_build_roots", corrupt)
    for n in (3, 5, 12):
        with pytest.raises(ArithmeticError, match="root table product"):
            cyclo_field(n)
    for part in ("intern-key", "intern-missing"):

        def corrupt_map(self, part=part):
            build(self)
            _corrupt_intern_map(self, part)

        monkeypatch.setattr(CycloField, "_build_roots", corrupt_map)
        for n in (3, 4, 5, 12):
            with pytest.raises(ArithmeticError, match="root intern map"):
                cyclo_field(n)


def factors(F):
    """A plain element of F or one of its table roots."""
    return st.one_of(elements(F), st.integers(0, 2 * F.n - 1).map(lambda r: F._roots[r]))


@PROPS
@given(
    st.sampled_from(sorted(ROOT_FIELDS)).flatmap(
        lambda n: st.tuples(factors(ROOT_FIELDS[n]), factors(ROOT_FIELDS[n]))
    )
)
def test_product_code_matches_fraction_product(xy):
    x, y = xy
    F = x.field
    got = x * y
    assert got == _fraction_product(F, x, y)
    _assert_canonical(got)
    for root, other in ((x, y), (y, x)):
        if root._root is not None and other._root is None and not other.is_zero():
            assert got.den == other.den and got._root is None


def test_flagged_memo_coefficients_are_table_roots():
    from hopfring.algebra import AlgebraSpec, build_algebra
    from hopfring.repn import module_catalog

    H = build_algebra(AlgebraSpec("tensor_taft", 5))
    for u in H.basis[::13]:
        for v in H.basis[::17]:
            H.mono_mul(u, v)
    H1 = build_algebra(AlgebraSpec("hpq", 3, 1))
    module_catalog(H1)
    for A in (H, H1):
        F = A.field
        # the basis-pair products and the letter powers they are built from
        for memo in (A._pair_memo, A._pow_memo):
            coeffs = [c for terms in memo.values() for c in terms.values()]
            for c in coeffs:
                _assert_value_rule(c)
                if c._root is not None:
                    assert c == _signed_power(F, c._root)
            flagged = [c for c in coeffs if c._root is not None]
            # every structure constant met here is +-q^k, so every one is
            # flagged, on the deformed family too (sums there reach roots)
            assert len(flagged) == len(coeffs) > (625 if A is H else 0)


# -- the value rule: one object per root value ---------------------------------


def value_rule_case():
    """A field of order in ROOT_FIELDS, an element or root x, a table root r,
    a small integer and a nonzero fraction."""

    def draw(n):
        F = ROOT_FIELDS[n]
        root = st.integers(0, 2 * n - 1).map(lambda r: F._roots[r])
        c = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
        return st.tuples(factors(F), root, st.integers(-3, 3), c)

    return st.sampled_from(sorted(ROOT_FIELDS)).flatmap(draw)


@PROPS
@given(value_rule_case())
def test_every_root_value_is_its_table_object(case):
    x, r, k, c = case
    F = x.field
    y = r - x
    results = [x, y, x + y, r - y, y - r, x - x, -x, -y, x * y, y * y, x * k, k * y]
    results += [y.scale(c), r.scale(c), r.scale(c).scale(1 / c), (r * k).scale(RAT(1, k or 1))]
    results += [F.from_int(k), parse_element(F, x.serialize())]
    results += [parse_element(F, y.serialize()), parse_element(F, str(r))]
    for z in (x, y, r):
        if not z.is_zero():
            results += [z.inverse(), (r * z) * z.inverse(), z.inverse() * (z * r)]
    for z in results:
        _assert_value_rule(z)
    assert x + y is r
    if not x.is_zero():
        assert (r * x) * x.inverse() is r


def test_module_action_entries_follow_the_value_rule():
    # every action entry equal to +-q^k, however it was computed (sums,
    # elimination, spinning, tensoring), is the table object
    from hopfring.algebra import AlgebraSpec, build_algebra
    from hopfring.repn import module_catalog, tensor_module

    mods = []
    for spec in (AlgebraSpec("tensor_taft", 3), AlgebraSpec("hpq", 3, 1)):
        cat = module_catalog(build_algebra(spec))
        mods += list(cat.simples.values()) + list(cat.pims.values())
    hpq_pims = list(cat.pims.values())
    mods.append(tensor_module(hpq_pims[0], hpq_pims[-1]))  # one P (x) P
    entries = [
        c for M in mods for mat in M.acts.values() for row in mat.sparse_rows for c in row.values()
    ]
    for c in entries:
        _assert_value_rule(c)
    assert sum(c._root is not None for c in entries) > len(entries) // 2


# -- the fused multiply-accumulate ---------------------------------------------

SUM_FIELDS = (3, 4, 5, 7)  # phi = 2, 2, 4, 6


def fused_sum_case():
    """Terms (a, b, row) for ``_sum_of_products`` over a field of order in
    SUM_FIELDS, each with how it is extended: "cancel" adds the term again
    with -a, "to-root" adds a term that completes a fresh entry to the
    table root drawn with it.  Factors mix plain elements over several
    denominators with table roots; b is sometimes None (one)."""

    def draw(n):
        F = ROOT_FIELDS[n]
        nonzero = factors(F).filter(bool)
        row = st.dictionaries(st.integers(0, 4), nonzero, min_size=1, max_size=4)
        term = st.tuples(nonzero, st.one_of(st.none(), nonzero), row)
        extend = st.sampled_from(["none", "cancel", "to-root"])
        root = st.integers(0, 2 * n - 1).map(lambda r: F._roots[r])
        return st.lists(st.tuples(term, extend, root), min_size=1, max_size=6)

    return st.sampled_from(SUM_FIELDS).flatmap(draw)


@PROPS
@given(fused_sum_case())
def test_fused_sum_matches_the_per_term_route(case):
    F = case[0][2].field
    terms = []
    for i, ((a, b, row), extend, r) in enumerate(case):
        terms.append((a, b, row))
        if extend == "cancel":
            terms.append((-a, b, row))
        elif extend == "to-root":
            ab = a if b is None else a * b
            key = ("root", i)
            v = next(iter(row.values()))
            terms.append((a, b, {key: v}))
            rest = r - ab * v
            if rest:
                terms.append((rest, None, {key: F.one}))
    rows = [dict(row) for _, _, row in terms]
    want = {}
    for a, b, row in terms:
        _add_scaled(want, a if b is None else a * b, row)
    got = _sum_of_products(F, iter(terms))
    assert got == want
    for out in (got, want):
        for x in out.values():
            assert not x.is_zero()
            _assert_canonical(x)
            _assert_value_rule(x)
            if x._root is not None:
                k = x._root % F.n
                assert x is F.q_pow(k) or x is -F.q_pow(k)
    for i, (_, extend, r) in enumerate(case):
        if extend == "to-root":
            assert got[("root", i)] is r
    # the rows are read, not changed
    assert [row for _, _, row in terms] == rows


def test_cyclonums_are_built_only_in_cyclo():
    # every other module gets its scalars from the field, which keeps the rule
    src = Path(cyclo.__file__).parent
    builders = [p.name for p in sorted(src.glob("*.py")) if "CycloNum(" in p.read_text()]
    assert builders == ["cyclo.py"]
