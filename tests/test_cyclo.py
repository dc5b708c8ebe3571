import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from hopfring import cyclo
from hopfring.cyclo import RAT, CycloField, CycloNum, _poly_divmod, cyclo_field, q_factorial
from hopfring.linalg import _size


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
        a = field.random(rng)
        b = field.random(rng)
        c = field.random(rng)
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
        a = field.random(rng)
        b = field.random(rng)
        assert a - b == a + (-b)
        assert a - a == field.zero


def test_integer_powers(field):
    rng = random.Random(11)
    for _ in range(50):
        a = field.random(rng)
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
        a = field.random(rng)
        text = a.serialize()
        b = field.parse(text)
        assert b == a
        assert b.serialize() == text


def test_serialize_fixed_forms():
    F = cyclo_field(3)
    assert F.zero.serialize() == "0"
    assert F.one.serialize() == "1"
    assert F.q.serialize() == "z"
    assert (-F.q).serialize() == "-z"
    x = F.element([RAT(1, 2), RAT(-3)])
    assert x.serialize() == "1/2 - 3*z"
    assert F.parse("1/2 - 3*z") == x


def test_canonical_hash_equality(field):
    rng = random.Random(5)
    for _ in range(100):
        a = field.random(rng)
        b = field.parse(a.serialize())
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


# -- property tests ------------------------------------------------------------

FIELDS = {n: cyclo_field(n) for n in (3, 4, 5)}
COORD = st.fractions(min_value=-40, max_value=40, max_denominator=12)
PROPS = settings(max_examples=150, deadline=None)


def elements(F):
    return st.lists(COORD, min_size=F.phi, max_size=F.phi).map(F.element)


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
    return F.element(rem)


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
    assert F.parse(text) == a
    assert F.parse(text).serialize() == text


@PROPS
@given(field_and(2))
def test_hash_is_fraction_tuple_hash(fab):
    F, a, b = fab
    for x in (a, a * b, a + b, F.q_pow(2) * a):
        coords = tuple(Fraction(c, x.den) for c in x.nums)
        assert x.coeffs == coords
        assert hash(x) == hash(coords)
        assert F.element(coords) == x


def _size_by_fractions(x):
    return sum(
        c.numerator.bit_length() + c.denominator.bit_length() for c in x.coeffs if c
    )


@PROPS
@given(field_and(2))
def test_pivot_size_matches_fraction_definition(fab):
    F, a, b = fab
    for x in (a, a * b, a - b, F.q_pow(1) + F.one, F.zero):
        assert _size(x) == _size_by_fractions(x)


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
        for x in (F.q, F.q + F.from_int(2), F.element([RAT(1, 3), 2, -1, 5][: F.phi])):
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
        values += [F.q, F.q + F.from_rat(RAT(-5, 3)), F.random(random.Random(n))]

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
    """A copy of x off the root table, so its products take the general path."""
    return CycloNum(x.field, x.nums, x.den)


def _signed_power(F, r):
    """(-1)^(r // n) * z^(r % n) by Fraction division by Phi_n (no table)."""
    n = F.n
    _, rem = _poly_divmod([RAT(0)] * (r % n) + [RAT(1)], F.modulus)
    x = F.element(rem)
    return -x if r >= n else x


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
        assert (r * x)._root is None and (x * r).den == x.den


@PROPS
@given(
    st.sampled_from([4, 6, 8, 12]).flatmap(
        lambda n: st.tuples(st.integers(0, n - 1), elements(ROOT_FIELDS[n]))
    )
)
def test_even_order_alias(kx):
    # -q^k = q^(k + n/2) for even n: two table entries, one value
    k, x = kx
    F = x.field
    neg, alias = -F.q_pow(k), F.q_pow(k + F.n // 2)
    assert neg == alias and hash(neg) == hash(alias) and len({neg, alias}) == 1
    assert neg * x == alias * x == _plain(alias) * x
    assert neg * F.q == alias * F.q
    assert neg.serialize() == alias.serialize()


@pytest.mark.parametrize("n", [3, 5, 12])
@pytest.mark.parametrize("part", ["column", "product", "negation", "value"])
def test_root_table_check_catches_corruption(n, part):
    F = cyclo_field(n)
    F._check_roots()
    if part == "column":
        F._root_cols[1][0] = ((0, 1),)  # q * 1 read as 1
    elif part == "product":
        F._root_prod[2][n - 1] = F._roots[0]  # q^2 * q^(n-1) read as 1
    elif part == "negation":
        F._root_prod[n + 1][n] = F._roots[n + 1]  # -(-q) read as -q
    else:
        F._roots[3] = CycloNum(F, F._roots[2].nums, 1)
    with pytest.raises(ArithmeticError):
        F._check_roots()


def test_field_construction_runs_the_root_check(monkeypatch):
    build = CycloField._build_roots

    def corrupt(self):
        build(self)
        self._root_cols[self.n][1] = self._root_cols[0][1]  # -z read as z

    monkeypatch.setattr(CycloField, "_build_roots", corrupt)
    for n in (3, 5, 12):
        with pytest.raises(ArithmeticError):
            cyclo_field(n)


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
        coeffs = [c for terms in A._pair_memo.values() for c in terms.values()]
        flagged = [c for c in coeffs if c._root is not None]
        for c in flagged:
            assert c is F._roots[c._root]
            assert c == _signed_power(F, c._root)
        if A is H:
            # every structure constant of the basic family is a power of q
            assert len(flagged) == len(coeffs) > 625
        else:
            assert 0 < len(flagged) < len(coeffs)
