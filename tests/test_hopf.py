import random

import pytest

from hopfring.algebra import AlgebraSpec, build_algebra
from hopfring.cyclo import cyclo_field, q_factorial
from hopfring.hopf import (
    HopfMaps,
    hopf_maps,
    skew_pairing_tau,
    tensor_iso_check,
    verify_hopf_axioms,
)


def get(family, n, p=None):
    return build_algebra(AlgebraSpec(family, n, p))


def test_coproduct_of_generators():
    H = get("tensor_taft", 3)
    m = hopf_maps(H)
    one = H.field.one
    unit = (0, 0, 0, 0)
    b = (0, 1, 0, 0)
    assert m.delta_mono(b) == {(b, b): one}
    a = (1, 0, 0, 0)
    assert m.delta_mono(a) == {(a, b): one, (unit, a): one}
    assert m.delta_mono(unit) == {(unit, unit): one}


def test_counit_and_antipode_of_generators():
    H = get("tensor_taft", 3)
    m = hopf_maps(H)
    assert m.counit(H.gen("a")).is_zero()
    assert m.counit(H.gen("b")) == H.field.one
    assert m.antipode(H.gen("b")) == H.monomial((0, 2, 0, 0))
    # S(a) = -a b^(n-1)
    assert m.antipode(H.gen("a")) == -H.monomial((1, 2, 0, 0))


def test_coproduct_of_ad_expands_to_four_terms():
    # hand expansion of (a(x)b + 1(x)a)(d(x)c + 1(x)d)
    H = get("tensor_taft", 3)
    m = hopf_maps(H)
    one = H.field.one
    ad = (1, 0, 0, 1)
    expect = {
        ((1, 0, 0, 1), (0, 1, 1, 0)): one,  # ad (x) bc
        ((1, 0, 0, 0), (0, 1, 0, 1)): one,  # a (x) bd
        ((0, 0, 0, 1), (1, 0, 1, 0)): one,  # d (x) ac
        ((0, 0, 0, 0), (1, 0, 0, 1)): one,  # 1 (x) ad
    }
    assert m.delta_mono(ad) == expect


def test_counit_is_a_character():
    H = get("hpq", 3, 1)
    m = hopf_maps(H)
    rng = random.Random(4)
    for _ in range(50):
        u = H.monomial(H.basis[rng.randrange(H.dim)])
        v = H.monomial(H.basis[rng.randrange(H.dim)])
        assert m.counit(u * v) == m.counit(u) * m.counit(v)


@pytest.mark.parametrize("family,p", [("tensor_taft", None), ("hpq", 0), ("hpq", 1)])
def test_hopf_axioms_full_sweep_n3(family, p):
    H = get(family, 3, p)
    report = verify_hopf_axioms(H)
    assert report.checked == 81
    assert report.to_json()["distinct_elements_checked"] == H.dim
    assert report.ok, report.to_json()


@pytest.mark.parametrize("family,p", [("taft", None), ("taft_opp", None)])
def test_hopf_axioms_taft_factors(family, p):
    report = verify_hopf_axioms(get(family, 3, p))
    assert report.ok


@pytest.mark.slow
@pytest.mark.parametrize("family,p", [("tensor_taft", None), ("hpq", 0), ("hpq", 1)])
def test_hopf_axioms_sampled_n4(family, p):
    H = get(family, 4, p)
    report = verify_hopf_axioms(H, sample=120, seed=0)
    assert report.ok, report.to_json()


@pytest.mark.parametrize("n, distinct", [(4, 216), (5, 339)])
def test_sampled_hopf_report_counts_distinct_elements(n, distinct):
    # 500 draws with replacement from the n^4 monomials, seed 0
    rep = verify_hopf_axioms(get("tensor_taft", n), sample=500, seed=0).to_json()
    assert rep["elements_checked"] == 500
    assert rep["distinct_elements_checked"] == distinct
    assert rep["status"] == "pass"


def test_sampled_hopf_verdict_is_listed_once_per_draw(monkeypatch):
    H = get("tensor_taft", 3)
    draws = random.Random(0)
    elements = [H.basis[draws.randrange(H.dim)] for _ in range(200)]
    twice = next(m for m in elements if elements.count(m) > 1)
    once = next(m for m in elements if elements.count(m) == 1)
    real = HopfMaps.antipode_axiom_on
    calls = []

    def corrupted(self, mono):
        calls.append(mono)
        return mono not in (twice, once) and real(self, mono)

    monkeypatch.setattr(HopfMaps, "antipode_axiom_on", corrupted)
    report = verify_hopf_axioms(H, sample=200, seed=0)
    # each distinct monomial is checked once
    assert sorted(calls) == sorted(set(elements))
    # the unmemoized loop: every draw checks every axiom again
    maps = hopf_maps(H)
    expected = []
    for mono in elements:
        for axiom, holds in (
            ("coassociativity", maps.coassociative_on),
            ("counit", maps.counit_axiom_on),
            ("antipode", maps.antipode_axiom_on),
        ):
            if not holds(mono):
                expected.append((axiom, mono))
    assert report.failures == expected
    assert report.checked == 200
    assert report.distinct == len(set(elements))
    assert expected.count(("antipode", twice)) == elements.count(twice)
    assert [m for _, m in expected] == [m for m in elements if m in (twice, once)]


def corrupt_delta_a(maps):
    """Delta(a) = a (x) c + 1 (x) a: the grouplike leg c in place of b."""
    H = maps.H
    a, c = (1, 0, 0, 0), (0, 0, 1, 0)
    maps._delta_gen[0] = {(a, c): H.field.one, (H._unit, a): H.field.one}


def corrupt_antipode_b(maps):
    """S(b) = b in place of b^(n-1)."""
    maps._s_gen[1] = maps.H.gen("b")


# a fresh HopfMaps per test, so the cached maps of the shared algebra stay intact
@pytest.mark.parametrize(
    "family,p,corrupt,expected",
    [
        ("tensor_taft", None, corrupt_delta_a, [("delta", "da-ad"), ("delta", "a^n")]),
        ("hpq", 1, corrupt_delta_a, [("delta", "da-q*ad-p(1-bc)")]),
        ("tensor_taft", None, corrupt_antipode_b, [("antipode", "ba-q*ab")]),
        (
            "hpq",
            1,
            corrupt_antipode_b,
            [
                ("antipode", "ba-q*ab"),
                ("antipode", "db-q*bd"),
                ("antipode", "da-q*ad-p(1-bc)"),
            ],
        ),
    ],
)
def test_respects_relations_catches_corrupt_generator(family, p, corrupt, expected):
    maps = HopfMaps(get(family, 3, p))
    assert maps.respects_relations() == []
    corrupt(maps)
    assert maps.respects_relations() == expected


def test_antipode_axiom_on_deformed_pair():
    # the element where the deformed relation matters most
    H = get("hpq", 3, 1)
    m = hopf_maps(H)
    da = H.gen("d") * H.gen("a")
    lhs = H.zero_elt
    for (v, w), c in m.delta(da).items():
        lhs = lhs + (m.antipode_mono(v) * H.monomial(w)).scale(c)
    assert lhs == H.one.scale(m.counit(da))


def test_skew_pairing_values():
    F = cyclo_field(3)
    p1 = F.one
    assert skew_pairing_tau(F, p1, (0, 1), (2, 0)).is_zero()  # j != k
    assert skew_pairing_tau(F, p1, (0, 0), (0, 0)) == F.one
    got = skew_pairing_tau(F, p1, (1, 2), (2, 1))
    assert got == F.q * (F.one + F.q)
    assert got == F.q * q_factorial(F, 2)
    with pytest.raises(ValueError):
        skew_pairing_tau(F, p1, (0, 3), (0, 0))


def test_skew_pairing_p_scaling():
    F = cyclo_field(4)
    p = F.from_rat(2)
    got = skew_pairing_tau(F, p, (0, 2), (2, 0))
    assert got == q_factorial(F, 2).scale(4)


def test_tensor_iso_n3():
    report = tensor_iso_check(3)
    assert report["status"] == "pass", report
    assert report["dim"] == 81


def test_tensor_iso_transports_relation():
    # image of ba equals q times image of ab, by relation transport
    n = 3
    H = get("tensor_taft", n)
    T1 = get("taft", n)
    T2 = get("taft_opp", n)
    f = H.field
    # phi(ab) is a single pair monomial; phi(b)phi(a) = q^-1 ... checked via products
    ba = H.gen("b") * H.gen("a")
    ab = H.gen("a") * H.gen("b")
    assert ba == ab.scale(f.q)
