import re

import pytest

from hopfring import structure
from hopfring.algebra import Algebra, AlgebraSpec, build_algebra
from hopfring.cyclo import cyclo_field
from hopfring.fdalg import TableAlgebra
from hopfring.linalg import Subspace
from hopfring.structure import (
    _radical_power_dims,
    _right_ideal_generators,
    blocks_isomorphic_H0,
    center_and_blocks,
    integrals_and_symmetry,
    jacobson_radical,
    loewy_length,
    monomial_ideal_span,
    radical_ideal_generators,
    radical_report,
)
from oracles import conj_grade_radical


def get(family, n, p=None):
    return build_algebra(AlgebraSpec(family, n, p))


def test_radical_tensor_taft_is_ad_ideal():
    H = get("tensor_taft", 3)
    J = jacobson_radical(H)
    assert J.dim == 81 - 9
    assert J == monomial_ideal_span(H, lambda m: m[0] + m[3] >= 1)


def test_radical_h0():
    H = get("hpq", 3, 0)
    J = jacobson_radical(H)
    assert H.dim - J.dim == 9
    assert J == monomial_ideal_span(H, lambda m: m[0] + m[3] >= 1)


def _ungraded_radical(H):
    """The kernel of the trace form's Gram over all pairs of PBW monomials."""

    def product(i, j):
        return {H.index[m]: c for m, c in H.mono_mul(H.basis[i], H.basis[j]).items()}

    return TableAlgebra(H.field, H.dim, product).radical()


@pytest.mark.parametrize("family,p", [("tensor_taft", None), ("hpq", 0), ("hpq", 1)])
def test_graded_radical_equals_ungraded_trace_form_radical(family, p):
    # the blocks of jacobson_radical pair grade g only with grade -g; the
    # Gram of the trace form over all pairs of PBW monomials has the same kernel
    H = get(family, 3, p)
    assert _ungraded_radical(H) == jacobson_radical(H)


@pytest.mark.parametrize("family,n,p", [("tensor_taft", 4, None), ("hpq", 3, 1)])
def test_radical_products_bypass_the_pair_memo(family, n, p):
    # the trace form's products are each needed once, so the radical leaves
    # the basis-pair memo as it found it
    H = Algebra(AlgebraSpec(family, n, p))
    before = dict(H._pair_memo)
    J = jacobson_radical(H)
    assert H._pair_memo == before
    assert J == _ungraded_radical(H)


@pytest.mark.parametrize("family,p", [("tensor_taft", None), ("hpq", 0), ("hpq", 1)])
def test_exponent_grade_radical_equals_conj_grade_radical(family, p):
    # the old blocking by the coarser conjugation grade solves every block,
    # partnerless or not, and lands on the same canonical rows
    H = get(family, 4, p)
    assert conj_grade_radical(H) == jacobson_radical(H)


@pytest.mark.parametrize(
    "family,p,t,m,extra",
    [
        # b * 1 gains c, of grade (0, 0, 1, 0) against (0, 1, 0, 0)
        ("tensor_taft", None, 1, (0, 0, 0, 0), (0, 0, 1, 0)),
        # d * a gains 1, which has the conjugation grade of ad but not its
        # exponent grade
        ("hpq", 0, 3, (1, 0, 0, 0), (0, 0, 0, 0)),
        # d * a gains bc^2, of grade (0, 2) against (0, 0)
        ("hpq", 1, 3, (1, 0, 0, 0), (0, 1, 2, 0)),
    ],
)
def test_grade_certificate_names_a_bad_generator_product(family, p, t, m, extra):
    H = Algebra(AlgebraSpec(family, 3, p))
    # the build filled the memo, and a corrupted entry is read as it stands
    H._gen_memo[(t, m)] = {**H._gen_memo[(t, m)], extra: H.field.one}
    with pytest.raises(ArithmeticError, match=r"%s \* %s has the term %s" % (
        H.letters[t], re.escape(repr(m)), re.escape(repr(extra)))):
        jacobson_radical(H)
    assert H._radical is None


def test_graded_quotient_radical_equals_ungraded():
    # the hpq p = 1 n = 3 quotient H/J, graded by its complement monomials
    H = get("hpq", 3, 1)
    J = jacobson_radical(H)
    comp = [H.basis[k] for k in J.complement_indices()]

    def product(i, j):
        prod = H.mono_mul(comp[i], comp[j])
        return J.quotient_coords({H.index[m]: c for m, c in prod.items()})

    def grade(i):
        return (H.exponent_grade(comp[i]), H.exponent_grade(comp[i], -1))

    graded = TableAlgebra(H.field, len(comp), product, grade=grade)
    ungraded = TableAlgebra(H.field, len(comp), product)
    assert graded.radical() == ungraded.radical() == Subspace.zero(H.field, len(comp))
    # a graded table with a radical: the basic n = 3 algebra's own, whose
    # radical is the a, d ideal (its ungraded table gives the same, above)
    B = get("tensor_taft", 3)

    def bproduct(i, j):
        return {B.index[m]: c for m, c in B.mono_mul(B.basis[i], B.basis[j]).items()}

    def bgrade(i):
        return (B.exponent_grade(B.basis[i]), B.exponent_grade(B.basis[i], -1))

    graded = TableAlgebra(B.field, B.dim, bproduct, grade=bgrade).radical()
    assert graded == jacobson_radical(B) and graded.dim == 72


def test_radical_h1_dimension():
    # semisimple quotient dimension equals the sum of squared simple dims:
    # n copies of each dimension 1..n, so n * n(n+1)(2n+1)/6 = 42 at n = 3
    H = get("hpq", 3, 1)
    J = jacobson_radical(H)
    assert H.dim - J.dim == 42


def test_radical_reports():
    rep = radical_report(get("tensor_taft", 3))
    assert rep["equals_ideal_generated_by_a_d"]
    assert rep["quotient_semisimple"]
    assert rep["loewy_length"] == 5
    rep1 = radical_report(get("hpq", 3, 1))
    assert rep1["quotient_semisimple"]
    assert rep1["semisimple_dim"] == 42


def test_loewy_lengths_n3():
    assert loewy_length(get("tensor_taft", 3)) == 5
    assert loewy_length(get("hpq", 3, 0)) == 5


def test_loewy_length_computed_once(monkeypatch):
    H = Algebra(AlgebraSpec("tensor_taft", 3))
    calls = []
    real = structure._loewy_length

    def counting(alg):
        calls.append(alg)
        return real(alg)

    monkeypatch.setattr(structure, "_loewy_length", counting)
    assert loewy_length(H) == 5
    assert radical_report(H)["loewy_length"] == 5
    assert loewy_length(H) == 5
    assert calls == [H]


@pytest.mark.slow
def test_loewy_lengths_n4():
    assert loewy_length(get("tensor_taft", 4)) == 7
    assert loewy_length(get("hpq", 4, 0)) == 7


def test_loewy_semisimple_fixture():
    # group algebra of two commuting cyclic generators of order n: semisimple
    F = cyclo_field(3)
    n = 3

    def product(i, j):
        a1, b1 = divmod(i, n)
        a2, b2 = divmod(j, n)
        k = ((a1 + a2) % n) * n + ((b1 + b2) % n)
        return {k: F.one}

    kg = TableAlgebra(F, n * n, product)
    rad = kg.radical()
    assert rad.dim == 0
    assert kg.nilpotency_index(rad) == 1


def test_integrals_h0_symmetric():
    rep = integrals_and_symmetry(get("hpq", 3, 0))
    assert rep["left_integral_dim"] == 1
    assert rep["right_integral_dim"] == 1
    assert rep["unimodular"] is True
    assert rep["s2_inner_by_b"] is True
    assert rep["s2_inner_by_c"] is True
    assert rep["symmetric_certified"] is True


def test_integrals_tensor_taft_not_unimodular():
    rep = integrals_and_symmetry(get("tensor_taft", 3))
    assert rep["left_integral_dim"] == 1
    assert rep["right_integral_dim"] == 1
    assert rep["unimodular"] is False
    assert rep["symmetric_certified"] is False


def test_integrals_h1_symmetric():
    rep = integrals_and_symmetry(get("hpq", 3, 1))
    assert rep["unimodular"] is True
    assert rep["s2_inner_by_b"] is True
    assert rep["symmetric_certified"] is True


def test_block_counts_n3():
    assert center_and_blocks(get("tensor_taft", 3))["block_count"] == 1
    rep0 = center_and_blocks(get("hpq", 3, 0))
    assert rep0["block_count"] == 3
    census = rep0["central_idempotents"]
    assert all(census.values()), census
    assert center_and_blocks(get("hpq", 3, 1))["block_count"] == 6


@pytest.mark.slow
def test_block_counts_n4():
    assert center_and_blocks(get("tensor_taft", 4))["block_count"] == 1
    rep0 = center_and_blocks(get("hpq", 4, 0))
    assert rep0["block_count"] == 4
    assert all(rep0["central_idempotents"].values())
    assert center_and_blocks(get("hpq", 4, 1))["block_count"] == 10


def test_blocks_isomorphic_n3():
    rep = blocks_isomorphic_H0(get("hpq", 3, 0))
    assert rep["status"] == "pass", rep
    assert rep["block_dims"] == [27, 27, 27]
    assert rep["tables_identical"] and rep["idempotent_is_unit"]


def test_blocks_check_rejects_wrong_family():
    with pytest.raises(ValueError):
        blocks_isomorphic_H0(get("tensor_taft", 3))


# -- radical powers from right-ideal generators ----------------------------------


@pytest.mark.parametrize("n", [3, 4])
def test_radical_generators_span_j_as_right_ideal(n):
    H = get("hpq", n, 1)
    J = jacobson_radical(H)
    G = radical_ideal_generators(H)
    assert 0 < len(G) < J.dim
    assert radical_ideal_generators(H) is G
    # G·H, from the products with every PBW monomial, as a canonical subspace
    vecs = [(g * H.monomial(m)).as_row() for g in G for m in H.basis]
    assert Subspace.from_vectors(H.field, H.dim, vecs) == J


@pytest.mark.parametrize("n", [3, 4])
def test_right_ideal_certificate_can_fail(n):
    H = get("hpq", n, 1)
    J = jacobson_radical(H)
    G = radical_ideal_generators(H)
    letters = [H.gen(name) for name in H.letters]
    assert _right_ideal_generators(G, letters, J.dim) == G
    for k in range(len(G)):
        with pytest.raises(ArithmeticError):
            _right_ideal_generators(G[:k] + G[k + 1 :], letters, J.dim)
    # any three letters generate H here (d a - q a d = p(1 - bc) recovers
    # what is left out), so the controls leave out two
    for i in range(4):
        for j in range(i + 1, 4):
            kept = [t for k, t in enumerate(letters) if k not in (i, j)]
            with pytest.raises(ArithmeticError):
                _right_ideal_generators(G, kept, J.dim)


def test_radical_generators_reject_a_non_ideal():
    H = Algebra(AlgebraSpec("hpq", 3, 1))
    J = jacobson_radical(H)
    H._radical = Subspace.from_vectors(H.field, H.dim, J.rows[1:])
    with pytest.raises(ArithmeticError):
        radical_ideal_generators(H)


@pytest.mark.parametrize("family, p", [("tensor_taft", None), ("hpq", 0)])
@pytest.mark.parametrize("n", [3, 4])
def test_radical_powers_are_monomial_ideals(family, p, n):
    # J^k is the span of the monomials of a,d-degree >= k
    H = get(family, n, p)
    expected = []
    k = 1
    while True:
        count = sum(1 for m in H.basis if m[0] + m[3] >= k)
        if not count:
            break
        expected.append(count)
        k += 1
    assert _radical_power_dims(H) == expected
    assert len(expected) + 1 == 2 * n - 1


def test_loewy_length_h1_n4():
    H = get("hpq", 4, 1)
    assert _radical_power_dims(H) == [136, 56]
    assert loewy_length(H) == 3
