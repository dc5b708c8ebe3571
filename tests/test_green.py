from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hopfring.green import (
    FusionError,
    PresentationSpec,
    _int_det,
    class_algebra_radical,
    closed_form_fusion,
    fusion_table,
    identity_suite_H1,
    quiver_check_H0,
    verify_presentation,
)
from hopfring.labels import Label, basis_labels, label_dim, parse_label


def V(l, r):
    return Label("V", l, r)


def P(l, r):
    return Label("Pr", l, r)


def S(i, j):
    return Label("S", i, j)


def BP(i, j):
    return Label("P", i, j)


def test_basis_labels_sizes():
    assert len(basis_labels("tensor_taft", 3)) == 18
    assert len(basis_labels("hpq0", 4)) == 32
    assert len(basis_labels("hpq1", 3)) == 15
    assert len(basis_labels("hpq1", 4)) == 28


def test_label_parsing():
    assert parse_label("S(1,0)", "tensor_taft", 3) == S(1, 0)
    assert parse_label("P(2,1)", "hpq1", 3) == P(2, 1)
    assert parse_label("P(3,1)", "hpq1", 3) == V(3, 1)
    assert parse_label("V(2,5)", "hpq1", 3) == V(2, 2)
    with pytest.raises(ValueError):
        parse_label("V(1,0)", "tensor_taft", 3)
    with pytest.raises(ValueError):
        parse_label("Q(1,0)", "hpq1", 3)


def test_closed_form_basic_families():
    out = closed_form_fusion("tensor_taft", 3, S(1, 0), S(0, 1))
    assert out == {S(1, 1): 1}
    out = closed_form_fusion("tensor_taft", 3, BP(0, 0), BP(0, 0))
    assert out == {BP(i, j): 1 for i in range(3) for j in range(3)}
    out = closed_form_fusion("hpq0", 3, BP(0, 0), BP(0, 0))
    assert out == {BP(t, t): 3 for t in range(3)}
    out = closed_form_fusion("hpq0", 3, S(1, 2), BP(1, 1))
    assert out == {BP(2, 0): 1}


def test_closed_form_deformed_examples():
    # anchor examples at n = 3 for the eleven-case dispatch
    assert closed_form_fusion("hpq1", 3, V(1, 1), V(2, 0)) == {V(2, 1): 1}
    assert closed_form_fusion("hpq1", 3, V(2, 0), V(2, 0)) == {
        V(3, 0): 1,
        V(1, 1): 1,
    }
    assert closed_form_fusion("hpq1", 3, V(2, 0), P(1, 0)) == {
        P(2, 0): 1,
        V(3, 1): 2,
    }
    assert closed_form_fusion("hpq1", 3, V(3, 0), P(1, 0)) == {
        V(3, 0): 2,
        P(2, 2): 2,
    }
    assert closed_form_fusion("hpq1", 3, V(2, 0), V(3, 0)) == {P(2, 1): 1}


def test_closed_form_commutes():
    for fam, n in (("tensor_taft", 3), ("hpq0", 3), ("hpq1", 3), ("hpq1", 4)):
        labs = basis_labels(fam, n)
        for a in labs:
            for b in labs:
                assert closed_form_fusion(fam, n, a, b) == closed_form_fusion(
                    fam, n, b, a
                )


@pytest.mark.parametrize("fam,n", [
    ("tensor_taft", 3), ("hpq0", 3), ("hpq1", 3), ("hpq1", 4), ("hpq1", 5),
])
def test_closed_form_dimension_grading(fam, n):
    table = fusion_table(fam, n, "closed_form")
    assert table.check_dimension_grading()
    assert table.check_unit()
    assert table.check_symmetric()


def test_closed_form_associativity_n3():
    for fam in ("tensor_taft", "hpq0", "hpq1"):
        table = fusion_table(fam, 3, "closed_form")
        assert table.check_associativity()


def test_closed_form_associativity_sampled_n45():
    assert fusion_table("hpq1", 4, "closed_form").check_associativity(sample=600)
    assert fusion_table("hpq1", 5, "closed_form").check_associativity(sample=600)


def test_case_coverage_n4():
    table = fusion_table("hpq1", 4, "closed_form")
    hit = {case for case, cnt in table.coverage.items() if cnt}
    assert hit == {"case%02d" % k for k in range(1, 12)}


def test_case_coverage_n3_misses_case8():
    table = fusion_table("hpq1", 3, "closed_form")
    assert "case08" not in table.coverage


def test_presentations_n3():
    rep = verify_presentation("tensor_taft", 3)
    assert rep["status"] == "pass", rep
    assert rep["normal_basis_size"] == 18
    rep = verify_presentation("hpq0", 3)
    assert rep["status"] == "pass", rep
    rep = verify_presentation("hpq1", 3)
    assert rep["status"] == "pass", rep
    assert rep["normal_basis_size"] == 15


@pytest.mark.parametrize("fam,n,rank", [
    ("tensor_taft", 4, 32),
    ("hpq0", 4, 32),
    ("hpq1", 4, 28),
    ("hpq1", 5, 45),
])
def test_presentations_larger(fam, n, rank):
    rep = verify_presentation(fam, n)
    assert rep["status"] == "pass", rep
    assert rep["normal_basis_size"] == rank


def test_deformed_relation_factors_n3():
    pres = PresentationSpec("hpq1", 3)
    f1, f2 = pres.factors
    # y^3 - 3xy - 2 and y^2 - x
    assert f1 == {(0, 3): 1, (1, 1): -3, (0, 0): -2}
    assert f2 == {(0, 2): 1, (1, 0): -1}


@pytest.mark.parametrize("n", [3, 4, 5])
def test_identity_suite(n):
    rep = identity_suite_H1(n)
    assert rep["status"] == "pass", {
        k: v for k, v in rep["items"].items() if not v["holds"]
    }


def test_class_algebra_radical_tensor_taft():
    rep = class_algebra_radical("tensor_taft", 3)
    assert rep["status"] == "pass", rep
    assert rep["quotient_dim"] == 10
    assert rep["idempotents"]["count"] == 10
    assert rep["radical_equals_generated_ideal"]
    assert rep["generators_square_to_zero"]


def test_class_algebra_radical_h0():
    rep = class_algebra_radical("hpq0", 3)
    assert rep["status"] == "pass", rep
    assert rep["quotient_dim"] == 12


@pytest.mark.slow
def test_class_algebra_radical_n4():
    assert class_algebra_radical("tensor_taft", 4)["quotient_dim"] == 17
    assert class_algebra_radical("hpq0", 4)["quotient_dim"] == 20


def test_class_algebra_rejects_deformed():
    with pytest.raises(FusionError):
        class_algebra_radical("hpq1", 3)


def test_quiver_n3():
    rep = quiver_check_H0(3)
    assert rep["status"] == "pass", rep
    assert rep["arrows_per_block"] == 6
    assert rep["crown_shape"]
    assert rep["scalar_is_q_uniformly"]
    counts = rep["arrow_counts"]
    assert all(c == 1 for c in counts.values())
    assert len(counts) == 6


@pytest.mark.slow
def test_quiver_n4():
    rep = quiver_check_H0(4)
    assert rep["status"] == "pass", rep
    assert rep["arrows_per_block"] == 8


def test_fusion_table_json_and_csv():
    table = fusion_table("hpq1", 3, "closed_form")
    js = table.to_json()
    assert js["basis"][0] == "V(1,0)"
    assert len(js["entries"]) == 225
    csv_text = table.to_csv()
    assert "V(2,0)" in csv_text


def test_label_dims():
    assert label_dim(V(3, 0), 3) == 3
    assert label_dim(P(1, 0), 3) == 6
    assert label_dim(BP(0, 0), 3) == 9
    assert label_dim(S(0, 0), 3) == 1


# -- fraction-free determinant -------------------------------------------------


def _cofactor_det(m):
    if not m:
        return 1
    return sum(
        (-1) ** j * m[0][j] * _cofactor_det([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(len(m))
        if m[0][j]
    )


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5).flatmap(
    lambda k: st.lists(st.lists(st.integers(-6, 6), min_size=k, max_size=k), min_size=k, max_size=k)
))
def test_int_det_matches_cofactor_expansion(m):
    assert _int_det(m) == _cofactor_det(m)


def test_int_det_row_swaps_and_singular():
    # zero leading pivots force one swap (sign -1) and then a second one
    assert _int_det([[0, 1], [1, 0]]) == -1
    assert _int_det([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    assert _int_det([[0, 2, 1], [3, 0, 0], [0, 0, 5]]) == -30
    assert _int_det([[1, 2, 3], [2, 4, 6], [0, 1, 1]]) == 0
    assert _int_det([[1, 2], [0, 0]]) == 0


def test_int_det_inexact_division_raises():
    with pytest.raises(FusionError):
        _int_det([[1, 1], [1, Fraction(1, 2)]])
