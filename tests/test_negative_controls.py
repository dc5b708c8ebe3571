"""A corrupted input for every verify target: each must give status: fail,
exit code 1 and name the check that failed.

``UNCOVERED`` lists the targets that have no control yet; it can only
shrink, because the last test requires covered, elsewhere and uncovered
targets to add up to ``VERIFY_TARGETS``.
"""

import json
from operator import add
from pathlib import Path

import pytest

from hopfring import cli, green, structure
from hopfring.algebra import AlgebraSpec, build_algebra
from hopfring.fdalg import TableAlgebra
from hopfring.labels import basis_labels, format_combination, parse_label
from hopfring.linalg import Mat, Subspace
from hopfring.repn import Module, module_catalog

# target -> (family, A, B, label, check): the closed-form product A*B (and
# B*A) gets one more copy of label, and the named check must fail.  Each
# product feeds the target's relations at n = 3.
CLOSED_FORM_CONTROLS = {
    # x = S(1,0): x^2 * x no longer returns the unit
    "thm3.8": ("tensor_taft", "S(2,0)", "S(1,0)", "S(0,0)", "x^n - 1"),
    # x = S(1,1)
    "thm4.9": ("hpq0", "S(2,2)", "S(1,1)", "S(0,0)", "x^n - 1"),
    # y = V(2,0): y^2 enters both factors of the vanishing relation
    "thm5.9": ("hpq1", "V(2,0)", "V(2,0)", "V(3,0)", "vanishing relation"),
    # x = V(1,1): x^2 * x no longer returns the unit
    "cor5.8": ("hpq1", "V(1,2)", "V(1,1)", "V(1,0)", "x^n - 1"),
    "lemma5.3": ("hpq1", "V(2,0)", "V(2,0)", "V(1,1)", "tensor_power_m2"),
    "cor5.4": ("hpq1", "V(2,0)", "P(1,0)", "P(2,0)", "y_times_first_cover"),
    # x * V(3,0) translates the top simple
    "prop5.5": ("hpq1", "V(1,1)", "V(3,0)", "V(3,1)", "generated_by_x_y"),
    # x^2 y = V(2,2), and V(2,2) * V(3,0) is the cover P(2,0) translated
    "lemma5.6": ("hpq1", "V(2,2)", "V(3,0)", "P(2,2)", "cover_polynomials"),
    # F1 * F2 with F2 = V(3,0) and -2 V(2,1) a term of F1
    "prop5.7": ("hpq1", "V(2,1)", "V(3,0)", "P(2,2)", "vanishing_product"),
    "prop3.9": ("tensor_taft", "P(0,0)", "P(0,0)", "P(1,1)", "radical_equals_generated_ideal"),
    "prop4.10": ("hpq0", "P(0,0)", "P(0,0)", "P(1,1)", "radical_equals_generated_ideal"),
    # the fusion-subset crosschecks report their first mismatching pair
    "prop3.6": ("tensor_taft", "S(1,0)", "S(0,1)", "S(1,1)", "S(0,1) x S(1,0)"),
    "prop3.7": ("tensor_taft", "P(0,0)", "P(0,0)", "P(1,1)", "P(0,0) x P(0,0)"),
    "prop4.7": ("hpq0", "S(1,0)", "S(0,1)", "S(1,1)", "S(0,1) x S(1,0)"),
    "prop4.8": ("hpq0", "P(0,0)", "P(0,0)", "P(1,1)", "P(0,0) x P(0,0)"),
    # the crosscheck table stops at its first mismatch and reports the pair
    "lemma5.1": ("hpq1", "V(2,0)", "V(2,0)", "V(1,1)", "V(2,0) x V(2,0)"),
}

OTHER_CONTROLS = {"cor3.4", "cor4.4", "cor3.5", "blocks", "prop4.1", "prop4.6"}

# controls kept in test_cli.py, next to the target's other CLI tests
ELSEWHERE = {
    "quiver4": ("test_quiver_scalar_gate_can_fail", "test_quiver_arrow_gate_can_fail"),
    "tensor-iso": ("test_verify_tensor_iso_fails_on_corrupt_taft_product",),
}

UNCOVERED = set()


def run(capsys, argv):
    code = cli.main(argv)
    return code, json.loads(capsys.readouterr().out)


def _failed_checks(rep):
    """The checks a failing report names: relation witnesses, items and
    flags that read false, and the first mismatching pair."""
    names = {f["witness"] for f in rep.get("failures", []) if isinstance(f["witness"], str)}
    names |= {k for k, v in rep.get("items", {}).items() if not v["holds"]}
    names |= {k for k, v in rep.items() if v is False}
    if "first_mismatch" in rep:
        names.add(" x ".join(rep["first_mismatch"]))
    return names


@pytest.mark.parametrize("target", sorted(CLOSED_FORM_CONTROLS))
def test_corrupt_closed_form_product_fails(target, capsys, monkeypatch):
    family, a, b, label, check = CLOSED_FORM_CONTROLS[target]
    A, B, extra = (parse_label(text, family, 3) for text in (a, b, label))
    real = green.closed_form_fusion

    def corrupted(fam, n, x, y, with_case=False):
        out, case = real(fam, n, x, y, with_case=True)
        if fam == family and {x, y} == {A, B}:
            out = dict(out)
            out[extra] = out.get(extra, 0) + 1
        return (out, case) if with_case else out

    monkeypatch.setattr(green, "closed_form_fusion", corrupted)
    monkeypatch.setattr(cli, "closed_form_fusion", corrupted)
    code, doc = run(capsys, ["verify", target, "--n", "3"])
    assert code == 1
    assert doc["status"] == "fail"
    if "error" in doc:
        assert check in doc["error"]
    else:
        assert doc["reports"][0]["status"] == "fail"
        assert check in _failed_checks(doc["reports"][0])


def test_crosscheck_table_stops_at_the_first_mismatch(capsys, monkeypatch):
    labels = basis_labels("hpq1", 3)
    v20, v11 = (parse_label(text, "hpq1", 3) for text in ("V(2,0)", "V(1,1)"))
    real = green.closed_form_fusion
    true_product = real("hpq1", 3, v20, v20)
    corrupt_product = dict(true_product)
    corrupt_product[v11] = corrupt_product.get(v11, 0) + 1

    def corrupted(fam, n, x, y, with_case=False):
        out, case = real(fam, n, x, y, with_case=True)
        if fam == "hpq1" and x == y == v20:
            out = corrupt_product
        return (out, case) if with_case else out

    computed = []
    real_computed = green.computed_fusion

    def counting(cat, a, b):
        computed.append((a, b))
        return real_computed(cat, a, b)

    monkeypatch.setattr(green, "closed_form_fusion", corrupted)
    monkeypatch.setattr(green, "computed_fusion", counting)
    argv = ["table", "--family", "hpq", "--p", "1", "--mode", "crosscheck", "--n", "3"]
    code, doc = run(capsys, argv)
    assert code == 1
    assert "error" not in doc
    rep = doc["reports"][0]
    assert doc["status"] == rep["status"] == "fail"
    assert rep["first_mismatch"] == ["V(2,0)", "V(2,0)"]
    assert rep["closed_form"] == format_combination(corrupt_product)
    assert rep["computed"] == format_combination(true_product)
    # no product after the mismatching pair is computed
    assert computed[-1] == (v20, v20)
    assert len(computed) == labels.index(v20) * len(labels) + labels.index(v20) + 1


@pytest.mark.parametrize("target", ["cor3.4", "cor4.4"])
def test_radical_targets_gate_the_semisimple_quotient(target, capsys, monkeypatch):
    # a quotient whose trace form is zero reads as not semisimple
    monkeypatch.setattr(TableAlgebra, "radical", lambda self: Subspace.full(self.field, self.dim))
    code, doc = run(capsys, ["verify", target, "--n", "3"])
    assert code == 1
    rep = doc["reports"][0]
    assert doc["status"] == rep["status"] == "fail"
    assert rep["quotient_semisimple"] is False
    assert rep["loewy_length"] == rep["expected_loewy"]


def test_covers_target_gates_simple_tops(capsys, monkeypatch):
    # a cover on which a acts by zero keeps its dimension, but d alone
    # cannot reach its whole radical, so its top is no longer simple
    H = build_algebra(AlgebraSpec("tensor_taft", 3))
    cat = module_catalog(H)
    lab = cat.labels[0]
    P = cat.pims[lab]
    acts = dict(P.acts, a=Mat.zeros(H.field, P.dim, P.dim))
    broken = Module(H, acts, label=P.label, check=False)
    monkeypatch.setitem(cat.pims, lab, broken)
    code, doc = run(capsys, ["verify", "cor3.5", "--n", "3"])
    assert code == 1
    rep = doc["reports"][0]
    assert doc["status"] == rep["status"] == "fail"
    assert rep["tops_simple"] is False
    assert rep["cover_dim"] == 9


def test_algebra_verify_gates_the_quotient_at_n5(capsys, monkeypatch):
    # the basic families run the quotient check at every size
    monkeypatch.setattr(TableAlgebra, "radical", lambda self: Subspace.full(self.field, self.dim))
    code, doc = run(capsys, ["algebra", "verify", "--family", "tensor-taft", "--n", "5"])
    assert code == 1
    rep = next(r for r in doc["reports"] if r["check"] == "radical")
    assert doc["status"] == rep["status"] == "fail"
    assert rep["quotient_semisimple"] is False
    assert rep["equals_ideal_generated_by_a_d"] is True


@pytest.mark.parametrize("keep_reason", [True, False])
def test_quotient_not_run_fails_the_gate(keep_reason, capsys, monkeypatch):
    # the check runs at every size, so a report that skipped it fails,
    # whatever reason it gives
    real = cli.radical_report

    def report(H):
        rep = real(H)
        rep["quotient_semisimple"] = "not run"
        if keep_reason:
            rep["quotient_semisimple_reason"] = "skipped"
        return rep

    monkeypatch.setattr(cli, "radical_report", report)
    code, doc = run(capsys, ["algebra", "verify", "--family", "hpq", "--p", "1", "--n", "3"])
    rep = next(r for r in doc["reports"] if r["check"] == "radical")
    assert rep["quotient_semisimple"] == "not run"
    assert doc["status"] == rep["status"] == "fail"
    assert code == 1


def test_quotient_gate_reads_the_key():
    with pytest.raises(KeyError):
        cli._quotient_ok({})
    assert cli._quotient_ok({"quotient_semisimple": True})
    assert not cli._quotient_ok({"quotient_semisimple": False})
    assert not cli._quotient_ok({"quotient_semisimple": "not run"})


@pytest.mark.parametrize("argv", [
    ["verify", "blocks", "--family", "hpq", "--p", "0", "--n", "3"],
    ["algebra", "verify", "--family", "hpq", "--p", "0", "--n", "3"],
])
def test_blocks_gate_the_central_idempotent_census(argv, capsys, monkeypatch):
    # 2e is central and orthogonal to the other blocks, but not idempotent
    real = structure._central_idempotents_H0

    def doubled(H):
        return [e.scale(H.field.from_int(2)) for e in real(H)]

    monkeypatch.setattr(structure, "_central_idempotents_H0", doubled)
    code, doc = run(capsys, argv)
    assert code == 1
    assert doc["status"] == "fail"
    rep = doc["reports"][-1]
    assert rep["status"] == "fail"
    assert rep["block_count"] == rep["expected_block_count"]
    census = rep["central_idempotents"]
    assert not census["idempotent"] and not census["complete"]
    assert not census["matches_group_idempotent_sums"]
    assert census["central"] and census["orthogonal"]


@pytest.mark.parametrize("argv", [
    ["verify", "blocks", "--family", "hpq", "--p", "0", "--n", "3"],
    ["algebra", "verify", "--family", "hpq", "--p", "0", "--n", "3"],
])
def test_blocks_name_a_non_central_census_idempotent(argv, capsys, monkeypatch):
    # the group idempotent e(0,0) in place of e_0 is idempotent but not
    # central, since a and d move its weight
    real = structure._central_idempotents_H0

    def first_grouplike(H):
        return [H.group_idempotents()[(0, 0)]] + real(H)[1:]

    monkeypatch.setattr(structure, "_central_idempotents_H0", first_grouplike)
    code, doc = run(capsys, argv)
    assert code == 1
    assert doc["status"] == "fail"
    rep = doc["reports"][-1]
    assert rep["status"] == "fail"
    assert rep["central_idempotents"]["central"] is False
    assert rep["first_non_central_idempotent"] == 0


@pytest.mark.parametrize("target", ["prop3.9", "prop4.10"])
def test_class_radical_gates_the_idempotent_census(target, capsys, monkeypatch):
    # 2e is orthogonal to the other census idempotents, but not idempotent
    real = green._census_idempotents

    def first_doubled(*args):
        idems = real(*args)
        return [{k: c + c for k, c in idems[0].items()}] + idems[1:]

    monkeypatch.setattr(green, "_census_idempotents", first_doubled)
    code, doc = run(capsys, ["verify", target, "--n", "3"])
    assert code == 1
    rep = doc["reports"][0]
    assert doc["status"] == rep["status"] == "fail"
    assert rep["radical_equals_generated_ideal"]
    census = rep["idempotents"]
    assert not census["idempotent"] and not census["complete"]
    assert census["orthogonal"] and census["primitive"]


@pytest.mark.parametrize("corrupt", ["dropped", "duplicated"])
@pytest.mark.parametrize("target", ["thm3.8", "thm4.9", "thm5.9"])
def test_presentation_gates_the_normal_basis_cardinality(target, corrupt, capsys, monkeypatch):
    # a duplicated monomial is one image counted twice; a dropped one
    # leaves a class of the standard basis unreached
    class Corrupted(green.PresentationSpec):
        def __init__(self, family, n):
            super().__init__(family, n)
            last = self.normal_monomials.pop()
            if corrupt == "duplicated":
                self.normal_monomials += [last, last]

    monkeypatch.setattr(green, "PresentationSpec", Corrupted)
    code, doc = run(capsys, ["verify", target, "--n", "3"])
    assert code == 1
    rep = doc["reports"][0]
    assert doc["status"] == rep["status"] == "fail"
    size = len(basis_labels(rep["family"], 3)) + (1 if corrupt == "duplicated" else -1)
    assert rep["normal_basis_size"] == size
    assert rep["failures"] == [
        {"reason": "normal basis has wrong cardinality", "witness": size}
    ]


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("target", ["thm3.8", "thm4.9", "thm5.9"])
def test_presentation_names_the_first_pair_the_rewrite_engine_gets_wrong(
        target, n, capsys, monkeypatch):
    # the first drawn product reduces to one more copy of the first normal
    # monomial; every later reduction is left alone
    corrupted = []

    class Corrupted(green.PresentationSpec):
        def reduce(self, poly):
            out = super().reduce(poly)
            if not corrupted:
                corrupted.extend(poly)
                out[self.normal_monomials[0]] = out.get(self.normal_monomials[0], 0) + 1
            return out

    monkeypatch.setattr(green, "PresentationSpec", Corrupted)
    code, doc = run(capsys, ["verify", target, "--n", str(n)])
    assert code == 1
    rep = doc["reports"][0]
    assert doc["status"] == rep["status"] == "fail"
    assert all(r["holds"] for r in rep["relations"])
    (failure,) = rep["failures"]
    assert failure["reason"] == "rewrite engine disagrees with the fusion ring"
    m1, m2 = failure["witness"]["first_pair"]
    assert corrupted == [tuple(map(add, m1, m2))]
    assert failure["witness"]["mismatches"] >= 1


def test_integrals_target_gates_unimodularity(capsys, monkeypatch):
    # left integrals sought where c acts by q, not by its counit value 1,
    # are no longer the right integrals of the p = 0 deformation
    real = structure.grouplike_eigenvectors
    monkeypatch.setattr(
        structure,
        "grouplike_eigenvectors",
        lambda H, s, t, side: real(H, s, t + 1 if side == "left" else t, side),
    )
    code, doc = run(capsys, ["verify", "prop4.1", "--n", "3"])
    assert code == 1
    rep = doc["reports"][0]
    assert doc["status"] == rep["status"] == "fail"
    assert {"unimodular", "symmetric_certified"} <= _failed_checks(rep["deformed_p0"])
    assert rep["deformed_p0"]["s2_inner_by_b"] is True


def test_block_target_gates_the_block_span(capsys, monkeypatch):
    # e_0 + e_1 is a central idempotent, and its labeled elements are
    # independent and multiply by the shared table, but they span only
    # half of the two-block ideal H(e_0 + e_1): c moves them out of it
    real = structure._central_idempotents_H0

    def merged(H):
        es = real(H)
        return [es[0] + es[1]] + es[1:]

    monkeypatch.setattr(structure, "_central_idempotents_H0", merged)
    code, doc = run(capsys, ["verify", "prop4.6", "--n", "3"])
    assert code == 1
    rep = doc["reports"][0]
    assert doc["status"] == rep["status"] == "fail"
    assert rep["reason"] == "block basis does not span a left ideal"
    assert rep["block"] == 0 and rep["dim"] == 27


def test_block_target_gates_the_shared_table(capsys, monkeypatch):
    # q e_1 spans the same block as e_1, so the block checks pass, but the
    # labeled elements a^j d^k b^l (q e_1) multiply with an extra factor q
    real = structure._central_idempotents_H0

    def scaled(H):
        es = real(H)
        return [es[0], es[1].scale(H.field.q)] + es[2:]

    monkeypatch.setattr(structure, "_central_idempotents_H0", scaled)
    code, doc = run(capsys, ["verify", "prop4.6", "--n", "3"])
    assert code == 1
    rep = doc["reports"][0]
    assert doc["status"] == rep["status"] == "fail"
    assert _failed_checks(rep) == {"tables_identical", "idempotent_is_unit"}
    assert rep["block_dims"] == [27, 27, 27]


def test_every_target_has_a_control_or_is_listed_uncovered():
    covered = set(CLOSED_FORM_CONTROLS) | OTHER_CONTROLS
    groups = [covered, set(ELSEWHERE), UNCOVERED]
    assert sum(len(g) for g in groups) == len(set().union(*groups))
    assert set().union(*groups) == set(cli.VERIFY_TARGETS)
    source = Path(__file__).with_name("test_cli.py").read_text()
    for names in ELSEWHERE.values():
        for name in names:
            assert "def %s(" % name in source
