import json

import pytest

from hopfring import cli
from hopfring.cli import main
from hopfring.green import FusionMismatch, fusion_table
from hopfring.labels import Label


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_verify_presentation_target(capsys):
    code, out = run(capsys, "verify", "thm3.8", "--n", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    assert doc["schema_version"] == 1
    assert doc["reports"][0]["normal_basis_size"] == 18


def test_verify_needs_known_target(capsys):
    code = main(["verify", "nonsense", "--n", "3"])
    assert code == 2


def test_verify_rejects_small_n(capsys):
    code = main(["verify", "thm3.8", "--n", "2"])
    assert code == 2


def test_fuse_example(capsys):
    code, out = run(
        capsys,
        "fuse", "V(2,0)", "V(2,0)", "--n", "3", "--family", "hpq", "--p", "1",
    )
    assert code == 0
    doc = json.loads(out)
    results = {r["mode"]: r["result"] for r in doc["reports"]}
    assert results["closed_form"] == "V(1,1) + V(3,0)"
    assert results["computed"] == "V(1,1) + V(3,0)"


def test_fuse_text_format(capsys):
    code, out = run(
        capsys,
        "fuse", "P(1,0)", "V(2,0)", "--n", "3", "--family", "hpq", "--p", "1",
        "--mode", "closed", "--format", "text",
    )
    assert code == 0
    assert "2*V(3,1) + P(2,0)" in out


def test_blocks_target(capsys):
    code, out = run(
        capsys, "verify", "blocks", "--n", "3", "--family", "hpq", "--p", "1"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["reports"][0]["block_count"] == 6


def test_verify_family_mismatch_rejected(capsys):
    code = main(["verify", "thm3.8", "--n", "3", "--family", "hpq", "--p", "1"])
    assert code == 2


def test_p_is_validated(capsys):
    # --p belongs to family hpq alone and must be a rational literal
    for argv, message in (
        ("verify thm3.8 --family tensor-taft --p 7", "only to --family hpq"),
        ("verify thm4.9 --p 7", "only to --family hpq"),
        ("modules list --family taft --p 0", "only to --family hpq"),
        ("verify blocks --family hpq --p abc", "rational number"),
        ("algebra verify --family hpq --p 1/0", "rational number"),
    ):
        assert main(argv.split() + ["--n", "3"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and message in err


def test_json_byte_determinism(capsys):
    args = ["verify", "cor3.4", "--n", "3", "--seed", "7"]
    code1, out1 = run(capsys, *args)
    code2, out2 = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_modules_list(capsys):
    code, out = run(
        capsys, "modules", "list", "--family", "hpq", "--p", "1", "--n", "3"
    )
    assert code == 0
    doc = json.loads(out)
    simples = doc["reports"][0]["simples"]
    assert len(simples) == 9
    assert {"label": "V(3,0)", "dim": 3} in simples


def test_table_closed_form(capsys):
    code, out = run(
        capsys, "table", "--family", "tensor-taft", "--n", "3",
        "--mode", "closed_form",
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["reports"][0]["entries"]) == 18 * 18


def test_table_csv(capsys):
    # table and export --what table both print FusionTable.to_csv()
    expected = fusion_table("hpq0", 3, "closed_form").to_csv()
    assert expected.startswith("a,b,result")
    for command in ("table --mode closed_form", "export --what table"):
        argv = command.split() + ["--family", "hpq", "--p", "0", "--n", "3", "--format", "csv"]
        assert run(capsys, *argv) == (0, expected)


def test_csv_rejected_before_any_work(capsys, monkeypatch):
    # only the fusion tables have a CSV form; no other command is dispatched
    for name in ("cmd_algebra_verify", "cmd_modules_list", "cmd_fuse", "cmd_verify", "cmd_export"):
        monkeypatch.setattr(cli, name, lambda args: pytest.fail("dispatched"))
    for command in ("verify thm3.8", "fuse S(0,0) S(1,0)", "modules list", "algebra verify",
                    "export --what modules", "export --what structure"):
        argv = command.split() + ["--family", "tensor-taft", "--n", "3", "--format", "csv"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and "--format csv applies only to" in err


def test_csv_failure_prints_the_json_witness(capsys, monkeypatch):
    # a failure has no CSV form: its JSON document is printed, with exit 1
    s00 = Label("S", 0, 0)
    csv = ["--family", "tensor-taft", "--n", "3", "--format", "csv"]

    def mismatch(family, n, mode):
        raise FusionMismatch(family, n, (s00, s00), {s00: 2}, {s00: 1})

    monkeypatch.setattr(cli, "fusion_table", mismatch)
    code, out = run(capsys, "table", *csv)
    assert code == 1 and json.loads(out)["reports"][0]["first_mismatch"] == ["S(0,0)", "S(0,0)"]
    monkeypatch.setattr(cli, "fusion_table", None)  # an internal error
    for command in (["table"], ["export", "--what", "table"]):
        code, out = run(capsys, *command, *csv)
        assert code == 1 and json.loads(out)["error"].startswith("TypeError: ")


def test_export_structure_to_file(tmp_path, capsys, monkeypatch):
    target = tmp_path / "sc.json"
    code, _ = run(
        capsys, "export", "--what", "structure", "--family", "taft", "--n", "3",
        "--output", str(target),
    )
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["data"]["n"] == 3
    assert doc["data"]["letters"] == ["g", "x"]


def test_output_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HOPFRING_OUT_DIR", str(tmp_path))
    code, _ = run(
        capsys, "verify", "tensor-iso", "--n", "3", "--output", "iso.json"
    )
    assert code == 0
    doc = json.loads((tmp_path / "iso.json").read_text())
    assert doc["status"] == "pass"


def test_verify_tensor_iso_fails_on_corrupt_taft_product(capsys, monkeypatch):
    from hopfring.algebra import AlgebraSpec, build_algebra

    T1 = build_algebra(AlgebraSpec("taft", 3))
    x, g = (0, 1), (1, 0)
    ((gx, c),) = T1.mono_mul(x, g).items()  # x g = q g x
    monkeypatch.setitem(T1._pair_memo, (x, g), {gx: c * T1.field.q})
    code, out = run(capsys, "verify", "tensor-iso", "--n", "3")
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "fail"
    rep = doc["reports"][0]
    assert rep["status"] == "fail"
    assert [f["kind"] for f in rep["failures"]] == ["product-mismatch"]
    # d c = q c d maps to (x (x) 1)(g (x) 1), the corrupted x g
    assert rep["first_product_mismatch"] == [[0, 0, 0, 1], [0, 0, 1, 0]]
    assert rep["failures"][0]["detail"] == rep["first_product_mismatch"]


def _keys(obj):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield k
            yield from _keys(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _keys(v)


def test_timings_opt_in(capsys):
    code, out = run(capsys, "verify", "prop3.9", "--n", "3")
    assert code == 0
    assert "elapsed_s" not in out
    code, out = run(capsys, "verify", "prop3.9", "--n", "3", "--timings")
    assert code == 0
    assert "elapsed_s" in json.loads(out)["reports"][0]
    argv = ["algebra", "verify", "--family", "tensor-taft", "--n", "3"]
    code, out = run(capsys, *argv)
    assert code == 0
    assert "elapsed_s" not in set(_keys(json.loads(out)))
    code, out = run(capsys, *argv, "--timings")
    assert code == 0
    reports = json.loads(out)["reports"]
    assert len(reports) == 5
    assert all(isinstance(r["elapsed_s"], float) for r in reports)


def test_algebra_verify_rejects_sample(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["algebra", "verify", "--family", "tensor-taft", "--n", "3", "--sample", "600"])
    assert exc.value.code == 2


@pytest.mark.parametrize("family,p,corrupt", [
    ("tensor_taft", None, "delta"), ("hpq", 1, "delta"),
    ("tensor_taft", None, "antipode"), ("hpq", 1, "antipode"),
])
def test_algebra_verify_fails_on_corrupt_hopf_maps(capsys, monkeypatch, family, p, corrupt):
    from hopfring.algebra import AlgebraSpec, build_algebra
    from hopfring.hopf import HopfMaps
    from hopfring.repn import module_catalog

    H = build_algebra(AlgebraSpec(family, 3, p))
    module_catalog(H)  # the cached catalog tensors modules through the intact maps
    # a fresh HopfMaps in place of the cached one, so no corrupted memo outlives the test
    maps = HopfMaps(H)
    if corrupt == "delta":
        a, c = (1, 0, 0, 0), (0, 0, 1, 0)
        maps._delta_gen[0] = {(a, c): H.field.one, (H._unit, a): H.field.one}
    else:
        maps._s_gen[1] = H.gen("b")
    monkeypatch.setattr(H, "_hopf_maps", maps, raising=False)
    argv = ["algebra", "verify", "--family", family.replace("_", "-"), "--n", "3"]
    if p is not None:
        argv += ["--p", str(p)]
    code, out = run(capsys, *argv)
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "fail"
    axioms = doc["reports"][0]
    assert axioms["check"] == "hopf_axioms" and axioms["status"] == "fail"
    assert axioms["relation_failures"]
    assert {f["map"] for f in axioms["relation_failures"]} == {corrupt}


def test_identity_targets(capsys):
    for target in ("lemma5.3", "cor5.4", "prop5.5", "lemma5.6", "prop5.7"):
        code, out = run(capsys, "verify", target, "--n", "3")
        assert code == 0, (target, out)
        doc = json.loads(out)
        assert doc["reports"][0]["items"], target


def test_verify_quiver(capsys):
    code, out = run(capsys, "verify", "quiver4", "--n", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["reports"][0]["arrows_per_block"] == 6


def test_quiver_scalar_gate_can_fail(capsys, monkeypatch):
    from hopfring import green

    real = green._ratio

    def squared(x, y):
        lam = real(x, y)
        return None if lam is None else lam * lam

    monkeypatch.setattr(green, "_ratio", squared)
    code, out = run(capsys, "verify", "quiver4", "--n", "3")
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "fail"
    rep = doc["reports"][0]
    assert rep["status"] == "fail"
    assert rep["scalar_is_q_uniformly"] is False
    assert rep["crown_shape"] is True


def test_quiver_arrow_gate_can_fail(capsys, monkeypatch):
    from hopfring.algebra import Algebra

    real = Algebra.group_idempotents

    def merged(H):
        # vertex 0 of block 0 becomes e_0 + e_1, which carries both
        # vertices' arrows; the commutation scalars stay q
        es = dict(real(H))
        es[(0, 0)] = es[(0, 0)] + es[(1, 1)]
        return es

    monkeypatch.setattr(Algebra, "group_idempotents", merged)
    code, out = run(capsys, "verify", "quiver4", "--n", "3")
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "fail"
    rep = doc["reports"][0]
    assert rep["status"] == "fail"
    assert rep["crown_shape"] is False
    assert rep["scalar_is_q_uniformly"] is True
    assert rep["arrows_per_block"] == 10
    assert rep["arrow_counts"]["0->0"] == 2


def test_algebra_verify_hpq1(capsys):
    code, out = run(
        capsys, "algebra", "verify", "--family", "hpq", "--p", "1", "--n", "3"
    )
    assert code == 0
    doc = json.loads(out)
    checks = {r["check"]: r for r in doc["reports"]}
    assert checks["blocks"]["block_count"] == 6
    assert checks["loewy_length"]["value"] == 3
    assert checks["integrals"]["unimodular"] is True


def test_algebra_verify_rejects_taft_factors(capsys):
    for family in ("taft", "taft-opp"):
        assert main(["algebra", "verify", "--family", family, "--n", "3"]) == 2
        assert "tensor-taft and hpq" in capsys.readouterr().err
    assert main(["verify", "blocks", "--family", "taft", "--n", "3"]) == 2
    # the module catalogs and the fusion tables are rejected up front too,
    # with nothing on stdout
    for family in ("taft", "taft-opp"):
        for command in (["modules", "list"], ["export", "--what", "modules"],
                        ["export", "--what", "table"]):
            assert main(command + ["--family", family, "--n", "3"]) == 2
            out, err = capsys.readouterr()
            assert out == "" and "tensor-taft and hpq" in err
    for p in ("2", "-1", "1/2"):
        argv = ["export", "--what", "table", "--family", "hpq", "--p", p, "--n", "3"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and "p in {0, 1}" in err


def test_deformed_loewy_gate_can_fail(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_loewy_for", lambda H: 4)
    code, out = run(
        capsys, "algebra", "verify", "--family", "hpq", "--p", "1", "--n", "3"
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "fail"
    checks = {r["check"]: r for r in doc["reports"]}
    assert checks["loewy_length"] == {"check": "loewy_length", "value": 4, "status": "fail"}


def test_loewy_gate_crosschecks_trace_form_deformed(capsys, monkeypatch):
    # the PIM filtrations give 3; a trace-form value of 4 must not pass
    monkeypatch.setattr(cli, "loewy_length", lambda H: 4)
    code, out = run(
        capsys, "algebra", "verify", "--family", "hpq", "--p", "1", "--n", "3"
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "fail"
    checks = {r["check"]: r for r in doc["reports"]}
    assert checks["loewy_length"] == {"check": "loewy_length", "value": 3, "status": "fail"}


def test_loewy_gate_can_fail_tensor_taft(capsys, monkeypatch):
    monkeypatch.setattr(cli, "loewy_length", lambda H: 2 * H.n)
    code, out = run(capsys, "algebra", "verify", "--family", "tensor-taft", "--n", "3")
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "fail"
    checks = {r["check"]: r for r in doc["reports"]}
    assert checks["loewy_length"] == {"check": "loewy_length", "value": 6, "status": "fail"}


def test_blocks_expected_for_any_nonzero_p(capsys, monkeypatch):
    args = ["verify", "blocks", "--n", "3", "--family", "hpq", "--p", "1/2"]
    code, out = run(capsys, *args)
    assert code == 0
    assert json.loads(out)["reports"][0]["expected_block_count"] == 6
    real = cli.center_and_blocks

    def one_block_too_many(H):
        rep = real(H)
        rep["block_count"] += 1
        return rep

    monkeypatch.setattr(cli, "center_and_blocks", one_block_too_many)
    code, out = run(capsys, *args)
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "fail"
    assert doc["reports"][0]["block_count"] == 7


def test_radical_generators_feed_the_loewy_gate(capsys, monkeypatch):
    # with G = [a] the radical powers shrink too fast: the Loewy length
    # read from G must disagree with 2n - 1 and fail the command
    from hopfring import algebra, repn, structure

    monkeypatch.setattr(algebra, "_CACHE", {})
    def only_a(H):
        return [H.gen("a")]

    monkeypatch.setattr(structure, "radical_ideal_generators", only_a)
    monkeypatch.setattr(repn, "radical_ideal_generators", only_a)
    code, out = run(capsys, "algebra", "verify", "--family", "tensor-taft", "--n", "3")
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "fail"
    checks = {r["check"]: r for r in doc["reports"]}
    assert checks["loewy_length"] == {"check": "loewy_length", "value": 4, "status": "fail"}


def test_radical_gate_checks_the_ad_ideal(capsys, monkeypatch):
    # J = aH + dH is what makes G = [a, d] valid for the basic families
    from hopfring import algebra, structure

    monkeypatch.setattr(algebra, "_CACHE", {})
    real = structure.monomial_ideal_span
    monkeypatch.setattr(
        structure, "monomial_ideal_span", lambda H, pred: real(H, lambda m: m[0] >= 1)
    )
    code, out = run(capsys, "algebra", "verify", "--family", "hpq", "--p", "0", "--n", "3")
    assert code == 1
    checks = {r["check"]: r for r in json.loads(out)["reports"]}
    assert checks["radical"]["equals_ideal_generated_by_a_d"] is False
    assert checks["radical"]["status"] == "fail"
