"""Acceptance gate: one test per criterion, all tolerances exact.

Each test prints one pass/fail line.  Criterion timings are accumulated
per order n and checked against the runtime envelope at the end; that
check fails unless every criterion it sums ran in the same session.  So
this module doubles as the performance harness when run on its own:

    pytest tests/test_acceptance.py -v -s
"""

import os
import time

import pytest

from hopfring import green
from hopfring.algebra import AlgebraSpec, build_algebra
from hopfring.green import (
    class_algebra_radical,
    fusion_table,
    identity_suite_H1,
    quiver_check_H0,
    verify_presentation,
)
from hopfring.hopf import verify_hopf_axioms
from hopfring.labels import label_dim
from hopfring.repn import decompose, hom_dim, module_catalog, tensor_module
from hopfring.structure import (
    center_and_blocks,
    integrals_and_symmetry,
    jacobson_radical,
    loewy_length,
    monomial_ideal_span,
)
from oracles import conjugated_module

ELAPSED = {3: 0.0, 4: 0.0, 5: 0.0}
# the timed criteria whose n = 3 and n = 4 times criterion 9 sums
SUMMED = {
    3: {
        "test_criterion1_hopf_axioms_n3",
        "test_criterion2_structure_facts[3]",
        "test_criterion3_fusion_oracle_n3",
        "test_criterion4_presentations_basic[3]",
        "test_criterion4_presentation_deformed[3]",
        "test_criterion5_class_algebra_radicals[3]",
        "test_criterion6_identity_suite[3]",
        "test_criterion7_quiver[3]",
        "test_criterion8_robustness",
    },
    4: {
        "test_criterion1_hopf_axioms_n4",
        "test_criterion2_structure_facts[4]",
        "test_criterion3_fusion_oracle_n4",
        "test_criterion3_case_coverage_n4",
        "test_criterion4_presentations_basic[4]",
        "test_criterion4_presentation_deformed[4]",
        "test_criterion5_class_algebra_radicals[4]",
        "test_criterion6_identity_suite[4]",
        "test_criterion7_quiver[4]",
    },
}
TIMED = {3: set(), 4: set(), 5: set()}
TRIPLES = (("tensor_taft", None), ("hpq", 0), ("hpq", 1))


def get(family, n, p=None):
    return build_algebra(AlgebraSpec(family, n, p))


class timer:
    def __init__(self, n):
        self.n = n

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.dt = time.perf_counter() - self.t0
        ELAPSED[self.n] += self.dt
        test_id = os.environ["PYTEST_CURRENT_TEST"].split("::")[-1].split(" ")[0]
        TIMED[self.n].add(test_id)
        return False


def report(name, ok, detail=""):
    line = "ACCEPTANCE %-52s %s" % (name, "PASS" if ok else "FAIL")
    if detail:
        line += "  (%s)" % detail
    print(line, flush=True)
    assert ok, name


def test_criterion1_hopf_axioms_n3():
    with timer(3) as t:
        ok = True
        for fam, p in TRIPLES:
            rep = verify_hopf_axioms(get(fam, 3, p))
            ok = ok and rep.ok and rep.checked == 81
    report("1a: Hopf axioms, n=3, all 81 basis elements x3", ok,
           "%.1fs" % t.dt)
    assert t.dt < 30.0


def test_criterion1_hopf_axioms_n4():
    with timer(4) as t:
        ok = True
        for fam, p in TRIPLES:
            rep = verify_hopf_axioms(get(fam, 4, p), sample=500, seed=0)
            ok = ok and rep.ok and rep.checked >= 500
    report("1b: Hopf axioms, n=4, 500 seeded samples x3", ok, "%.1fs" % t.dt)
    assert t.dt < 300.0


def test_criterion1_hopf_axioms_n5():
    with timer(5) as t:
        ok = True
        for fam, p in TRIPLES:
            rep = verify_hopf_axioms(get(fam, 5, p), sample=500, seed=0)
            ok = ok and rep.ok and rep.checked >= 500
    report("1c: Hopf axioms, n=5, 500 seeded samples x3", ok, "%.1fs" % t.dt)


@pytest.mark.parametrize("n", [3, 4])
def test_criterion2_structure_facts(n):
    with timer(n) as t:
        ok = True
        for fam, p in TRIPLES:
            ok = ok and get(fam, n, p).dim == n ** 4
        for fam, p in (("tensor_taft", None), ("hpq", 0)):
            H = get(fam, n, p)
            ok = ok and loewy_length(H) == 2 * n - 1
            ok = ok and jacobson_radical(H) == monomial_ideal_span(
                H, lambda m: m[0] + m[3] >= 1
            )
        blocks = {}
        for fam, p in TRIPLES:
            blocks[(fam, p)] = center_and_blocks(get(fam, n, p))["block_count"]
        ok = ok and blocks[("tensor_taft", None)] == 1
        ok = ok and blocks[("hpq", 0)] == n
        ok = ok and blocks[("hpq", 1)] == n * (n + 1) // 2
        rep0 = integrals_and_symmetry(get("hpq", n, 0))
        ok = ok and rep0["unimodular"] and rep0["s2_inner_by_b"]
        repT = integrals_and_symmetry(get("tensor_taft", n))
        ok = ok and not repT["unimodular"]
    report(
        "2: structure facts (dim, Loewy, radical, blocks), n=%d" % n,
        ok,
        "%.1fs" % t.dt,
    )


def test_criterion3_fusion_oracle_n3(monkeypatch):
    # every matrix-oracle product the crosscheck computes, by label pair
    computed = {}
    real = green.computed_fusion

    def recorded(cat, a, b):
        computed[(a, b)] = real(cat, a, b)
        return computed[(a, b)]

    monkeypatch.setattr(green, "computed_fusion", recorded)
    with timer(3) as t:
        sizes = {}
        agree = True
        for fam in ("tensor_taft", "hpq0", "hpq1"):
            computed.clear()
            table = fusion_table(fam, 3, "crosscheck")
            sizes[fam] = len(table.entries)
            agree = agree and table.mode == "crosscheck"
            agree = agree and computed == table.entries
        ok = agree and sizes == {"tensor_taft": 324, "hpq0": 324, "hpq1": 225}
    report("3a: fusion oracle equivalence, n=3, three grids", ok, "%.1fs" % t.dt)


def test_criterion3_fusion_oracle_n4():
    with timer(4) as t:
        ok = True
        for fam in ("tensor_taft", "hpq0"):
            table = fusion_table(fam, 4, "crosscheck")
            ok = ok and len(table.entries) == 32 * 32
    report("3b: fusion oracle equivalence, n=4, two basic grids", ok, "%.1fs" % t.dt)


def test_criterion3_case_coverage_n4():
    with timer(4) as t:
        table = fusion_table("hpq1", 4, "closed_form")
        hit = {case for case, cnt in table.coverage.items() if cnt}
        ok = hit == {"case%02d" % k for k in range(1, 12)}
    report("3c: all 11 deformed fusion cases exercised at n=4", ok,
           str(sorted(table.coverage.items())))


@pytest.mark.parametrize("n", [3, 4])
def test_criterion4_presentations_basic(n):
    with timer(n) as t:
        repT = verify_presentation("tensor_taft", n)
        rep0 = verify_presentation("hpq0", n)
        ok = (
            repT["status"] == "pass"
            and rep0["status"] == "pass"
            and repT["normal_basis_size"] == 2 * n * n
            and rep0["normal_basis_size"] == 2 * n * n
            and abs(repT["change_of_basis_det"]) == 1
            and abs(rep0["change_of_basis_det"]) == 1
        )
    report("4a: ring presentations of the basic families, n=%d" % n, ok)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_criterion4_presentation_deformed(n):
    with timer(n) as t:
        rep = verify_presentation("hpq1", n)
        ok = (
            rep["status"] == "pass"
            and rep["normal_basis_size"] == n * (2 * n - 1)
            and abs(rep["change_of_basis_det"]) == 1
        )
    report("4b: deformed-family presentation, n=%d" % n, ok, "%.1fs" % t.dt)


@pytest.mark.parametrize("n", [3, 4])
def test_criterion5_class_algebra_radicals(n):
    with timer(n) as t:
        repT = class_algebra_radical("tensor_taft", n)
        rep0 = class_algebra_radical("hpq0", n)
        ok = (
            repT["status"] == "pass"
            and rep0["status"] == "pass"
            and repT["quotient_dim"] == n * n + 1
            and rep0["quotient_dim"] == n * (n + 1)
            and repT["idempotents"]["count"] == n * n + 1
            and rep0["idempotents"]["count"] == n * (n + 1)
        )
    report("5: class algebra radicals and idempotent census, n=%d" % n, ok)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_criterion6_identity_suite(n):
    with timer(n) as t:
        rep = identity_suite_H1(n)
        cor58 = verify_presentation("hpq1", n)
        ok = rep["status"] == "pass" and abs(cor58["change_of_basis_det"]) == 1
    report("6: identity suite in the symbolic fusion ring, n=%d" % n, ok,
           "%.1fs" % t.dt)


@pytest.mark.parametrize("n", [3, 4])
def test_criterion7_quiver(n):
    with timer(n) as t:
        rep = quiver_check_H0(n)
        ok = (
            rep["status"] == "pass"
            and rep["arrows_per_block"] == 2 * n
            and rep["crown_shape"]
            and rep["scalar_is_q_uniformly"]
        )
    report("7: block quiver crown and admissible relations, n=%d" % n, ok)


def test_criterion8_robustness():
    with timer(3) as t:
        ok = True
        fixtures = []
        for fam, p in TRIPLES:
            H = get(fam, 3, p)
            cat = module_catalog(H)
            labs = cat.labels
            fixtures.append((H, tensor_module(
                cat.simples[labs[1]], cat.pims[labs[0]]
            )))
            for lab in labs:
                ok = ok and hom_dim(cat.simples[lab], cat.simples[lab]).dim == 1
        for H, fixture in fixtures:
            base = decompose(fixture)
            ok = ok and sum(m * label_dim(l, H.n) for l, m in base.items()) == fixture.dim
            for seed in range(20):
                twisted = conjugated_module(fixture, seed)
                ok = ok and decompose(twisted) == base
    report("8: conjugation invariance, splitness, bookkeeping", ok,
           "%.1fs" % t.dt)


def test_criterion9_performance_envelope():
    line = "n=3: %.1fs of 120s; n=4: %.1fs of 900s" % (ELAPSED[3], ELAPSED[4])
    # a sum over criteria that did not run (say under -k) proves nothing
    missing = sorted((SUMMED[3] - TIMED[3]) | (SUMMED[4] - TIMED[4]))
    if missing:
        line += "; not run: %s" % ", ".join(missing)
    ok = not missing and ELAPSED[3] < 120.0 and ELAPSED[4] < 900.0
    report("9: runtime envelope", ok, line)
