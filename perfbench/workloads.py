"""The benchmark's workloads: fixed lists of ``hopfring`` commands.

Each command runs in a fresh interpreter, one after another on one thread
(no ``--jobs``), because the package's caches (``build_algebra``'s cache,
``H._catalog``, ``H._radical``, the rewriting and Hopf memos) are
process-global and a CLI user always starts cold.  Every command gets the
workload seed as ``--seed``.  All commands run at n = 3 except the one n = 5
command, which keeps one workload on a degree-4 coefficient field; n = 3 is
the smallest order the CLI accepts, and it keeps each workload within the
benchmark's time budget.

``setup`` lists what a command builds before its first check, in the form
``child.py`` takes: ``["algebra", family_key]``,
``["algebra", family_key, assoc_sample]`` or ``["catalog", family_key, seed]``
(a seed of ``None`` means the command's ``--seed``).  It names only what the command builds anyway, through the same
path and with the same self-check depth; the traced run checks that.

``nonzero`` names the per-layer metrics that must be non-zero on the
workload's traced run, and ``zero`` the layers it must bypass.
"""

_SWEEP_TARGETS = (
    ("thm3.8", []),
    ("thm4.9", []),
    ("thm5.9", []),
    ("prop3.9", []),
    ("prop4.1", [["algebra", "hpq0"], ["algebra", "tensor_taft"]]),
    ("prop4.6", [["algebra", "hpq0"]]),
    ("prop4.10", []),
    ("cor3.4", [["algebra", "tensor_taft"]]),
    ("cor3.5", [["algebra", "tensor_taft"], ["catalog", "tensor_taft", 0]]),
    ("cor4.4", [["algebra", "hpq0"]]),
    ("lemma5.3", []),
    ("cor5.4", []),
    ("prop5.5", []),
    ("lemma5.6", []),
    ("prop5.7", []),
    ("cor5.8", []),
    ("quiver4", [["algebra", "hpq0"]]),
    # tensor_iso_check builds its algebras with its own depth of 200
    ("tensor-iso", [["algebra", k, 200] for k in ("tensor_taft", "taft", "taft_opp")]),
)

WORKLOADS = {
    "fusion-oracle": {
        "why": "the paper's verified-twice path: closed-form fusion rules checked "
        "entry by entry against tensored and decomposed modules; repn-bound, seed-independent",
        # The module catalogs ignore the seed, so this workload's work does not
        # depend on it.  One round must stay short enough for two rounds to
        # fit in a run, so the full hpq grids are left out: the hpq p=0 grid
        # runs the same basic catalog and tensor path as the tensor-taft grid,
        # and the deformed hpq p=1 path is kept as one projective-by-projective
        # product, checked against its closed form.
        "commands": [
            {
                "argv": ["table", "--family", "tensor-taft", "--mode", "crosscheck", "--n", "3"],
                "setup": [["algebra", "tensor_taft"], ["catalog", "tensor_taft", None]],
            },
            {
                "argv": ["fuse", "P(2,1)", "P(2,2)", "--family", "hpq", "--p", "1",
                         "--mode", "both", "--n", "3"],
                "setup": [["algebra", "hpq1"], ["catalog", "hpq1", None]],
            },
        ],
        "nonzero": [
            "cyclo.mul_calls", "cyclo.add_calls", "cyclo.inverse_calls",
            "linalg.rref_calls", "linalg.rref_cells", "linalg.rref_s", "linalg.kernel_s",
            "linalg.span_insert_calls", "linalg.matmul_calls", "linalg.kronecker_s",
            "linalg.self_s",
            "algebra.build_s", "algebra.mono_mul_calls", "algebra.pair_memo_misses",
            "repn.tensor_calls", "repn.tensor_build_s", "repn.relation_check_calls",
            "repn.relation_check_dims", "repn.relation_check_s", "repn.tensor_check_calls",
            "repn.hom_dim_calls", "repn.hom_dim_s", "repn.weightized_s",
            "repn.decompose_calls", "repn.decompose_s", "repn.catalog_s", "repn.self_s",
            "green.fusion_table_s", "green.closed_form_s", "green.self_s", "cli.self_s",
        ],
        "zero": ["structure.loewy_s"],
    },
    "algebra-verify": {
        "why": "algebra-level checks with no fusion products: PBW rewriting, Hopf "
        "axioms, trace-form radical and Loewy length, hpq p=1 module discovery",
        # The n = 5 command is the only one over a degree-4 field (phi(5) = 4;
        # phi(3) = 2), so scalar-layer changes are seen at a second size.
        "commands": [
            {
                "argv": ["algebra", "verify", "--family", "hpq", "--p", "1", "--n", "3"],
                "setup": [["algebra", "hpq1"], ["catalog", "hpq1", 0]],
            },
            {
                "argv": ["algebra", "verify", "--family", "tensor-taft", "--n", "5"],
                "setup": [["algebra", "tensor_taft"]],
            },
        ],
        "nonzero": [
            "cyclo.mul_calls", "cyclo.add_calls", "cyclo.inverse_calls",
            "linalg.rref_calls", "linalg.rref_cells", "linalg.rref_s", "linalg.kernel_s",
            "linalg.span_insert_calls", "linalg.matmul_calls", "linalg.self_s",
            "algebra.build_s", "algebra.mono_mul_calls", "algebra.pair_memo_misses",
            "algebra.pair_memo_hit_ratio", "algebra.elt_mul_calls", "algebra.elt_mul_s",
            "algebra.self_s",
            "hopf.axioms_s", "hopf.delta_calls", "hopf.respects_relations_s", "hopf.self_s",
            "structure.radical_s", "structure.loewy_s", "structure.integrals_s",
            "structure.blocks_s", "structure.self_s",
            "fdalg.radical_calls", "fdalg.radical_s", "fdalg.self_s",
            "repn.catalog_s", "repn.radical_filtration_s", "repn.spin_s", "repn.self_s",
            "cli.self_s",
        ],
        # No fusion product is formed: no decomposition, and no relation check
        # triggered by a tensor product.  (The hpq p=1 catalog discovery still
        # checks the relations of the modules it spins up, and tensors a few
        # of them unchecked to calibrate labels.)
        "zero": ["repn.tensor_check_calls", "repn.decompose_calls", "green.fusion_table_s"],
    },
    "verify-sweep": {
        "why": "many short processes, one per verify target, where set-up is a large "
        "share: presentations, identity suite, class radicals, blocks, quiver",
        "commands": [
            {"argv": ["verify", target, "--n", "3"], "setup": setup}
            for target, setup in _SWEEP_TARGETS
        ]
        + [
            {
                "argv": ["verify", "blocks", "--family", "hpq", "--p", "1", "--n", "3"],
                "setup": [["algebra", "hpq1"]],
            }
        ],
        "nonzero": [
            "cyclo.mul_calls", "cyclo.add_calls", "cyclo.inverse_calls",
            "linalg.rref_calls", "linalg.self_s",
            "algebra.build_s", "algebra.mono_mul_calls", "algebra.elt_mul_calls",
            "algebra.elt_mul_s", "algebra.self_s",
            "hopf.delta_calls", "hopf.tensor_iso_s", "hopf.self_s",
            "structure.radical_s", "structure.loewy_s", "structure.integrals_s",
            "structure.blocks_s", "structure.block_iso_s", "structure.self_s",
            "fdalg.radical_calls", "fdalg.radical_s", "fdalg.self_s",
            "repn.catalog_s", "repn.relation_check_calls",
            "green.presentation_s", "green.identity_suite_s", "green.class_radical_s",
            "green.quiver_s", "green.self_s", "cli.self_s",
        ],
        "zero": ["repn.decompose_calls"],
    },
}
