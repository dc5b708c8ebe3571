"""Batch driver: build, verify, tabulate, export.

Every subcommand emits a single JSON document (or text/CSV rendering) and
exits 0 exactly when every executed check passed.  Identical configuration
and seed give byte-identical JSON; timing fields are opt-in because they
would break that contract.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import os
import sys
import time

from .algebra import AlgebraSpec, build_algebra
from .cyclo import RAT
from .green import (
    FusionMismatch,
    algebra_for_family,
    class_algebra_radical,
    closed_form_fusion,
    computed_fusion,
    fusion_table,
    identity_suite_H1,
    quiver_check_H0,
    verify_presentation,
)
from .hopf import tensor_iso_check, verify_hopf_axioms
from .labels import basis_labels, format_combination, parse_label
from .structure import (
    blocks_isomorphic_H0,
    center_and_blocks,
    integrals_and_symmetry,
    loewy_length,
    radical_report,
)

SCHEMA_VERSION = 1

class CliError(Exception):
    pass


def _family_key(family, p):
    if family == "tensor-taft":
        return "tensor_taft"
    if family == "taft":
        return "taft"
    if family == "taft-opp":
        return "taft_opp"
    if family == "hpq":
        if p is None:
            raise CliError("family hpq needs --p")
        pr = RAT(p)
        if pr == 0:
            return "hpq0"
        if pr == 1:
            return "hpq1"
        return ("hpq", p)
    raise CliError("unknown family %r" % (family,))


def _build(family_key, n):
    if isinstance(family_key, tuple):
        return build_algebra(AlgebraSpec("hpq", n, RAT(family_key[1])))
    if family_key in ("tensor_taft", "taft", "taft_opp"):
        return build_algebra(AlgebraSpec(family_key, n))
    return algebra_for_family(family_key, n)


def _timed(args, check):
    """Run one report's check; with --timings, add its wall time as elapsed_s."""
    if not args.timings:
        return check()
    t0 = time.perf_counter()
    rep = check()
    rep["elapsed_s"] = round(time.perf_counter() - t0, 3)
    return rep


def _emit(doc, args):
    if args.format == "json":
        text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    elif args.format == "csv":
        text = doc.get("csv", "") if isinstance(doc, dict) else str(doc)
    else:
        text = _render_text(doc) + "\n"
    out = args.output
    if out:
        base_dir = os.environ.get("HOPFRING_OUT_DIR")
        if base_dir and not os.path.isabs(out):
            out = os.path.join(base_dir, out)
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _render_text(doc, indent=0):
    pad = "  " * indent
    if isinstance(doc, dict):
        lines = []
        for k in sorted(doc):
            v = doc[k]
            if isinstance(v, (dict, list)):
                lines.append("%s%s:" % (pad, k))
                lines.append(_render_text(v, indent + 1))
            else:
                lines.append("%s%s: %s" % (pad, k, v))
        return "\n".join(lines)
    if isinstance(doc, list):
        return "\n".join(_render_text(v, indent) for v in doc)
    return "%s%s" % (pad, doc)


def _wrap(args, command, reports):
    status = "pass"
    for rep in reports:
        if isinstance(rep, dict) and rep.get("status") == "fail":
            status = "fail"
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": {
            "family": getattr(args, "family", None),
            "n": getattr(args, "n", None),
            "p": getattr(args, "p", None),
            "seed": args.seed,
        },
        "status": status,
        "reports": reports,
    }


def _require_abcd(family_key, what):
    """Reject the Taft factors, which have no conjugation grading."""
    if family_key in ("taft", "taft_opp"):
        raise CliError("%s applies to the families tensor-taft and hpq" % what)


def _blocks_check(H, family_key):
    """Block count of the center against its expected value for the family;
    for p = 0, also every flag of the central idempotent census."""
    n = H.n
    if family_key == "tensor_taft":
        expected = 1
    elif family_key == "hpq0":
        expected = n
    else:
        # every p != 0 gives an algebra isomorphic to p = 1 (rescale a to a/p)
        expected = n * (n + 1) // 2
    rep = center_and_blocks(H)
    rep["expected_block_count"] = expected
    ok = rep["block_count"] == expected
    ok = ok and all(rep.get("central_idempotents", {}).values())
    rep["status"] = "pass" if ok else "fail"
    return rep


def _fusion_subset(predicate):
    """Runner that crosschecks closed form vs matrix oracle on the label
    pairs satisfying predicate."""

    def run(n, family, seed):
        from .repn import module_catalog

        cat = module_catalog(algebra_for_family(family, n))
        labels = basis_labels(family, n)
        checked = 0
        for a in labels:
            for b in labels:
                if not predicate(a, b):
                    continue
                closed = closed_form_fusion(family, n, a, b)
                computed = computed_fusion(cat, a, b)
                if closed != computed:
                    return FusionMismatch(family, n, (a, b), closed, computed).report()
                checked += 1
        return {"family": family, "n": n, "status": "pass", "pairs_checked": checked}

    return run


def _identity_items(*prefixes):
    """Runner that gates the identity-suite items with the given prefixes."""

    def run(n, family, seed):
        items = {
            k: v for k, v in identity_suite_H1(n)["items"].items() if k.startswith(prefixes)
        }
        ok = all(v["holds"] for v in items.values())
        return {"n": n, "status": "pass" if ok else "fail", "items": items}

    return run


def _presentation(n, family, seed):
    return verify_presentation(family, n, seed=seed)


def _class_radical(n, family, seed):
    return class_algebra_radical(family, n)


def _loewy_for(H):
    if H.deformed:
        # max Loewy length over the projective covers (H is their direct sum),
        # whose radical layers the catalog computed for the Cartan matrix
        from .repn import module_catalog

        return max(len(layers) for layers in module_catalog(H).layers.values())
    return loewy_length(H)


def _quotient_ok(rep):
    """The semisimple-quotient gate: only True passes."""
    return rep["quotient_semisimple"] is True


def _radical_target(n, family, seed):
    rep = radical_report(_build(family, n))
    ok = (
        rep["loewy_length"] == 2 * n - 1
        and rep.get("equals_ideal_generated_by_a_d", False)
        and _quotient_ok(rep)
    )
    rep["expected_loewy"] = 2 * n - 1
    rep["status"] = "pass" if ok else "fail"
    return rep


def _lemma51(n, family, seed):
    try:
        table = fusion_table(family, n, "crosscheck")
    except FusionMismatch as exc:
        return exc.report()
    return {
        "family": family,
        "n": n,
        "status": "pass",
        "entries": len(table.entries),
        "case_coverage": dict(sorted(table.coverage.items())),
    }


def _integrals_target(n, family, seed):
    rep0 = integrals_and_symmetry(_build(family, n))
    repT = integrals_and_symmetry(_build("tensor_taft", n))
    ok = rep0["symmetric_certified"] and not repT["unimodular"]
    return {
        "n": n,
        "status": "pass" if ok else "fail",
        "deformed_p0": rep0,
        "undeformed": repT,
    }


def _covers_target(n, family, seed):
    from .repn import hom_dim, module_catalog

    cat = module_catalog(_build(family, n))
    ok = all(cat.pims[lab].dim == n * n for lab in cat.labels)
    tops_ok = all(
        [hom_dim(cat.pims[lab], cat.simples[l2]).dim for l2 in cat.labels]
        == [1 if l2 == lab else 0 for l2 in cat.labels]
        for lab in cat.labels
    )
    return {
        "n": n,
        "status": "pass" if (ok and tops_ok) else "fail",
        "cover_dim": n * n,
        "tops_simple": tops_ok,
    }


def _blocks_target(n, family, seed):
    _require_abcd(family, "verify blocks")
    return _blocks_check(_build(family, n), family)


def _has_simple(a, b):
    return a.kind == "S" or b.kind == "S"


def _both_projective(a, b):
    return a.kind == "P" and b.kind == "P"


# target -> (default family, runner(n, family_key, seed)), in listing order;
# only ``blocks`` takes any family, and needs --family
_TARGETS = {
    "thm3.8": ("tensor_taft", _presentation),
    "thm4.9": ("hpq0", _presentation),
    "thm5.9": ("hpq1", _presentation),
    "prop3.6": ("tensor_taft", _fusion_subset(_has_simple)),
    "prop3.7": ("tensor_taft", _fusion_subset(_both_projective)),
    "prop3.9": ("tensor_taft", _class_radical),
    "prop4.1": ("hpq0", _integrals_target),
    "prop4.6": ("hpq0", lambda n, family, seed: blocks_isomorphic_H0(_build(family, n))),
    "prop4.7": ("hpq0", _fusion_subset(_has_simple)),
    "prop4.8": ("hpq0", _fusion_subset(_both_projective)),
    "prop4.10": ("hpq0", _class_radical),
    "cor3.4": ("tensor_taft", _radical_target),
    "cor3.5": ("tensor_taft", _covers_target),
    "cor4.4": ("hpq0", _radical_target),
    "lemma5.1": ("hpq1", _lemma51),
    "lemma5.3": ("hpq1", _identity_items("tensor_power_")),
    "cor5.4": (
        "hpq1",
        _identity_items("x_order", "x_translates_", "y_times_", "simple_from_powers"),
    ),
    "prop5.5": ("hpq1", _identity_items("generated_by_x_y")),
    "lemma5.6": ("hpq1", _identity_items("simple_polynomials", "cover_polynomials")),
    "prop5.7": ("hpq1", _identity_items("vanishing_product")),
    "cor5.8": ("hpq1", _presentation),
    "quiver4": ("hpq0", lambda n, family, seed: quiver_check_H0(n)),
    "blocks": (None, _blocks_target),
    "tensor-iso": ("tensor_taft", lambda n, family, seed: tensor_iso_check(n)),
}

VERIFY_TARGETS = tuple(_TARGETS)


def cmd_verify(args):
    target = args.target
    if target not in _TARGETS:
        raise CliError(
            "unknown target %r; valid targets: %s" % (target, ", ".join(VERIFY_TARGETS))
        )
    default_family, runner = _TARGETS[target]
    family_key = default_family
    if args.family:
        family_key = _family_key(args.family, args.p)
        if default_family and family_key != default_family:
            raise CliError(
                "target %s is specific to family %s" % (target, default_family)
            )
    if family_key is None:
        raise CliError("target %s needs --family" % (target,))
    report = _timed(args, lambda: runner(args.n, family_key, args.seed))
    report.setdefault("target", target)
    return _wrap(args, "verify", [report])


def cmd_algebra_verify(args):
    family_key = _family_key(args.family, args.p)
    _require_abcd(family_key, "algebra verify")
    H = _build(family_key, args.n)
    # the whole basis up to dim 100, else a seeded sample of 500 elements
    sample = None if H.dim <= 100 else 500

    def axioms():
        rep = verify_hopf_axioms(H, sample=sample, seed=args.seed)
        return dict(rep.to_json(), check="hopf_axioms")

    def radical():
        rep = radical_report(H)
        rep["check"] = "radical"
        # the basic families' radical layers rely on J = aH + dH
        ok = _quotient_ok(rep) and rep.get("equals_ideal_generated_by_a_d", True)
        rep["status"] = "pass" if ok else "fail"
        return rep

    def loewy():
        value = _loewy_for(H)
        # deformed: each 2n-dimensional PIM has a top, a middle and a socle
        # layer, and the PIM filtrations must agree with the trace-form radical
        ok = value == (2 * args.n - 1 if H.basic else 3) and value == loewy_length(H)
        return {"check": "loewy_length", "value": value, "status": "pass" if ok else "fail"}

    def integrals():
        rep = integrals_and_symmetry(H)
        rep["check"] = "integrals"
        ok = rep["left_integral_dim"] == 1 and rep["right_integral_dim"] == 1
        rep["status"] = "pass" if ok else "fail"
        return rep

    def blocks():
        return dict(_blocks_check(H, family_key), check="blocks")

    reports = [_timed(args, check) for check in (axioms, radical, loewy, integrals, blocks)]
    return _wrap(args, "algebra verify", reports)


def cmd_modules_list(args):
    from .repn import module_catalog

    family_key = _family_key(args.family, args.p)
    H = _build(family_key, args.n)
    cat = module_catalog(H, seed=args.seed)
    simples = [
        {"label": str(lab), "dim": cat.simples[lab].dim} for lab in cat.labels
    ]
    pims = [
        {
            "label": str(cat.pims[lab].label),
            "covers": str(lab),
            "dim": cat.pims[lab].dim,
        }
        for lab in cat.labels
    ]
    rep = {"simples": simples, "projective_covers": pims, "status": "pass"}
    return _wrap(args, "modules list", [rep])


def cmd_fuse(args):
    family_key = _family_key(args.family, args.p)
    if family_key not in ("tensor_taft", "hpq0", "hpq1"):
        raise CliError("fusion applies to tensor-taft and hpq with p in {0, 1}")
    a = parse_label(args.a, family_key, args.n)
    b = parse_label(args.b, family_key, args.n)
    reports = []
    closed = None
    if args.mode in ("closed", "both"):
        closed = closed_form_fusion(family_key, args.n, a, b)
        reports.append(
            {
                "mode": "closed_form",
                "result": format_combination(closed),
                "status": "pass",
            }
        )
    if args.mode in ("computed", "both"):
        from .repn import module_catalog

        cat = module_catalog(_build(family_key, args.n), seed=args.seed)
        computed = computed_fusion(cat, a, b)
        status = "pass"
        if closed is not None and computed != closed:
            status = "fail"
        reports.append(
            {"mode": "computed", "result": format_combination(computed), "status": status}
        )
    return _wrap(args, "fuse", reports)


def cmd_table(args):
    family_key = _family_key(args.family, args.p)
    if family_key not in ("tensor_taft", "hpq0", "hpq1"):
        raise CliError("fusion tables apply to tensor-taft and hpq with p in {0, 1}")
    try:
        table = fusion_table(family_key, args.n, args.mode)
    except FusionMismatch as exc:
        return _wrap(args, "table", [exc.report()])
    doc = table.to_json()
    doc["status"] = "pass"
    if args.format == "csv":
        return {"schema_version": SCHEMA_VERSION, "status": "pass", "csv": table.to_csv()}
    return _wrap(args, "table", [doc])


def cmd_export(args):
    family_key = _family_key(args.family, args.p)
    if args.what == "structure":
        H = _build(family_key, args.n)
        doc = H.structure_constants_json()
    elif args.what == "modules":
        from .repn import module_catalog

        H = _build(family_key, args.n)
        cat = module_catalog(H, seed=args.seed)
        doc = {
            "simples": {str(l): cat.simples[l].to_json() for l in cat.labels},
            "projective_covers": {
                str(cat.pims[l].label): cat.pims[l].to_json() for l in cat.labels
            },
        }
    elif args.what == "table":
        table = fusion_table(family_key, args.n, "closed_form")
        doc = table.to_json()
    else:
        raise CliError("unknown export kind %r" % (args.what,))
    doc = {"schema_version": SCHEMA_VERSION, "export": args.what, "data": doc, "status": "pass"}
    return doc


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hopfring",
        description="Exact verification suite for Taft-type Hopf algebras and their projective class rings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, family_required=True):
        p.add_argument("--family", choices=["tensor-taft", "hpq", "taft", "taft-opp"],
                       required=family_required)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--p", default=None, help="parameter for family hpq (rational)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--output", default=None)
        p.add_argument("--format", choices=["json", "csv", "text"], default="json")
        p.add_argument("--timings", action="store_true")

    p_alg = sub.add_parser("algebra", help="algebra-level verification bundle")
    alg_sub = p_alg.add_subparsers(dest="subcommand", required=True)
    p_alg_verify = alg_sub.add_parser("verify")
    common(p_alg_verify)

    p_mod = sub.add_parser("modules", help="module catalogs")
    mod_sub = p_mod.add_subparsers(dest="subcommand", required=True)
    p_mod_list = mod_sub.add_parser("list")
    common(p_mod_list)

    p_fuse = sub.add_parser("fuse", help="one fusion product")
    p_fuse.add_argument("a")
    p_fuse.add_argument("b")
    common(p_fuse)
    p_fuse.add_argument("--mode", choices=["closed", "computed", "both"], default="both")

    p_table = sub.add_parser("table", help="full fusion table")
    common(p_table)
    p_table.add_argument(
        "--mode", choices=["closed_form", "computed", "crosscheck"], default="crosscheck"
    )

    p_verify = sub.add_parser("verify", help="named verification target")
    p_verify.add_argument("target")
    common(p_verify, family_required=False)

    p_export = sub.add_parser("export", help="emit structure constants, modules or tables")
    common(p_export)
    p_export.add_argument(
        "--what", choices=["structure", "modules", "table"], required=True
    )
    return parser


def main(argv=None):
    # Freeze every live object when the process exits, so the interpreter's
    # shutdown collections skip them.  atexit hooks run before stdout is
    # flushed, and no hopfring object needs a finalizer of cyclic garbage.
    # Re-registering keeps one hook per process, run before earlier ones.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.n < 3:
            raise CliError("the order n must be at least 3")
        if args.command == "algebra":
            doc = cmd_algebra_verify(args)
        elif args.command == "modules":
            doc = cmd_modules_list(args)
        elif args.command == "fuse":
            doc = cmd_fuse(args)
        elif args.command == "table":
            doc = cmd_table(args)
        elif args.command == "verify":
            doc = cmd_verify(args)
        elif args.command == "export":
            doc = cmd_export(args)
        else:
            raise CliError("unknown command %r" % (args.command,))
    except CliError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except Exception as exc:  # verification machinery raised: report loudly
        failure = {
            "schema_version": SCHEMA_VERSION,
            "status": "fail",
            "error": "%s: %s" % (type(exc).__name__, exc),
        }
        _emit(failure, args)
        return 1
    _emit(doc, args)
    return 0 if doc.get("status") == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
