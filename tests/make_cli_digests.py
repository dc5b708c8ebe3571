"""Regenerate tests/cli_digests.json, the byte-identity gate of the CLI.

The file maps each command line to the sha256 of its default stdout and
its exit code.  A change that alters any of them must name the command
and say why in CHANGES.md.  Run from the repository root:

    PYTHONPATH=src python tests/make_cli_digests.py

tests/cli_digests_slow.json holds the same for SLOW_COMMANDS, the n = 5
crosscheck grids, which take minutes each and so stay out of tier-1.
``--check-slow`` runs them and compares (exit 1 on any difference);
``--write-slow`` records them.  A change to repn, green, fdalg or cyclo
runs ``--check-slow`` and records its result in CHANGES.md.
"""

import argparse
import contextlib
import hashlib
import io
import json
import shlex
import sys
from pathlib import Path

from hopfring import cli

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tests" / "cli_digests.json"
SLOW_DIGESTS = ROOT / "tests" / "cli_digests_slow.json"
REFERENCE = json.loads((ROOT / "perfbench" / "reference.json").read_text())

# tests/test_reference_answers.py runs every reference command with this seed
REFERENCE_ARGS = " --seed 1"

_FAMILIES = ("--family tensor-taft", "--family taft", "--family taft-opp",
             "--family hpq --p 0", "--family hpq --p 1")

# the targets that evaluate the class-ring presentations and the identity
# suite, beyond n = 3 where H_n(1,q) has its fewest normal monomials
_CLASS_RING_TARGETS = ("thm3.8", "thm4.9", "thm5.9", "cor5.8", "prop3.9",
                       "prop4.10", "lemma5.3", "cor5.4", "prop5.5",
                       "lemma5.6", "prop5.7")

COMMANDS = (
    [key + REFERENCE_ARGS for key in sorted(REFERENCE)]
    + ["export --what %s %s --n 3" % (what, fam)
       for what in ("modules", "structure") for fam in _FAMILIES]
    + ["table --family hpq --p %d --mode crosscheck --n 3" % p for p in (0, 1)]
    + ["modules list --family hpq --p 1 --n %d" % n for n in (3, 4)]
    + ["export --what modules --family hpq --p 1 --n 4",
       "algebra verify --family hpq --p 1 --n 4"]
    + ["verify blocks --family hpq --p 0 --n 3",
       "algebra verify --family hpq --p 0 --n 3"]
    + ["verify %s --n 4" % target for target in _CLASS_RING_TARGETS]
    + ["verify %s --n 5" % target
       for target in ("thm5.9", "cor5.8", "lemma5.6", "prop5.7")]
    # the fusion-subset targets, which run the matrix oracle
    + ["verify %s --n 3" % target
       for target in ("prop3.6", "prop3.7", "prop4.7", "prop4.8")]
    + ["modules list --family tensor-taft --n 3",
       "modules list --family hpq --p 0 --n 3"]
    # deformed closed-form cases that n = 3 never reaches: case05, case08,
    # case09 (the self-projective V(n, r)) and case11
    + ["fuse %s --family hpq --p 1 --n 4 --mode both" % pair
       for pair in ("V(2,0) P(2,0)", "V(3,0) P(2,1)", "V(4,1) P(1,0)",
                    "P(2,1) P(3,2)")]
    + ["fuse P(1,2) P(3,0) %s --n 4 --mode both" % fam
       for fam in ("--family tensor-taft", "--family hpq --p 0")]
    # the block, quiver and class-radical checks of H_n(0,q) past n = 3,
    # whose algebra-element products are dense sums of idempotents
    + ["verify %s --n 4" % target for target in ("quiver4", "prop4.6", "prop4.1")]
    + ["verify blocks --family hpq --p 0 --n 4"]
)

SLOW_COMMANDS = [
    "table --family tensor-taft --mode crosscheck --n 5",
    "table --family hpq --p 0 --mode crosscheck --n 5",
    "table --family hpq --p 1 --mode crosscheck --n 5",
]


def run_command(command):
    """(exit code, stdout) of one in-process CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(shlex.split(command))
    return rc, out.getvalue()


def digest(rc, text):
    return {"exit_code": rc, "sha256": hashlib.sha256(text.encode()).hexdigest()}


def write(path, commands):
    table = {command: digest(*run_command(command)) for command in commands}
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print("wrote %d digests to %s" % (len(table), path))


def check_slow():
    """Run every slow command; print one line each and return 1 on any
    difference, with the failing report's first mismatching pair."""
    recorded = json.loads(SLOW_DIGESTS.read_text())
    status = 0
    for command in SLOW_COMMANDS:
        rc, text = run_command(command)
        got = digest(rc, text)
        if got == recorded.get(command):
            print("ok  %s" % command, flush=True)
            continue
        status = 1
        doc = json.loads(text)
        report = doc.get("reports", [doc])[0]
        print("BAD %s: got %s, recorded %s, first_mismatch %s, error %s" % (
            command, got, recorded.get(command), report.get("first_mismatch"),
            doc.get("error")), flush=True)
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check-slow", action="store_true")
    mode.add_argument("--write-slow", action="store_true")
    args = parser.parse_args(argv)
    if args.check_slow:
        return check_slow()
    if args.write_slow:
        write(SLOW_DIGESTS, SLOW_COMMANDS)
    else:
        write(DIGESTS, COMMANDS)
    return 0


if __name__ == "__main__":
    sys.exit(main())
