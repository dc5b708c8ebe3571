"""Regenerate tests/cli_digests.json, the byte-identity gate of the CLI.

The file maps each command line to the sha256 of its default stdout and
its exit code.  A change that alters any of them must name the command
and say why in CHANGES.md.  Run from the repository root:

    PYTHONPATH=src python tests/make_cli_digests.py
"""

import contextlib
import hashlib
import io
import json
import shlex
from pathlib import Path

from hopfring import cli

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tests" / "cli_digests.json"
REFERENCE = json.loads((ROOT / "perfbench" / "reference.json").read_text())

# tests/test_reference_answers.py runs every reference command with this seed
REFERENCE_ARGS = " --seed 1"

_FAMILIES = ("--family tensor-taft", "--family taft", "--family taft-opp",
             "--family hpq --p 0", "--family hpq --p 1")

COMMANDS = (
    [key + REFERENCE_ARGS for key in sorted(REFERENCE)]
    + ["export --what %s %s --n 3" % (what, fam)
       for what in ("modules", "structure") for fam in _FAMILIES]
    + ["table --family hpq --p %d --mode crosscheck --n 3" % p for p in (0, 1)]
    + ["modules list --family hpq --p 1 --n %d" % n for n in (3, 4)]
    + ["export --what modules --family hpq --p 1 --n 4",
       "algebra verify --family hpq --p 1 --n 4"]
)


def run_command(command):
    """(exit code, stdout) of one in-process CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(shlex.split(command))
    return rc, out.getvalue()


def digest(rc, text):
    return {"exit_code": rc, "sha256": hashlib.sha256(text.encode()).hexdigest()}


def main():
    table = {command: digest(*run_command(command)) for command in COMMANDS}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print("wrote %d digests to %s" % (len(table), DIGESTS))


if __name__ == "__main__":
    main()
