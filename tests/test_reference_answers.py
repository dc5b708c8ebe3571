"""Every command stored in perfbench/reference.json, judged in-process.

The benchmark refuses a change whose answers differ from the stored ones;
this test makes the same judgement part of the test suite.  The judging
functions are read from perfbench/run.py without importing it, so the test
uses the benchmark's own comparison and leaves its module state alone.
"""

import ast
import json
from pathlib import Path

import pytest

from hopfring import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())


def _benchmark_functions(*names):
    path = PERFBENCH / "run.py"
    tree = ast.parse(path.read_text())
    defs = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name in names]
    assert sorted(node.name for node in defs) == sorted(names)
    namespace = {"json": json}
    exec(compile(ast.Module(body=defs, type_ignores=[]), str(path), "exec"), namespace)
    return namespace


JUDGE = _benchmark_functions("answers", "first_difference", "judge")["judge"]


@pytest.mark.parametrize("key", sorted(REFERENCE))
def test_reference_answer(key, capsys):
    rc = cli.main(key.split() + ["--seed", "1"])
    doc = json.loads(capsys.readouterr().out)
    assert JUDGE(rc, doc, REFERENCE[key]) is None
