"""Every command stored in perfbench/reference.json, judged in-process.

The benchmark refuses a change whose answers differ from the stored ones;
this test makes the same judgement part of the test suite.  The judging
functions are read from perfbench/run.py without importing it, so the test
uses the benchmark's own comparison and leaves its module state alone.
Each command runs once per session, shared with the digest gate
(tests/test_cli_digests.py) through the ``cli_run`` fixture.
"""

import ast
import json
from pathlib import Path

import pytest

from make_cli_digests import REFERENCE, REFERENCE_ARGS

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
def test_reference_answer(key, cli_run):
    rc, text = cli_run(key + REFERENCE_ARGS)
    doc = json.loads(text)
    assert JUDGE(rc, doc, REFERENCE[key]) is None
