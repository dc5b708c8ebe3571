"""The CLI process exit: ``main`` registers ``gc.freeze`` as an atexit hook,
so the interpreter's shutdown collections skip every object alive at exit,
while the exit code and the printed bytes stay those of the normal path.

Each test runs a fresh interpreter, because the hook acts only at exit.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from make_cli_digests import DIGESTS, ROOT

RECORDED = json.loads(DIGESTS.read_text())
SRC = str(ROOT / "src")


def _python(*args):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, *args], capture_output=True, env=env,
                          cwd=ROOT, timeout=300)


@pytest.mark.parametrize("command", [
    "verify thm3.8 --n 4",                            # passes
    "export --what modules --family taft --n 3",     # rejected up front
])
def test_process_exit_code_and_stdout_match_the_digest(command):
    proc = _python("-m", "hopfring.cli", *command.split())
    assert {"exit_code": proc.returncode,
            "sha256": hashlib.sha256(proc.stdout).hexdigest()} == RECORDED[command]


def test_process_exit_code_when_a_check_fails():
    # the non-central census control of verify blocks, in a fresh interpreter
    script = "\n".join([
        "import sys",
        "from hopfring import cli, structure",
        "real = structure._central_idempotents_H0",
        "structure._central_idempotents_H0 = (",
        "    lambda H: [H.group_idempotents()[(0, 0)]] + real(H)[1:])",
        "sys.exit(cli.main(['verify', 'blocks', '--family', 'hpq', '--p', '0', '--n', '3']))",
    ])
    proc = _python("-c", script)
    assert proc.returncode == 1, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["status"] == "fail"
    assert doc["reports"][0]["first_non_central_idempotent"] == 0


@pytest.mark.parametrize("argv", [
    ["verify", "thm3.8", "--n", "2"],
    ["verify", "thm3.8", "--family", "nope", "--n", "3"],
])
def test_process_usage_error_exits_2(argv):
    proc = _python("-m", "hopfring.cli", *argv)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert b"error" in proc.stderr


_MAIN = "assert cli.main(['verify', 'thm3.8', '--n', '3']) == 0"


def test_main_called_twice_leaves_one_freeze_hook():
    # main registers whatever gc.freeze is when it runs; each run of the
    # stand-in at exit writes one line
    script = "\n".join([
        "import gc, sys",
        "from hopfring import cli",
        "freeze = gc.freeze",
        "gc.freeze = lambda: sys.stderr.write('freeze\\n') and freeze()",
        _MAIN,
        _MAIN,
    ])
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.decode().split() == ["freeze"]


def test_freeze_hook_runs_before_handlers_registered_earlier():
    script = "\n".join([
        "import atexit, gc, sys",
        "from hopfring import cli",
        "atexit.register(lambda: sys.stderr.write('frozen %d' % gc.get_freeze_count()))",
        _MAIN,
    ])
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr
    frozen = proc.stderr.decode().split()
    assert frozen[0] == "frozen" and int(frozen[1]) > 0
