"""The default CLI output is byte-identical to the recorded digests.

Each command of tests/cli_digests.json runs in-process and must print
exactly the recorded bytes and exit with the recorded code.  Regenerate
the file with tests/make_cli_digests.py; a changed digest must be named
and justified in CHANGES.md.
"""

import json
import re

import pytest

from make_cli_digests import COMMANDS, DIGESTS, digest

RECORDED = json.loads(DIGESTS.read_text())


def _check(command, rc, text):
    got = digest(rc, text)
    assert got == RECORDED[command], "output of %r changed: %s, recorded %s" % (
        command, got, RECORDED[command])


def test_digests_cover_the_command_list():
    assert sorted(RECORDED) == sorted(COMMANDS)


@pytest.mark.parametrize("command", sorted(RECORDED))
def test_cli_digest(command, cli_run):
    _check(command, *cli_run(command))


def test_one_byte_in_a_module_action_fails_and_names_the_command(cli_run):
    command = "export --what modules --family hpq --p 1 --n 3"
    rc, text = cli_run(command)
    # the first entry of the first action matrix: "0" -> "1"
    entries = text.index('"entries":[["', text.index('"actions":'))
    pos = text.index('"', entries + len('"entries":[[')) + 1
    corrupt = text[:pos] + ("1" if text[pos] == "0" else "0") + text[pos + 1:]
    assert json.loads(corrupt) != json.loads(text)
    assert sum(x != y for x, y in zip(text, corrupt)) == 1
    with pytest.raises(AssertionError, match=re.escape(repr(command))):
        _check(command, rc, corrupt)
