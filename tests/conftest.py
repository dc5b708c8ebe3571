import functools

import pytest

from make_cli_digests import run_command


@pytest.fixture(scope="session")
def cli_run():
    """``run_command`` that runs each command line once per test session;
    the digest gate and the reference answers share its runs."""
    return functools.lru_cache(maxsize=None)(run_command)
