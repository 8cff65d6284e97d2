"""Test-run settings and fixtures shared by every test module.

No bytecode cache is written next to the sources, so a test run never leaves
a ``src/contextprob/__pycache__`` behind for a later benchmark run to pick
up. The environment variable carries the setting into the interpreters the
tests start (the demos, the CLI write failures and the thread checks).

Every test fails that leaves a child process behind, running or unreaped:
no child outlives the call that started it. A test that runs for 60 s ends
the whole run: every thread's stack goes to stderr and the process exits
with status 1, so a hang fails as a fault does rather than waiting forever.
"""

import faulthandler
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

_HANG_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # where a hung test's stacks go: stderr as the run started, before capture
    config.stash[_HANG_STDERR] = os.dup(sys.stderr.fileno())


@pytest.fixture(scope="session")
def report_json():
    """The JSON text of a report, converted as the CLI converts its results.

    Two runs that must agree compare these texts: one differing count,
    estimate or config field changes them.
    """
    from contextprob import cli

    def text(report):
        return json.dumps(cli._jsonable(report))

    return text


@pytest.fixture
def run_python():
    """Run ``python -B *args`` in a fresh interpreter on this checkout's sources.

    The child's stdout is block-buffered, as from a shell, whatever
    PYTHONUNBUFFERED the test run has; pass ``-u`` for an unbuffered one.
    Its stdout goes to ``stdout`` (captured by default), its stderr is
    captured as text. ``env`` adds variables to the child's environment.
    """
    import contextprob  # after bytecode writing is off

    base = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    base["PYTHONPATH"] = str(Path(contextprob.__file__).resolve().parent.parent)

    def run(*args, stdout=subprocess.PIPE, timeout=60, env=None):
        return subprocess.run([sys.executable, "-B", *args], env={**base, **(env or {})},
                              stdout=stdout, stderr=subprocess.PIPE, text=True,
                              timeout=timeout)

    return run


@pytest.fixture(autouse=True)
def a_hung_test_ends_the_run(pytestconfig):
    faulthandler.dump_traceback_later(60, exit=True, file=pytestconfig.stash[_HANG_STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture(autouse=True)
def no_child_outlives_its_test():
    yield
    if not hasattr(os, "waitpid"):
        return
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)  # reaps one exited child, if any
    except ChildProcessError:
        return  # no child at all
    if pid:
        pytest.fail(f"the test left child {pid} unreaped (wait status {status})")
    pytest.fail("the test left a child process running")
