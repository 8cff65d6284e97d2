"""Test-run settings and fixtures shared by every test module.

No bytecode cache is written next to the sources, so a test run never leaves
a ``src/contextprob/__pycache__`` behind for a later benchmark run to pick
up. The environment variable carries the setting into the interpreters the
tests start (the demos, the CLI write failures and the thread checks).

Every test fails that leaves a child process behind, running or unreaped:
no child outlives the call that started it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"


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
    captured as text.
    """
    import contextprob  # after bytecode writing is off

    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(contextprob.__file__).resolve().parent.parent)

    def run(*args, stdout=subprocess.PIPE, timeout=60):
        return subprocess.run([sys.executable, "-B", *args], env=env, stdout=stdout,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)

    return run


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
