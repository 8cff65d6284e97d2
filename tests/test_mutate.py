"""The mutant generator of the mutation audit, ``tools/mutate.py``."""

import ast
import importlib.util
import os
import sys
import time
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "mutate", Path(__file__).resolve().parents[1] / "tools" / "mutate.py"
)
mutate = sys.modules["mutate"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutate)

SOURCE = '''"""Module docstring."""
LIMIT = 3


def f(x, y):
    """Docstring."""
    if x >= LIMIT and y is not None:
        x = x + 1  # a non-ASCII comment, π, moves later byte offsets
    return x < (y)


def g():
    pass
'''.encode()


def test_each_statement_in_a_function_and_each_comparison_is_one_mutant():
    found = mutate.mutants(SOURCE)
    assert [(m.line, m.kind, m.before, m.after) for m in found] == [
        (7, "statement", "if x >= LIMIT and y is not None:", "pass"),
        (7, "compare", ">=", ">"),
        (7, "compare", "is not", "is"),
        (8, "statement", "x = x + 1", "pass"),
        (9, "statement", "return x < (y)", "pass"),
        (9, "compare", "<", "<="),
    ]
    lines = [m.apply(SOURCE).decode().splitlines() for m in found]
    assert [line[6] for line in lines[:3]] == [
        "    pass  # a non-ASCII comment, π, moves later byte offsets",  # the whole if
        "    if x > LIMIT and y is not None:",
        "    if x >= LIMIT and y is None:",
    ]
    assert lines[3][7].startswith("        pass  # a non-ASCII")
    assert [line[8] for line in lines[4:]] == ["    pass", "    return x <= (y)"]
    for m in found:
        ast.parse(m.apply(SOURCE))


def test_a_test_process_that_ends_before_its_session_kills_the_mutant(tmp_path):
    # a mutant that makes the test process exit early with status 0 is no survivor
    (tmp_path / "test_pass.py").write_text("def test_pass():\n    pass\n")
    (tmp_path / "test_exit.py").write_text("import os\n\n\ndef test_exit():\n    os._exit(0)\n")
    assert mutate._run_tests(tmp_path, ["test_pass.py"])[0] == "survived"
    assert mutate._run_tests(tmp_path, ["test_exit.py"])[0] == "killed"


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="no /proc")
def test_a_process_a_test_run_forks_ends_with_the_run(tmp_path):
    # a mutant can leave a forked test process behind: it must not outlive the run
    (tmp_path / "test_fork.py").write_text(
        "import os, time\n\n\ndef test_fork():\n    pid = os.fork()\n"
        "    if pid == 0:\n        time.sleep(60)\n        os._exit(0)\n"
        "    open('child.pid', 'w').write(str(pid))\n"
    )
    assert mutate._run_tests(tmp_path, ["test_fork.py"])[0] == "survived"
    status = Path(f"/proc/{(tmp_path / 'child.pid').read_text()}/status")

    def alive():
        try:
            return "\nState:\tZ" not in status.read_text()  # a zombie has ended
        except (FileNotFoundError, ProcessLookupError):  # and been reaped
            return False

    deadline = time.monotonic() + 10.0
    while alive():
        assert time.monotonic() < deadline
        time.sleep(0.05)
