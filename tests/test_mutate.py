"""The mutant generator of the mutation audit, ``tools/mutate.py``."""

import ast
import importlib.util
import json
import os
import signal
import subprocess
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


def test_a_survivor_on_the_equivalents_list_is_reported_as_equivalent():
    found, lines = mutate.mutants(SOURCE), SOURCE.decode().splitlines()
    listed = {("m.py", "if x >= LIMIT and y is not None:", ">=", ">")}
    statuses = [mutate.classify(status, "m.py", lines, m, listed)
                for m in found[1:3] for status in ("survived", "killed")]
    assert statuses == ["equivalent", "killed", "survived", "killed"]
    assert mutate.classify("survived", "other.py", lines, found[1], listed) == "survived"


def test_the_repository_copy_leaves_out_benchmark_results():
    ignored = mutate.IGNORED(str(mutate.ROOT), [".perfbench", ".benchmarks", "src"])
    assert ignored == {".perfbench", ".benchmarks"}


def test_every_listed_equivalent_is_a_mutant_of_the_source_it_names():
    # an entry left behind by an edit to its line would match nothing
    entries = json.loads(mutate.EQUIVALENTS.read_text())
    assert len(mutate.load_equivalents()) == len(entries)  # no entry twice
    for entry in entries:
        source = (mutate.ROOT / entry["file"]).read_bytes()
        lines = source.decode().splitlines()
        keys = {(lines[m.line - 1].strip(), m.before, m.after) for m in mutate.mutants(source)}
        assert (entry["line"], entry["before"], entry["after"]) in keys and entry["why"], entry


def test_a_test_process_that_ends_before_its_session_kills_the_mutant(tmp_path):
    # a mutant that makes the test process exit early with status 0 is no survivor
    (tmp_path / "test_pass.py").write_text("def test_pass():\n    pass\n")
    (tmp_path / "test_exit.py").write_text("import os\n\n\ndef test_exit():\n    os._exit(0)\n")
    assert mutate._run_tests(tmp_path, ["test_pass.py"], 60.0)[0] == "survived"
    assert mutate._run_tests(tmp_path, ["test_exit.py"], 60.0)[0] == "killed"


def test_a_killed_mutant_names_the_first_test_that_failed(tmp_path):
    # so that a kill by an unrelated, flaky test shows in the audit's JSON line
    (tmp_path / "test_some.py").write_text(
        "import pytest\n\n\ndef test_passes():\n    pass\n\n\n"
        "@pytest.mark.parametrize('x', [1, 2])\ndef test_fails(x):\n    assert x == 1\n"
    )
    (tmp_path / "test_exit.py").write_text("import os\n\n\ndef test_exit():\n    os._exit(3)\n")
    report = tmp_path / mutate.REPORT
    assert mutate._run_tests(tmp_path, ["test_some.py"], 60.0)[0] == "killed"
    assert mutate.first_failure(report) == "test_some.test_fails[2]"
    # a run that wrote no report names no test, rather than the last run's
    assert mutate._run_tests(tmp_path, ["test_exit.py"], 60.0)[0] == "killed"
    assert mutate.first_failure(report) is None
    report.write_text("<testsuites><testsuite><testcase classname='t' name='cut")
    assert mutate.first_failure(report) is None


def test_a_mutant_may_run_a_few_times_the_unmutated_tests_and_at_least_the_floor(tmp_path):
    assert mutate.mutant_timeout(24.0) == 5.0 * 24.0
    assert mutate.mutant_timeout(1.0) == mutate.mutant_timeout(0.0) == 60.0
    # a run past its limit is a timeout, ended at the limit
    (tmp_path / "test_hang.py").write_text(
        "import time\n\n\ndef test_hang():\n    time.sleep(60)\n"
    )
    status, seconds = mutate._run_tests(tmp_path, ["test_hang.py"], 2.0)
    assert status == "timeout" and 2.0 <= seconds < 30.0


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="no /proc")
def test_a_process_a_test_run_forks_ends_with_the_run(tmp_path):
    # a mutant can leave a forked test process behind: it must not outlive the run
    (tmp_path / "test_fork.py").write_text(
        "import os, time\n\n\ndef test_fork():\n    pid = os.fork()\n"
        "    if pid == 0:\n        time.sleep(60)\n        os._exit(0)\n"
        "    open('child.pid', 'w').write(str(pid))\n"
    )
    assert mutate._run_tests(tmp_path, ["test_fork.py"], 60.0)[0] == "survived"
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


def test_an_audit_ended_by_sigterm_removes_its_temporary_copy(tmp_path):
    # the copy is made after the handler is in place, so any moment after it appears will do
    command = [sys.executable, "-B", str(mutate.ROOT / "tools" / "mutate.py"),
               "src/contextprob/errors.py", "--tests", "tests/test_api.py"]
    audit = subprocess.Popen(command, env=dict(os.environ, TMPDIR=str(tmp_path)),
                             stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 30.0
        while not list(tmp_path.glob("mutate-*")):
            assert audit.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        audit.send_signal(signal.SIGTERM)
        assert audit.wait(timeout=30) == 128 + signal.SIGTERM
    finally:
        audit.kill()
        audit.wait()
    assert list(tmp_path.glob("mutate-*")) == []
