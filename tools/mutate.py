"""Mutation audit: apply one small fault at a time and see whether a test notices.

Two kinds of mutant are made from the named source files:

    statement  a statement inside a function body is replaced by ``pass``
    compare    one comparison operator is swapped (< and <=, > and >=,
               == and !=, is and is not, in and not in)

The named test files first run once unmutated, which must pass, and are
timed. Each mutant is then written into a temporary copy of the repository,
where the same files run with ``pytest -x`` under a timeout of five times the
unmutated run, and at least 60 s, in a session of their own whose every
process is killed when the run ends. One JSON line
per mutant goes to stdout: its file, line, kind, the code it changed, and
whether it was killed (a test failed, or the test process ended before its
session did), survived (every test passed), equivalent (it survived, and
``tools/equivalent_mutants.json`` argues that no input can tell it from the
code) or timed out. A summary per file goes to stderr at the end. An audit
ended by SIGTERM removes its temporary copy, as it does on any exit.

The score is a trajectory, not a gate: a surviving mutant marks either a
missing test or code that nothing needs. Standard library only; the tests
run in a child interpreter, so pytest must be importable there.

Run from the repository root, for example:

    python tools/mutate.py src/contextprob/core.py \\
        --tests tests/test_core.py tests/test_acceptance.py
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPELLING = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
    ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in",
}
_PAIRS = [(ast.Lt, ast.LtE), (ast.Gt, ast.GtE), (ast.Eq, ast.NotEq), (ast.Is, ast.IsNot),
          (ast.In, ast.NotIn)]
SWAPS = {a: b for pair in _PAIRS for a, b in (pair, pair[::-1])}
TIMEOUT = 300.0  # seconds for the unmutated run
# A mutant's run may take this many times the unmutated run, and at least the
# floor: a survivor runs every test once, a hang runs until the limit.
TIMEOUT_FACTOR, TIMEOUT_FLOOR = 5.0, 60.0
# caches and benchmark results (.perfbench holds tens of MB) stay out of the copy
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.pyc",
                                 ".perfbench", ".benchmarks")
EQUIVALENTS = ROOT / "tools" / "equivalent_mutants.json"


@dataclass(frozen=True)
class Mutant:
    line: int
    kind: str
    before: str
    after: str
    start: int  # byte offsets of the replaced span in the file
    stop: int
    replacement: bytes

    def apply(self, source: bytes) -> bytes:
        return source[: self.start] + self.replacement + source[self.stop :]


def _offsets(source: bytes) -> list[int]:
    # byte offset of the start of each line, 1-based like ast line numbers
    starts, at = [0, 0], 0
    for line in source.splitlines(keepends=True):
        at += len(line)
        starts.append(at)
    return starts


def _statements(node: ast.AST, inside: bool = False):
    # each statement inside a function body, except pass, docstrings and definitions
    for child in ast.iter_child_nodes(node):
        skip = isinstance(child, (ast.Pass, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
            or isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant) \
            and isinstance(child.value.value, str)
        if inside and isinstance(child, ast.stmt) and not skip:
            yield child
        yield from _statements(child, inside or isinstance(child, (ast.FunctionDef,
                                                                   ast.AsyncFunctionDef)))


def mutants(source: bytes) -> list[Mutant]:
    """Every mutant of ``source``, in source order."""
    tree, starts = ast.parse(source), _offsets(source)

    def span(node) -> tuple[int, int]:
        start = starts[node.lineno] + node.col_offset
        return start, starts[node.end_lineno] + node.end_col_offset

    found = []
    for node in _statements(tree):
        start, stop = span(node)
        text = source[start:stop].decode().splitlines()[0]
        found.append(Mutant(node.lineno, "statement", text, "pass", start, stop, b"pass"))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            start, stop = span(left)[1], span(right)[0]
            gap = source[start:stop].decode()
            old, new = SPELLING[type(op)], SPELLING[SWAPS[type(op)]]
            # the text between two operands holds only the operator, brackets and blanks
            at = gap.find(old)
            if at < 0:
                continue
            swapped = (gap[:at] + new + gap[at + len(old) :]).encode()
            found.append(Mutant(left.end_lineno, "compare", old, new, start, stop, swapped))
    return sorted(found, key=lambda m: (m.start, m.kind))


def load_equivalents() -> set[tuple[str, str, str, str]]:
    """The known equivalent mutants as ``(file, stripped source line, before, after)``."""
    entries = json.loads(EQUIVALENTS.read_text())
    return {(e["file"], e["line"], e["before"], e["after"]) for e in entries}


def classify(status: str, name: str, lines: list[str], mutant: Mutant, equivalents: set) -> str:
    """``status``, or ``equivalent`` for a survivor that ``equivalents`` lists."""
    key = (name, lines[mutant.line - 1].strip(), mutant.before, mutant.after)
    return "equivalent" if status == "survived" and key in equivalents else status


def mutant_timeout(seconds: float) -> float:
    """The limit on a mutant's test run, given the unmutated run's ``seconds``."""
    return max(TIMEOUT_FLOOR, TIMEOUT_FACTOR * seconds)


def _run_tests(copy: Path, tests: list[str], timeout: float) -> tuple[str, float]:
    # A run passes only if pytest also finished its session, which writes the
    # report: a mutant can end the test process early with status 0 (an
    # os._exit meant for a forked child, say).
    report = copy / ".mutate-report.xml"
    report.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(copy / "src"))
    command = [sys.executable, "-B", "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               f"--junit-xml={report}", *tests]
    began = time.monotonic()
    # in a session of its own, so that what a mutant forks ends with the run
    with subprocess.Popen(command, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, start_new_session=True) as run:
        try:
            returncode = run.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            returncode = None
        finally:
            with contextlib.suppress(ProcessLookupError):  # the group is already empty
                os.killpg(run.pid, signal.SIGKILL)
    seconds = time.monotonic() - began
    if returncode is None:
        return "timeout", seconds
    return ("survived" if returncode == 0 and report.exists() else "killed"), seconds


def _exit(signum, frame):
    # SIGTERM ends the audit as an exception would, so the temporary copy is removed
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="+", help="source files to mutate, relative to the root")
    parser.add_argument("--tests", nargs="+", required=True, help="test files to run per mutant")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _exit)
    scores, equivalents = {}, load_equivalents()
    with tempfile.TemporaryDirectory(prefix="mutate-") as scratch:
        copy = Path(scratch) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        status, seconds = _run_tests(copy, args.tests, TIMEOUT)
        if status != "survived":
            print(f"the unmutated tests did not pass ({status}, {seconds:.1f} s)", file=sys.stderr)
            return 2
        limit = mutant_timeout(seconds)
        for name in args.files:
            target = copy / name
            original = target.read_bytes()
            lines = original.decode().splitlines()
            tally = scores.setdefault(name, dict.fromkeys(("killed", "survived", "equivalent",
                                                           "timeout"), 0))
            try:
                for mutant in mutants(original):
                    mutated = mutant.apply(original)
                    try:
                        ast.parse(mutated)
                    except SyntaxError:
                        continue
                    target.write_bytes(mutated)
                    status, seconds = _run_tests(copy, args.tests, limit)
                    status = classify(status, Path(name).as_posix(), lines, mutant, equivalents)
                    tally[status] += 1
                    record = {"file": name, "line": mutant.line, "kind": mutant.kind,
                              "before": mutant.before, "after": mutant.after,
                              "status": status, "seconds": round(seconds, 1)}
                    print(json.dumps(record), flush=True)
            finally:
                target.write_bytes(original)
    for name, tally in scores.items():
        total = sum(tally.values())
        score = tally["killed"] / total if total else float("nan")
        print(f"{name}: {tally['killed']}/{total} killed ({score:.0%}), "
              f"{tally['survived']} survived, {tally['equivalent']} equivalent, "
              f"{tally['timeout']} timed out", file=sys.stderr)
    return 0

if __name__ == "__main__":
    sys.exit(main())
