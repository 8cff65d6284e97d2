"""The mutant generator of the mutation audit, ``tools/mutate.py``."""

import ast
import importlib.util
import sys
from pathlib import Path

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
