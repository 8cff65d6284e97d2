"""The package's public name list stays in step with what it defines."""

import ast
import json
from pathlib import Path

import pytest

import contextprob


def test_star_import_succeeds():
    namespace = {}
    exec("from contextprob import *", namespace)
    assert set(contextprob.__all__) <= set(namespace)


def test_all_has_no_duplicates():
    assert len(contextprob.__all__) == len(set(contextprob.__all__))


def test_every_name_in_all_resolves():
    missing = [name for name in contextprob.__all__ if not hasattr(contextprob, name)]
    assert missing == []


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'contextprob' has no attribute 'main'"):
        contextprob.main


# ---------------------------------------------------------------- loading on first use

LAYERS = ("core", "eprbohm", "errors", "simulation", "verification")


def child_json(run_python, code: str):
    """The JSON that ``code`` prints last in a fresh interpreter; ``loaded()`` is available."""
    prelude = ("import json, sys\n"
               "def loaded():\n"
               "    return sorted(m for m in sys.modules if m.startswith('contextprob.'))\n")
    child = run_python("-c", prelude + code)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.splitlines()[-1])


def test_a_bare_import_loads_no_layer(run_python):
    assert child_json(run_python, "import contextprob\nprint(json.dumps(loaded()))") == []


def test_each_name_loads_its_module_on_first_use(run_python):
    code = f"""
import contextprob
from importlib import import_module
before = loaded()
simulation = contextprob.simulation
after = loaded()
layers = [import_module(f"contextprob.{{name}}") for name in {LAYERS!r}]
unresolved = [name for name in contextprob.__all__ if name != "__version__" and not any(
    vars(layer).get(name) is getattr(contextprob, name) for layer in layers)]
print(json.dumps([before, simulation.__name__, after, unresolved]))
"""
    before, name, after, unresolved = child_json(run_python, code)
    assert (before, name, unresolved) == ([], "contextprob.simulation", [])
    assert "contextprob.simulation" in after and "contextprob.verification" not in after


@pytest.mark.parametrize("name", ["LhvStrategy", "TimeDistribution"])
def test_an_enum_the_parser_lists_is_one_object_under_every_name(name):
    # defined in the numpy-free _choices, and imported from there by every layer
    from contextprob import _choices, cli, eprbohm, simulation

    homes = [getattr(module, name) for module in (contextprob, cli, eprbohm, simulation)]
    assert all(home is getattr(_choices, name) for home in homes)


def test_dir_covers_all_without_loading_a_layer(run_python):
    code = ("import contextprob\n"
            "names = dir(contextprob)\n"
            "print(json.dumps([sorted(set(contextprob.__all__) - set(names)), loaded()]))")
    assert child_json(run_python, code) == [[], []]


# The console script's entry, the ``main`` that in-process callers run and the
# parser perfbench probes are called from outside the package, so nothing
# inside it imports them.
ENTRY_NAMES = {("cli", "entry"), ("cli", "main"), ("cli", "build_parser")}


def test_every_public_definition_is_exported_or_imported():
    # A public module-level function or class that neither __all__ names nor
    # another package module imports has no caller: delete it or export it.
    package = Path(contextprob.__file__).parent
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in package.glob("*.py")
    }
    imported = {
        (node.module, alias.name)
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    orphans = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in contextprob.__all__
        and (module, node.name) not in imported | ENTRY_NAMES
    ]
    assert orphans == []
