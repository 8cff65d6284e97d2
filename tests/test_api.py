"""The package's public name list stays in step with what it defines."""

import ast
from pathlib import Path

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


# The console script and the parser perfbench probes are called from outside
# the package, so nothing inside it imports them.
ENTRY_NAMES = {("cli", "main"), ("cli", "build_parser")}


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
