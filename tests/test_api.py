"""The package's public name list stays in step with what it defines, and its value
objects build or raise their own typed error whatever they are given."""

import ast
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import contextprob
from contextprob import (
    AnglePair,
    BinaryDistribution,
    ContextualProbabilityError,
    InvalidDistribution,
    InvalidMatrix,
    PreconditionViolation,
    SignConvention,
    TransitionMatrix,
)
from contextprob.core import InterferenceCoefficient


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


# ---------------------------------------------------------------- value-object constructors

# Each constructor, the number of values it takes, and the one error type it raises.
CONSTRUCTORS = {
    "BinaryDistribution": (BinaryDistribution, 2, InvalidDistribution),
    "from_p_plus": (BinaryDistribution.from_p_plus, 1, InvalidDistribution),
    "TransitionMatrix": (TransitionMatrix, 1, InvalidMatrix),
    "AnglePair": (AnglePair, 2, PreconditionViolation),
    "SignConvention": (SignConvention, 2, PreconditionViolation),
    "InterferenceCoefficient": (InterferenceCoefficient, 1, PreconditionViolation),
}

SCALARS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.5, 1.0, -1.0, 1e-300]),
    st.booleans(),
    st.integers(),
    st.integers(2**1020, 2**1100),
    st.integers(-(2**1100), -(2**1020)),
    st.sampled_from([10**400, -(10**400)]),
    st.builds(pow, st.just(10), st.just(5000)),  # more digits than str() of an int allows
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 2**64 - 1).map(np.uint64),
    st.booleans().map(np.bool_),
    st.fractions(),
    st.sampled_from([Fraction(10**400), Fraction(1, 3)]),
    st.text(max_size=4),
    st.sampled_from(["0.5", "nan", "-inf", "1e400", " 1 ", "x"]),
    st.none(),
    st.complex_numbers(),
)
# a value, a 2x2 nesting of values, or lists of any depth and length
VALUES = st.one_of(
    SCALARS,
    st.lists(st.lists(SCALARS, min_size=2, max_size=2), min_size=2, max_size=2),
    st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3), max_leaves=6),
)


@given(st.sampled_from(sorted(CONSTRUCTORS)), st.data())
def test_a_constructor_returns_or_raises_its_own_typed_error(name, data):
    build, arity, error = CONSTRUCTORS[name]
    values = [data.draw(VALUES) for _ in range(arity)]
    try:
        build(*values)
    except ContextualProbabilityError as exc:
        assert isinstance(exc, error), exc


@pytest.mark.parametrize("call, error, message", [
    (lambda: BinaryDistribution("x", 0.5), InvalidDistribution,
     "weights must be real numbers: could not convert string to float: 'x'"),
    (lambda: BinaryDistribution(None, 1), InvalidDistribution,
     "weights must be real numbers: float() argument must be a string or a real number, "
     "not 'NoneType'"),
    (lambda: BinaryDistribution(1j, 0), InvalidDistribution,
     "weights must be real numbers: float() argument must be a string or a real number, "
     "not 'complex'"),
    (lambda: BinaryDistribution(10**400, 0), InvalidDistribution,
     "weights must be real numbers: int too large to convert to float"),
    (lambda: BinaryDistribution.from_p_plus("x"), InvalidDistribution,
     "p_plus must be a real number: could not convert string to float: 'x'"),
    (lambda: BinaryDistribution.from_p_plus(None), InvalidDistribution,
     "p_plus must be a real number: float() argument must be a string or a real number, "
     "not 'NoneType'"),
    (lambda: TransitionMatrix("ab"), InvalidMatrix,
     "entries must be real numbers: could not convert string to float: 'ab'"),
    (lambda: TransitionMatrix([[1, 0], [0, "x"]]), InvalidMatrix,
     "entries must be real numbers: could not convert string to float: 'x'"),
    (lambda: TransitionMatrix([[1, 0], [0]]), InvalidMatrix,
     "entries must be real numbers: setting an array element with a sequence. The requested "
     "array has an inhomogeneous shape after 1 dimensions. The detected shape was (2,) + "
     "inhomogeneous part."),
    (lambda: AnglePair("x", 0.3), PreconditionViolation,
     "xi must be a real number: could not convert string to float: 'x'"),
    (lambda: AnglePair(None, 0.3), PreconditionViolation,
     "xi must be a real number: float() argument must be a string or a real number, "
     "not 'NoneType'"),
    (lambda: AnglePair(0.3, "x"), PreconditionViolation,
     "eta must be a real number: could not convert string to float: 'x'"),
    (lambda: SignConvention(None, 1), PreconditionViolation,
     "phase cosines must be real numbers: float() argument must be a string or a real number, "
     "not 'NoneType'"),
    (lambda: SignConvention("x", 1), PreconditionViolation,
     "phase cosines must be real numbers: could not convert string to float: 'x'"),
    (lambda: InterferenceCoefficient("x"), PreconditionViolation,
     "lam must be a real number or None: must be real number, not str"),
    (lambda: InterferenceCoefficient(10**400), PreconditionViolation,
     "lam must be a real number or None: int too large to convert to float"),
], ids=["weight-str", "weight-None", "weight-complex", "weight-huge", "p_plus-str",
        "p_plus-None", "matrix-str", "matrix-entry-str", "matrix-ragged", "xi-str", "xi-None",
        "eta-str", "cosine-None", "cosine-str", "lam-str", "lam-huge"])
def test_a_value_that_is_no_real_number_raises_the_typed_error(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("call, same", [
    (lambda: BinaryDistribution("0.25", np.float32(0.75)), BinaryDistribution(0.25, 0.75)),
    (lambda: BinaryDistribution.from_p_plus(Fraction(1, 4)), BinaryDistribution(0.25, 0.75)),
    (lambda: TransitionMatrix([["0.5", 0.25], [np.float32(0.5), Fraction(3, 4)]]),
     TransitionMatrix([[0.5, 0.25], [0.5, 0.75]])),
    (lambda: AnglePair(True, np.int64(1)), AnglePair(1.0, 1.0)),
    (lambda: SignConvention(np.bool_(True), -1), SignConvention(1.0, -1.0)),
    (lambda: InterferenceCoefficient(math.nan), InterferenceCoefficient(None)),
], ids=["weights", "p_plus", "matrix", "angles", "cosines", "nan-lam"])
def test_a_real_number_of_any_type_builds_the_object_its_float_builds(call, same):
    assert repr(call()) == repr(same)  # the values and their types


def test_a_coefficient_keeps_the_value_it_was_given():
    # the one constructor that converts nothing: a bool stays a bool
    coeff = InterferenceCoefficient(True)
    assert (coeff.lam, coeff.regime.value, coeff.theta) == (True, "trigonometric", 0.0)
