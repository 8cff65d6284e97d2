"""The package's public name list stays in step with what it defines, each name has
one home, and its value objects and functions return or raise a typed error
whatever they are given."""

import ast
import inspect
import json
import math
import numbers
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import contextprob
from contextprob import (
    DEFAULT_SIGNS,
    AnglePair,
    BinaryDistribution,
    ContextualProbabilityError,
    InvalidDistribution,
    InvalidMatrix,
    LhvStrategy,
    OutOfRangeProbability,
    PreconditionViolation,
    SignConvention,
    SimConfig,
    SimReport,
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
    # defined in the numpy-free _choices, and imported from there by every module using it
    from contextprob import _choices, cli, eprbohm, simulation

    homes = [getattr(module, name) for module in (contextprob, cli, simulation)]
    assert all(home is getattr(_choices, name) for home in homes)
    assert not hasattr(eprbohm, name)  # which uses neither


def test_dir_covers_all_without_loading_a_layer(run_python):
    code = ("import contextprob\n"
            "names = dir(contextprob)\n"
            "print(json.dumps([sorted(set(contextprob.__all__) - set(names)), loaded()]))")
    assert child_json(run_python, code) == [[], []]


# The console script's entry, the ``main`` that in-process callers run and the
# parser perfbench probes are called from outside the package, so nothing
# inside it imports them.
ENTRY_NAMES = {("cli", "entry"), ("cli", "main"), ("cli", "build_parser")}


def package_trees() -> dict:
    """Each package module's syntax tree, by module name."""
    package = Path(contextprob.__file__).parent
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in package.glob("*.py")}


def sibling_imports(tree: ast.Module) -> list[tuple[str, str]]:
    """``(module, name)`` of each ``from .module import name`` in ``tree``."""
    return [(node.module, alias.asname or alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def test_every_public_definition_is_exported_or_imported():
    # A public module-level function or class that neither __all__ names nor
    # another package module imports has no caller: delete it or export it.
    trees = package_trees()
    imported = {pair for tree in trees.values() for pair in sibling_imports(tree)}
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


def test_every_name_imported_from_a_sibling_is_used():
    # A name that a module imports from another package module and never uses is a
    # re-export, a second home for the name: import it from its one home instead.
    unused = [
        f"{module}.{name}"
        for module, tree in package_trees().items()
        for _, name in sibling_imports(tree)
        if name not in {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    ]
    assert unused == []


# ---------------------------------------------------------------- value-object constructors

ANGLES, UNIFORM = AnglePair(0.7, 0.3), BinaryDistribution.uniform()
CONFIG = SimConfig(ANGLES, UNIFORM, 5, 1)
# Each constructor, the number of values it takes, and the one error type it raises.
CONSTRUCTORS = {
    "BinaryDistribution": (BinaryDistribution, 2, InvalidDistribution),
    "from_p_plus": (BinaryDistribution.from_p_plus, 1, InvalidDistribution),
    "TransitionMatrix": (TransitionMatrix, 1, InvalidMatrix),
    "AnglePair": (AnglePair, 2, PreconditionViolation),
    "SignConvention": (SignConvention, 2, PreconditionViolation),
    "InterferenceCoefficient": (InterferenceCoefficient, 1, PreconditionViolation),
    "SimReport": (SimReport, 3, PreconditionViolation),
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
    (lambda: SimReport(np.zeros((2, 2)), 0, "x"), PreconditionViolation,
     "wall_config must be a SimConfig, got 'x'"),
    (lambda: SimReport("x", 0, CONFIG), PreconditionViolation,
     "counts must be integers: invalid literal for int() with base 10: 'x'"),
    (lambda: SimReport([[2, 0], [3, 0]], "x", CONFIG), PreconditionViolation,
     "n_redraws must be an integer: invalid literal for int() with base 10: 'x'"),
], ids=["weight-str", "weight-None", "weight-complex", "weight-huge", "p_plus-str",
        "p_plus-None", "matrix-str", "matrix-entry-str", "matrix-ragged", "xi-str", "xi-None",
        "eta-str", "cosine-None", "cosine-str", "lam-str", "lam-huge", "report-config-str",
        "report-counts-str", "report-redraws-str"])
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
    (lambda: SimReport([[2.0, 0], ["3", np.int8(0)]], np.float64(2.0), CONFIG),
     SimReport(np.array([[2, 0], [3, 0]]), 2, CONFIG)),
], ids=["weights", "p_plus", "matrix", "angles", "cosines", "nan-lam", "report"])
def test_a_real_number_of_any_type_builds_the_object_its_float_builds(call, same):
    assert repr(call()) == repr(same)  # the values and their types


def test_a_coefficient_keeps_the_value_it_was_given():
    # the one constructor that converts nothing: a bool stays a bool
    coeff = InterferenceCoefficient(True)
    assert (coeff.lam, coeff.regime.value, coeff.theta) == (True, "trigonometric", 0.0)


# ---------------------------------------------------------------- public functions

# Each function in __all__ with positional arguments it accepts; a count is small,
# so a call that accepts its arguments returns quickly.
FUNCTIONS = {
    "classical_total_probability": (UNIFORM, TransitionMatrix.uniform(), 1),
    "incompatibility_coefficient": (0.3, UNIFORM, TransitionMatrix.uniform(), 1),
    "interference_probability": (UNIFORM, TransitionMatrix.uniform(), 1, 1.0),
    "chsh": (0.0, 0.5, 0.2, 0.9, UNIFORM),
    "conditional_probabilities": (0.3,),
    "epr_bohm_probabilities": (ANGLES,),
    "matrices_from_angles": (ANGLES,),
    "reconstruct_via_interference": (ANGLES, DEFAULT_SIGNS),
    "setting_correlation": (0.3, UNIFORM),
    "verify_phase_opposition": (ANGLES, 1.0, -1.0),
    "verify_selection_phase_flip": (ANGLES, DEFAULT_SIGNS),
    "simulate_chsh": (0.0, 0.5, 0.2, 0.9, UNIFORM, 5, 1),
    "lhv_baseline_chsh": (0.0, 0.5, 0.2, 0.9, LhvStrategy.DETERMINISTIC_SIGN, 5, 1),
    "run_simulation": (CONFIG,),
    "time_order_statistics": (CONFIG,),
    "run_property_suite": (5, 1),
}


def small(value) -> bool:
    # no count the scans or the suite would take long to run
    return not isinstance(value, numbers.Integral) or isinstance(value, bool) or not (
        64 < value < 2**63)


def test_every_public_function_is_fuzzed():
    functions = {name for name in contextprob.__all__
                 if inspect.isfunction(getattr(contextprob, name))}
    assert functions == set(FUNCTIONS)


@given(st.sampled_from(sorted(FUNCTIONS)), st.data())
def test_a_function_returns_or_raises_a_typed_error(name, data):
    args = list(FUNCTIONS[name])
    for i in data.draw(st.sets(st.sampled_from(range(len(args))), min_size=1)):
        args[i] = data.draw(VALUES.filter(small))
    try:
        getattr(contextprob, name)(*args)
    except ContextualProbabilityError:
        pass


STRING_TO_FLOAT = "could not convert string to float: 'x'"
NOT_A_SCALAR = "only 0-dimensional arrays can be converted to Python scalars"
UNSUPPORTED = "settings must be real numbers: unsupported operand type(s) for -:"


@pytest.mark.parametrize("name, position, value, error, message", [
    ("classical_total_probability", 0, "x", PreconditionViolation,
     "prior must be a BinaryDistribution, got 'x'"),
    ("classical_total_probability", 1, "x", PreconditionViolation,
     "transition must be a TransitionMatrix, got 'x'"),
    ("incompatibility_coefficient", 0, "x", PreconditionViolation,
     f"observed must be a real number: {STRING_TO_FLOAT}"),
    ("incompatibility_coefficient", 0, [0.3], PreconditionViolation,
     f"observed must be a real number: {NOT_A_SCALAR}"),
    # None converts to NaN, which the formula's own check rejects, as before
    ("incompatibility_coefficient", 0, None, OutOfRangeProbability,
     "observed probability must lie in [0, 1], got nan"),
    ("incompatibility_coefficient", 1, "x", PreconditionViolation,
     "prior must be a BinaryDistribution, got 'x'"),
    ("incompatibility_coefficient", 2, "x", PreconditionViolation,
     "transition must be a TransitionMatrix, got 'x'"),
    ("interference_probability", 0, "x", PreconditionViolation,
     "prior must be a BinaryDistribution, got 'x'"),
    ("interference_probability", 1, "x", PreconditionViolation,
     "transition must be a TransitionMatrix, got 'x'"),
    ("interference_probability", 3, "x", PreconditionViolation,
     f"theta must be a real number: {STRING_TO_FLOAT}"),
    ("interference_probability", 3, 10**400, PreconditionViolation,
     "theta must be a real number: int too large to convert to float"),
    ("chsh", 0, "x", PreconditionViolation, f"{UNSUPPORTED} 'str' and 'float'"),
    ("chsh", 1, "x", PreconditionViolation, f"{UNSUPPORTED} 'str' and 'float'"),
    ("chsh", 2, "x", PreconditionViolation, f"{UNSUPPORTED} 'float' and 'str'"),
    ("chsh", 3, "x", PreconditionViolation, f"{UNSUPPORTED} 'float' and 'str'"),
    ("chsh", 2, None, PreconditionViolation, f"{UNSUPPORTED} 'float' and 'NoneType'"),
    ("chsh", 0, math.inf, PreconditionViolation, "angle difference must be finite, got inf"),
    ("chsh", 4, "x", PreconditionViolation, "marginal_c must be a BinaryDistribution, got 'x'"),
    ("conditional_probabilities", 0, "x", PreconditionViolation,
     f"angle difference must be a real number: {STRING_TO_FLOAT}"),
    ("epr_bohm_probabilities", 0, "x", PreconditionViolation,
     "angles must be an AnglePair, got 'x'"),
    ("matrices_from_angles", 0, "x", PreconditionViolation,
     "angles must be an AnglePair, got 'x'"),
    ("reconstruct_via_interference", 0, "x", PreconditionViolation,
     "angles must be an AnglePair, got 'x'"),
    ("reconstruct_via_interference", 1, "x", PreconditionViolation,
     "signs must be a SignConvention, got 'x'"),
    ("setting_correlation", 0, "x", PreconditionViolation,
     f"angle difference must be a real number: {STRING_TO_FLOAT}"),
    ("setting_correlation", 0, [0.1, 0.2], PreconditionViolation,
     f"delta must be a real number: {NOT_A_SCALAR}"),
    ("setting_correlation", 0, None, PreconditionViolation,
     "angle difference must be finite, got nan"),
    ("setting_correlation", 1, "x", PreconditionViolation,
     "marginal_c must be a BinaryDistribution, got 'x'"),
    ("verify_phase_opposition", 0, "x", PreconditionViolation,
     "angles must be an AnglePair, got 'x'"),
    ("verify_selection_phase_flip", 0, "x", PreconditionViolation,
     "angles must be an AnglePair, got 'x'"),
    ("verify_selection_phase_flip", 1, "x", PreconditionViolation,
     "signs must be a SignConvention, got 'x'"),
    ("simulate_chsh", 0, Fraction(10**5000), PreconditionViolation,
     "setting a must be finite, got <Fraction too long to show>"),
])
def test_a_value_a_function_cannot_use_raises_the_typed_error(name, position, value, error,
                                                             message):
    args = list(FUNCTIONS[name])
    args[position] = value
    with pytest.raises(ContextualProbabilityError) as info:
        getattr(contextprob, name)(*args)
    assert (type(info.value), str(info.value)) == (error, message)
