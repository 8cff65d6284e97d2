"""Contextual probability calculus for dichotomous observables.

Three layers: exact bookkeeping of two-path decompositions and their
interference corrections (:mod:`contextprob.core`), the angle-parametrized
spin-pair conditionals rebuilt through that interference form
(:mod:`contextprob.eprbohm`), and a seeded Monte Carlo of the time-ordered
selection/measurement protocol with four-setting correlation scans
(:mod:`contextprob.simulation`). The ``contextprob`` command exposes all of
it from the shell.

Each public name, and each module, is imported on first use (PEP 562), so
``import contextprob`` loads no layer and a subcommand only the ones it runs.
"""

import importlib

__version__ = "0.1.0"

# each public name and the module that defines it
_HOMES = {name: module for module, names in (
    ("core", "BOUNDARY_GUARD MINUS NORMALIZATION_TOL PLUS BinaryDistribution "
             "InterferenceCoefficient Regime TransitionMatrix classical_total_probability "
             "incompatibility_coefficient interference_probability"),
    ("eprbohm", "DEFAULT_SIGNS AnglePair SignConvention chsh "
                "conditional_probabilities epr_bohm_probabilities matrices_from_angles "
                "reconstruct_via_interference setting_correlation verify_phase_opposition "
                "verify_selection_phase_flip"),
    ("_choices", "LhvStrategy TimeDistribution"),
    ("errors", "ContextualProbabilityError InvalidCount InvalidDistribution InvalidMatrix "
               "OutOfRangeProbability PreconditionViolation"),
    ("simulation", "SimConfig SimReport TimeOrderStats lhv_baseline_chsh run_simulation "
                   "simulate_chsh time_order_statistics"),
    ("verification", "PropertyCheck run_property_suite"),
) for name in names.split()}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str):
    module = _HOMES.get(name, name)
    if module not in _HOMES.values():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f".{module}", __name__)
    return value if module == name else getattr(value, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
