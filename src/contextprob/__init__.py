"""Contextual probability calculus for dichotomous observables.

Three layers: exact bookkeeping of two-path decompositions and their
interference corrections (:mod:`contextprob.core`), the angle-parametrized
spin-pair conditionals rebuilt through that interference form
(:mod:`contextprob.eprbohm`), and a seeded Monte Carlo of the time-ordered
selection/measurement protocol with four-setting correlation scans
(:mod:`contextprob.simulation`). The ``contextprob`` command exposes all of
it from the shell.
"""

from .core import (
    BOUNDARY_GUARD,
    MINUS,
    NORMALIZATION_TOL,
    PLUS,
    BinaryDistribution,
    InterferenceCoefficient,
    Regime,
    TransitionMatrix,
    classical_total_probability,
    incompatibility_coefficient,
    interference_probability,
)
from .eprbohm import (
    DEFAULT_SIGNS,
    AnglePair,
    SignConvention,
    chsh,
    conditional_probabilities,
    epr_bohm_probabilities,
    matrices_from_angles,
    reconstruct_via_interference,
    setting_correlation,
    verify_phase_opposition,
    verify_selection_phase_flip,
)
from .errors import (
    ContextualProbabilityError,
    InvalidCount,
    InvalidDistribution,
    InvalidMatrix,
    OutOfRangeProbability,
    PreconditionViolation,
)
from .simulation import (
    LhvStrategy,
    SimConfig,
    SimReport,
    TimeDistribution,
    TimeOrderStats,
    lhv_baseline_chsh,
    run_simulation,
    simulate_chsh,
    time_order_statistics,
)
from .verification import PropertyCheck, run_property_suite

__version__ = "0.1.0"

__all__ = [
    "BOUNDARY_GUARD",
    "MINUS",
    "NORMALIZATION_TOL",
    "PLUS",
    "AnglePair",
    "BinaryDistribution",
    "ContextualProbabilityError",
    "DEFAULT_SIGNS",
    "InterferenceCoefficient",
    "InvalidCount",
    "InvalidDistribution",
    "InvalidMatrix",
    "LhvStrategy",
    "OutOfRangeProbability",
    "PreconditionViolation",
    "PropertyCheck",
    "Regime",
    "SignConvention",
    "SimConfig",
    "SimReport",
    "TimeDistribution",
    "TimeOrderStats",
    "TransitionMatrix",
    "chsh",
    "classical_total_probability",
    "conditional_probabilities",
    "epr_bohm_probabilities",
    "incompatibility_coefficient",
    "interference_probability",
    "lhv_baseline_chsh",
    "matrices_from_angles",
    "reconstruct_via_interference",
    "run_property_suite",
    "run_simulation",
    "setting_correlation",
    "simulate_chsh",
    "time_order_statistics",
    "verify_phase_opposition",
    "verify_selection_phase_flip",
    "__version__",
]
