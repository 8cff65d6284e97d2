"""The simulation's two enums, whose values the CLI parser lists as choices.

They live apart from the layers, with no numpy import, so that building the
parser, ``--help`` and a usage error load no layer. The package,
:mod:`contextprob.cli` and :mod:`contextprob.simulation` import them from here,
so every name binds the same objects.
"""

from enum import Enum


class TimeDistribution(Enum):
    """How the two per-trial event times are produced."""

    UNIFORM_SQUARE = "uniform-square"  # (t1, t2) uniform on the unit square, ordered
    FIXED_ORDER = "fixed-order"  # selection at 0, measurement at 1


class LhvStrategy(Enum):
    """Local hidden-variable baselines for the four-setting scan."""

    DETERMINISTIC_SIGN = "deterministic-sign"
    RANDOM_LOCAL = "random-local"
