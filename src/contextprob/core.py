"""Total-probability bookkeeping for dichotomous observables.

The objects here describe one two-outcome observable conditioned on another:
a prior over the conditioning outcomes, a column-stochastic 2x2 matrix of
transition probabilities, and the additive correction that appears when an
observed probability disagrees with the classical two-path decomposition.
The correction is summarized by a dimensionless coefficient; its magnitude
decides whether the disagreement can be written as ``2 cos(theta)`` times the
geometric mean of the four path weights.

Outcomes are encoded as the integers ``+1`` and ``-1`` throughout.

Each formula is written once, as an array kernel that evaluates it
elementwise over broadcast arrays (a stack of priors, transition rows and
phases): :func:`interference_values`, :func:`coefficient_values` and
:func:`row_sum_residuals`. The scalar functions that take the value objects
are thin wrappers over them, so a batched sweep and a single call evaluate
the same arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (
    InvalidDistribution,
    InvalidMatrix,
    OutOfRangeProbability,
    PreconditionViolation,
    _convert,
    _shown,
    require_instance,
)

PLUS = 1
MINUS = -1

# Definitional, not configurable: inputs off normalization by more than this are
# data errors, and every exact identity the package checks must hold within it.
NORMALIZATION_TOL = 1e-12

# interference_probability snaps results within this distance back onto the
# [0, 1] boundary. A consistent (prior, transitions, theta) triple can only
# leave the interval through last-bit rounding; genuine inconsistencies
# overshoot by far more and still raise.
BOUNDARY_GUARD = 1e-12


def _outcome_index(outcome: int) -> int:
    # +1 -> row/column 0, -1 -> row/column 1
    if outcome == PLUS:
        return 0
    if outcome == MINUS:
        return 1
    raise PreconditionViolation(f"outcome must be +1 or -1, got {_shown(outcome)}")


@dataclass(frozen=True)
class BinaryDistribution:
    """Probability weights of a single dichotomous observable.

    The two weights must be nonnegative and sum to 1 within
    ``NORMALIZATION_TOL``.
    """

    p_plus: float
    p_minus: float

    def __post_init__(self) -> None:
        for name in ("p_plus", "p_minus"):
            value = _convert(float, getattr(self, name), InvalidDistribution,
                             "weights must be real numbers")
            object.__setattr__(self, name, value)
        if not (math.isfinite(self.p_plus) and math.isfinite(self.p_minus)):
            raise InvalidDistribution("weights must be finite")
        if self.p_plus < 0.0 or self.p_minus < 0.0:
            raise InvalidDistribution(
                f"weights must be nonnegative, got ({self.p_plus}, {self.p_minus})"
            )
        total = self.p_plus + self.p_minus
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise InvalidDistribution(
                f"normalization violated: weights sum to {total!r}, expected 1"
            )

    @classmethod
    def uniform(cls) -> "BinaryDistribution":
        return cls(0.5, 0.5)

    @classmethod
    def from_p_plus(cls, p_plus: float) -> "BinaryDistribution":
        """Build from the + weight alone; the - weight is its complement."""
        p_plus = _convert(float, p_plus, InvalidDistribution, "p_plus must be a real number")
        if not 0.0 <= p_plus <= 1.0:
            raise InvalidDistribution(f"p_plus must lie in [0, 1], got {p_plus}")
        return cls(p_plus, 1.0 - p_plus)

    def prob(self, outcome: int) -> float:
        return (self.p_plus, self.p_minus)[_outcome_index(outcome)]


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Column-stochastic 2x2 matrix of conditional probabilities.

    ``entries[i][j]`` is the probability of result ``beta`` given condition
    ``alpha``, with ``+1`` mapped to index 0 and ``-1`` to index 1: rows index
    the result, columns the condition. Construction raises :class:`InvalidMatrix`
    unless it is 2x2 with finite entries in [0, 1] and each column sums to 1
    within ``NORMALIZATION_TOL``. Row sums equal 1 only for a doubly-stochastic
    matrix, whose :func:`row_sum_residuals` vanish.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = _convert(lambda entries: np.array(entries, dtype=float, copy=True),
                       self.entries, InvalidMatrix, "entries must be real numbers")
        if arr.shape != (2, 2):
            raise InvalidMatrix(f"expected a 2x2 matrix, got shape {arr.shape}")
        if not np.all((arr >= 0.0) & (arr <= 1.0)):
            if not np.all(np.isfinite(arr)):
                raise InvalidMatrix("entries must be finite")
            raise InvalidMatrix("entries must lie in [0, 1]")
        col_sums = arr[0] + arr[1]
        if np.any(np.abs(col_sums - 1.0) > NORMALIZATION_TOL):
            raise InvalidMatrix(
                f"column stochasticity violated: column sums are {col_sums.tolist()!r}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @classmethod
    def uniform(cls) -> "TransitionMatrix":
        return cls(np.full((2, 2), 0.5))

    def prob(self, result: int, condition: int) -> float:
        return float(self.entries[_outcome_index(result), _outcome_index(condition)])

    def column(self, condition: int) -> BinaryDistribution:
        """The result distribution for one fixed condition."""
        j = _outcome_index(condition)
        return BinaryDistribution(float(self.entries[0, j]), float(self.entries[1, j]))


class Regime(Enum):
    """Classification of the incompatibility coefficient by magnitude."""

    TRIGONOMETRIC = "trigonometric"
    HYPERBOLIC = "hyperbolic"
    DEGENERATE_DENOMINATOR = "degenerate-denominator"


@dataclass(frozen=True)
class InterferenceCoefficient:
    """Result of :func:`incompatibility_coefficient`.

    ``lam`` is the coefficient itself (None when the normalizing denominator
    vanishes; a NaN is stored as None). ``regime`` and ``theta`` follow from
    it: trigonometric with ``theta = arccos(lam)`` in [0, pi] when
    ``|lam| <= 1``, hyperbolic with no ``theta`` otherwise, and degenerate
    with neither when there is no ``lam``.
    """

    lam: float | None
    regime: Regime = field(init=False)
    theta: float | None = field(init=False)

    def __post_init__(self) -> None:
        nan = self.lam is None or _convert(math.isnan, self.lam, PreconditionViolation,
                                           "lam must be a real number or None")
        lam = None if nan else self.lam
        if lam is None:
            regime, theta = Regime.DEGENERATE_DENOMINATOR, None
        elif abs(lam) <= 1.0:
            regime, theta = Regime.TRIGONOMETRIC, math.acos(lam)
        else:
            regime, theta = Regime.HYPERBOLIC, None
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "regime", regime)
        object.__setattr__(self, "theta", theta)


def _four_factors(
    prior: BinaryDistribution, transition: TransitionMatrix, beta: int
) -> tuple[float, float, float, float]:
    # The four path weights, in the order the kernels take them.
    require_instance(prior, BinaryDistribution, "prior")
    require_instance(transition, TransitionMatrix, "transition")
    return (
        prior.p_plus,
        transition.prob(beta, PLUS),
        prior.p_minus,
        transition.prob(beta, MINUS),
    )


def _two_path(p_plus, t_plus, p_minus, t_minus):
    # Classical decomposition; floats in, float out, arrays in, array out.
    return p_plus * t_plus + p_minus * t_minus


def _root_product(p_plus, t_plus, p_minus, t_minus):
    # Geometric-mean factor of the interference term.
    return np.sqrt(p_plus * t_plus * p_minus * t_minus)


def _first(values: np.ndarray, where: np.ndarray) -> float:
    # The first offending element, for an error message naming one value.
    return float(values[where][0])


def row_sum_residuals(entries: np.ndarray) -> np.ndarray:
    """Largest ``|row sum - 1|`` of each matrix in a ``(..., 2, 2)`` stack."""
    return np.max(np.abs(entries[..., 0] + entries[..., 1] - 1.0), axis=-1)


def classical_total_probability(
    prior: BinaryDistribution, transition: TransitionMatrix, beta: int
) -> float:
    """Two-path decomposition of the probability of result ``beta``.

    Parameters
    ----------
    prior:
        Distribution of the conditioning observable.
    transition:
        Conditional probabilities of the result given each condition.
    beta:
        Result outcome, ``+1`` or ``-1``.

    Returns
    -------
    float
        ``prior(+) * transition(beta | +) + prior(-) * transition(beta | -)``.
    """
    return _two_path(*_four_factors(prior, transition, beta))


def coefficient_values(observed, p_plus, t_plus, p_minus, t_minus) -> np.ndarray:
    """Array form of :func:`incompatibility_coefficient`'s ``lambda``.

    Arguments broadcast against each other: the observed probabilities and
    the four path weights ``p(+), p(beta|+), p(-), p(beta|-)``. Where the
    normalizing denominator vanishes there is no coefficient, and the result
    is NaN.

    Raises
    ------
    OutOfRangeProbability
        If any observed probability is outside [0, 1].
    """
    observed = np.asarray(observed, dtype=float)
    outside = ~((0.0 <= observed) & (observed <= 1.0))
    if np.any(outside):
        raise OutOfRangeProbability(
            f"observed probability must lie in [0, 1], got {_first(observed, outside)}"
        )
    denominator = 2.0 * _root_product(p_plus, t_plus, p_minus, t_minus)
    excess = observed - _two_path(p_plus, t_plus, p_minus, t_minus)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(denominator == 0.0, np.nan, excess / denominator)


def incompatibility_coefficient(
    observed: float,
    prior: BinaryDistribution,
    transition: TransitionMatrix,
    beta: int,
) -> InterferenceCoefficient:
    """Coefficient of statistical incompatibility of an observed probability.

    Measures how far ``observed`` sits from the classical two-path value, in
    units of twice the geometric mean of the four path weights:

    ``lambda = (observed - classical) / (2 * sqrt(p(+) p(beta|+) p(-) p(beta|-)))``

    Parameters
    ----------
    observed:
        Directly measured probability of result ``beta``; must lie in [0, 1].
    prior, transition, beta:
        As in :func:`classical_total_probability`.

    Returns
    -------
    InterferenceCoefficient
        Trigonometric regime with ``theta = arccos(lambda)`` when
        ``|lambda| <= 1``, hyperbolic when ``|lambda| > 1``, and the
        degenerate regime (no coefficient at all) when the denominator
        vanishes: a path weight is zero, or their product underflows.

    Raises
    ------
    OutOfRangeProbability
        If ``observed`` is outside [0, 1].
    """
    factors = _four_factors(prior, transition, beta)
    return InterferenceCoefficient(_convert(
        lambda value: float(coefficient_values(value, *factors)), observed,
        PreconditionViolation, "observed must be a real number"))


def interference_values(p_plus, t_plus, p_minus, t_minus, theta) -> np.ndarray:
    """Array form of :func:`interference_probability`.

    Arguments broadcast against each other: the four path weights
    ``p(+), p(beta|+), p(-), p(beta|-)`` and the phases. Results within
    ``BOUNDARY_GUARD`` outside [0, 1] are snapped onto the boundary.

    Raises
    ------
    PreconditionViolation
        If any phase is outside [0, pi].
    OutOfRangeProbability
        If any value leaves [0, 1] by more than ``BOUNDARY_GUARD``.
    """
    theta = np.asarray(theta, dtype=float)
    outside = ~((0.0 <= theta) & (theta <= math.pi))
    if np.any(outside):
        raise PreconditionViolation(
            f"theta must lie in [0, pi], got {_first(theta, outside)}"
        )
    classical = _two_path(p_plus, t_plus, p_minus, t_minus)
    value = classical + 2.0 * np.cos(theta) * _root_product(p_plus, t_plus, p_minus, t_minus)
    for outside, side in ((value < -BOUNDARY_GUARD, "falls below 0"),
                          (value > 1.0 + BOUNDARY_GUARD, "exceeds 1")):
        if np.any(outside):
            raise OutOfRangeProbability(
                f"interference value {_first(value, outside)!r} {side}; "
                "the prior, transition, and phase are mutually inconsistent"
            )
    # a -0.0 inside the interval keeps its sign
    return np.where(value < 0.0, 0.0, np.where(value > 1.0, 1.0, value))


def interference_probability(
    prior: BinaryDistribution,
    transition: TransitionMatrix,
    beta: int,
    theta: float,
) -> float:
    """Classical two-path probability plus a phase-controlled correction.

    Evaluates

    ``classical + 2 cos(theta) * sqrt(p(+) p(beta|+) p(-) p(beta|-))``

    which inverts :func:`incompatibility_coefficient` in the trigonometric
    regime: feeding the result back in recovers ``lambda = cos(theta)``.

    Parameters
    ----------
    theta:
        Phase in [0, pi].

    Raises
    ------
    PreconditionViolation
        If ``theta`` is outside [0, pi].
    OutOfRangeProbability
        If the evaluated expression leaves [0, 1] by more than
        ``BOUNDARY_GUARD``, meaning no probability model is consistent with
        the given triple. Results inside the guard band are snapped onto the
        boundary, which absorbs last-bit rounding of legitimately extremal
        configurations.
    """
    factors = _four_factors(prior, transition, beta)
    theta = _convert(float, theta, PreconditionViolation, "theta must be a real number")
    return float(interference_values(*factors, theta))
