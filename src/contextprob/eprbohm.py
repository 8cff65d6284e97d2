"""Conditional probabilities of a spin-pair experiment, rebuilt two ways.

A pair of angle parameters fixes two column-stochastic matrices: outcomes of
measurement ``a`` conditioned on a selection observable ``c``, and outcomes of
measurement ``b`` conditioned on ``a``. The closed form for the third matrix,
outcomes of ``b`` conditioned on the selection, is

    p(+|+) = p(-|-) = sin^2(xi - eta),
    p(+|-) = p(-|+) = cos^2(xi - eta).

The same matrix falls out of the interference form of the total-probability
decomposition once the phase cosines are pushed to magnitude 1 with opposite
signs, and the opposite selection context flips both cosines. The functions
here compute both routes, check the two structural facts the derivation rests
on, and evaluate correlation functions of the closed form, including the
four-setting combination used in Bell-type comparisons.

Every formula is an array kernel over stacks of angles (or angle
differences) that broadcast elementwise: :func:`conditional_probabilities`,
:func:`angle_matrices`, :func:`phase_entries`,
:func:`phase_opposition_residuals`, :func:`correlation_values` and
:func:`chsh_values`. The functions taking an :class:`AnglePair` or a
:class:`BinaryDistribution` are thin wrappers over them returning plain
floats and bools. Squares go through ``np.float_power(x, 2.0)``, which rounds
like Python's ``x ** 2`` (libm ``pow``); ``x * x`` differs from it in the last
bit for about one sine or cosine in a thousand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    NORMALIZATION_TOL,
    BinaryDistribution,
    TransitionMatrix,
    interference_values,
    row_sum_residuals,
)
from .errors import PreconditionViolation, _convert, require_instance

_HALF_PI = math.pi / 2.0

# The four-setting combination E(a,b) - E(a,b') + E(a',b) + E(a',b'), one term
# per setting pair: the indices of its two settings in (a, a', b, b') and its sign.
CHSH_TERMS = (((0, 2), 1.0), ((0, 3), -1.0), ((1, 2), 1.0), ((1, 3), 1.0))


@dataclass(frozen=True)
class AnglePair:
    """Two angles in the open interval (0, pi/2).

    ``xi`` parametrizes the selection-to-``a`` matrix, ``eta`` the ``a``-to-
    ``b`` matrix. The interval is open because a boundary angle collapses one
    of the conditional columns to a deterministic distribution, and the
    interference normalization divides by those column entries.
    """

    xi: float
    eta: float

    def __post_init__(self) -> None:
        for name in ("xi", "eta"):
            value = _convert(float, getattr(self, name), PreconditionViolation,
                             f"{name} must be a real number")
            if not 0.0 < value < _HALF_PI:
                raise PreconditionViolation(
                    f"{name} must lie strictly inside (0, pi/2), got {value}"
                )
            object.__setattr__(self, name, value)

    @property
    def delta(self) -> float:
        return self.xi - self.eta


@dataclass(frozen=True)
class SignConvention:
    """Phase-cosine choice for the two outcome rows of the first selection
    context.

    Both cosines must be exactly +1.0 or -1.0 and must differ; equal signs
    break column normalization (see :func:`verify_phase_opposition`). The
    cosines of the opposite selection context are never stored: they are the
    negations, applied on the fly.
    """

    cos_theta_plus: float
    cos_theta_minus: float

    def __post_init__(self) -> None:
        plus, minus = _unit_cosines(self.cos_theta_plus, self.cos_theta_minus)
        object.__setattr__(self, "cos_theta_plus", plus)
        object.__setattr__(self, "cos_theta_minus", minus)
        if plus == minus:
            raise PreconditionViolation("the two phase cosines must have opposite signs")

    def flipped(self) -> "SignConvention":
        return SignConvention(-self.cos_theta_plus, -self.cos_theta_minus)


def _unit_cosines(*cosines) -> tuple[float, ...]:
    # The phase cosines as floats, each exactly +1.0 or -1.0.
    cosines = tuple(_convert(float, value, PreconditionViolation,
                             "phase cosines must be real numbers") for value in cosines)
    for value in cosines:
        if value not in (1.0, -1.0):
            raise PreconditionViolation(f"phase cosines must be +1.0 or -1.0, got {value}")
    return cosines


DEFAULT_SIGNS = SignConvention(-1.0, 1.0)


def _square(x):
    return np.float_power(x, 2.0)


def _symmetric(diagonal, off_diagonal) -> np.ndarray:
    # Stack of [[d, o], [o, d]], shape (..., 2, 2).
    out = np.empty(np.shape(diagonal) + (2, 2))
    out[..., 0, 0] = out[..., 1, 1] = diagonal
    out[..., 0, 1] = out[..., 1, 0] = off_diagonal
    return out


def angle_matrices(xi, eta) -> tuple[np.ndarray, np.ndarray]:
    """Entries of ``(p_ac, p_ba)`` for stacks of angles, each ``(..., 2, 2)``.

    The array form of :func:`matrices_from_angles`. Callers check the angles
    (an :class:`AnglePair`'s, or ones drawn inside ``(0, pi/2)``); for finite
    angles each column is ``cos^2 + sin^2``, within rounding of 1.
    """
    p_ac = _symmetric(_square(np.cos(xi)), _square(np.sin(xi)))
    p_ba = _symmetric(_square(np.sin(eta)), _square(np.cos(eta)))
    return p_ac, p_ba


def matrices_from_angles(angles: AnglePair) -> tuple[TransitionMatrix, TransitionMatrix]:
    """The two directly parametrized conditional matrices.

    Returns ``(p_ac, p_ba)``: outcomes of ``a`` given the selection outcome,
    with ``p_ac(+|+) = cos^2(xi)``, and outcomes of ``b`` given the ``a``
    outcome, with ``p_ba(+|+) = sin^2(eta)``. Both are doubly stochastic and,
    for angles inside the open interval, strictly positive.
    """
    require_instance(angles, AnglePair, "angles", "an")
    p_ac, p_ba = angle_matrices(angles.xi, angles.eta)
    return TransitionMatrix(p_ac), TransitionMatrix(p_ba)


def conditional_probabilities(delta) -> np.ndarray:
    """Closed-form conditional matrix for an arbitrary real angle difference.

    Row index is the ``b`` result, column index the selection outcome, in the
    usual (+1, -1) order. For ``delta = xi - eta`` this reproduces
    :func:`epr_bohm_probabilities`; any real ``delta`` is accepted, which is
    what the multi-setting correlation scans need; a non-finite one raises
    :class:`PreconditionViolation`. An array of differences gives a stack of
    matrices, shape ``delta.shape + (2, 2)``.
    """
    delta = _convert(lambda value: np.asarray(value, dtype=float), delta,
                     PreconditionViolation, "angle difference must be a real number")
    non_finite = ~np.isfinite(delta)
    if np.any(non_finite):
        raise PreconditionViolation(
            f"angle difference must be finite, got {float(delta[non_finite][0])}"
        )
    return _symmetric(_square(np.sin(delta)), _square(np.cos(delta)))


def epr_bohm_probabilities(angles: AnglePair) -> TransitionMatrix:
    """Closed-form matrix of ``b`` outcomes conditioned on the selection."""
    require_instance(angles, AnglePair, "angles", "an")
    return TransitionMatrix(conditional_probabilities(angles.delta))


def _column(p_ac: np.ndarray, p_ba: np.ndarray, j: int, cos_plus: float, cos_minus: float):
    # Interference entries (b = +, b = -) of selection column j, with the
    # prior taken from that column of p_ac.
    prior_plus, prior_minus = p_ac[..., 0, j], p_ac[..., 1, j]
    plus = interference_values(
        prior_plus, p_ba[..., 0, 0], prior_minus, p_ba[..., 0, 1], math.acos(cos_plus)
    )
    minus = interference_values(
        prior_plus, p_ba[..., 1, 0], prior_minus, p_ba[..., 1, 1], math.acos(cos_minus)
    )
    return plus, minus


def phase_entries(
    p_ac: np.ndarray, p_ba: np.ndarray, signs: SignConvention, *, flip_second_column: bool
) -> np.ndarray:
    """All four interference entries for stacks of ``(p_ac, p_ba)``, ``(..., 2, 2)``.

    The ``+`` selection column uses the phase cosines of ``signs``; the ``-``
    column negates them (the consistent choice) when ``flip_second_column``
    is true and reuses them otherwise.
    """
    flip = -1.0 if flip_second_column else 1.0
    entries = np.empty(p_ac.shape)
    entries[..., 0, 0], entries[..., 1, 0] = _column(
        p_ac, p_ba, 0, signs.cos_theta_plus, signs.cos_theta_minus
    )
    entries[..., 0, 1], entries[..., 1, 1] = _column(
        p_ac, p_ba, 1, flip * signs.cos_theta_plus, flip * signs.cos_theta_minus
    )
    return entries


def reconstruct_via_interference(
    angles: AnglePair, signs: SignConvention = DEFAULT_SIGNS
) -> TransitionMatrix:
    """Rebuild the selection-conditioned matrix from the interference form.

    Each entry is the two-path decomposition through the intermediate ``a``
    outcomes plus the maximal-phase correction: phases from ``signs`` for the
    ``+`` selection column, their negations for the ``-`` column.

    With the default signs the result agrees with
    :func:`epr_bohm_probabilities` to machine precision. The flipped
    convention is also internally consistent but lands on the
    ``sin^2(xi + eta)`` family instead.

    Returns
    -------
    TransitionMatrix
        Rows index the ``b`` result, columns the selection outcome.
    """
    require_instance(angles, AnglePair, "angles", "an")
    require_instance(signs, SignConvention, "signs")
    p_ac, p_ba = angle_matrices(angles.xi, angles.eta)
    return TransitionMatrix(phase_entries(p_ac, p_ba, signs, flip_second_column=True))


def phase_opposition_residuals(
    p_ac: np.ndarray, p_ba: np.ndarray, cos_theta_plus: float, cos_theta_minus: float
) -> np.ndarray:
    """``|column sum - 1|`` of the ``+`` selection column, per ``(p_ac, p_ba)``.

    The array form behind :func:`verify_phase_opposition`, with the same
    precondition on the two phase cosines.
    """
    plus, minus = _column(p_ac, p_ba, 0, *_unit_cosines(cos_theta_plus, cos_theta_minus))
    return np.abs(plus + minus - 1.0)


def verify_phase_opposition(
    angles: AnglePair,
    cos_theta_plus: float,
    cos_theta_minus: float,
) -> bool:
    """Check whether a maximal-phase pair keeps one selection column normalized.

    Evaluates both interference entries of the ``+`` selection column with the
    given phase cosines and tests whether they sum to 1 within
    ``NORMALIZATION_TOL``, as a :class:`TransitionMatrix` column must. For
    cosines of magnitude 1 this holds exactly when the two signs are opposite;
    equal signs leave a residual of magnitude ``sin(2 xi) sin(2 eta)``, far
    outside any rounding band for interior angles.

    Raises
    ------
    PreconditionViolation
        If either cosine is not exactly +1.0 or -1.0. (Unlike
        :class:`SignConvention`, equal signs are allowed here; rejecting them
        is this function's job.)
    """
    require_instance(angles, AnglePair, "angles", "an")
    p_ac, p_ba = angle_matrices(angles.xi, angles.eta)
    residual = phase_opposition_residuals(p_ac, p_ba, cos_theta_plus, cos_theta_minus)
    return bool(residual <= NORMALIZATION_TOL)


def verify_selection_phase_flip(
    angles: AnglePair,
    signs: SignConvention = DEFAULT_SIGNS,
    *,
    violate_flip: bool = False,
) -> bool:
    """Check double stochasticity of the reconstruction under the phase flip.

    The reconstruction assigns the ``-`` selection column the negated phase
    cosines of the ``+`` column. This function rebuilds all four entries and
    tests that both row sums equal 1 within ``NORMALIZATION_TOL``, which is the
    signature of that flip. With ``violate_flip=True`` the ``-`` column reuses the
    unflipped cosines instead; rows then sum to ``1 +/- sin(2 xi) sin(2 eta)``
    and the check fails for every nondegenerate angle pair, which makes the
    flag useful as a negative control.
    """
    require_instance(angles, AnglePair, "angles", "an")
    require_instance(signs, SignConvention, "signs")
    p_ac, p_ba = angle_matrices(angles.xi, angles.eta)
    entries = phase_entries(p_ac, p_ba, signs, flip_second_column=not violate_flip)
    return bool(row_sum_residuals(entries) <= NORMALIZATION_TOL)


def correlation_values(delta, q_plus, q_minus) -> np.ndarray:
    """Array form of :func:`setting_correlation`.

    Arguments broadcast against each other: angle differences and the two
    weights of the selection marginal.
    """
    cond = conditional_probabilities(delta)
    # sum of beta * gamma * p(beta|gamma) * q(gamma), in (beta, gamma) order
    return (
        cond[..., 0, 0] * q_plus
        - cond[..., 0, 1] * q_minus
        - cond[..., 1, 0] * q_plus
        + cond[..., 1, 1] * q_minus
    )


def setting_correlation(delta: float, marginal_c: BinaryDistribution) -> float:
    """Expected product of the two recorded signs at angle difference ``delta``.

    Sums ``beta * gamma * p(beta|gamma) * q(gamma)`` over the closed-form
    conditionals. Because those conditionals are doubly stochastic the
    marginal drops out and the value is ``-cos(2 delta)`` for every
    ``marginal_c``; the argument is kept so callers can feed whichever
    selection marginal their setup uses and see that indifference directly.
    """
    require_instance(marginal_c, BinaryDistribution, "marginal_c")
    return _convert(float, correlation_values(delta, marginal_c.p_plus, marginal_c.p_minus),
                    PreconditionViolation, "delta must be a real number")


def chsh_values(a, a_prime, b, b_prime, q_plus, q_minus) -> np.ndarray:
    """Array form of :func:`chsh`; all arguments broadcast elementwise."""
    s = (a, a_prime, b, b_prime)
    e = [sign * correlation_values(s[i] - s[j], q_plus, q_minus) for (i, j), sign in CHSH_TERMS]
    return e[0] + e[1] + e[2] + e[3]  # left to right, as the combination is written


def chsh(
    a: float,
    a_prime: float,
    b: float,
    b_prime: float,
    marginal_c: BinaryDistribution,
) -> float:
    """Four-setting correlation combination ``E(a,b) - E(a,b') + E(a',b) + E(a',b')``.

    Each ``E`` is :func:`setting_correlation` of the corresponding setting
    difference. At settings ``(0, pi/4, pi/8, 3*pi/8)`` the value is
    ``-2 sqrt(2)``, the extreme of this family. A setting that is no real number
    or not finite, or settings whose difference overflows, raise
    :class:`PreconditionViolation`.
    """
    require_instance(marginal_c, BinaryDistribution, "marginal_c")
    return _convert(
        lambda settings: float(chsh_values(*settings, marginal_c.p_plus, marginal_c.p_minus)),
        (a, a_prime, b, b_prime), PreconditionViolation, "settings must be real numbers")

