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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    MINUS,
    PLUS,
    BinaryDistribution,
    TransitionMatrix,
    interference_probability,
)
from .errors import PreconditionViolation

_HALF_PI = math.pi / 2.0


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
        object.__setattr__(self, "xi", float(self.xi))
        object.__setattr__(self, "eta", float(self.eta))
        for name, value in (("xi", self.xi), ("eta", self.eta)):
            if not 0.0 < value < _HALF_PI:
                raise PreconditionViolation(
                    f"{name} must lie strictly inside (0, pi/2), got {value}"
                )

    @property
    def delta(self) -> float:
        return self.xi - self.eta

    def to_dict(self) -> dict:
        return {"xi": self.xi, "eta": self.eta}


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
        object.__setattr__(self, "cos_theta_plus", float(self.cos_theta_plus))
        object.__setattr__(self, "cos_theta_minus", float(self.cos_theta_minus))
        for value in (self.cos_theta_plus, self.cos_theta_minus):
            if value not in (1.0, -1.0):
                raise PreconditionViolation(
                    f"phase cosines must be +1.0 or -1.0, got {value}"
                )
        if self.cos_theta_plus == self.cos_theta_minus:
            raise PreconditionViolation("the two phase cosines must have opposite signs")

    @classmethod
    def default(cls) -> "SignConvention":
        return cls(-1.0, 1.0)

    def flipped(self) -> "SignConvention":
        return SignConvention(-self.cos_theta_plus, -self.cos_theta_minus)

    @property
    def theta_plus(self) -> float:
        return math.acos(self.cos_theta_plus)

    @property
    def theta_minus(self) -> float:
        return math.acos(self.cos_theta_minus)

    def to_dict(self) -> dict:
        return {
            "cos_theta_plus": self.cos_theta_plus,
            "cos_theta_minus": self.cos_theta_minus,
        }


DEFAULT_SIGNS = SignConvention(-1.0, 1.0)


def matrices_from_angles(angles: AnglePair) -> tuple[TransitionMatrix, TransitionMatrix]:
    """The two directly parametrized conditional matrices.

    Returns ``(p_ac, p_ba)``: outcomes of ``a`` given the selection outcome,
    with ``p_ac(+|+) = cos^2(xi)``, and outcomes of ``b`` given the ``a``
    outcome, with ``p_ba(+|+) = sin^2(eta)``. Both are doubly stochastic and,
    for angles inside the open interval, strictly positive.
    """
    c2x = math.cos(angles.xi) ** 2
    s2x = math.sin(angles.xi) ** 2
    c2e = math.cos(angles.eta) ** 2
    s2e = math.sin(angles.eta) ** 2
    p_ac = TransitionMatrix(np.array([[c2x, s2x], [s2x, c2x]]))
    p_ba = TransitionMatrix(np.array([[s2e, c2e], [c2e, s2e]]))
    return p_ac, p_ba


def conditional_probabilities(delta: float) -> np.ndarray:
    """Closed-form conditional matrix for an arbitrary real angle difference.

    Row index is the ``b`` result, column index the selection outcome, in the
    usual (+1, -1) order. For ``delta = xi - eta`` this reproduces
    :func:`epr_bohm_probabilities`; any real ``delta`` is accepted, which is
    what the multi-setting correlation scans need; a non-finite one raises
    :class:`PreconditionViolation`.
    """
    if not math.isfinite(delta):
        raise PreconditionViolation(f"angle difference must be finite, got {delta}")
    s2 = math.sin(delta) ** 2
    c2 = math.cos(delta) ** 2
    return np.array([[s2, c2], [c2, s2]])


def epr_bohm_probabilities(angles: AnglePair) -> TransitionMatrix:
    """Closed-form matrix of ``b`` outcomes conditioned on the selection."""
    return TransitionMatrix(conditional_probabilities(angles.delta))


def _phase_entries(
    angles: AnglePair, signs: SignConvention, flip_second_column: bool
) -> np.ndarray:
    # All four interference entries; the second selection column either
    # negates the phase cosines (the consistent choice) or reuses them.
    p_ac, p_ba = matrices_from_angles(angles)
    entries = np.empty((2, 2))
    for j, gamma in enumerate((PLUS, MINUS)):
        prior = p_ac.column(gamma)
        flip = -1.0 if (gamma == MINUS and flip_second_column) else 1.0
        theta_plus = math.acos(flip * signs.cos_theta_plus)
        theta_minus = math.acos(flip * signs.cos_theta_minus)
        entries[0, j] = interference_probability(prior, p_ba, PLUS, theta_plus)
        entries[1, j] = interference_probability(prior, p_ba, MINUS, theta_minus)
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
    return TransitionMatrix(_phase_entries(angles, signs, flip_second_column=True))


def verify_phase_opposition(
    angles: AnglePair,
    cos_theta_plus: float,
    cos_theta_minus: float,
    tol: float = 1e-12,
) -> bool:
    """Check whether a maximal-phase pair keeps one selection column normalized.

    Evaluates both interference entries of the ``+`` selection column with the
    given phase cosines and tests whether they sum to 1 within ``tol``. For
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
    for value in (float(cos_theta_plus), float(cos_theta_minus)):
        if value not in (1.0, -1.0):
            raise PreconditionViolation(
                f"phase cosines must be +1.0 or -1.0, got {value}"
            )
    p_ac, p_ba = matrices_from_angles(angles)
    prior = p_ac.column(PLUS)
    total = interference_probability(
        prior, p_ba, PLUS, math.acos(float(cos_theta_plus))
    ) + interference_probability(prior, p_ba, MINUS, math.acos(float(cos_theta_minus)))
    return abs(total - 1.0) <= tol


def verify_selection_phase_flip(
    angles: AnglePair,
    signs: SignConvention = DEFAULT_SIGNS,
    *,
    violate_flip: bool = False,
    tol: float = 1e-12,
) -> bool:
    """Check double stochasticity of the reconstruction under the phase flip.

    The reconstruction assigns the ``-`` selection column the negated phase
    cosines of the ``+`` column. This function rebuilds all four entries and
    tests that both row sums equal 1 within ``tol``, which is the signature of
    that flip. With ``violate_flip=True`` the ``-`` column reuses the
    unflipped cosines instead; rows then sum to ``1 +/- sin(2 xi) sin(2 eta)``
    and the check fails for every nondegenerate angle pair, which makes the
    flag useful as a negative control.
    """
    entries = _phase_entries(angles, signs, flip_second_column=not violate_flip)
    row_sums = entries.sum(axis=1)
    return bool(np.all(np.abs(row_sums - 1.0) <= tol))


def setting_correlation(delta: float, marginal_c: BinaryDistribution) -> float:
    """Expected product of the two recorded signs at angle difference ``delta``.

    Sums ``beta * gamma * p(beta|gamma) * q(gamma)`` over the closed-form
    conditionals. Because those conditionals are doubly stochastic the
    marginal drops out and the value is ``-cos(2 delta)`` for every
    ``marginal_c``; the argument is kept so callers can feed whichever
    selection marginal their setup uses and see that indifference directly.
    """
    cond = conditional_probabilities(delta)
    total = 0.0
    for i, beta in enumerate((PLUS, MINUS)):
        for j, gamma in enumerate((PLUS, MINUS)):
            total += beta * gamma * cond[i, j] * marginal_c.prob(gamma)
    return total


def correlation(angles: AnglePair, marginal_c: BinaryDistribution) -> float:
    """Sign-product expectation of the closed-form conditionals at ``angles``."""
    return setting_correlation(angles.delta, marginal_c)


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
    ``-2 sqrt(2)``, the extreme of this family. A non-finite setting, or
    settings whose difference overflows, raise :class:`PreconditionViolation`.
    """
    return (
        setting_correlation(a - b, marginal_c)
        - setting_correlation(a - b_prime, marginal_c)
        + setting_correlation(a_prime - b, marginal_c)
        + setting_correlation(a_prime - b_prime, marginal_c)
    )


@dataclass(frozen=True, eq=False)
class ConditionalMatrixSet:
    """The three conditional matrices of one angle pair, bundled.

    ``p_ac`` and ``p_ba`` come straight from the parametrization;
    ``p_bc`` is the closed-form selection-conditioned matrix.
    """

    p_ac: TransitionMatrix
    p_ba: TransitionMatrix
    p_bc: TransitionMatrix

    @classmethod
    def from_angles(cls, angles: AnglePair) -> "ConditionalMatrixSet":
        p_ac, p_ba = matrices_from_angles(angles)
        return cls(p_ac=p_ac, p_ba=p_ba, p_bc=epr_bohm_probabilities(angles))

    @property
    def strictly_positive(self) -> bool:
        return bool(
            np.all(self.p_ac.entries > 0.0)
            and np.all(self.p_ba.entries > 0.0)
            and np.all(self.p_bc.entries > 0.0)
        )

    def to_dict(self) -> dict:
        return {
            "p_ac": self.p_ac.to_dict(),
            "p_ba": self.p_ba.to_dict(),
            "p_bc": self.p_bc.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ConditionalMatrixSet":
        return cls(
            p_ac=TransitionMatrix.from_dict(data["p_ac"]),
            p_ba=TransitionMatrix.from_dict(data["p_ba"]),
            p_bc=TransitionMatrix.from_dict(data["p_bc"]),
        )
