"""Randomized self-checks over the angle parametrization.

Each check sweeps a seeded sample of angle pairs (and, where relevant,
settings and marginals) and returns every sample's residual; the two checks
that only classify return a 0/1 failure indicator per sample. The sweep alone
takes the worst over all blocks, from 0.0 up, and applies the tolerance, so
a NaN residual is reported and fails. The suite is what the ``verify``
command runs; the ``break_phase_flip`` switch turns the phase-flip check into
its negative control so the failure path of the reporting machinery can be
exercised on demand.

The sweep is blocked: each check draws its inputs ``_BLOCK`` samples at a
time, one ``rng.uniform`` call per block, and evaluates the whole block with
the array kernels of :mod:`contextprob.core` and :mod:`contextprob.eprbohm`,
the same kernels the scalar functions wrap, so there is one formula per
quantity. Taking the blocks in order consumes the generator exactly as one
draw per sample would, so the report does not depend on the block size, and
memory stays bounded by one block however many samples are asked for. The
drawn angles are the checked input, so the matrices built from them are not
checked again; the interference guard applies unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import NORMALIZATION_TOL, coefficient_values, row_sum_residuals
from .eprbohm import (
    DEFAULT_SIGNS,
    angle_matrices,
    chsh_values,
    conditional_probabilities,
    correlation_values,
    phase_entries,
    phase_opposition_residuals,
)
from .errors import require_count, require_seed
# numpy.random at import, not on first use: the CLI imports this module with SIGINT
# held. Last, since loaded before the modules above it raised peak RSS by 0.3 MiB.
import numpy.random  # noqa: F401

# Angles are sampled away from the interval ends so every interference
# denominator stays well above rounding scale and residual bounds are clean.
# Drawn angles therefore lie inside (0, pi/2) and drawn marginals inside
# [0, 1) by construction; the checks below validate what is computed.
_ANGLE_MARGIN = 0.05

_TSIRELSON = 2.0 * np.sqrt(2.0)

# Samples per block. Peak memory of the sweep is a few dozen arrays of this
# many 2x2 matrices.
_BLOCK = 1 << 12


@dataclass(frozen=True)
class PropertyCheck:
    """Outcome of one randomized check.

    ``worst_residual`` is the largest per-sample residual the check measured:
    a 0/1 failure indicator for checks that only classify, chsh-bound's excess
    ``|S| - 2 sqrt(2)`` clamped at 0.0, and NaN if a residual was NaN.
    ``passed`` says whether it is within the tolerance, which NaN is not.
    """

    name: str
    n_samples: int
    worst_residual: float
    passed: bool


def _sweep(rng: np.random.Generator, n_samples: int, block_check) -> tuple[float, bool]:
    # ``block_check(rng, size)`` draws ``size`` samples and returns their residuals
    # (an array, a list of equal-shaped arrays or a float). Unlike max, np.maximum keeps NaN.
    worst = 0.0
    for start in range(0, n_samples, _BLOCK):
        worst = np.maximum(worst, np.max(block_check(rng, min(_BLOCK, n_samples - start))))
    worst = float(worst)
    return worst, worst <= NORMALIZATION_TOL


def _sample_angles(rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
    lo = _ANGLE_MARGIN
    hi = np.pi / 2.0 - _ANGLE_MARGIN
    draws = rng.uniform(lo, hi, size=(size, 2))
    return draws[:, 0], draws[:, 1]


def run_property_suite(
    n_samples: int,
    seed: int,
    *,
    break_phase_flip: bool = False,
) -> list[PropertyCheck]:
    """Run every check on a fresh seeded sample and return their outcomes.

    Parameters
    ----------
    n_samples:
        Angle pairs (and settings) per check; must be positive.
    seed:
        Root seed of the sweep. Equal seeds give equal reports.
    break_phase_flip:
        Run the phase-flip check with the cross-context flip deliberately
        suppressed. The check then fails by design.

    Raises
    ------
    InvalidCount
        If ``n_samples`` is not a positive integer.
    PreconditionViolation
        If ``seed`` is not an integer in ``[0, 2**64)``.
    """
    n_samples = require_count(n_samples, "n_samples")
    rng = np.random.default_rng(require_seed(seed))

    def check(name: str, block_check) -> PropertyCheck:
        return PropertyCheck(name, n_samples, *_sweep(rng, n_samples, block_check))

    flip_name = (
        "selection-phase-flip (flip suppressed)" if break_phase_flip else "selection-phase-flip"
    )
    # The checks share the generator, so their order fixes what each draws.
    return [
        check("reconstruction-agreement", _reconstruction_agreement),
        check("double-stochasticity", _double_stochasticity),
        check("phase-opposition", _phase_opposition),
        check(flip_name, lambda rng, size: _selection_phase_flip(rng, size, break_phase_flip)),
        check("coefficient-roundtrip", _coefficient_roundtrip),
        check("correlation-closed-form", _correlation_closed_form),
        check("chsh-bound", _chsh_bound),
    ]


def _reconstruction_agreement(rng: np.random.Generator, size: int) -> np.ndarray:
    # Interference route equals the closed form entrywise.
    xi, eta = _sample_angles(rng, size)
    recon = phase_entries(*angle_matrices(xi, eta), DEFAULT_SIGNS, flip_second_column=True)
    return np.abs(conditional_probabilities(xi - eta) - recon)


def _double_stochasticity(rng: np.random.Generator, size: int) -> list[np.ndarray] | float:
    # All three conditional matrices, plus the reconstruction, have unit rows.
    xi, eta = _sample_angles(rng, size)
    p_ac, p_ba = angle_matrices(xi, eta)
    p_bc = conditional_probabilities(xi - eta)
    stacks = (p_ac, p_ba, p_bc, phase_entries(p_ac, p_ba, DEFAULT_SIGNS, flip_second_column=True))
    if not all(bool(np.all(m > 0.0)) for m in (p_ac, p_ba, p_bc)):
        return 1.0
    return [row_sum_residuals(m) for m in stacks]


def _phase_opposition(rng: np.random.Generator, size: int) -> np.ndarray:
    # Opposite maximal phases keep the column normalized; equal ones cannot.
    p_ac, p_ba = angle_matrices(*_sample_angles(rng, size))
    w0, w1, w2, w3 = (
        phase_opposition_residuals(p_ac, p_ba, *pair) <= NORMALIZATION_TOL
        for pair in ((-1.0, 1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, -1.0))
    )
    return np.where(w0 & w1 & ~w2 & ~w3, 0.0, 1.0)


def _selection_phase_flip(rng: np.random.Generator, size: int, violate: bool) -> np.ndarray:
    # Rows of the reconstruction stay normalized exactly because the second
    # selection context negates both phase cosines.
    p_ac, p_ba = angle_matrices(*_sample_angles(rng, size))
    entries = phase_entries(p_ac, p_ba, DEFAULT_SIGNS, flip_second_column=not violate)
    return np.where(row_sum_residuals(entries) <= NORMALIZATION_TOL, 0.0, 1.0)


def _coefficient_roundtrip(rng: np.random.Generator, size: int) -> list[np.ndarray]:
    # Feeding the closed-form entries back through the coefficient recovers
    # the maximal phase cosines, flipped in the second selection column.
    xi, eta = _sample_angles(rng, size)
    p_ac, p_ba = angle_matrices(xi, eta)
    closed = conditional_probabilities(xi - eta)
    cosines = (DEFAULT_SIGNS.cos_theta_plus, DEFAULT_SIGNS.cos_theta_minus)
    residuals = []
    for gamma, flip in ((0, 1.0), (1, -1.0)):
        for beta, cos_theta in enumerate(cosines):
            lam = coefficient_values(
                closed[:, beta, gamma],
                p_ac[:, 0, gamma], p_ba[:, beta, 0],
                p_ac[:, 1, gamma], p_ba[:, beta, 1],
            )
            residuals.append(np.abs(lam - flip * cos_theta))
    return residuals


def _correlation_closed_form(rng: np.random.Generator, size: int) -> np.ndarray:
    # E(delta) = -cos(2 delta), independent of the selection marginal. Each
    # sample draws its difference, then its marginal weight p(+).
    draws = rng.uniform([-2.0 * np.pi, 0.0], [2.0 * np.pi, 1.0], size=(size, 2))
    delta, p_plus = draws[:, 0], draws[:, 1]
    return np.abs(correlation_values(delta, p_plus, 1.0 - p_plus) + np.cos(2.0 * delta))


def _chsh_bound(rng: np.random.Generator, size: int) -> np.ndarray:
    # |S| never exceeds 2 sqrt(2) over arbitrary setting quadruples.
    a, a_prime, b, b_prime = rng.uniform(0.0, 2.0 * np.pi, size=(size, 4)).T
    s = chsh_values(a, a_prime, b, b_prime, 0.5, 0.5)  # uniform selection marginal
    return np.abs(s) - _TSIRELSON
