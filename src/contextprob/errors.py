"""Exception hierarchy shared by the whole package, and its count and seed checks.

Every error raised on purpose derives from :class:`ContextualProbabilityError`
so callers can catch one type at an API boundary and map it to a diagnostic.
"""

from __future__ import annotations

import numpy as np


class ContextualProbabilityError(ValueError):
    """Base class for all validation and precondition failures."""


class InvalidDistribution(ContextualProbabilityError):
    """A two-outcome distribution is not normalized or has a negative weight."""


class InvalidMatrix(ContextualProbabilityError):
    """A conditional-probability matrix violates shape, range, or column sums."""


class OutOfRangeProbability(ContextualProbabilityError):
    """A scalar that must be a probability lies outside [0, 1]."""


class PreconditionViolation(ContextualProbabilityError):
    """An argument breaks a documented domain restriction (angle range, phase
    sign, seed width, and similar)."""


class InvalidCount(ContextualProbabilityError):
    """A trial or sample count is not a positive integer below ``2**63``."""


def require_count(n: int, name: str) -> int:
    """``n`` as an int, or :class:`InvalidCount` unless ``1 <= n < 2**63``."""
    # 2**63 keeps trial counters below the redraw base 2**64 and totals in int64.
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or not 1 <= n < 1 << 63:
        raise InvalidCount(f"{name} must be a positive integer, got {n!r}")
    return int(n)


def require_seed(seed: int) -> int:
    """``seed`` as an int, or :class:`PreconditionViolation` unless ``0 <= seed < 2**64``."""
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise PreconditionViolation(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed < 1 << 64:
        raise PreconditionViolation(f"seed must satisfy 0 <= seed < 2**64, got {seed}")
    return int(seed)
