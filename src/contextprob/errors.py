"""Exception hierarchy shared by the whole package, its count, seed and type checks,
and the conversion that types the errors of a value that is no real number.

Every error raised on purpose derives from :class:`ContextualProbabilityError`
so callers can catch one type at an API boundary and map it to a diagnostic.
The module imports no numpy: the CLI loads it before it parses its arguments.
"""

from __future__ import annotations

import numbers


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
    # numpy registers its integer types, not np.bool_, as numbers.Integral
    if not isinstance(n, numbers.Integral) or isinstance(n, bool) or not 1 <= n < 1 << 63:
        raise InvalidCount(f"{name} must be a positive integer, got {_shown(n)}")
    return int(n)


def require_seed(seed: int) -> int:
    """``seed`` as an int, or :class:`PreconditionViolation` unless ``0 <= seed < 2**64``."""
    if not isinstance(seed, numbers.Integral) or isinstance(seed, bool):
        raise PreconditionViolation(f"seed must be an integer, got {_shown(seed)}")
    if not 0 <= seed < 1 << 64:
        raise PreconditionViolation(
            f"seed must satisfy 0 <= seed < 2**64, got {_shown(seed, str)}")
    return int(seed)


def require_instance(value, kind: type, name: str, article: str = "a") -> None:
    """:class:`PreconditionViolation` unless ``value``, argument ``name``, is a ``kind``."""
    if not isinstance(value, kind):
        raise PreconditionViolation(
            f"{name} must be {article} {kind.__name__}, got {_shown(value)}")


def _shown(value, show=repr) -> str:
    # show(value), or its type where that raises: an int of more than 4300 digits does
    try:
        return show(value)
    except ValueError:
        return f"<{type(value).__name__} too long to show>"


def _convert(convert, value, error: type[ContextualProbabilityError], what: str):
    """``convert(value)``, or ``error`` with ``what`` and the reason where it raises the
    TypeError, ValueError or OverflowError of a value that is no real number. A typed
    error that ``convert`` raises passes unchanged."""
    try:
        return convert(value)
    except ContextualProbabilityError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{what}: {exc}") from exc
