"""The shared count, seed and type checks of ``contextprob.errors``, which import no
numpy."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from contextprob.errors import (
    InvalidCount,
    PreconditionViolation,
    require_count,
    require_instance,
    require_seed,
)

INTEGER_TYPES = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)
FLOAT_TYPES = (np.float16, np.float32, np.float64, np.longdouble)


def parent_count(n, name):
    # the check as it was written with numpy's integer type, the reference
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or not 1 <= n < 1 << 63:
        raise InvalidCount(f"{name} must be a positive integer, got {n!r}")
    return int(n)


def parent_seed(seed):
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise PreconditionViolation(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed < 1 << 64:
        raise PreconditionViolation(f"seed must satisfy 0 <= seed < 2**64, got {seed}")
    return int(seed)


def numpy_integers(kind):
    info = np.iinfo(kind)
    return st.integers(int(info.min), int(info.max)).map(kind)


VALUES = st.one_of(
    st.integers(),
    st.integers(-(2**80), -(2**62)),
    st.integers(2**62, 2**80),
    st.booleans(),
    st.booleans().map(np.bool_),
    *(numpy_integers(kind) for kind in INTEGER_TYPES),
    st.floats(),
    *(st.floats(width=16).map(kind) for kind in FLOAT_TYPES),
    st.fractions(),
    st.text(max_size=4),
    st.none(),
)


def outcome(check, *args):
    """``("ok", type, value)`` or ``("raised", type, message)``."""
    try:
        value = check(*args)
    except (InvalidCount, PreconditionViolation) as exc:
        return "raised", type(exc), str(exc)
    return "ok", type(value), value


@given(VALUES)
@example(0)
@example(1)
@example(2**63 - 1)
@example(2**63)
@example(np.uint64(2**63))
@example(np.int64(2**63 - 1))
@example(np.bool_(True))
@example(True)
@example(Fraction(3))
@example(3.0)
@example(math.nan)
def test_require_count_decides_as_the_numpy_integer_check(value):
    got = outcome(require_count, value, "n")
    assert got == outcome(parent_count, value, "n")
    assert got[0] == "raised" or got[1] is int


@given(VALUES)
@example(-1)
@example(0)
@example(2**64 - 1)
@example(2**64)
@example(np.uint64(2**64 - 1))
@example(np.int64(-1))
@example(np.bool_(False))
@example(False)
@example(Fraction(3))
@example(0.0)
def test_require_seed_decides_as_the_numpy_integer_check(value):
    got = outcome(require_seed, value)
    assert got == outcome(parent_seed, value)
    assert got[0] == "raised" or got[1] is int


@pytest.mark.parametrize("check, args", [(require_count, ("n",)), (require_seed, ())])
@pytest.mark.parametrize("kind", INTEGER_TYPES)
def test_every_numpy_integer_width_is_accepted_as_a_plain_int(check, args, kind):
    value = check(kind(7), *args)
    assert (type(value), value) == (int, 7)


def test_the_checks_load_no_numpy(run_python):
    code = ("import sys; from contextprob.errors import require_count, require_seed\n"
            "print(require_count(3, 'n') + require_seed(4), 'numpy' in sys.modules)")
    child = run_python("-c", code)
    assert child.stdout.split() == ["7", "False"], child.stderr


@pytest.mark.parametrize("call, message", [
    (lambda: require_instance(0.5, Fraction, "ratio"), "ratio must be a Fraction, got 0.5"),
    (lambda: require_instance("x", int, "count", "an"), "count must be an int, got 'x'"),
    # repr and str of an int of more than 4300 digits raise ValueError
    (lambda: require_instance(10**5000, str, "name"),
     "name must be a str, got <int too long to show>"),
    (lambda: require_count(10**5000, "n"),
     "n must be a positive integer, got <int too long to show>"),
    (lambda: require_seed(Fraction(10**5000)),
     "seed must be an integer, got <Fraction too long to show>"),
    (lambda: require_seed(-(10**5000)),
     "seed must satisfy 0 <= seed < 2**64, got <int too long to show>"),
], ids=["kind", "article", "too-long", "count-too-long", "seed-type-too-long",
        "seed-range-too-long"])
def test_a_check_names_the_value_or_the_type_of_one_too_long_to_show(call, message):
    with pytest.raises((InvalidCount, PreconditionViolation)) as info:
        call()
    assert str(info.value) == message
