"""Seeded Monte Carlo of the time-ordered selection/measurement protocol.

Each trial draws a selection time and a measurement time, orders them, picks
the selection outcome ``gamma`` from the configured marginal, then picks the
measurement outcome ``beta`` from the closed-form conditionals at the
configured angle difference. Counts, per-cell estimates with binomial standard
errors, and the sign-product correlation come out in a report object.

Determinism contract
--------------------
All randomness flows through a counter-based Philox stream keyed by the seed.
Trial ``i`` owns the four 64-bit words at counter ``i`` (one Philox block):

    word 0: first time candidate
    word 1: second time candidate
    word 2: uniform deciding gamma
    word 3: uniform deciding beta

Because block ``i`` is addressable directly, the trial range can be cut at
any trial boundary without changing a single outcome. Counting and the gap
statistics run on up to two threads, one per contiguous trial range, whose
exact integer sums and extremes are combined in range order. A trace is cut
into the same ranges, but on processes: the caller writes the first range,
and a forked child formats each other range into an anonymous temporary
file, which the caller copies after its own lines in range order. Trials go
in blocks of a fixed internal size, so peak memory does not grow with the
trial count; neither the block size nor the thread or process count ever
changes an output byte or a returned bit. Each word decides
its uniform ``u = (word >> 11) * 2**-53`` exactly as ``Generator.random``
does, compared as an integer. The fixed-order time mode skips words 0 and 1
but never re-purposes them, so switching time modes leaves the (gamma, beta)
stream untouched. The rare trial whose two time words have equal ``k`` is
re-drawn by the same ``>> 11`` word rule, from a reserved counter range far
above the trial range (offset ``2**64``), again addressed by trial index.
Times stay grid words ``k`` until a trace prints them as ``k * 2**-53``.

Four-setting scans derive one child seed per setting pair from the root seed,
so the pairs are independent but the whole scan replays from a single integer.
The shared-hidden-angle baseline decides each side by integer thresholds on
the hidden-angle word, found exactly before the trials are drawn, so that it
is bit-identical to the sign of ``cos(setting - hidden)`` without a cosine.
"""

from __future__ import annotations

import math
import os
import pickle
import shutil
import signal
import tempfile
import threading
from contextlib import ExitStack
from dataclasses import dataclass, field
from enum import Enum
from typing import IO

import numpy as np

from .core import BinaryDistribution
from .eprbohm import CHSH_TERMS, AnglePair, conditional_probabilities
from .errors import PreconditionViolation, require_count, require_seed

_BLOCK = 1 << 16  # trials per pass of the counting loop, over all threads
# counting threads, at most the usable cores (all cores where affinity is unknown)
_WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)
_MANTISSA_SHIFT = np.uint64(11)
_UNIT = 2.0**-53  # Generator.random() is (word >> 11) * _UNIT
_REDRAW_COUNTER_BASE = 1 << 64
_LIMBS = np.array([[0], [18], [36]], dtype=np.uint64)  # shifts of a gap word's limbs


class TimeDistribution(Enum):
    """How the two per-trial event times are produced."""

    UNIFORM_SQUARE = "uniform-square"  # (t1, t2) uniform on the unit square, ordered
    FIXED_ORDER = "fixed-order"  # selection at 0, measurement at 1


class LhvStrategy(Enum):
    """Local hidden-variable baselines for the four-setting scan."""

    DETERMINISTIC_SIGN = "deterministic-sign"
    RANDOM_LOCAL = "random-local"


@dataclass(frozen=True)
class SimConfig:
    """Immutable description of one simulation run."""

    angles: AnglePair
    marginal_c: BinaryDistribution
    n_pairs: int
    seed: int
    time_distribution: TimeDistribution = TimeDistribution.UNIFORM_SQUARE

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_pairs", require_count(self.n_pairs, "n_pairs"))
        object.__setattr__(self, "seed", require_seed(self.seed))
        if not isinstance(self.time_distribution, TimeDistribution):
            raise PreconditionViolation(
                f"time_distribution must be a TimeDistribution, got {self.time_distribution!r}"
            )


@dataclass(frozen=True, eq=False)
class SimReport:
    """Counts and estimates of one run, plus the configuration that made it.

    Built from the counts alone: the estimates and the correlation are
    derived from them on construction, never passed in.

    ``counts[i, j]`` holds the number of trials with result ``beta`` indexed
    by ``i`` and selection ``gamma`` indexed by ``j`` (+1 first, -1 second).
    ``estimated_conditionals`` divides each column by its total; the second
    row is stored as one minus the first so populated columns sum to 1.0
    exactly in floating point. A selection outcome that never occurred leaves
    its column as NaN, which is why this field is a plain array rather than a
    validated transition matrix. ``std_errors`` carries the per-cell binomial
    standard error ``sqrt(p (1 - p) / n_col)``, NaN on empty columns.
    """

    # the field order is the JSON key order of ``simulate`` results
    counts: np.ndarray
    estimated_conditionals: np.ndarray = field(init=False)
    estimated_correlation: float = field(init=False)
    std_errors: np.ndarray = field(init=False)
    n_redraws: int
    wall_config: SimConfig

    def __post_init__(self) -> None:
        counts = np.array(self.counts, dtype=np.int64, copy=True)
        n = self.wall_config.n_pairs
        if counts.shape != (2, 2):
            raise PreconditionViolation(f"counts must be 2x2, got shape {counts.shape}")
        if np.any(counts < 0) or counts.sum() != n:
            raise PreconditionViolation("counts must be nonnegative and sum to n_pairs")
        # an empty column divides by NaN, not by 0, so its cells are math.nan
        # with no warning (0 / 0 would give a NaN with the sign bit set on x86)
        col_totals = counts.sum(axis=0)
        col_totals = np.where(col_totals > 0, col_totals, math.nan)
        p = counts[0] / col_totals
        s = np.sqrt(p * (1.0 - p) / col_totals)
        # the second row is the complement, so a column sums to 1.0 exactly
        est, se = np.array([p, 1.0 - p]), np.array([s, s])
        for arr in (counts, est, se):
            arr.setflags(write=False)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "n_redraws", int(self.n_redraws))
        object.__setattr__(self, "estimated_conditionals", est)
        object.__setattr__(self, "estimated_correlation", _correlation(int(np.trace(counts)), n))
        object.__setattr__(self, "std_errors", se)


@dataclass(frozen=True)
class TimeOrderStats:
    """Summary of the ordered time pairs of one configuration.

    The gap moments come from exact integer sums: ``mean_gap`` is the exact
    mean rounded once and ``std_gap`` the square root of the once-rounded
    exact variance, whatever the block size or thread count.
    """

    n_pairs: int
    n_redraws: int
    redraw_fraction: float
    mean_gap: float
    std_gap: float
    min_gap: float
    max_gap: float


def _philox_key(seed: int) -> np.ndarray:
    return np.random.SeedSequence(seed).generate_state(2, np.uint64)


def _child_seed(seed: int, branch: int, index: int) -> int:
    # One child integer per (branch, index), derived so different branches of
    # the same root seed never share a stream.
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(branch, index))
    return int(ss.generate_state(1, np.uint64)[0])


def _threshold(p: float) -> int:
    # Generator.random() < p  <=>  (raw >> 11) < ceil(p * 2**53); scaling by a
    # power of two is exact, so no double rounds the wrong way.
    return math.ceil(p * 2**53)


def _uniform_bits(raw: np.ndarray) -> np.ndarray:
    """The 53-bit integers ``k`` of raw Philox words, shifted in place.

    numpy's Philox double is ``k * 2**-53`` with ``k = raw >> 11``, so two
    doubles are equal exactly when their ``k`` are, and the low 11 bits of a
    word never matter.
    """
    raw >>= _MANTISSA_SHIFT
    return raw


def _word_blocks(key: np.ndarray, start: int, stop: int, block: int, width=4, first_word=0):
    """Yield ``(lo, bits)`` for the trials in ``range(start, stop)``, ``block`` at a time.

    Row ``i`` of ``bits`` holds the ``width`` words of trial ``lo + i``, which
    start at word ``first_word + width * (lo + i)`` of the Philox stream for
    ``key``, as :func:`_uniform_bits`. With the default ``width`` of 4, trial
    ``i`` owns exactly Philox block ``i``. The stream is read in order from
    trial ``start`` on, so neither the block size nor ``start`` changes a word.
    """
    word = first_word + width * start
    bitgen = np.random.Philox(key=key, counter=word // 4)
    bitgen.random_raw(word % 4)
    for lo in range(start, stop, block):
        m = min(block, stop - lo)
        yield lo, _uniform_bits(bitgen.random_raw(width * m).reshape(m, width))


def _ranges(n: int) -> list[tuple[int, int, int]]:
    # (start, stop, block) of each of _WORKERS contiguous ranges of 0 .. n - 1, in
    # range order, in blocks of ceil(_BLOCK / _WORKERS) trials: one block's words
    # in flight over all ranges
    workers, block = _WORKERS, -(-_BLOCK // _WORKERS)
    return [(n * w // workers, n * (w + 1) // workers, block) for w in range(workers)]


def _split(n: int, count) -> list:
    # count(start, stop, block) for each of the _ranges, in range order, the first
    # run on this thread and each other on its own
    ranges = _ranges(n)
    results, failures = [None] * len(ranges), []

    def run(w: int) -> None:
        try:
            results[w] = count(*ranges[w])
        except BaseException as exc:
            if w == 0:  # raise the caller's own at once (an interrupt, say): helpers are daemons
                raise
            failures.append(exc)  # a helper's, re-raised in the caller below

    threads = [threading.Thread(target=run, args=(w,), daemon=True)
               for w in range(1, len(ranges))]
    for thread in threads:
        thread.start()
    run(0)
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]
    return results


def _fork(count, start: int, stop: int, block: int, file: IO[str], pipe: int) -> int:
    # Fork a child that runs count(start, stop, block, file), flushes file and
    # writes its totals, or the exception it raised, pickled to the pipe's write
    # end; the child always ends in os._exit, so it never returns from here, runs
    # no exit handler and flushes no buffer it shares with the caller. A fork,
    # not a spawned interpreter: count is a closure, which does not pickle, and
    # a fresh numpy import would cost most of what the child saves.
    pid = os.fork()
    if pid:
        return pid
    try:
        try:
            result = count(start, stop, block, file)
            file.flush()
        except BaseException as exc:
            result = exc
        try:
            payload = pickle.dumps(result)
        except Exception:  # an exception that does not pickle still fails the caller
            payload = pickle.dumps(ChildProcessError(f"trace range failed: {result!r}"))
        with open(pipe, "wb") as out:
            out.write(payload)
    finally:
        os._exit(0)


def _fork_split(n: int, count, log: IO[str]) -> np.ndarray:
    # The totals of count(start, stop, block, log) over the _ranges, with the lines
    # each range writes in range order: the first range runs here, each other in a
    # forked child writing a temporary file that is copied into log after it.
    # Serial where fork is missing, where another thread is alive (the child would
    # hold a copy of it stopped mid-step) or where one block holds every trial;
    # one worker makes one range, and so forks nothing either.
    if not hasattr(os, "fork") or threading.active_count() > 1 or n <= _BLOCK:
        return count(0, n, _BLOCK, log)
    (start, stop, block), *rest = _ranges(n)
    children = []  # (pid, result pipe, temporary file) per forked range, until reaped
    with ExitStack() as stack:
        stack.callback(_kill, children)  # on any exception: no child outlives the call
        for args in rest:
            file = stack.enter_context(tempfile.TemporaryFile("w+", encoding="utf-8"))
            read, write = os.pipe()
            pipe = stack.enter_context(open(read, "rb"))
            try:
                children.append((_fork(count, *args, file, write), pipe, file))
            finally:
                os.close(write)
        totals = count(start, stop, block, log)
        while children:
            pid, pipe, file = children[0]
            payload = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[0]
            result = pickle.loads(payload) if payload else ChildProcessError(
                f"trace writer {pid} ended with wait status {status} and no result")
            if isinstance(result, BaseException):
                raise result
            file.seek(0)
            shutil.copyfileobj(file, log)
            totals += result
    return totals


def _kill(children: list) -> None:
    # SIGKILL and reap each child not reaped yet
    for pid, _, _ in children:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def _redraw_ties(key: np.ndarray, lo: int, bits: np.ndarray, mode: TimeDistribution) -> int:
    # Re-draw each trial whose two time words tie, in place, by the same
    # ``>> 11`` rule from its own stream, disjoint from every trial block (trial
    # counters are below 2**64), until they differ. Returns the pairs drawn.
    if mode is TimeDistribution.FIXED_ORDER:
        return 0
    n_redraws = 0
    for row in np.flatnonzero(bits[:, 0] == bits[:, 1]).tolist():
        bitgen = np.random.Philox(key=key, counter=_REDRAW_COUNTER_BASE + lo + row)
        while bits[row, 0] == bits[row, 1]:
            bits[row, :2] = _uniform_bits(bitgen.random_raw(2).reshape(1, 2))[0]
            n_redraws += 1
    return n_redraws


def _event_times(bits: np.ndarray, mode: TimeDistribution) -> tuple[np.ndarray, np.ndarray]:
    # (selection, measurement) time words once _redraw_ties has untied them; the
    # time of word k is k * _UNIT, exact, so the fixed order's 0 and 1 are 0 and 2**53
    if mode is TimeDistribution.FIXED_ORDER:
        return np.zeros(len(bits), np.uint64), np.full(len(bits), 1 << 53, np.uint64)
    return np.minimum(bits[:, 0], bits[:, 1]), np.maximum(bits[:, 0], bits[:, 1])


# a trace line's gamma and beta, indexed by the trial's cell 2 * beta_minus + gamma_minus
_TAILS = tuple(f'"gamma": {g}, "beta": {b}}}\n' for b in (1, -1) for g in (1, -1))


def _write_trial_lines(stream: IO[str], t_sel: np.ndarray, t_meas: np.ndarray,
                       cells: np.ndarray) -> None:
    # One JSON object per line with keys t_selection, t_measurement, gamma,
    # beta in that order, the bytes json.dumps gives: it writes a float as its
    # repr, here each time word's k * _UNIT. Lines are streamed, never held as
    # one block's text.
    stream.writelines(
        f'{{"t_selection": {a!r}, "t_measurement": {b!r}, {_TAILS[c]}'
        for a, b, c in zip((t_sel * _UNIT).tolist(), (t_meas * _UNIT).tolist(), cells.tolist())
    )


def _simulate_counts(
    cond: np.ndarray,
    q_plus: float,
    n: int,
    key: np.ndarray,
    time_distribution: TimeDistribution,
    trial_log: IO[str] | None = None,
) -> tuple[np.ndarray, np.int64]:
    t_gamma = _threshold(q_plus)
    t_beta = np.array([_threshold(cond[0, 0]), _threshold(cond[0, 1])], dtype=np.uint64)

    def count(start: int, stop: int, block: int, log: IO[str] | None = None) -> np.ndarray:
        totals = np.zeros(5, dtype=np.int64)  # the four cells, then the redraws
        for lo, bits in _word_blocks(key, start, stop, block):
            gamma_minus = bits[:, 2] >= t_gamma
            beta_minus = bits[:, 3] >= t_beta[gamma_minus.view(np.uint8)]
            cells = beta_minus.view(np.uint8) << 1  # row-major index into the cells
            cells |= gamma_minus.view(np.uint8)
            totals[:4] += np.bincount(cells, minlength=4)
            totals[4] += _redraw_ties(key, lo, bits, time_distribution)
            if log is not None:
                _write_trial_lines(log, *_event_times(bits, time_distribution), cells)
        return totals

    totals = sum(_split(n, count)) if trial_log is None else _fork_split(n, count, trial_log)
    return totals[:4].reshape(2, 2), totals[4]


def run_simulation(config: SimConfig, *, trial_log: IO[str] | None = None) -> SimReport:
    """Run one seeded ensemble and summarize it.

    Parameters
    ----------
    config:
        Angles, selection marginal, trial count, seed, and time mode.
    trial_log:
        Optional text stream receiving one JSON object per trial
        (``t_selection``, ``t_measurement``, ``gamma``, ``beta``), in trial
        order.

    Returns
    -------
    SimReport
    """
    key = _philox_key(config.seed)
    cond = conditional_probabilities(config.angles.delta)
    counts, n_redraws = _simulate_counts(
        cond,
        config.marginal_c.p_plus,
        config.n_pairs,
        key,
        config.time_distribution,
        trial_log,
    )
    return SimReport(counts, n_redraws, config)


def time_order_statistics(config: SimConfig) -> TimeOrderStats:
    """Gap statistics of the ordered time pairs, without touching outcomes.

    Replays exactly the time words of :func:`run_simulation` for ``config``
    (same seed, same redraw resolution) and sums the gaps ``d * 2**-53`` as
    exact integers ``d``. In the fixed-order mode every gap is 1 and there are
    no redraws. In the uniform-square mode the gap is the absolute difference
    of two independent uniforms, with mean 1/3 and variance 1/18.
    """
    key = _philox_key(config.seed)
    n, mode = config.n_pairs, config.time_distribution

    def count(start: int, stop: int, block: int) -> tuple:
        # d < 2**54 in three 18-bit limbs: each limb product is below 2**36, so
        # no block under 2**28 trials wraps the uint64 sums of the nine products
        redraws, s1, s2, low, high = 0, 0, 0, math.inf, -math.inf
        for lo, bits in _word_blocks(key, start, stop, block):
            redraws += _redraw_ties(key, lo, bits, mode)
            t_sel, t_meas = _event_times(bits, mode)
            d = t_meas - t_sel
            limbs = (d >> _LIMBS) & np.uint64(2**18 - 1)
            sums, pairs = limbs.sum(axis=1).tolist(), (limbs @ limbs.T).tolist()
            s1 += sum(v << 18 * i for i, v in enumerate(sums))
            s2 += sum(v << 18 * (i + j) for i, row in enumerate(pairs) for j, v in enumerate(row))
            low, high = min(low, int(d.min())), max(high, int(d.max()))
        return redraws, s1, s2, low, high

    redraws, s1, s2, low, high = zip(*_split(n, count))
    n_redraws, s1, s2 = sum(redraws), sum(s1), sum(s2)
    # mean and variance round once from exact rationals (numerator >= 0); sqrt rounds again
    return TimeOrderStats(n, n_redraws, n_redraws / n, mean_gap=s1 / (n << 53),
                          std_gap=math.sqrt((n * s2 - s1 * s1) / (n * n << 106)),
                          min_gap=min(low) * _UNIT, max_gap=max(high) * _UNIT)


_FLIP_CELLS = 4096  # cells per pass of the search for sign flips


def _correlation(agree: int, n: int) -> float:
    # the mean of n +-1 sign products, exact: an integer over n
    return (2 * agree - n) / n


def _scan(settings: tuple, n: int, seed: int, branch: int, agreements, side=float) -> float:
    # The CHSH_TERMS summed in order, where agreements(x, y, n, key) counts the
    # trials of term k whose signs agree, keyed by child (branch, k); x and y are
    # side(setting), worked out once per setting before any pair runs
    for name, setting in zip(("a", "a'", "b", "b'"), settings):
        if not math.isfinite(setting):
            raise PreconditionViolation(f"setting {name} must be finite, got {setting}")
    n = require_count(n, "n_per_setting")
    seed = require_seed(seed)
    sides = [side(setting) for setting in settings]
    value = 0.0
    for k, ((i, j), sign) in enumerate(CHSH_TERMS):
        key = _philox_key(_child_seed(seed, branch, k))
        value += sign * _correlation(agreements(sides[i], sides[j], n, key), n)
    return value


def simulate_chsh(
    a: float,
    a_prime: float,
    b: float,
    b_prime: float,
    marginal_c: BinaryDistribution,
    n_per_setting: int,
    seed: int,
) -> float:
    """Monte Carlo estimate of the four-setting correlation combination.

    Runs one independent ensemble of ``n_per_setting`` trials per setting
    pair, each from a child seed of ``seed``, estimates the sign-product
    correlation from the counts, and combines them as
    ``E(a,b) - E(a,b') + E(a',b) + E(a',b')``.
    """

    def agreements(x: float, y: float, n: int, key: np.ndarray) -> int:
        cond = conditional_probabilities(x - y)
        counts, _ = _simulate_counts(cond, marginal_c.p_plus, n, key, TimeDistribution.FIXED_ORDER)
        return int(np.trace(counts))

    return _scan((a, a_prime, b, b_prime), n_per_setting, seed, 0, agreements)


def _sign_flips(x: float) -> tuple[bool, list[int]]:
    """The sign of ``cos(x - hidden)`` at word 0, and each word where it flips.

    ``x - hidden(k)`` is monotone in the word ``k`` after rounding, so the sign
    flips only where it passes a zero of the cosine. Each of ``_FLIP_CELLS``
    equal cells of the words spans ``2 pi / _FLIP_CELLS`` of angle plus
    rounding, far below the ``pi`` between zeros, or rounds to at most two
    arguments: it holds at most one flip. A cell whose ends differ is cut again,
    down to single words. The grid end ``2**53`` is no word, never passed.
    """
    lo = np.zeros(1, dtype=np.uint64)  # left ends of the cells holding a flip
    width = 1 << 53
    while width > 1:
        step = max(width // _FLIP_CELLS, 1)
        words = lo[:, None] + np.uint64(step) * np.arange(width // step + 1, dtype=np.uint64)
        # the hidden angle of a float model, Generator.random() * 2 pi
        signs = np.cos(x - words * _UNIT * (2.0 * math.pi)) >= 0.0
        if width == 1 << 53:
            start = bool(signs[0, 0])
        rows, cols = np.nonzero(signs[:, 1:] != signs[:, :-1])
        lo, width = words[rows, cols], step
    return start, (lo + np.uint64(1)).tolist()


def _sign_agreements(x: tuple, y: tuple, n: int, key: np.ndarray) -> int:
    # A side's sign at word k is its sign at word 0, flipped by each of its
    # thresholds at or below k (x, y are _sign_flips), so the sides agree where
    # k has passed an even number of the merged thresholds, unless they start apart.
    (start_x, flips_x), (start_y, flips_y) = x, y
    flips = sorted(flips_x + flips_y)

    def count(start: int, stop: int, block: int) -> int:
        even = stop - start  # trials - passed(1st) + passed(2nd) - ...
        for _, bits in _word_blocks(key, start, stop, block, width=1):
            for i, t in enumerate(flips):
                passed = int(np.count_nonzero(bits >= t))
                even += passed if i % 2 else -passed
        return even

    even = sum(_split(n, count))
    return even if start_x == start_y else n - even


def _coin_agreements(x: float, y: float, n: int, key: np.ndarray) -> int:
    # side a reads words 0 .. n-1, side b words n .. 2n-1
    half = _threshold(0.5)

    def count(start: int, stop: int, block: int) -> int:
        sides = zip(_word_blocks(key, start, stop, block, width=1),
                    _word_blocks(key, start, stop, block, width=1, first_word=n))
        return sum(int(np.count_nonzero((a >= half) == (b >= half))) for (_, a), (_, b) in sides)

    return sum(_split(n, count))


def lhv_baseline_chsh(
    a: float,
    a_prime: float,
    b: float,
    b_prime: float,
    strategy: LhvStrategy,
    n_per_setting: int,
    seed: int,
) -> float:
    """Same four-setting combination under a local hidden-variable model.

    ``DETERMINISTIC_SIGN`` draws a shared hidden angle uniformly on
    [0, 2 pi) per trial and makes each side output the sign of the cosine of
    its setting minus that angle; the single-pair correlation then depends
    only on the effective setting separation and the combination cannot leave
    [-2, 2]. Each sign is decided by integer thresholds on the hidden angle's
    word, found once per setting, bit-identical to the cosine sign.
    ``RANDOM_LOCAL`` replaces both outputs by independent fair signs, so every
    correlation estimates 0. Child seeds per setting pair are drawn from a
    branch disjoint from :func:`simulate_chsh`.
    """
    if not isinstance(strategy, LhvStrategy):
        raise PreconditionViolation(f"strategy must be an LhvStrategy, got {strategy!r}")
    sign = strategy is LhvStrategy.DETERMINISTIC_SIGN
    agreements, side = (_sign_agreements, _sign_flips) if sign else (_coin_agreements, float)
    return _scan((a, a_prime, b, b_prime), n_per_setting, seed, 1, agreements, side)
