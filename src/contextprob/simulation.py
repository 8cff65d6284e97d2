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
any trial boundary without changing a single outcome. Counting runs on up to
two threads, one per contiguous trial range, and adds their integer counts;
trace writing stays on one thread. Trials go in blocks of a fixed internal
size, so peak memory does not grow with the trial count; neither the block
size nor the thread count ever changes an output byte. Each word decides its
uniform ``u = (word >> 11) * 2**-53`` exactly as ``Generator.random`` does,
compared as an integer. The fixed-order time mode skips words 0 and 1 but
never re-purposes them, so switching time modes leaves the (gamma, beta)
stream untouched. The rare trial whose two time words compare equal as floats
is re-drawn from a reserved counter range far above the trial range (offset
``2**64``), again addressed by trial index.

Four-setting scans derive one child seed per setting pair from the root seed,
so the pairs are independent but the whole scan replays from a single integer.
The shared-hidden-angle baseline decides each side by integer thresholds on
the hidden-angle word, found exactly before the trials are drawn, so that it
is bit-identical to the sign of ``cos(setting - hidden)`` without a cosine.
"""

from __future__ import annotations

import math
import os
import threading
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
    """Summary of the ordered time pairs of one configuration."""

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


def _split(n: int, count):
    # The exact integer sum of count(start, stop, block) over _WORKERS contiguous
    # ranges of 0 .. n - 1, the first run on this thread and each other on its own,
    # in blocks of ceil(_BLOCK / _WORKERS) trials: one block's words in flight in all.
    workers = _WORKERS
    results, failures = [0] * workers, []

    def run(w: int) -> None:
        try:
            results[w] = count(n * w // workers, n * (w + 1) // workers, -(-_BLOCK // workers))
        except BaseException as exc:
            if w == 0:  # raise the caller's own at once (an interrupt, say): helpers are daemons
                raise
            failures.append(exc)  # a helper's, re-raised in the caller below

    threads = [threading.Thread(target=run, args=(w,), daemon=True) for w in range(1, workers)]
    for thread in threads:
        thread.start()
    run(0)
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]
    return sum(results)


def _ordered_times(
    key: np.ndarray,
    lo: int,
    bits: np.ndarray,
    time_distribution: TimeDistribution,
) -> tuple[np.ndarray, np.ndarray, int]:
    m = bits.shape[0]
    if time_distribution is TimeDistribution.FIXED_ORDER:
        return np.zeros(m), np.ones(m), 0
    t1 = bits[:, 0] * _UNIT
    t2 = bits[:, 1] * _UNIT
    n_redraws = 0
    for row in np.flatnonzero(t1 == t2).tolist():
        # Redraw the tie from its own stream, disjoint from every trial block
        # (trial counters are below 2**64), until the two doubles differ.
        counter = _REDRAW_COUNTER_BASE + lo + row
        gen = np.random.Generator(np.random.Philox(key=key, counter=counter))
        n_redraws += 1
        while (times := gen.random(2))[0] == times[1]:
            n_redraws += 1
        t1[row], t2[row] = times
    return np.minimum(t1, t2), np.maximum(t1, t2), n_redraws


def _write_trial_lines(
    stream: IO[str],
    t_sel: np.ndarray,
    t_meas: np.ndarray,
    gamma_minus: np.ndarray,
    beta_minus: np.ndarray,
) -> None:
    # One JSON object per line with keys t_selection, t_measurement, gamma,
    # beta in that order, the bytes json.dumps gives: it writes a float as its
    # repr. Lines are streamed, never held as one block's text.
    sign = (1, -1)
    stream.writelines(
        f'{{"t_selection": {a!r}, "t_measurement": {b!r}, '
        f'"gamma": {sign[g]}, "beta": {sign[h]}}}\n'
        for a, b, g, h in zip(
            t_sel.tolist(), t_meas.tolist(), gamma_minus.tolist(), beta_minus.tolist()
        )
    )


def _simulate_counts(
    cond: np.ndarray,
    q_plus: float,
    n: int,
    key: np.ndarray,
    time_distribution: TimeDistribution,
    trial_log: IO[str] | None = None,
) -> tuple[np.ndarray, int]:
    t_gamma = _threshold(q_plus)
    t_beta = np.array([_threshold(cond[0, 0]), _threshold(cond[0, 1])], dtype=np.uint64)

    def count(start: int, stop: int, block: int) -> np.ndarray:
        totals = np.zeros(5, dtype=np.int64)  # the four cells, then the redraws
        for lo, bits in _word_blocks(key, start, stop, block):
            gamma_minus = bits[:, 2] >= t_gamma
            beta_minus = bits[:, 3] >= t_beta[gamma_minus.view(np.uint8)]
            cells = beta_minus.view(np.uint8) << 1  # row-major index into the cells
            cells |= gamma_minus.view(np.uint8)
            totals[:4] += np.bincount(cells, minlength=4)
            if trial_log is not None:
                t_sel, t_meas, draws = _ordered_times(key, lo, bits, time_distribution)
                _write_trial_lines(trial_log, t_sel, t_meas, gamma_minus, beta_minus)
                totals[4] += draws
            elif time_distribution is TimeDistribution.UNIFORM_SQUARE:
                if np.any(bits[:, 0] == bits[:, 1]):  # a tie, rare: only its redraws count
                    totals[4] += _ordered_times(key, lo, bits, time_distribution)[2]
        return totals

    # trace lines go out in trial order, from one thread
    totals = count(0, n, _BLOCK) if trial_log is not None else _split(n, count)
    return totals[:4].reshape(2, 2), int(totals[4])


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
    (same seed, same redraw resolution) and accumulates the measurement minus
    selection gaps. In the fixed-order mode every gap is 1 and there are no
    redraws. In the uniform-square mode the gap is the absolute difference of
    two independent uniforms, with mean 1/3 and variance 1/18.
    """
    key = _philox_key(config.seed)
    n = config.n_pairs
    n_redraws = 0
    total = 0.0
    total_sq = 0.0
    gap_min = math.inf
    gap_max = -math.inf
    for lo, bits in _word_blocks(key, 0, n, _BLOCK):
        t_sel, t_meas, redraws = _ordered_times(key, lo, bits, config.time_distribution)
        n_redraws += redraws
        gaps = t_meas - t_sel
        total += float(gaps.sum())
        total_sq += float((gaps * gaps).sum())
        gap_min = min(gap_min, float(gaps.min()))
        gap_max = max(gap_max, float(gaps.max()))
    mean = total / n
    variance = max(total_sq / n - mean * mean, 0.0)
    return TimeOrderStats(
        n_pairs=n,
        n_redraws=n_redraws,
        redraw_fraction=n_redraws / n,
        mean_gap=mean,
        std_gap=math.sqrt(variance),
        min_gap=gap_min,
        max_gap=gap_max,
    )


_FLIP_CELLS = 4096  # cells per pass of the search for sign flips


def _correlation(agree: int, n: int) -> float:
    # the mean of n +-1 sign products, exact: an integer over n
    return (2 * agree - n) / n


def _scan(settings: tuple, n: int, seed: int, branch: int, agreements, side=float) -> float:
    # The CHSH_TERMS summed in order, where agreements(x, y, n, key) counts the
    # trials of term k whose signs agree, keyed by child (branch, k); x and y are
    # side(setting), worked out once per setting before any pair runs
    settings = tuple(float(value) for value in settings)
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

    even = _split(n, count)
    return even if start_x == start_y else n - even


def _coin_agreements(x: float, y: float, n: int, key: np.ndarray) -> int:
    # side a reads words 0 .. n-1, side b words n .. 2n-1
    half = _threshold(0.5)

    def count(start: int, stop: int, block: int) -> int:
        sides = zip(_word_blocks(key, start, stop, block, width=1),
                    _word_blocks(key, start, stop, block, width=1, first_word=n))
        return sum(int(np.count_nonzero((a >= half) == (b >= half))) for (_, a), (_, b) in sides)

    return _split(n, count)


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
