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

"Philox block ``i``" means the first four words of ``numpy.random.Philox`` at
``counter=i``. numpy increments the counter before it generates, so they are
the Philox4x64-10 block of counter ``i + 1`` in the Random123 specification.
Because block ``i`` is addressable directly, the trial range can be cut at
any trial boundary without changing a single outcome. Counting and the gap
statistics run on up to two threads, one per contiguous trial range, whose
exact integer sums and extremes are combined in range order. A trace is
counted and written on the caller's thread alone, in trial order. A thread
draws a block of a fixed internal size only once its last is counted, so
peak memory does not grow with the trial count; an error or interrupt in
one thread stops the others within one block. Neither the block size nor
the thread count ever changes an output byte or a returned bit. Each raw
word is compared with ``t << 11`` for the integer threshold
``t = ceil(p * 2**53)``, which decides exactly as ``Generator.random() < p``
does on the same word, ``(word >> 11) * 2**-53``. The fixed-order time mode
skips words 0 and 1 but never re-purposes them, so switching time modes
leaves the (gamma, beta) stream untouched. Two time words tie when they are
equal above bit 11, so give the same double; the rare tied trial is re-drawn
from a reserved counter range far above the trial range (offset ``2**64``),
again addressed by trial index. Times stay grid words ``k = word >> 11``
until a trace prints them as ``k * 2**-53``, in the shortest digits that
read back to the same double, as ``repr`` does.

Four-setting scans derive one child seed per setting pair from the root seed,
so the pairs are independent but the whole scan replays from a single integer.
The shared-hidden-angle baseline decides each side by integer thresholds on
the hidden-angle word, found exactly before the trials are drawn, so that it
is bit-identical to the sign of ``cos(setting - hidden)`` without a cosine.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
import os
import threading
from dataclasses import dataclass, field
from typing import IO

import numpy as np

from ._choices import LhvStrategy, TimeDistribution
from .core import BinaryDistribution
from .eprbohm import CHSH_TERMS, AnglePair, conditional_probabilities
from .errors import (
    ContextualProbabilityError,
    PreconditionViolation,
    _convert,
    _shown,
    require_count,
    require_instance,
    require_seed,
)
# numpy.random at import, not on first use: the CLI imports this module with SIGINT
# held. Last, since loaded before the modules above it raised peak RSS by 0.3 MiB.
import numpy.random  # noqa: F401

_BLOCK = 1 << 15  # trials per pass of the counting loop, over all threads
_TRACE_BLOCK = 1 << 10  # trials per pass of a traced run, whose text is written at once
# counting threads, at most the usable cores (all cores where affinity is unknown)
_WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)
_LOW_BITS = 11  # Generator.random() is (word >> _LOW_BITS) * _UNIT
_UNIT = 2.0**-53
_REDRAW_COUNTER_BASE = 1 << 64
_LIMBS = np.array([[0], [18], [36]], dtype=np.uint64)  # shifts of a gap word's limbs


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
        for name, kind in (("angles", AnglePair), ("marginal_c", BinaryDistribution),
                           ("time_distribution", TimeDistribution)):
            require_instance(getattr(self, name), kind, name)


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
        with np.errstate(invalid="ignore"):  # NaN, inf, 1e300 cast to -2**63 on x86: rejected below
            counts = _convert(lambda c: np.array(c, dtype=np.int64, copy=True), self.counts,
                              PreconditionViolation, "counts must be integers")
        require_instance(self.wall_config, SimConfig, "wall_config")
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
        object.__setattr__(self, "n_redraws", _convert(
            int, self.n_redraws, PreconditionViolation, "n_redraws must be an integer"))
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


def _config_key(config: SimConfig) -> np.ndarray:
    require_instance(config, SimConfig, "config")
    return _philox_key(config.seed)


def _child_seed(seed: int, branch: int, index: int) -> int:
    # One child integer per (branch, index), derived so different branches of
    # the same root seed never share a stream.
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(branch, index))
    return int(ss.generate_state(1, np.uint64)[0])


def _threshold(p: float) -> int:
    # Generator.random() < p  <=>  (raw >> 11) < t  <=>  raw < t << 11 for
    # t = ceil(p * 2**53); scaling by a power of two is exact, so no double
    # rounds the wrong way. Raw words are compared with t << 11, a Python int
    # up to 2**64 (p = 1), which numpy compares with a uint64 exactly.
    return math.ceil(p * 2**53)


def _stream(key: np.ndarray, start: int, width: int) -> np.random.Philox:
    # The Philox stream for key at trial start, where trial i has the width words
    # from word width * i on: Philox block i at width 4, word i at width 1.
    word = width * start
    bitgen = np.random.Philox(key=key, counter=word // 4)
    bitgen.random_raw(word % 4)
    return bitgen


def _walk(key: np.ndarray, n: int, visit, fold=operator.add, width=4, block=None, workers=None):
    # fold(visit(lo, words), ...) over trials 0 .. n - 1 (row i of words is trial lo + i's),
    # in blocks from one stream per contiguous range; range 0 runs here, each other on a thread
    workers = workers or _WORKERS
    block = block or -(-_BLOCK // workers)
    results, failures, ended = {}, [], [threading.Event() for _ in range(workers)]

    def run(w: int) -> None:
        start, stop = n * w // workers, n * (w + 1) // workers
        try:
            bitgen = _stream(key, start, width)
            for lo in range(start, stop, block):
                if failures:  # a range has failed: draw nothing more
                    return
                value = visit(lo, bitgen.random_raw((min(block, stop - lo), width)))
                results[w] = fold(results[w], value) if lo > start else value
        except BaseException as exc:  # an interrupt of this thread too
            failures.append(exc)
        finally:
            ended[w].set()

    threads = [threading.Thread(target=run, args=(w,), daemon=True) for w in range(1, workers)]
    for thread in threads:
        thread.start()
    run(0)
    for end, thread in zip(ended[1:], threads):
        while thread.is_alive():  # a join cut short by an interrupt marks a live thread stopped
            try:
                end.wait()
                thread.join()
            except BaseException as exc:  # an interrupt while waiting stops the helpers too
                failures.append(exc)
    if failures:
        raise failures[0]
    return functools.reduce(fold, (results[w] for w in sorted(results)))


def _tied(first, second):
    # two raw words tie when they are equal above bit 11, so give the same double
    return (first ^ second) < 1 << _LOW_BITS


def _redraw_ties(key: np.ndarray, lo: int, words: np.ndarray, mode: TimeDistribution) -> int:
    # Re-draw each trial whose two time words tie, in place, a pair at a time
    # from its own Philox block on, disjoint from every trial block (trial
    # counters are below 2**64), until they differ. Returns the pairs drawn.
    if mode is TimeDistribution.FIXED_ORDER:
        return 0
    n_redraws = 0
    for row in np.flatnonzero(_tied(words[:, 0], words[:, 1])).tolist():
        pairs = _stream(key, 2 * (_REDRAW_COUNTER_BASE + lo + row), 2)  # trials of width 2
        while _tied(words[row, 0], words[row, 1]):
            words[row, :2] = pairs.random_raw(2)
            n_redraws += 1
    return n_redraws


def _event_times(words: np.ndarray, mode: TimeDistribution) -> tuple[np.ndarray, np.ndarray]:
    # (selection, measurement) grid words k = word >> 11 once _redraw_ties has
    # untied them; the time of k is k * _UNIT, exact, so the fixed order's 0 and
    # 1 are 0 and 2**53. The shift keeps order, so it runs on the ordered words.
    if mode is TimeDistribution.FIXED_ORDER:
        return np.zeros(len(words), np.uint64), np.full(len(words), 1 << 53, np.uint64)
    t_sel, t_meas = np.minimum(words[:, 0], words[:, 1]), np.maximum(words[:, 0], words[:, 1])
    t_sel >>= _LOW_BITS
    t_meas >>= _LOW_BITS
    return t_sel, t_meas


# a trace line is _HEAD, its selection time, _MIDDLE, its measurement time and
# the tail of its gamma and beta, indexed by its cell 2 * beta_minus + gamma_minus;
# inside a block each tail is written with the next line's head, as one _SEAMS part
_HEAD, _MIDDLE = '{"t_selection": ', ', "t_measurement": '
_TAILS = tuple(f', "gamma": {g}, "beta": {b}}}\n' for b in (1, -1) for g in (1, -1))
_SEAMS = np.array([tail + _HEAD for tail in _TAILS], dtype=object)


def _time_texts(words: np.ndarray) -> list[str]:
    # The repr of each time k * _UNIT. orjson writes the same shortest digits,
    # but keeps positional form below 1e-4, where repr turns to an exponent
    # (0.00001 against 1e-05); 1e-4 is no time word, so the cut is exact. Both
    # write 0.0, every fixed-order selection time, as "0.0".
    try:
        import orjson  # here, not at module top: only a trace needs it
    except ImportError as exc:
        raise ContextualProbabilityError(f"--trace needs orjson, which cannot be imported: {exc}")

    times = words * _UNIT
    texts = orjson.dumps(times, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    small = (times > 0.0) & (times < 1e-4)
    for i, t in zip(np.flatnonzero(small).tolist(), times[small].tolist()):
        texts[i] = repr(t)
    return texts


def _write_trial_lines(stream: IO[str], t_sel: np.ndarray, t_meas: np.ndarray,
                       cells: np.ndarray) -> None:
    # One JSON object per line with keys t_selection, t_measurement, gamma,
    # beta in that order, the bytes json.dumps gives: it writes a float as its
    # repr. The block's times are formatted in one pass, in line order, and its
    # m lines joined from 4m + 1 parts: the head, then per line its two times
    # around _MIDDLE and its seam, the last line its tail alone. The block's text
    # is written at once; only one block's text is held at a time.
    parts = [_MIDDLE] * (4 * len(cells) + 1)
    parts[0] = _HEAD
    parts[1::2] = _time_texts(np.column_stack((t_sel, t_meas)).ravel())
    parts[4::4] = _SEAMS[cells].tolist()
    parts[-1] = _TAILS[cells[-1]]
    stream.write("".join(parts))


def _simulate_counts(
    cond: np.ndarray,
    q_plus: float,
    n: int,
    key: np.ndarray,
    time_distribution: TimeDistribution,
    trial_log: IO[str] | None = None,
) -> tuple[np.ndarray, np.int64]:
    t_gamma = _threshold(q_plus) << _LOW_BITS
    t_beta = [_threshold(p) << _LOW_BITS for p in cond[0]]  # under gamma +, then gamma -

    def visit(lo: int, words: np.ndarray) -> np.ndarray:
        # the trials with gamma -, with beta - under gamma + and under gamma -, the redraws
        gamma_minus = words[:, 2] >= t_gamma
        # beta - as each trial would read it under gamma +, and under gamma -
        beta_minus, beta_minus_if_minus = (words[:, 3] >= t for t in t_beta)
        totals = np.array((np.count_nonzero(gamma_minus),
                           np.count_nonzero(beta_minus > gamma_minus),  # and gamma +
                           np.count_nonzero(beta_minus_if_minus & gamma_minus),
                           _redraw_ties(key, lo, words, time_distribution)))
        if trial_log is not None:
            np.copyto(beta_minus, beta_minus_if_minus, where=gamma_minus)  # its own
            cells = beta_minus.view(np.uint8)  # row-major index into the cells, in place
            cells <<= 1
            cells |= gamma_minus.view(np.uint8)
            _write_trial_lines(trial_log, *_event_times(words, time_distribution), cells)
        return totals

    traced = {} if trial_log is None else {"workers": 1, "block": _TRACE_BLOCK}  # in trial order
    gamma_minus, beta_minus_if_plus, beta_minus_if_minus, n_redraws = _walk(key, n, visit, **traced)
    counts = np.array([[n - gamma_minus - beta_minus_if_plus, gamma_minus - beta_minus_if_minus],
                       [beta_minus_if_plus, beta_minus_if_minus]])
    return counts, n_redraws


def run_simulation(config: SimConfig, *, trial_log: IO[str] | None = None) -> SimReport:
    """Run one seeded ensemble and summarize it.

    Parameters
    ----------
    config:
        Angles, selection marginal, trial count, seed, and time mode.
    trial_log:
        Optional text stream receiving one JSON object per trial
        (``t_selection``, ``t_measurement``, ``gamma``, ``beta``), in trial
        order. Without an importable orjson, which writes the times, a
        ``ContextualProbabilityError`` is raised before any line is written,
        and a ``PreconditionViolation`` without a callable ``write`` before any
        trial is drawn.

    Returns
    -------
    SimReport
    """
    key = _config_key(config)
    if trial_log is not None and not callable(getattr(trial_log, "write", None)):
        raise PreconditionViolation(
            f"trial_log must be a text stream, got {type(trial_log).__name__}")
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
    key = _config_key(config)
    n, mode = config.n_pairs, config.time_distribution

    def visit(lo: int, words: np.ndarray) -> tuple:
        # d < 2**54 in three 18-bit limbs: each limb product is below 2**36, so
        # no block under 2**28 trials wraps the uint64 sums of the nine products
        redraws = _redraw_ties(key, lo, words, mode)
        t_sel, d = _event_times(words, mode)
        d -= t_sel
        limbs = d >> _LIMBS
        limbs &= np.uint64(2**18 - 1)
        sums, pairs = limbs.sum(axis=1).tolist(), (limbs @ limbs.T).tolist()
        return (redraws, sum(v << 18 * i for i, v in enumerate(sums)),
                sum(v << 18 * (i + j) for i, row in enumerate(pairs) for j, v in enumerate(row)),
                int(d.min()), int(d.max()))

    def fold(a: tuple, b: tuple) -> tuple:  # redraws and exact gap sums add, extremes combine
        return a[0] + b[0], a[1] + b[1], a[2] + b[2], min(a[3], b[3]), max(a[4], b[4])

    n_redraws, s1, s2, low, high = _walk(key, n, visit, fold)
    # mean and variance round once from exact rationals (numerator >= 0); sqrt rounds again
    return TimeOrderStats(n, n_redraws, n_redraws / n, mean_gap=s1 / (n << 53),
                          std_gap=math.sqrt((n * s2 - s1 * s1) / (n * n << 106)),
                          min_gap=low * _UNIT, max_gap=high * _UNIT)


_FLIP_CELLS = 4096  # cells per pass of the search for sign flips
# passes of that search from 2**53 words down to single words: ceil(53 / 12) = 5
# for 2**12 cells, more between powers of two, where a pass at width 1 changes nothing
_FLIP_LEVELS = -(-53 // (_FLIP_CELLS.bit_length() - 1))


def _correlation(agree: int, n: int) -> float:
    # the mean of n +-1 sign products, exact: an integer over n
    return (2 * agree - n) / n


def _scan(settings: tuple, n: int, seed: int, branch: int, agreements, side=float) -> float:
    # The CHSH_TERMS summed in order, where agreements(x, y, n, key) counts the
    # trials of term k whose signs agree, keyed by child (branch, k); x and y are
    # side(setting), worked out once per setting before any pair runs
    for name, setting in zip(("a", "a'", "b", "b'"), settings):
        try:  # an int or fraction beyond the largest double overflows
            finite = isinstance(setting, numbers.Real) and math.isfinite(setting)
        except OverflowError:
            finite = False
        if not finite:
            raise PreconditionViolation(f"setting {name} must be finite, got {_shown(setting)}")
    n = require_count(n, "n_per_setting")
    seed = require_seed(seed)
    sides = [side(float(setting)) for setting in settings]
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
    require_instance(marginal_c, BinaryDistribution, "marginal_c")

    def agreements(x: float, y: float, n: int, key: np.ndarray) -> int:
        cond = conditional_probabilities(x - y)
        counts, _ = _simulate_counts(cond, marginal_c.p_plus, n, key, TimeDistribution.FIXED_ORDER)
        return int(np.trace(counts))

    return _scan((a, a_prime, b, b_prime), n_per_setting, seed, 0, agreements)


def _sign_flips(x: float) -> list[int]:
    """Each word where the sign of ``cos(x - hidden)`` flips, counted from ``+``.

    A sign that is ``-`` at word 0 gets threshold 0 first, which every word
    passes. ``x - hidden(k)`` is monotone in the word ``k`` after rounding, so
    the sign flips only where it passes a zero of the cosine. Each of
    ``_FLIP_CELLS`` equal cells of the words spans ``2 pi / _FLIP_CELLS`` of
    angle plus rounding, far below the ``pi`` between zeros, or rounds to at most
    two arguments: it holds at most one flip. A cell whose ends differ is cut
    again, ``_FLIP_LEVELS`` passes in all, down to single words. The grid end
    ``2**53`` is no word, never passed.
    """
    flips = [] if np.cos(x) >= 0.0 else [0]
    lo = np.zeros(1, dtype=np.uint64)  # left ends of the cells holding a flip
    width = 1 << 53
    for _ in range(_FLIP_LEVELS):
        step = max(width // _FLIP_CELLS, 1)
        words = lo[:, None] + np.uint64(step) * np.arange(width // step + 1, dtype=np.uint64)
        # the hidden angle of a float model, Generator.random() * 2 pi
        signs = np.cos(x - words * _UNIT * (2.0 * math.pi)) >= 0.0
        rows, cols = np.nonzero(signs[:, 1:] != signs[:, :-1])
        lo, width = words[rows, cols], step
    return flips + (lo + np.uint64(1)).tolist()


def _sign_agreements(x: list, y: list, n: int, key: np.ndarray) -> int:
    # Both sides start at + and flip at each of their thresholds at or below the
    # word k (x, y are _sign_flips), so they agree where k has passed an even
    # number of the merged thresholds: where the raw word has passed them << 11.
    flips = sorted(t << _LOW_BITS for t in x + y)

    def visit(lo: int, words: np.ndarray) -> int:
        even = len(words)  # trials - passed(1st) + passed(2nd) - ...
        for i, t in enumerate(flips):
            passed = int(np.count_nonzero(words >= t))
            even += passed if i % 2 else -passed
        return even

    return _walk(key, n, visit, width=1)


def _coin_agreements(x: float, y: float, n: int, key: np.ndarray) -> int:
    # one word per trial: side a reads trials 0 .. n-1, side b trials n .. 2n-1
    half = _threshold(0.5) << _LOW_BITS

    def visit(lo: int, a: np.ndarray) -> int:
        b = _stream(key, n + lo, 1).random_raw(len(a))  # the block's side b, from word n + lo
        return int(np.count_nonzero((a[:, 0] >= half) == (b >= half)))

    return _walk(key, n, visit, width=1)


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
    require_instance(strategy, LhvStrategy, "strategy", "an")
    sign = strategy is LhvStrategy.DETERMINISTIC_SIGN
    agreements, side = (_sign_agreements, _sign_flips) if sign else (_coin_agreements, float)
    return _scan((a, a_prime, b, b_prime), n_per_setting, seed, 1, agreements, side)
