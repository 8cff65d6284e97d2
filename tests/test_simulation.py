import _thread
import contextlib
import io
import itertools
import json
import math
import os
import signal
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from contextprob import cli, simulation
from contextprob import (
    AnglePair,
    BinaryDistribution,
    InvalidCount,
    LhvStrategy,
    PreconditionViolation,
    SimConfig,
    SimReport,
    TimeDistribution,
    conditional_probabilities,
    lhv_baseline_chsh,
    run_simulation,
    setting_correlation,
    simulate_chsh,
    time_order_statistics,
)

OPTIMAL = (0.0, math.pi / 4.0, math.pi / 8.0, 3.0 * math.pi / 8.0)


def config(n=10_000, seed=42, xi=math.pi / 3.0, eta=math.pi / 6.0, q=0.5, mode=None):
    return SimConfig(
        angles=AnglePair(xi, eta),
        marginal_c=BinaryDistribution.from_p_plus(q),
        n_pairs=n,
        seed=seed,
        time_distribution=mode or TimeDistribution.UNIFORM_SQUARE,
    )


def lhv_sign_correlation(delta):
    # shared hidden angle uniform on the circle, both sides output the sign
    # of the cosine: agreement probability is linear in the folded separation
    d = abs(delta) % (2.0 * math.pi)
    d = min(d, 2.0 * math.pi - d)
    return 1.0 - 2.0 * d / math.pi


class TestSimConfig:
    def test_rejects_zero_trials(self):
        with pytest.raises(InvalidCount):
            config(n=0)

    def test_rejects_negative_trials(self):
        with pytest.raises(InvalidCount):
            config(n=-5)

    def test_rejects_a_time_mode_that_is_not_the_enum(self):
        with pytest.raises(PreconditionViolation) as info:
            config(mode="uniform-square")
        assert str(info.value) == (
            "time_distribution must be a TimeDistribution, got 'uniform-square'"
        )

    def test_rejects_angles_and_a_marginal_of_the_wrong_type(self):
        uniform = BinaryDistribution.uniform()
        with pytest.raises(PreconditionViolation) as info:
            SimConfig((0.3, 0.2), uniform, 10, 1)
        assert str(info.value) == "angles must be a AnglePair, got (0.3, 0.2)"
        with pytest.raises(PreconditionViolation) as info:
            SimConfig(AnglePair(0.3, 0.2), 0.5, 10, 1)
        assert str(info.value) == "marginal_c must be a BinaryDistribution, got 0.5"

    def test_rejects_seed_outside_64_bits(self):
        with pytest.raises(PreconditionViolation):
            config(seed=1 << 64)
        with pytest.raises(PreconditionViolation):
            config(seed=-1)


def traced_peak(run) -> int:
    """The tracemalloc peak, in bytes, while ``run()`` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Each counting walker at n trials (per setting pair for a scan), with the bytes per
# trial of its peak: its block's words, and its kernel's temporaries beside them
COUNTING_WALKERS = {
    # words 0 .. 3; the tie scan's xor (8) and at most five masks
    "run_simulation": (lambda n: run_simulation(config(n=n)), 32, 13),
    # words 0 .. 3; at most five masks
    "run_simulation-fixed-order": (
        lambda n: run_simulation(config(n=n, mode=TimeDistribution.FIXED_ORDER)), 32, 5),
    # words 0 .. 3; the ordered times, the later one turned into the gap in place (16), and
    # the gap limbs (24)
    "time_order_statistics": (lambda n: time_order_statistics(config(n=n)), 32, 40),
    "simulate_chsh": (
        lambda n: simulate_chsh(*OPTIMAL, BinaryDistribution.uniform(), n, 1), 32, 5),
    # the hidden-angle word; one mask
    "lhv_baseline_chsh-sign": (
        lambda n: lhv_baseline_chsh(*OPTIMAL, LhvStrategy.DETERMINISTIC_SIGN, n, 1), 8, 1),
    # the words of side a and side b; three masks
    "lhv_baseline_chsh-coin": (
        lambda n: lhv_baseline_chsh(*OPTIMAL, LhvStrategy.RANDOM_LOCAL, n, 1), 16, 3),
}


class TestRunSimulation:
    def test_identical_seeds_identical_reports(self, report_json):
        r1 = run_simulation(config())
        r2 = run_simulation(config())
        assert report_json(r1) == report_json(r2)

    def test_chunk_count_never_changes_results(self, monkeypatch, report_json):
        reference = report_json(run_simulation(config(n=10_001)))
        for block in (1, 7, 16, 5_000, 10_000):
            monkeypatch.setattr(simulation, "_BLOCK", block)
            assert report_json(run_simulation(config(n=10_001))) == reference

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 3_000),
        seed=st.integers(0, 2**64 - 1),
        xi=st.floats(0.0, math.pi / 2.0, exclude_min=True, exclude_max=True),
        eta=st.floats(0.0, math.pi / 2.0, exclude_min=True, exclude_max=True),
        q=st.floats(0.0, 1.0),
    )
    def test_time_mode_never_changes_outcomes(self, n, seed, xi, eta, q):
        def report(mode):
            return run_simulation(config(n=n, seed=seed, xi=xi, eta=eta, q=q, mode=mode))

        uniform = report(TimeDistribution.UNIFORM_SQUARE)
        fixed = report(TimeDistribution.FIXED_ORDER)
        np.testing.assert_array_equal(uniform.counts, fixed.counts)
        np.testing.assert_array_equal(
            uniform.estimated_conditionals, fixed.estimated_conditionals
        )

    def test_counts_partition_the_trials(self):
        report = run_simulation(config(n=5_000))
        assert int(report.counts.sum()) == 5_000

    def test_populated_columns_sum_to_one_exactly(self):
        report = run_simulation(config(n=3_333, q=0.37))
        sums = report.estimated_conditionals.sum(axis=0)
        assert sums[0] == 1.0 and sums[1] == 1.0

    def test_equal_angles_never_produce_agreement_on_plus(self):
        # sin^2(0) = 0: the (+,+) cell must be exactly empty
        report = run_simulation(config(xi=0.7, eta=0.7))
        assert report.counts[0, 0] == 0
        assert report.estimated_conditionals[0, 0] == 0.0

    def test_estimates_converge_to_closed_form(self):
        report = run_simulation(config(n=1_000_000))
        analytic = np.array([[0.25, 0.75], [0.75, 0.25]])
        deviation = np.abs(report.estimated_conditionals - analytic)
        assert np.all(deviation <= 4.0 * report.std_errors)

    def test_correlation_matches_counts(self):
        report = run_simulation(config(n=4_000))
        c = report.counts
        expected = (int(c[0, 0]) - int(c[1, 0]) - int(c[0, 1]) + int(c[1, 1])) / 4_000
        assert report.estimated_correlation == expected

    def test_degenerate_marginal_leaves_empty_column(self):
        report = run_simulation(config(n=500, q=1.0))
        assert report.counts[:, 1].sum() == 0
        assert np.isnan(report.estimated_conditionals[0, 1])
        assert np.isnan(report.std_errors[1, 1])
        # the populated column still behaves
        assert report.estimated_conditionals[:, 0].sum() == 1.0

    def test_empty_column_serializes_as_null(self, capsys):
        report = run_simulation(config(n=100, q=1.0))
        assert cli._jsonable(report)["estimated_conditionals"][0][1] is None
        argv = ["simulate", "--xi", repr(math.pi / 3.0), "--eta", repr(math.pi / 6.0),
                "--marginal", "1.0", "--n", "100", "--seed", "42", "--format", "json"]
        assert cli.main(argv) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["estimated_conditionals"][0][1] is None
        assert results["std_errors"][1][1] is None

    def test_trial_log_replays_the_counts(self):
        buffer = io.StringIO()
        report = run_simulation(config(n=400, seed=3), trial_log=buffer)
        lines = buffer.getvalue().splitlines()
        assert len(lines) == 400
        counts = np.zeros((2, 2), dtype=int)
        for line in lines:
            rec = json.loads(line)
            assert list(rec) == ["t_selection", "t_measurement", "gamma", "beta"]
            assert 0.0 <= rec["t_selection"] < rec["t_measurement"] <= 1.0
            assert rec["gamma"] in (1, -1) and rec["beta"] in (1, -1)
            counts[(1 - rec["beta"]) // 2, (1 - rec["gamma"]) // 2] += 1
        np.testing.assert_array_equal(counts, report.counts)

    def test_trial_log_is_chunk_invariant(self, monkeypatch):
        b1, b2 = io.StringIO(), io.StringIO()
        run_simulation(config(n=500, seed=6), trial_log=b1)
        monkeypatch.setattr(simulation, "_TRACE_BLOCK", 56)
        run_simulation(config(n=500, seed=6), trial_log=b2)
        assert b1.getvalue() == b2.getvalue()

    def test_trace_memory_does_not_grow_with_the_trial_count(self):
        # only one block's text is held at a time, whatever the number of blocks
        class Discard:
            def write(self, text):
                pass

        def peak(blocks):
            return traced_peak(lambda: run_simulation(
                config(n=blocks * simulation._TRACE_BLOCK), trial_log=Discard()))

        run_simulation(config(n=1), trial_log=Discard())  # imports orjson before measuring
        assert peak(32) <= peak(4) + (1 << 14)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("walker", list(COUNTING_WALKERS))
    def test_counting_holds_one_block_of_words_per_worker(self, monkeypatch, walker, workers):
        # A worker draws its next block only once the last is counted, so the peak over
        # four blocks per worker is one block's words and the kernel's temporaries per
        # worker, _BLOCK trials' in all; Python objects fit in the 64 KiB. Holding a
        # second block's words breaks the bound, at one worker whatever the timing.
        run, words, temporaries = COUNTING_WALKERS[walker]
        monkeypatch.setattr(simulation, "_WORKERS", workers)
        block = -(-simulation._BLOCK // workers)
        run(1)  # what is made once per process is made before measuring
        peak = traced_peak(lambda: run(4 * block * workers))
        assert peak <= block * workers * (words + temporaries) + (1 << 16)

    @pytest.mark.parametrize("walker", list(COUNTING_WALKERS))
    def test_counting_memory_does_not_grow_with_the_block_count(self, monkeypatch, walker):
        # each block's result is folded in as it comes, so 2048 blocks hold what 32 do
        run = COUNTING_WALKERS[walker][0]
        monkeypatch.setattr(simulation, "_BLOCK", 32)
        run(1)
        assert traced_peak(lambda: run(32 * 2048)) <= traced_peak(lambda: run(32 * 32)) + (1 << 14)

    def test_fixed_order_logs_unit_interval_endpoints(self):
        buffer = io.StringIO()
        run_simulation(
            config(n=20, mode=TimeDistribution.FIXED_ORDER), trial_log=buffer
        )
        for line in buffer.getvalue().splitlines():
            rec = json.loads(line)
            assert rec["t_selection"] == 0.0 and rec["t_measurement"] == 1.0

    def test_a_trace_without_orjson_raises_the_typed_error_and_writes_nothing(
            self, run_python, tmp_path):
        # a stub that fails to import shadows orjson, in the child alone
        (tmp_path / "orjson.py").write_text(
            "raise ModuleNotFoundError(\"No module named 'orjson'\", name='orjson')\n")
        script = (
            "import io, sys; sys.path.insert(0, sys.argv[1]); import contextprob as c\n"
            "config = c.SimConfig(c.AnglePair(1.0, 0.5), c.BinaryDistribution.uniform(), 3000,"
            " 7, c.TimeDistribution.UNIFORM_SQUARE)\n"
            "sink = io.StringIO()\n"
            "try:\n"
            "    c.run_simulation(config, trial_log=sink)\n"
            "except c.ContextualProbabilityError as exc:\n"
            "    assert str(exc).startswith('--trace needs orjson'), exc\n"
            "else:\n"
            "    raise AssertionError('no error')\n"
            "assert sink.getvalue() == ''\n"
            "assert c.run_simulation(config).counts.sum() == 3000\n"  # untraced, the stub unread
        )
        child = run_python("-c", script, str(tmp_path))
        assert child.returncode == 0, child.stderr

    @pytest.mark.parametrize("log, kind", [
        (1, "int"), ("trace.jsonl", "str"), (object(), "object"),
        (SimpleNamespace(write="text"), "SimpleNamespace"),
    ], ids=["int", "path", "object", "uncallable-write"])
    def test_a_trial_log_without_a_write_raises_before_any_block_is_drawn(
            self, monkeypatch, log, kind):
        drawn = []
        monkeypatch.setattr(simulation, "_stream", lambda *args: drawn.append(args))
        with pytest.raises(PreconditionViolation) as info:
            run_simulation(config(n=100), trial_log=log)
        assert (str(info.value), drawn) == (f"trial_log must be a text stream, got {kind}", [])


class TestSimReport:
    # a report is built from its counts alone; the estimates follow from them
    @pytest.mark.parametrize(
        "counts",
        [
            [[1, 2], [3, 4], [0, 0]],  # 3x2
            [[-1, 5], [3, 3]],  # a negative cell
            [[1, 2], [3, 3]],  # sums to 9, not n_pairs
        ],
    )
    def test_rejects_a_malformed_table(self, counts):
        with pytest.raises(PreconditionViolation):
            SimReport(np.array(counts), 0, config(n=10))

    def test_derives_estimates_errors_and_correlation(self):
        report = SimReport(np.array([[3, 0], [7, 0]]), 2, config(n=10))
        p = 3 / 10
        assert report.estimated_conditionals[:, 0].tolist() == [p, 1.0 - p]
        assert report.std_errors[:, 0].tolist() == [math.sqrt(p * (1.0 - p) / 10)] * 2
        assert report.estimated_correlation == (2 * 3 - 10) / 10
        assert report.n_redraws == 2

    def test_a_numpy_redraw_count_is_stored_as_a_plain_int(self, report_json):
        # the JSON writer converts no numpy scalar: here is where one becomes an int
        report = SimReport(np.array([[3, 0], [7, 0]]), np.int64(2), config(n=10))
        assert type(report.n_redraws) is int
        assert json.loads(report_json(report))["n_redraws"] == 2

    def test_empty_column_is_nan(self):
        report = SimReport(np.array([[0, 3], [0, 7]]), 0, config(n=10))
        assert np.isnan(report.estimated_conditionals[:, 0]).all()
        assert np.isnan(report.std_errors[:, 0]).all()
        # the NaN of math.nan, sign bit clear, as the per-column loop stored it
        assert not np.signbit(report.estimated_conditionals[:, 0]).any()
        assert not np.signbit(report.std_errors[:, 0]).any()
        assert report.estimated_conditionals[:, 1].tolist() == [0.3, 1.0 - 0.3]

    @pytest.mark.parametrize("counts", [np.float64(math.nan),
                                        np.array([[math.inf, 3.0], [7.0, 0.0]])])
    def test_a_non_finite_count_is_rejected_without_a_warning(self, counts):
        # the cast of a NaN or inf to int64 warns; the count it gives fails a check
        with pytest.raises(PreconditionViolation):
            SimReport(counts, 0, config(n=10))

    def test_arrays_are_read_only(self):
        report = SimReport(np.array([[3, 1], [7, 9]]), 0, config(n=20))
        for arr in (report.counts, report.estimated_conditionals, report.std_errors):
            with pytest.raises(ValueError):
                arr[0, 0] = 0


class TestTimeOrderStatistics:
    def test_uniform_square_gap_moments(self):
        # |U - V| for independent uniforms: mean 1/3, variance 1/18
        n = 200_000
        stats = time_order_statistics(config(n=n, seed=11))
        assert stats.mean_gap == pytest.approx(1.0 / 3.0, abs=4.0 * math.sqrt(1.0 / 18.0 / n))
        assert stats.std_gap == pytest.approx(math.sqrt(1.0 / 18.0), abs=2e-3)
        assert 0.0 < stats.min_gap and stats.max_gap < 1.0

    def test_gaps_are_strictly_positive(self):
        stats = time_order_statistics(config(n=50_000, seed=19))
        assert stats.min_gap > 0.0

    def test_fixed_order_is_deterministic_unit_gap(self):
        stats = time_order_statistics(config(n=1_000, mode=TimeDistribution.FIXED_ORDER))
        assert stats.mean_gap == 1.0
        assert stats.std_gap == 0.0
        assert stats.min_gap == stats.max_gap == 1.0
        assert stats.n_redraws == 0

    def test_chunking_moves_moments_by_rounding_only(self, monkeypatch):
        # the moments are rounded from exact integer sums, so that rounding is
        # the same for every cut of the trials: not one bit moves
        a = time_order_statistics(config(n=30_000, seed=5))
        for block, workers in [(2_728, 1), (2_728, 2), (1_000, 3)]:
            monkeypatch.setattr(simulation, "_BLOCK", block)
            monkeypatch.setattr(simulation, "_WORKERS", workers)
            assert time_order_statistics(config(n=30_000, seed=5)) == a

    def test_redraws_are_rare_and_counted(self):
        stats = time_order_statistics(config(n=1_000_000, seed=42))
        # float collisions of two fresh 53-bit uniforms are astronomically
        # unlikely; the counter must agree
        assert stats.n_redraws == 0
        assert stats.redraw_fraction == 0.0


class TestSimulateChsh:
    def test_single_trial_values_are_quantized(self):
        # each correlator is +/-1 at n=1, so S lands on {-4,-2,0,2,4}
        values = {
            simulate_chsh(*OPTIMAL, BinaryDistribution.uniform(), 1, seed)
            for seed in range(40)
        }
        assert values <= {-4.0, -2.0, 0.0, 2.0, 4.0}
        assert len(values) > 1

    def test_deterministic_in_the_seed(self):
        s1 = simulate_chsh(*OPTIMAL, BinaryDistribution.uniform(), 20_000, 7)
        s2 = simulate_chsh(*OPTIMAL, BinaryDistribution.uniform(), 20_000, 7)
        assert s1 == s2

    def test_chunking_does_not_change_the_estimate(self, monkeypatch):
        s1 = simulate_chsh(*OPTIMAL, BinaryDistribution.uniform(), 30_000, 3)
        monkeypatch.setattr(simulation, "_BLOCK", 3_750)
        s2 = simulate_chsh(*OPTIMAL, BinaryDistribution.uniform(), 30_000, 3)
        assert s1 == s2

    def test_converges_to_the_analytic_extreme(self):
        s = simulate_chsh(*OPTIMAL, BinaryDistribution.uniform(), 200_000, 99)
        assert s == pytest.approx(-2.0 * math.sqrt(2.0), abs=0.02)

    def test_rejects_zero_trials(self):
        with pytest.raises(InvalidCount):
            simulate_chsh(*OPTIMAL, BinaryDistribution.uniform(), 0, 1)

    def test_rejects_wide_seed(self):
        with pytest.raises(PreconditionViolation):
            simulate_chsh(*OPTIMAL, BinaryDistribution.uniform(), 10, 1 << 64)


class TestLhvBaseline:
    def test_deterministic_sign_matches_folded_linear_correlation(self):
        # per-pair correlators approach 1 - 2 d_eff / pi
        n = 400_000
        for delta, seed in ((math.pi / 8.0, 1), (3.0 * math.pi / 8.0, 2), (1.9, 3)):
            s = lhv_baseline_chsh(
                delta, delta, 0.0, 0.0, LhvStrategy.DETERMINISTIC_SIGN, n, seed
            )
            # S collapses to 2 E(delta) + E(delta) - E(delta) = 2 E(delta)
            expected = 2.0 * lhv_sign_correlation(delta)
            assert s == pytest.approx(expected, abs=5.0 / math.sqrt(n))

    def test_deterministic_sign_at_the_optimal_settings(self):
        n = 1_000_000
        s = lhv_baseline_chsh(*OPTIMAL, LhvStrategy.DETERMINISTIC_SIGN, n, 42)
        # analytic value: 3/4 - 1/4 + 3/4 + 3/4 = 2, the local extreme
        assert s == pytest.approx(2.0, abs=4.5 / math.sqrt(n))

    def test_random_local_centers_on_zero(self):
        s = lhv_baseline_chsh(*OPTIMAL, LhvStrategy.RANDOM_LOCAL, 500_000, 13)
        assert s == pytest.approx(0.0, abs=0.02)

    def test_deterministic_in_the_seed(self):
        s1 = lhv_baseline_chsh(*OPTIMAL, LhvStrategy.DETERMINISTIC_SIGN, 50_000, 21)
        s2 = lhv_baseline_chsh(*OPTIMAL, LhvStrategy.DETERMINISTIC_SIGN, 50_000, 21)
        assert s1 == s2

    @pytest.mark.parametrize("workers, block", [(1, 64), (2, 64), (3, 100), (2, 1 << 15)])
    def test_random_local_reads_each_block_s_side_b_from_word_n_plus_lo(
        self, monkeypatch, workers, block
    ):
        # side a of trials lo .. lo + m - 1 is words lo .. lo + m - 1, side b words n + lo
        # on, from a stream of its own per block, however the trials are cut into ranges
        monkeypatch.setattr(simulation, "_WORKERS", workers)
        monkeypatch.setattr(simulation, "_BLOCK", block)
        n, key = 1_000, simulation._philox_key(3)
        builds, stream = [], simulation._stream
        monkeypatch.setattr(simulation, "_stream",
                            lambda *args: builds.append(args[1:]) or stream(*args))
        words = np.random.Philox(key=key).random_raw(2 * n) >= 1 << 63
        agree = simulation._coin_agreements(0.0, 0.0, n, key)
        assert agree == np.count_nonzero(words[:n] == words[n:])
        step = -(-block // workers)
        starts = [n * w // workers for w in range(workers + 1)]
        blocks = [lo for w in range(workers) for lo in range(starts[w], starts[w + 1], step)]
        assert sorted(builds) == sorted([(lo, 1) for lo in starts[:-1]]
                                        + [(n + lo, 1) for lo in blocks])

    def test_rejects_zero_trials(self):
        with pytest.raises(InvalidCount):
            lhv_baseline_chsh(*OPTIMAL, LhvStrategy.RANDOM_LOCAL, 0, 1)

    def test_rejects_unknown_strategy(self):
        with pytest.raises(PreconditionViolation) as info:
            lhv_baseline_chsh(*OPTIMAL, "sign", 10, 1)
        assert str(info.value) == "strategy must be an LhvStrategy, got 'sign'"

    def test_separation_from_the_interference_model(self):
        n = 200_000
        quantum = simulate_chsh(*OPTIMAL, BinaryDistribution.uniform(), n, 17)
        local = lhv_baseline_chsh(*OPTIMAL, LhvStrategy.DETERMINISTIC_SIGN, n, 17)
        assert abs(quantum) - abs(local) >= 0.5

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_settings(self, bad):
        for strategy in LhvStrategy:
            with pytest.raises(PreconditionViolation):
                lhv_baseline_chsh(bad, *OPTIMAL[1:], strategy, 10, 1)
        with pytest.raises(PreconditionViolation):
            simulate_chsh(*OPTIMAL[:3], bad, BinaryDistribution.uniform(), 10, 1)


SCANS = {
    "simulate_chsh": lambda *s: simulate_chsh(*s, BinaryDistribution.uniform(), 10, 1),
    **{f"lhv_baseline_chsh-{strategy.name}": lambda *s, strategy=strategy:
       lhv_baseline_chsh(*s, strategy, 10, 1) for strategy in LhvStrategy},
}


BAD_SETTINGS = {"str": "0", "None": None, "complex": 1j, "huge": 10**400, "-huge": -(10**400)}


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: simulate_chsh(0, 1, 0.5, 0.2, 0.5, 10, 1),
                 "marginal_c must be a BinaryDistribution, got 0.5", id="marginal"),
    pytest.param(lambda: run_simulation(None), "config must be a SimConfig, got None",
                 id="run_simulation"),
    pytest.param(lambda: time_order_statistics(None), "config must be a SimConfig, got None",
                 id="time_order_statistics"),
    *[pytest.param(lambda scan=scan, bad=bad: scan(0.0, 1.0, bad, 0.2),
                   f"setting b must be finite, got {bad!r}", id=f"{name}-{kind}")
      for name, scan in SCANS.items() for kind, bad in BAD_SETTINGS.items()],
])
def test_inputs_of_the_wrong_type_or_size_raise_a_typed_error(call, message):
    with pytest.raises(PreconditionViolation) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("name", list(SCANS))
def test_a_setting_of_any_real_type_scans_as_its_double(name):
    # ints beyond any fixed width, numpy scalars and fractions all scan as float(setting)
    settings = (10**300, np.float32(0.5), Fraction(1, 3), np.int64(3))
    assert SCANS[name](*settings) == SCANS[name](*map(float, settings))


# ---------------------------------------------------------------- counting kernel
#
# The references below are the straightforward float versions of the kernel:
# whole-run arrays of Generator.random() doubles, compared as floats. The
# kernel must reproduce them bit for bit.


def reference_signs(u, cond, q):
    """(gamma, beta) as +-1 arrays from rows of four Generator.random() doubles."""
    gamma = np.where(u[:, 2] < q, 1, -1)
    beta = np.where(u[:, 3] < np.where(gamma == 1, cond[0, 0], cond[0, 1]), 1, -1)
    return gamma, beta


def reference_counts(gamma, beta):
    """The 2x2 counts, beta by row and gamma by column, + first."""
    return np.array([[np.count_nonzero((beta == b) & (gamma == g)) for g in (1, -1)]
                     for b in (1, -1)])


def reference_run(cfg, edit=None):
    """(counts, trial-log text) from one Generator.random(4 n) array.

    ``edit(k, words)``, if given, first edits in place the raw words of the
    ``k``-th block of ``_TRACE_BLOCK`` trials; the doubles are then the ones
    Generator.random makes of the edited words, ``(word >> 11) * 2**-53``.
    """
    n = cfg.n_pairs
    key = simulation._philox_key(cfg.seed)
    if edit is None:
        u = np.random.Generator(np.random.Philox(key=key)).random(4 * n).reshape(n, 4)
    else:
        words = np.random.Philox(key=key).random_raw(4 * n).reshape(n, 4)
        for k, lo in enumerate(range(0, n, simulation._TRACE_BLOCK)):
            edit(k, words[lo:lo + simulation._TRACE_BLOCK])
        u = (words >> np.uint64(11)) * 2.0**-53
    gamma, beta = reference_signs(u, conditional_probabilities(cfg.angles.delta),
                                  cfg.marginal_c.p_plus)
    counts = reference_counts(gamma, beta)
    if cfg.time_distribution is TimeDistribution.FIXED_ORDER:
        t_sel, t_meas = np.zeros(n), np.ones(n)
    else:
        assert np.all(u[:, 0] != u[:, 1])  # no redraws at test sizes
        t_sel, t_meas = np.minimum(u[:, 0], u[:, 1]), np.maximum(u[:, 0], u[:, 1])
    log = "".join(
        json.dumps({"t_selection": float(a), "t_measurement": float(b),
                    "gamma": int(g), "beta": int(h)}) + "\n"
        for a, b, g, h in zip(t_sel, t_meas, gamma, beta)
    )
    return counts, log


def reference_chsh(angles, q, n, seed):
    """The model S from one Generator.random(4 n) array per setting pair."""
    value = 0.0
    for k, (i, j) in enumerate(((0, 2), (0, 3), (1, 2), (1, 3))):
        key = simulation._philox_key(simulation._child_seed(seed, 0, k))
        u = np.random.Generator(np.random.Philox(key=key)).random(4 * n).reshape(n, 4)
        gamma, beta = reference_signs(u, conditional_probabilities(angles[i] - angles[j]), q)
        value += (1.0, -1.0, 1.0, 1.0)[k] * float(np.mean(gamma * beta))
    return value


def reference_baseline(angles, strategy, n, seed):
    """The baseline S from one pair of n-long sign arrays per setting pair."""
    value = 0.0
    for k, (i, j) in enumerate(((0, 2), (0, 3), (1, 2), (1, 3))):
        key = simulation._philox_key(simulation._child_seed(seed, 1, k))
        gen = np.random.Generator(np.random.Philox(key=key))
        x, y = angles[i], angles[j]
        if strategy is LhvStrategy.DETERMINISTIC_SIGN:
            hidden = gen.random(n) * (2.0 * math.pi)
            side_a = np.where(np.cos(x - hidden) >= 0.0, 1, -1)
            side_b = np.where(np.cos(y - hidden) >= 0.0, 1, -1)
        else:
            side_a = np.where(gen.random(n) < 0.5, 1, -1)
            side_b = np.where(gen.random(n) < 0.5, 1, -1)
        value += (1.0, -1.0, 1.0, 1.0)[k] * float(np.mean(side_a * side_b))
    return value


def edit_words(monkeypatch, edit):
    """Pass every draw of raw words from a ``_stream`` through ``edit`` first.

    ``edit`` sees each draw as rows of the stream's width, in draw order: a
    walk's block of trials, a redraw's pair, a block of the coin's side b.
    """
    stream = simulation._stream

    class Edited:
        def __init__(self, key, start, width):
            self.bitgen, self.width = stream(key, start, width), width

        def random_raw(self, size):
            words = self.bitgen.random_raw(size)
            edit(words.reshape(-1, self.width))  # a view: the edit lands in words
            return words

    monkeypatch.setattr(simulation, "_stream", Edited)


def tie(first, second):
    """``second`` tied to ``first``: the top 53 bits of ``first``, the low 11 of ``second``."""
    return first >> 11 << 11 | second & 0x7FF


# raw words on, just below and at the top of the shifted thresholds of
# 2**-53, 0.5 and 1 - 2**-53, and at both ends of the words
EDGE_WORDS = [0, 0x7FF, 1 << 11, (1 << 11) | 0x7FF, (1 << 63) - 1, 1 << 63, (1 << 63) | 0x7FF,
              ((2**53 - 1) << 11) - 1, (2**53 - 1) << 11, 2**64 - 1]
EDGE_P = [0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53, 1.0]
# the (gamma, beta) words of each cell 2 * beta_minus + gamma_minus, for
# probabilities inside (0, 1)
CELL_WORDS = [(0, 0), (2**64 - 1, 0), (0, 2**64 - 1), (2**64 - 1, 2**64 - 1)]
# raw time words whose times print with the repr patch: 2**-53, 5 * 2**-53 and
# the last time below 1e-4
SMALL_TIME_WORDS = [1 << 11, 5 << 11, int(1e-4 * 2**53) << 11]

MAX_FLOAT = 1.7976931348623157e308
SETTINGS_OF_EVERY_MAGNITUDE = [
    OPTIMAL,
    (-0.0, 5e-324, math.pi / 2.0, -math.pi / 2.0),
    (1e7, 1e16, 2.0**53, MAX_FLOAT),
    (-MAX_FLOAT, -1e16, 2.0**53, -0.0),
]


class TestCountingKernel:
    @pytest.mark.parametrize("block", [None, 1, 7, 64])
    @pytest.mark.parametrize("q", [0.0, 0.37, 1.0])
    @pytest.mark.parametrize("mode", list(TimeDistribution))
    def test_matches_the_float_reference(self, monkeypatch, block, q, mode):
        if block is not None:
            monkeypatch.setattr(simulation, "_BLOCK", block)
            monkeypatch.setattr(simulation, "_TRACE_BLOCK", block)
        cfg = config(n=301, seed=2**64 - 1, xi=0.3, eta=1.1, q=q, mode=mode)
        log = io.StringIO()
        report = run_simulation(cfg, trial_log=log)
        counts, expected_log = reference_run(cfg)
        np.testing.assert_array_equal(report.counts, counts)
        assert log.getvalue() == expected_log

    @pytest.mark.parametrize("block", [1, 2, 7])
    def test_trace_blocks_join_at_their_seams(self, monkeypatch, block):
        # every cell, and times below 1e-4, on a block's first and last line;
        # the last block holds a single trial
        def plant(k, words):
            words[0, 0] = SMALL_TIME_WORDS[1]
            words[0, 2:] = CELL_WORDS[k % 4]
            words[-1, :2] = SMALL_TIME_WORDS[2], SMALL_TIME_WORDS[0]
            words[-1, 2:] = CELL_WORDS[(k + 2) % 4]

        blocks = itertools.count()  # a traced run reads its blocks in order

        def plant_traced(words):
            if words.shape[1] == 4:
                plant(next(blocks), words)

        monkeypatch.setattr(simulation, "_TRACE_BLOCK", block)
        edit_words(monkeypatch, plant_traced)
        cfg, log = config(n=4 * block + 1, seed=12), io.StringIO()
        report = run_simulation(cfg, trial_log=log)
        counts, expected_log = reference_run(cfg, plant)
        np.testing.assert_array_equal(report.counts, counts)
        assert log.getvalue() == expected_log
        lines = expected_log.splitlines()
        assert all("e-16, " in lines[lo] for lo in range(0, len(lines), block))
        assert lines[-1].startswith('{"t_selection": 1.1102230246251565e-16, '
                                    '"t_measurement": 9.99999999999')

    def test_integer_threshold_is_generator_random_below_p(self):
        # p = k * 2**-53 for k drawn in this very stream puts p exactly on a
        # word, where u < p flips between p and its float neighbours.
        key = simulation._philox_key(2024)
        raw = np.random.Philox(key=key).random_raw(4096)
        u = np.random.Generator(np.random.Philox(key=key)).random(4096)
        ps = [0.0, 1.0, 0.5, 1.0 - 2.0**-53, 2.0**-53, 5e-324]
        for k in (raw[:16] >> np.uint64(11)).tolist():
            p = k * 2.0**-53
            ps += [p, float(np.nextafter(p, 1.0)), float(np.nextafter(p, -1.0))]
        for p in ps:
            np.testing.assert_array_equal(raw < simulation._threshold(p) << 11, u < p)

    @pytest.mark.parametrize("mode", list(TimeDistribution))
    @pytest.mark.parametrize("p", EDGE_P)
    @pytest.mark.parametrize("at", [0, 1, 2], ids=["q_plus", "beta|gamma+", "beta|gamma-"])
    def test_edge_probabilities_decide_like_generator_random(self, monkeypatch, at, p, mode):
        # trials 0 .. 99 hold every pair of edge words as their gamma and beta
        # words, the rest the stream's own; at p = 1 the shifted threshold is 2**64
        probs = [0.5, 0.5, 0.5]
        probs[at] = p
        q, p_plus, p_minus = probs
        n, key = 300, simulation._philox_key(99)
        planted = np.array(list(itertools.product(EDGE_WORDS, repeat=2)), dtype=np.uint64)
        u = np.random.Generator(np.random.Philox(key=key)).random(4 * n).reshape(n, 4)
        u[: len(planted), 2:] = (planted >> np.uint64(11)) * 2.0**-53

        def plant(words):
            if words.shape == (n, 4):  # the one block of the one range
                words[: len(planted), 2:] = planted

        edit_words(monkeypatch, plant)
        monkeypatch.setattr(simulation, "_WORKERS", 1)
        cond = np.array([[p_plus, p_minus], [1.0 - p_plus, 1.0 - p_minus]])
        counts, n_redraws = simulation._simulate_counts(cond, q, n, key, mode)
        assert counts.tolist() == reference_counts(*reference_signs(u, cond, q)).tolist()
        assert n_redraws == 0

    def test_words_differing_only_in_low_bits_tie(self):
        w = 0x0123456789ABCDEF
        raw = np.array(
            [[w, w ^ 0x7FF, 0, 0], [w, w ^ 0x800, 0, 0], [w, w, 0, 0]], dtype=np.uint64
        )
        key = simulation._philox_key(1)
        mode = TimeDistribution.UNIFORM_SQUARE
        redraws = simulation._redraw_ties(key, 10, raw, mode)
        t_sel, t_meas = (k * 2.0**-53 for k in simulation._event_times(raw, mode))
        # the first and last rows are equal doubles, the middle one is not
        own = (w >> 11) * 2.0**-53
        assert [row for row in range(3) if own not in (t_sel[row], t_meas[row])] == [0, 2]

        def redraw(row):
            # a tied trial's own stream, above every trial counter
            gen = np.random.Generator(np.random.Philox(key=key, counter=2**64 + 10 + row))
            for draws in itertools.count(1):
                t1, t2 = gen.random(2)
                if t1 != t2:
                    return sorted((t1, t2)), draws

        (ends_0, draws_0), (ends_2, draws_2) = redraw(0), redraw(2)
        assert redraws == draws_0 + draws_2 >= 2
        assert [t_sel[0], t_meas[0]] == ends_0 and [t_sel[2], t_meas[2]] == ends_2
        assert np.all(t_sel < t_meas)
        # an untied row keeps its own words' doubles
        ends = sorted(((w >> 11) * 2.0**-53, ((w ^ 0x800) >> 11) * 2.0**-53))
        assert [t_sel[1], t_meas[1]] == ends

    def test_a_redraw_that_ties_again_draws_the_next_pair(self, monkeypatch):
        pairs = []

        def tie_trial_0_twice(words):
            if words.shape[1] == 4:
                words[0, 1] = tie(words[0, 0], words[0, 1])  # the block's first trial ties
            else:
                pairs.append((words[0] >> np.uint64(11)).tolist())
                if len(pairs) == 1:
                    words[0, 1] = tie(words[0, 0], words[0, 1])  # and so its first redraw pair

        edit_words(monkeypatch, tie_trial_0_twice)
        log = io.StringIO()
        report = run_simulation(config(n=5, seed=8), trial_log=log)
        assert report.n_redraws == 2
        # the second pair is words 2 and 3 of trial 0's redraw stream
        key = simulation._philox_key(8)
        raw = np.random.Philox(key=key, counter=2**64).random_raw(4)
        assert pairs[1] == (raw[2:] >> np.uint64(11)).tolist()
        first = json.loads(log.getvalue().splitlines()[0])
        assert [first["t_selection"], first["t_measurement"]] == sorted(
            k * 2.0**-53 for k in pairs[1]
        )

    @pytest.mark.parametrize("step", [0, 1])
    @pytest.mark.parametrize("seed", [3, 2024])
    def test_a_word_on_its_threshold_decides_like_generator_random(self, seed, step):
        # u < p is false at u == p: trial 0's gamma and beta words sitting exactly
        # on their thresholds both give -1, and one word below them both give +1
        key = simulation._philox_key(seed)
        k = (np.random.Philox(key=key).random_raw(4) >> np.uint64(11)).tolist()
        u = np.random.Generator(np.random.Philox(key=key)).random(4)
        assert u[2:].tolist() == [k[2] * 2.0**-53, k[3] * 2.0**-53]
        q, p = (k[2] + step) * 2.0**-53, (k[3] + step) * 2.0**-53
        cond = np.array([[p, p], [1.0 - p, 1.0 - p]])
        counts, _ = simulation._simulate_counts(cond, q, 1, key, TimeDistribution.FIXED_ORDER)
        assert counts.tolist() == ([[0, 0], [0, 1]] if step == 0 else [[1, 0], [0, 0]])

    def test_a_coin_word_on_one_half_says_minus(self, monkeypatch):
        # Generator.random() < 0.5 is false at exactly 0.5, on either side
        calls, half_side = [], []

        def half_first(words):
            if len(calls) == half_side[0]:
                words[0] = 2**52 << 11  # that side's first word: side a draws first
            calls.append(words.shape)

        edit_words(monkeypatch, half_first)
        monkeypatch.setattr(simulation, "_WORKERS", 1)
        for side, seed in itertools.product((0, 1), range(4)):
            calls.clear()
            half_side[:] = [side]
            key = simulation._philox_key(seed)
            u_other = np.random.Generator(np.random.Philox(key=key)).random(2)[1 - side]
            assert simulation._coin_agreements(0.0, 0.0, 1, key) == int(u_other >= 0.5)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_forced_ties_count_the_same_redraws_with_and_without_a_trace(
        self, monkeypatch, workers, report_json
    ):
        def tie_by_gamma_word(words):
            # ties follow a trial's own words, not where its block starts
            if words.shape[1] == 4:
                tied = (words[:, 2] >> np.uint64(11)) % 7 == 0
                words[tied, 1] = tie(words[tied, 0], words[tied, 1])

        edit_words(monkeypatch, tie_by_gamma_word)
        monkeypatch.setattr(simulation, "_BLOCK", 64)
        monkeypatch.setattr(simulation, "_TRACE_BLOCK", 64)
        monkeypatch.setattr(simulation, "_WORKERS", workers)
        traced = run_simulation(config(n=3_000, seed=4), trial_log=io.StringIO())
        untraced = run_simulation(config(n=3_000, seed=4))
        assert report_json(untraced) == report_json(traced)
        assert untraced.n_redraws > 300

    def test_forced_ties_are_never_redrawn_in_fixed_order(self, monkeypatch, report_json):
        # the fixed order reads no time word, so a tie there is no tie at all
        cfg = config(n=3_000, seed=4, mode=TimeDistribution.FIXED_ORDER)
        expected = run_simulation(cfg)
        def tie_every_trial(words):
            if words.shape[1] == 4:
                words[:, 1] = tie(words[:, 0], words[:, 1])

        edit_words(monkeypatch, tie_every_trial)
        report, stats = run_simulation(cfg), time_order_statistics(cfg)
        assert report.n_redraws == stats.n_redraws == 0
        assert report_json(report) == report_json(expected)
        assert stats.min_gap == stats.max_gap == 1.0

    def test_a_forced_tie_is_redrawn_for_the_gap_statistics_too(self, monkeypatch):
        def tie_trial_0(words):
            if words.shape[1] == 4:
                words[0, 1] = tie(words[0, 0], words[0, 1])  # the block's first trial ties

        edit_words(monkeypatch, tie_trial_0)
        monkeypatch.setattr(simulation, "_WORKERS", 1)
        cfg, log = config(n=5, seed=8), io.StringIO()
        report, stats = run_simulation(cfg, trial_log=log), time_order_statistics(cfg)
        assert stats.n_redraws == report.n_redraws == 1
        d = trace_gap_words(log.getvalue())
        assert stats.min_gap == min(d) * 2.0**-53 > 0.0
        assert stats.max_gap == max(d) * 2.0**-53
        assert stats.mean_gap == float(Fraction(sum(d), 5 << 53))

    @pytest.mark.parametrize("x, y", [(0.3, 1.7), (-2.0, 0.9)])
    def test_a_hidden_angle_word_on_a_sign_threshold_decides_like_the_cosine(
        self, monkeypatch, x, y
    ):
        # cos(x - hidden) >= 0 has already changed sign at the threshold word t itself
        word = []

        def put_word(words):
            if words.shape[1] == 1:
                words[0] = word[0]  # the one trial's hidden-angle word

        edit_words(monkeypatch, put_word)
        monkeypatch.setattr(simulation, "_WORKERS", 1)
        sides = simulation._sign_flips(x), simulation._sign_flips(y)
        key = simulation._philox_key(1)
        # threshold 0 has no word below it: the cosine-sign property covers it
        for t in [t for t in sides[0] + sides[1] if t > 0]:
            agree = []
            # the last raw word below the shifted threshold, and the first on it
            for k, low in ((t - 1, 0x7FF), (t, 0)):
                word[:] = [k << 11 | low]
                cos_x, cos_y = (np.cos(v - k * 2.0**-53 * (2.0 * math.pi)) >= 0.0 for v in (x, y))
                agree.append(simulation._sign_agreements(*sides, 1, key))
                assert agree[-1] == int(cos_x == cos_y)
            assert agree[0] != agree[1]  # one side flips at t, the other does not

    @pytest.mark.parametrize("angles", SETTINGS_OF_EVERY_MAGNITUDE)
    def test_sign_flips_are_searched_once_per_setting(self, monkeypatch, angles):
        sign_flips, calls = simulation._sign_flips, []

        def counted(x):
            calls.append(x)
            return sign_flips(x)

        monkeypatch.setattr(simulation, "_sign_flips", counted)
        strategy = LhvStrategy.DETERMINISTIC_SIGN
        s = lhv_baseline_chsh(*angles, strategy, 1_003, 77)
        assert s == reference_baseline(angles, strategy, 1_003, 77)
        # one search per setting, in setting order, -0.0 kept apart from 0.0
        assert len(calls) == 4
        assert [(x, math.copysign(1.0, x)) for x in calls] == [
            (x, math.copysign(1.0, x)) for x in angles
        ]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 1_003])
    @pytest.mark.parametrize("block", [None, 1, 3, 64])
    @pytest.mark.parametrize("angles", SETTINGS_OF_EVERY_MAGNITUDE)
    def test_baselines_match_the_one_shot_reference(self, monkeypatch, workers, n, block, angles):
        # random-local's second side reads trials n + start .. n + stop - 1 of
        # each range, which start inside a Philox block whenever n + start is
        # no multiple of 4
        monkeypatch.setattr(simulation, "_WORKERS", workers)
        if block is not None:
            monkeypatch.setattr(simulation, "_BLOCK", block)
        for strategy in LhvStrategy:
            assert lhv_baseline_chsh(*angles, strategy, n, 77) == reference_baseline(
                angles, strategy, n, 77
            )

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("block", [None, 1, 3, 64])
    @pytest.mark.parametrize("angles", SETTINGS_OF_EVERY_MAGNITUDE)
    def test_model_scan_matches_the_one_shot_reference(self, monkeypatch, workers, block, angles):
        # pair order, signs and child seeds of simulate_chsh, fixed independently
        monkeypatch.setattr(simulation, "_WORKERS", workers)
        if block is not None:
            monkeypatch.setattr(simulation, "_BLOCK", block)
        for n, q in itertools.product((1, 2, 5, 1_003), (0.5, 0.3, 1.0)):
            marginal = BinaryDistribution.from_p_plus(q)
            assert simulate_chsh(*angles, marginal, n, 77) == reference_chsh(angles, q, n, 77)


@given(t=st.integers(0, 2**53))
@example(t=0)
@example(t=1)
@example(t=2**52)
@example(t=2**53 - 1)
@example(t=2**53)
def test_a_raw_word_passes_the_shifted_threshold_exactly_when_its_grid_word_does(t):
    # the kernel compares uint64 words with the Python int t << 11, which is 2**64 at t = 2**53
    raws = [min(max(raw, 0), 2**64 - 1) for raw in ((t << 11) - 1, t << 11, (t << 11) | 0x7FF)]
    passed = np.array(raws, dtype=np.uint64) >= t << 11
    assert passed.tolist() == [(raw >> 11) >= t for raw in raws]


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 2_000),
    block=st.integers(1, 2_048),
    workers=st.sampled_from([1, 2, 3]),
    seed=st.integers(0, 2**64 - 1),
    mode=st.sampled_from(TimeDistribution),
)
# n below, at and just above one worker's block of ceil(block / workers) trials,
# and below, at and just above one such block for every worker
@example(n=49, block=100, workers=2, seed=5, mode=TimeDistribution.UNIFORM_SQUARE)
@example(n=50, block=100, workers=2, seed=5, mode=TimeDistribution.UNIFORM_SQUARE)
@example(n=51, block=100, workers=2, seed=5, mode=TimeDistribution.FIXED_ORDER)
@example(n=99, block=100, workers=2, seed=5, mode=TimeDistribution.UNIFORM_SQUARE)
@example(n=100, block=100, workers=2, seed=5, mode=TimeDistribution.FIXED_ORDER)
@example(n=101, block=100, workers=2, seed=5, mode=TimeDistribution.UNIFORM_SQUARE)
@example(n=33, block=100, workers=3, seed=9, mode=TimeDistribution.UNIFORM_SQUARE)
@example(n=34, block=100, workers=3, seed=9, mode=TimeDistribution.UNIFORM_SQUARE)
@example(n=35, block=100, workers=3, seed=9, mode=TimeDistribution.FIXED_ORDER)
@example(n=101, block=100, workers=3, seed=9, mode=TimeDistribution.UNIFORM_SQUARE)
@example(n=102, block=100, workers=3, seed=9, mode=TimeDistribution.FIXED_ORDER)
@example(n=103, block=100, workers=3, seed=9, mode=TimeDistribution.UNIFORM_SQUARE)
@example(n=1, block=1, workers=3, seed=0, mode=TimeDistribution.UNIFORM_SQUARE)
def test_block_size_never_changes_an_output_byte(report_json, n, block, workers, seed, mode):
    # nor does the number of threads the trial range is cut between; a trace
    # past one block is written in several

    def outputs():
        log = io.StringIO()
        report = run_simulation(config(n=n, seed=seed, mode=mode), trial_log=log)
        return (
            report_json(report),
            log.getvalue(),
            simulate_chsh(*OPTIMAL, BinaryDistribution.uniform(), n, seed),
            *(lhv_baseline_chsh(*OPTIMAL, strategy, n, seed) for strategy in LhvStrategy),
            *(time_order_statistics(config(n=n, seed=seed, mode=m)) for m in TimeDistribution),
        )

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulation, "_WORKERS", 1)
        reference = outputs()
        mp.setattr(simulation, "_BLOCK", block)
        mp.setattr(simulation, "_TRACE_BLOCK", block)
        mp.setattr(simulation, "_WORKERS", workers)
        assert outputs() == reference


def trace_gap_words(text):
    # each trace line's gap as its exact integer word d = (t_measurement - t_selection) * 2**53
    words = []
    for line in text.splitlines():
        record = json.loads(line)
        d = (Fraction(record["t_measurement"]) - Fraction(record["t_selection"])) * 2**53
        assert d.denominator == 1
        words.append(int(d))
    return words


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 2_000),
    block=st.integers(1, 2_048),
    workers=st.sampled_from([1, 2, 3]),
    seed=st.integers(0, 2**64 - 1),
    mode=st.sampled_from(TimeDistribution),
)
@example(n=1, block=1, workers=3, seed=0, mode=TimeDistribution.UNIFORM_SQUARE)
@example(n=101, block=100, workers=2, seed=5, mode=TimeDistribution.FIXED_ORDER)
def test_gap_moments_come_from_the_exact_trace_sums(n, block, workers, seed, mode):
    cfg, log = config(n=n, seed=seed, mode=mode), io.StringIO()
    report = run_simulation(cfg, trial_log=log)
    d = trace_gap_words(log.getvalue())
    s1, s2 = sum(d), sum(x * x for x in d)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulation, "_BLOCK", block)
        mp.setattr(simulation, "_WORKERS", workers)
        stats = time_order_statistics(cfg)
    assert stats.mean_gap == s1 / (n << 53) == float(Fraction(s1, n << 53))
    assert stats.std_gap == math.sqrt((n * s2 - s1 * s1) / (n * n << 106))
    assert stats.min_gap == min(d) * 2.0**-53 and stats.max_gap == max(d) * 2.0**-53
    assert stats.n_redraws == report.n_redraws


finite_settings = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(
    angles=st.tuples(finite_settings, finite_settings, finite_settings, finite_settings),
    n=st.integers(1, 3_000),
    block=st.integers(1, 4_096),
    seed=st.integers(0, 2**64 - 1),
)
def test_deterministic_sign_matches_the_cosine_reference(angles, n, block, seed):
    strategy = LhvStrategy.DETERMINISTIC_SIGN
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulation, "_BLOCK", block)
        assert lhv_baseline_chsh(*angles, strategy, n, seed) == reference_baseline(
            angles, strategy, n, seed
        )


@settings(max_examples=40, deadline=None)
@given(
    angles=st.tuples(finite_settings, finite_settings, finite_settings, finite_settings),
    q=st.floats(0.0, 1.0),
    n=st.integers(1, 500),
    block=st.integers(1, 1_024),
    workers=st.sampled_from([1, 2, 3]),
    seed=st.integers(0, 2**64 - 1),
)
def test_model_scan_matches_the_reference_at_any_finite_settings(
    angles, q, n, block, workers, seed
):
    a, a_prime, b, b_prime = angles
    assume(all(math.isfinite(x - y) for x in (a, a_prime) for y in (b, b_prime)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulation, "_BLOCK", block)
        mp.setattr(simulation, "_WORKERS", workers)
        marginal = BinaryDistribution.from_p_plus(q)
        assert simulate_chsh(*angles, marginal, n, seed) == reference_chsh(angles, q, n, seed)


@settings(max_examples=200, deadline=None)
@given(x=finite_settings)
@example(x=-0.0)
@example(x=5e-324)
@example(x=math.pi / 2.0)
@example(x=-math.pi / 2.0)
@example(x=math.pi / 2.0 - 2.0 * math.pi / 8192.0)  # last flip in the grid's last cell
@example(x=1e7)
@example(x=1e16)
@example(x=2.0**53)
@example(x=MAX_FLOAT)
@example(x=-MAX_FLOAT)
@example(x=math.pi)  # - at word 0, so threshold 0 comes first
@example(x=2.0)
def test_sign_thresholds_equal_the_cosine_sign_next_to_every_flip(x):
    # the sign is + where a word has passed an even number of thresholds
    flips = simulation._sign_flips(x)
    assert flips == sorted(set(flips))
    words = {0, 1, 2**53 - 2, 2**53 - 1}
    for t in flips:
        words.update(range(max(t - 32, 0), min(t + 33, 2**53)))
    words = np.array(sorted(words), dtype=np.uint64)
    cosine = np.cos(x - words * 2.0**-53 * (2.0 * math.pi)) >= 0.0
    passed = np.searchsorted(np.array(flips, dtype=np.uint64), words, side="right")
    np.testing.assert_array_equal(passed % 2 == 0, cosine)


def test_the_flip_search_passes_reach_single_words():
    width = 1 << 53
    for _ in range(simulation._FLIP_LEVELS):
        width = max(width // simulation._FLIP_CELLS, 1)
    assert width == 1
    assert simulation._FLIP_LEVELS == 5  # widths 2**53, 2**41, 2**29, 2**17, 2**5


def flips_cut_until_single_words(x):
    # _sign_flips' search with no count of passes: it cuts until the cells are single words
    lo, width = np.zeros(1, dtype=np.uint64), 1 << 53
    while width > 1:
        step = max(width // simulation._FLIP_CELLS, 1)
        words = lo[:, None] + np.uint64(step) * np.arange(width // step + 1, dtype=np.uint64)
        signs = np.cos(x - words * 2.0**-53 * (2.0 * math.pi)) >= 0.0
        rows, cols = np.nonzero(signs[:, 1:] != signs[:, :-1])
        lo, width = words[rows, cols], step
    return ([] if np.cos(x) >= 0.0 else [0]) + (lo + np.uint64(1)).tolist()


@pytest.mark.parametrize("x", [0.0, -0.0, 5e-324, 0.3, -1.2, 2.0, math.pi, math.pi / 2.0,
                               -math.pi / 2.0, 1e9, 1e16, 2.0**53, MAX_FLOAT])
def test_sign_flips_equal_the_search_cut_until_single_words(x):
    assert simulation._sign_flips(x) == flips_cut_until_single_words(x)


# ---------------------------------------------------------------- Philox oracle

# Philox4x64-10 as specified by Salmon et al., "Parallel random numbers: as easy
# as 1, 2, 3" (SC 2011, Random123), written without numpy: a 256-bit counter in
# four 64-bit limbs, least significant first, and a 128-bit key.
MASK64 = (1 << 64) - 1


def philox4x64_10(counter: int, key) -> list[int]:
    c, (k0, k1) = [counter >> 64 * i & MASK64 for i in range(4)], map(int, key)
    for _ in range(10):
        p0, p1 = 0xD2E7470EE14C6C93 * c[0], 0xCA5A826395121157 * c[2]
        c = [p1 >> 64 ^ c[1] ^ k0, p1 & MASK64, p0 >> 64 ^ c[3] ^ k1, p0 & MASK64]
        k0, k1 = (k0 + 0x9E3779B97F4A7C15) & MASK64, (k1 + 0xBB67AE8584CAA73B) & MASK64
    return c


def stream_word(key, j: int) -> int:
    # word j of the stream: numpy's counter j // 4 increments before it generates
    return philox4x64_10((j // 4 + 1) % (1 << 256), key)[j % 4]


class TestPhiloxOracle:
    @pytest.mark.parametrize("counter", [0, 5, 2**64 - 1, 2**64 + 3, 2**256 - 1])
    def test_numpy_counter_c_is_spec_block_c_plus_1(self, counter):
        key = simulation._philox_key(5)
        raw = np.random.Philox(key=key, counter=counter).random_raw(4).tolist()
        assert raw == [stream_word(key, 4 * counter + i) for i in range(4)]

    @pytest.mark.parametrize("width", [4, 2, 1])
    @pytest.mark.parametrize("start", [1, 6, 2**62 - 3, 2**64 + 3])
    def test_stream_reads_from_word_width_times_trial(self, width, start):
        key = simulation._philox_key(11)
        words = simulation._stream(key, start, width).random_raw(7 * width).tolist()
        assert words == [stream_word(key, width * start + i) for i in range(7 * width)]

    @pytest.mark.parametrize("width", [4, 2, 1])
    def test_walk_visits_trial_lo_plus_i_in_row_i(self, width):
        # the visits' lists fold by concatenation, so the result lists every block in order
        key = simulation._philox_key(11)
        rows = simulation._walk(key, 7, lambda lo, words: [(lo, words.tolist())], width=width,
                                block=3, workers=1)
        assert [lo for lo, _ in rows] == [0, 3, 6]
        words = [row for _, block in rows for row in block]
        assert words == [[stream_word(key, width * trial + i) for i in range(width)]
                         for trial in range(7)]

    @pytest.mark.parametrize("lo", [0, 2**63 - 3])
    def test_a_tied_trial_is_redrawn_from_its_pair_above_2_64(self, lo):
        key = simulation._philox_key(3)
        words = np.array([[9 << 11, 9 << 11, 0, 0], [1 << 11, 2 << 11, 0, 0],
                          [5 << 11, 5 << 11 | 7, 0, 0]], dtype=np.uint64)
        mode = TimeDistribution.UNIFORM_SQUARE
        assert simulation._redraw_ties(key, lo, words, mode) == 2
        # trial lo + row's first pair is words 0 and 1 of numpy counter 2**64 + lo + row
        for row in (0, 2):
            pair = [stream_word(key, 4 * (2**64 + lo + row) + i) for i in range(2)]
            assert pair[0] >> 11 != pair[1] >> 11
            assert words[row, :2].tolist() == pair
        assert words[1, :2].tolist() == [1 << 11, 2 << 11]

    def test_seed_sequence_states_are_pinned(self):
        # the Philox keys and child seeds every seeded output rests on
        keys = {seed: simulation._philox_key(seed).tolist() for seed in (0, 7, 2**64 - 1)}
        assert keys == {
            0: [0xDB2CD7E7B0F478BE, 0xABF4641A2C71BA49],
            7: [0xEAD0F7017C326E58, 0x0879C4F0F97E037A],
            2**64 - 1: [0xAEBCA151928CAD0D, 0x119C30448638DC7A],
        }
        children = {args: simulation._child_seed(*args) for args in
                    [(4, 0, 0), (4, 0, 3), (4, 1, 0), (4, 1, 3), (2**64 - 1, 1, 2)]}
        assert children == {
            (4, 0, 0): 0x0326D79213FE0470,
            (4, 0, 3): 0xE514987FD24B1FAF,
            (4, 1, 0): 0x9F71B9921E0D1CC9,
            (4, 1, 3): 0x205D8BD19F414D83,
            (2**64 - 1, 1, 2): 0x8C30FD1AFA569176,
        }


# ---------------------------------------------------------------- threads


class Boom(Exception):
    pass


class TestCountingThreads:
    def test_workers_never_exceed_the_usable_cores(self):
        assert 1 <= simulation._WORKERS <= min(2, len(os.sched_getaffinity(0)))

    @pytest.mark.parametrize("failing_range", [0, 1, 2])
    def test_an_exception_in_any_range_reaches_the_caller(self, failing_range):
        before = set(threading.enumerate())

        def visit(lo, words):
            if lo == 300 * failing_range:
                raise Boom(f"range {failing_range}")
            return len(words)

        with pytest.raises(Boom, match=f"range {failing_range}"):
            simulation._walk(simulation._philox_key(1), 900, visit, workers=3)
        assert set(threading.enumerate()) <= before  # every helper has ended

    def test_a_failing_range_waits_at_most_one_block_for_the_others(self):
        # the helper's range is 50 blocks of 20 ms; range 0 fails once it is in its first
        entered, visits = threading.Event(), []

        def visit(lo, words):
            if lo == 0:
                entered.wait(timeout=5)
                raise Boom("range 0")
            visits.append(lo)
            entered.set()
            time.sleep(0.02)
            return len(words)

        began = time.monotonic()
        with pytest.raises(Boom, match="range 0"):
            simulation._walk(simulation._philox_key(1), 100, visit, block=1, workers=2)
        assert time.monotonic() - began < 0.5
        assert 1 <= len(visits) <= 2

    def test_ranges_cover_the_trials_once_in_blocks_of_the_worker_share(self, monkeypatch):
        monkeypatch.setattr(simulation, "_WORKERS", 3)
        monkeypatch.setattr(simulation, "_BLOCK", 10)
        caller = threading.current_thread()

        def visit(lo, words):  # lists fold by concatenation, so the order of the folds shows
            return [(lo, len(words), threading.current_thread() is caller)]

        key = simulation._philox_key(1)
        # in trial order whichever thread finished first, range 0 on the calling thread
        assert simulation._walk(key, 1_000, visit) == [
            (lo, min(4, stop - lo), start == 0)
            for start, stop in [(0, 333), (333, 666), (666, 1_000)]
            for lo in range(start, stop, 4)]
        # range 0 and no other is empty: there is nothing of it to fold
        assert simulation._walk(key, 2, visit) == [(0, 1, False), (1, 1, False)]

    N = 1 << 24  # trials of a two-range run_simulation: 512 blocks a range

    @contextlib.contextmanager
    def two_ranges(self, monkeypatch, on_block):
        """Make run_simulation walk two ranges and call ``on_block(range, index)`` per block.

        It hooks ``_redraw_ties``, which the visit calls once per block; index
        counts the range's blocks from 0. Yields ``stop``, an Event the test
        sets as it fails a range and SIGINT's handler sets as it raises
        KeyboardInterrupt, and ``after``, the blocks each range begins once
        ``stop`` is set. On exit no helper may be alive; one that is raises in
        its next block, so it ends before the next test.
        """
        redraw, counts, after = simulation._redraw_ties, [0, 0], [0, 0]
        stop, done = threading.Event(), threading.Event()

        def hooked(key, lo, words, mode):
            if done.is_set():
                raise Boom("the test has ended")
            r = int(lo >= self.N // 2)
            after[r] += stop.is_set()
            counts[r] += 1
            on_block(r, counts[r] - 1)
            return redraw(key, lo, words, mode)

        def interrupt(signum, frame):
            stop.set()
            raise KeyboardInterrupt

        monkeypatch.setattr(simulation, "_WORKERS", 2)
        monkeypatch.setattr(simulation, "_redraw_ties", hooked)
        before, previous = set(threading.enumerate()), signal.signal(signal.SIGINT, interrupt)
        try:
            yield stop, after
            assert not set(threading.enumerate()) - before, "a helper outlived the call"
        finally:
            signal.signal(signal.SIGINT, previous)
            done.set()
            for thread in set(threading.enumerate()) - before:
                thread.join(timeout=10)

    @pytest.mark.parametrize("failing_range", [0, 1])
    def test_a_failing_range_stops_the_other_within_a_block(self, monkeypatch, failing_range):
        started = threading.Event()

        def on_block(r, i):
            if r != failing_range:
                started.set()
            elif i == 2:
                started.wait(timeout=5)  # fail while the other range is counting
                stop.set()
                raise Boom(f"range {failing_range}")

        with self.two_ranges(monkeypatch, on_block) as (stop, after):
            with pytest.raises(Boom, match=f"range {failing_range}"):
                run_simulation(config(n=self.N))
            assert after[1 - failing_range] <= 2

    def test_an_interrupt_of_the_caller_stops_the_helper(self, monkeypatch):
        fired = threading.Event()

        def on_block(r, i):
            if r == 0 and i == 2:
                fired.wait(timeout=5)  # the interrupt lands here, in range 0

        timer = threading.Timer(0.05, lambda: (_thread.interrupt_main(), fired.set()))
        with self.two_ranges(monkeypatch, on_block) as (stop, after):
            timer.start()
            try:
                with pytest.raises(KeyboardInterrupt):
                    run_simulation(config(n=self.N))
            finally:
                timer.join(timeout=10)
            assert stop.is_set() and after[1] <= 2

    def test_an_interrupt_while_the_caller_waits_stops_the_helper(self, monkeypatch):
        # interrupt_main wakes no thread blocked on a lock, so the helper sends a real SIGINT
        # once range 0 has ended and the caller waits for the helper's
        range_0_done, last = threading.Event(), self.N // 2 // -(-simulation._BLOCK // 2) - 1

        def on_block(r, i):
            if r == 0 and i == last:
                range_0_done.set()
            elif r == 1 and i == 2:
                range_0_done.wait(timeout=5)
                time.sleep(0.05)
                signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)

        with self.two_ranges(monkeypatch, on_block) as (stop, after):
            with pytest.raises(KeyboardInterrupt):
                run_simulation(config(n=self.N))
            assert stop.is_set() and after[1] <= 2

    def test_more_workers_than_cores_under_fast_switching_keep_the_counts(
        self, monkeypatch, report_json
    ):
        def outputs(seed):
            report = run_simulation(config(n=2_000, seed=seed))
            return (
                report_json(report),
                simulate_chsh(*OPTIMAL, BinaryDistribution.uniform(), 500, seed),
                *(lhv_baseline_chsh(*OPTIMAL, strategy, 500, seed) for strategy in LhvStrategy),
            )

        seeds = range(4)
        monkeypatch.setattr(simulation, "_WORKERS", 1)
        expected = [outputs(seed) for seed in seeds]
        monkeypatch.setattr(simulation, "_WORKERS", 3)
        monkeypatch.setattr(simulation, "_BLOCK", 7)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            deadline = time.monotonic() + 3.0
            for _ in range(20):
                assert [outputs(seed) for seed in seeds] == expected
                if time.monotonic() > deadline:
                    break
        finally:
            sys.setswitchinterval(interval)

    def test_imports_where_affinity_is_unknown(self, run_python):
        child = run_python(
            "-c",
            "import os; del os.sched_getaffinity; import contextprob.simulation as s; "
            "assert 1 <= s._WORKERS <= 2, s._WORKERS",
        )
        assert child.returncode == 0, child.stderr

    def test_importing_the_cli_starts_no_thread(self, run_python):
        # nor imports orjson, which only a trace needs, before or after a run
        child = run_python(
            "-c",
            "import sys, threading; import contextprob.cli; "
            "assert threading.active_count() == 1, threading.enumerate(); "
            "assert 'concurrent.futures' not in sys.modules; "
            "assert 'orjson' not in sys.modules; "
            "argv = ['simulate', '--xi', '1', '--eta', '0.5', '--n', '9']; "
            "assert contextprob.cli.main(argv) == 0; "
            "assert 'orjson' not in sys.modules",
        )
        assert child.returncode == 0, child.stderr


# ---------------------------------------------------------------- trace text


def assert_time_texts_are_reprs(words):
    # the trace writes each time word k as the repr of k * 2**-53, 2**14 at a time
    for lo in range(0, len(words), 1 << 14):
        chunk = np.asarray(words[lo:lo + (1 << 14)], dtype=np.uint64)
        expected = [repr(t) for t in (chunk * 2.0**-53).tolist()]
        assert simulation._time_texts(chunk) == expected


class TestTimeTexts:
    # orjson writes the times at and above 1e-4, repr those below: any change in
    # orjson's digits or notation fails here rather than moving a trace byte
    CUT = int(1e-4 * 2**53)  # the last word below 1e-4

    def test_the_cut_is_no_time_word(self):
        assert (Fraction(1e-4) * 2**53).denominator > 1
        assert self.CUT * 2.0**-53 < 1e-4 < (self.CUT + 1) * 2.0**-53

    def test_every_multiple_of_2_to_the_minus_18_from_1e_4_to_1(self):
        # the only times whose two shortest candidates can tie
        first = -(-(self.CUT + 1) >> 35)
        assert_time_texts_are_reprs(range(first << 35, (1 << 53) + 1, 1 << 35))

    def test_the_words_next_to_1e_4_and_below_1(self):
        assert_time_texts_are_reprs(range(self.CUT - (1 << 16), self.CUT + (1 << 16) + 1))
        assert_time_texts_are_reprs(range((1 << 53) - (1 << 16), (1 << 53) + 1))

    @pytest.mark.parametrize("b", range(40, 53))
    def test_the_words_next_to_a_power_of_two(self, b):
        assert_time_texts_are_reprs(range((1 << b) - (1 << 12), (1 << b) + (1 << 12)))

    def test_the_fixed_order_times(self):
        assert simulation._time_texts(np.array([0, 1 << 53], np.uint64)) == ["0.0", "1.0"]

    @settings(max_examples=200, deadline=None)
    @given(words=st.lists(st.integers(0, 2**53), min_size=1, max_size=64))
    def test_any_words(self, words):
        assert_time_texts_are_reprs(words)


# grid words of the times, with every patched small time and both sides of the cut
TIME_WORDS = st.one_of(
    st.sampled_from([0, 1 << 53, *(w >> 11 for w in SMALL_TIME_WORDS),
                     TestTimeTexts.CUT, TestTimeTexts.CUT + 1]),
    st.integers(0, 2**53),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(TIME_WORDS, TIME_WORDS, st.integers(0, 3)).filter(lambda t: t[0] != t[1]),
                min_size=1, max_size=70))
def test_a_block_of_trial_lines_is_the_json_dumps_of_its_trials(trials):
    # a block's lines, from its first head to its last tail, for any block size
    t_sel = np.array([min(a, b) for a, b, _ in trials], np.uint64)
    t_meas = np.array([max(a, b) for a, b, _ in trials], np.uint64)
    cells = np.array([cell for *_, cell in trials], np.uint8)
    log = io.StringIO()
    simulation._write_trial_lines(log, t_sel, t_meas, cells)
    assert log.getvalue() == "".join(
        json.dumps({"t_selection": a * 2.0**-53, "t_measurement": b * 2.0**-53,
                    "gamma": 1 - 2 * (cell & 1), "beta": 1 - 2 * (cell >> 1)}) + "\n"
        for a, b, cell in zip(t_sel.tolist(), t_meas.tolist(), cells.tolist()))
