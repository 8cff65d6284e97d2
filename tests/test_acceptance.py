"""End-to-end acceptance checks.

Each test prints one machine-greppable pass/fail line (visible under
``pytest -s`` or on failure) and then asserts. Tolerances and runtime
budgets are stated inline next to each check.
"""

import math
import time

import numpy as np

from contextprob import simulation
from contextprob import (
    DEFAULT_SIGNS,
    MINUS,
    PLUS,
    AnglePair,
    BinaryDistribution,
    LhvStrategy,
    SimConfig,
    TimeDistribution,
    TransitionMatrix,
    epr_bohm_probabilities,
    incompatibility_coefficient,
    interference_probability,
    lhv_baseline_chsh,
    matrices_from_angles,
    reconstruct_via_interference,
    run_simulation,
    simulate_chsh,
    time_order_statistics,
    verify_phase_opposition,
    verify_selection_phase_flip,
)
from contextprob.cli import main
from contextprob.core import row_sum_residuals
from contextprob.eprbohm import angle_matrices, phase_entries

OPTIMAL = (0.0, math.pi / 4.0, math.pi / 8.0, 3.0 * math.pi / 8.0)
TWO_ROOT_TWO = 2.0 * math.sqrt(2.0)


def report(number, name, ok, detail):
    print(f"[criterion {number}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} {name}: {detail}"


def test_criterion_1_closed_form_reproduction():
    # 1000 random angle pairs: the interference reconstruction with phase
    # cosines (-1, +1) matches the sin^2/cos^2 closed form entrywise within
    # 1e-12, in under a second.
    rng = np.random.default_rng(20260816)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        xi, eta = rng.uniform(1e-6, math.pi / 2.0 - 1e-6, size=2)
        angles = AnglePair(float(xi), float(eta))
        closed = epr_bohm_probabilities(angles)
        recon = reconstruct_via_interference(angles, DEFAULT_SIGNS)
        worst = max(worst, float(np.max(np.abs(closed.entries - recon.entries))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    report(1, "closed-form reproduction", ok,
           f"worst entry residual {worst:.3e} over 1000 pairs, {elapsed:.2f} s")


def test_criterion_2_phase_opposition_dichotomy():
    # all four maximal-phase sign combinations x 100 random pairs: the check
    # accepts exactly the opposite-sign pairs, and in those cases the column
    # normalization residual stays within 1e-12.
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    classified_ok = True
    worst_true_residual = 0.0
    for _ in range(100):
        xi, eta = rng.uniform(1e-3, math.pi / 2.0 - 1e-3, size=2)
        angles = AnglePair(float(xi), float(eta))
        p_ac, p_ba = matrices_from_angles(angles)
        prior = p_ac.column(PLUS)
        for cos_plus in (1.0, -1.0):
            for cos_minus in (1.0, -1.0):
                expected = cos_plus * cos_minus == -1.0
                observed = verify_phase_opposition(angles, cos_plus, cos_minus)
                classified_ok = classified_ok and (observed is expected)
                if expected:
                    total = interference_probability(
                        prior, p_ba, PLUS, math.acos(cos_plus)
                    ) + interference_probability(prior, p_ba, MINUS, math.acos(cos_minus))
                    worst_true_residual = max(worst_true_residual, abs(total - 1.0))
    elapsed = time.perf_counter() - start
    ok = classified_ok and worst_true_residual <= 1e-12 and elapsed < 1.0
    report(2, "phase opposition dichotomy", ok,
           f"classification exact, worst normalization residual "
           f"{worst_true_residual:.3e}, {elapsed:.2f} s")


def test_criterion_3_phase_flip_double_stochasticity():
    # with the cross-context flip the reconstruction is doubly stochastic
    # within 1e-12 over 100 random pairs; suppressing the flip drives the
    # row-sum residual to at least 1e-3 for angles away from the ends.
    rng = np.random.default_rng(33)
    start = time.perf_counter()
    holds = True
    worst_row_residual = 0.0
    min_violation = math.inf
    for _ in range(100):
        xi, eta = rng.uniform(0.1, math.pi / 2.0 - 0.1, size=2)
        angles = AnglePair(float(xi), float(eta))
        holds = holds and verify_selection_phase_flip(angles)
        recon = reconstruct_via_interference(angles)
        worst_row_residual = max(
            worst_row_residual, float(row_sum_residuals(recon.entries))
        )
        p_ac, p_ba = angle_matrices(angles.xi, angles.eta)
        unflipped = phase_entries(p_ac, p_ba, DEFAULT_SIGNS, flip_second_column=False)
        violated = row_sum_residuals(unflipped) > 1e-3
        min_violation = min(
            min_violation, math.sin(2.0 * angles.xi) * math.sin(2.0 * angles.eta)
        )
        holds = holds and violated
    elapsed = time.perf_counter() - start
    ok = holds and worst_row_residual <= 1e-12 and min_violation >= 1e-3 and elapsed < 1.0
    report(3, "phase-flip double stochasticity", ok,
           f"worst row residual {worst_row_residual:.3e}, smallest violation "
           f"{min_violation:.3e}, {elapsed:.2f} s")


def test_criterion_4_coefficient_roundtrip():
    # 1000 random (prior, doubly stochastic transition, theta) triples with
    # every denominator factor at least 1e-3: the coefficient of the
    # interference value recovers cos(theta) within 1e-12, in under a second.
    rng = np.random.default_rng(44)
    start = time.perf_counter()
    worst = 0.0
    min_factor = 1.0
    for _ in range(1000):
        p_plus = float(rng.uniform(1e-3, 1.0 - 1e-3))
        a = float(rng.uniform(1e-3, 1.0 - 1e-3))
        theta = float(rng.uniform(0.0, math.pi))
        prior = BinaryDistribution.from_p_plus(p_plus)
        transition = TransitionMatrix(np.array([[a, 1.0 - a], [1.0 - a, a]]))
        min_factor = min(min_factor, p_plus, 1.0 - p_plus, a, 1.0 - a)
        value = interference_probability(prior, transition, PLUS, theta)
        coeff = incompatibility_coefficient(value, prior, transition, PLUS)
        worst = max(worst, abs(coeff.lam - math.cos(theta)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and min_factor >= 1e-3 and elapsed < 1.0
    report(4, "coefficient roundtrip", ok,
           f"worst |lambda - cos(theta)| {worst:.3e}, smallest factor "
           f"{min_factor:.3e}, {elapsed:.2f} s")


def test_criterion_5_monte_carlo_convergence():
    # xi = pi/3, eta = pi/6, one million trials: every estimated conditional
    # lands within 4 binomial standard errors of the analytic 0.25/0.75
    # values for at least 99 of 100 seeds, all inside 30 seconds.
    analytic = np.array([[0.25, 0.75], [0.75, 0.25]])
    start = time.perf_counter()

    def run_ok(seed):
        cfg = SimConfig(
            angles=AnglePair(math.pi / 3.0, math.pi / 6.0),
            marginal_c=BinaryDistribution.uniform(),
            n_pairs=1_000_000,
            seed=seed,
        )
        rep = run_simulation(cfg)
        return bool(
            np.all(np.abs(rep.estimated_conditionals - analytic) <= 4.0 * rep.std_errors)
        )

    fixed_seed_ok = run_ok(42)
    passes = sum(run_ok(seed) for seed in range(100))
    elapsed = time.perf_counter() - start
    ok = fixed_seed_ok and passes >= 99 and elapsed < 30.0
    report(5, "Monte Carlo convergence", ok,
           f"seed 42 within 4 standard errors: {fixed_seed_ok}, "
           f"{passes}/100 seeds pass, {elapsed:.1f} s")


def test_criterion_6_four_setting_separation():
    # one million trials per setting at (0, pi/4, pi/8, 3 pi/8): |S| within
    # 0.01 of 2 sqrt(2); the sign-of-cosine local baseline stays at or below
    # 2 plus 3 sigma; and the magnitude gap is at least 0.5. Under a minute.
    n = 1_000_000
    start = time.perf_counter()
    s_quantum = simulate_chsh(*OPTIMAL, BinaryDistribution.uniform(), n, 42)
    s_local = lhv_baseline_chsh(*OPTIMAL, LhvStrategy.DETERMINISTIC_SIGN, n, 42)
    elapsed = time.perf_counter() - start
    # variance of the local S estimate: three correlators at 3/4 and one at
    # 1/4, so (3 * 7/16 + 15/16) / n = 2.25 / n
    three_sigma = 3.0 * 1.5 / math.sqrt(n)
    quantum_ok = abs(abs(s_quantum) - TWO_ROOT_TWO) <= 0.01
    local_ok = s_local <= 2.0 + three_sigma
    gap = abs(s_quantum) - s_local
    ok = quantum_ok and local_ok and gap >= 0.5 and elapsed < 60.0
    report(6, "four-setting separation", ok,
           f"|S| = {abs(s_quantum):.5f} (target 2.82843 +/- 0.01), local S = "
           f"{s_local:.5f} <= {2.0 + three_sigma:.4f}, gap {gap:.3f} >= 0.5, "
           f"{elapsed:.1f} s")


def test_criterion_7_time_structure_invariance(monkeypatch):
    # the two time modes share one outcome stream, so their estimates agree
    # exactly, whatever the internal block size; no float-equal time pairs
    # occur in a million trials at the default seed; and the mean ordered gap
    # sits within 3 sigma of 1/3.
    n = 1_000_000
    base = dict(
        angles=AnglePair(math.pi / 3.0, math.pi / 6.0),
        marginal_c=BinaryDistribution.uniform(),
        n_pairs=n,
        seed=42,
    )
    uniform_cfg = SimConfig(**base, time_distribution=TimeDistribution.UNIFORM_SQUARE)
    fixed_cfg = SimConfig(**base, time_distribution=TimeDistribution.FIXED_ORDER)
    rep_uniform = run_simulation(uniform_cfg)
    monkeypatch.setattr(simulation, "_BLOCK", 250_000)
    rep_fixed = run_simulation(fixed_cfg)
    identical = bool(
        np.array_equal(rep_uniform.counts, rep_fixed.counts)
        and np.array_equal(
            rep_uniform.estimated_conditionals, rep_fixed.estimated_conditionals
        )
    )
    stats = time_order_statistics(uniform_cfg)
    three_sigma = 3.0 * math.sqrt(1.0 / 18.0 / n)
    mean_ok = abs(stats.mean_gap - 1.0 / 3.0) <= three_sigma
    ok = identical and rep_uniform.n_redraws == 0 and stats.n_redraws == 0 and mean_ok
    report(7, "time-structure invariance", ok,
           f"outcome streams identical: {identical}, redraws {stats.n_redraws}, "
           f"mean gap {stats.mean_gap:.6f} within {three_sigma:.6f} of 1/3")


def test_criterion_8_byte_identical_determinism(capsys, monkeypatch):
    # repeating any simulate or chsh invocation with the same seed, at any
    # internal batch width, reproduces the JSON output byte for byte.
    default_block = simulation._BLOCK

    def stdout_of(argv, block=default_block):
        monkeypatch.setattr(simulation, "_BLOCK", block)
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0
        return out

    sim = ["simulate", "--xi", "1.0471975511965976", "--eta", "0.5235987755982988",
           "--n", "20000", "--seed", "2024", "--format", "json"]
    runs = [
        stdout_of(sim),
        stdout_of(sim),
        stdout_of(sim, block=13),
        stdout_of(sim, block=64),
    ]
    sim_ok = len(set(runs)) == 1
    scan = ["chsh", "--optimal", "--n", "20000", "--seed", "2024", "--format", "json"]
    scans = [
        stdout_of(scan),
        stdout_of(scan),
        stdout_of(scan, block=7),
    ]
    scan_ok = len(set(scans)) == 1
    ok = sim_ok and scan_ok
    with capsys.disabled():
        report(8, "byte-identical determinism", ok,
               f"simulate variants identical: {sim_ok}, scan variants identical: {scan_ok}")
