"""The blocked verification sweep against the per-sample loop it replaced.

``reference_suite`` is that loop: one set of draws per sample, in the same
order, with every quantity evaluated by the scalar ``math`` formulas the
package used before its kernels were vectorized. The sweep must reproduce its
report byte for byte, whatever the block size.
"""

import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextprob import (
    AnglePair,
    BinaryDistribution,
    InvalidCount,
    LhvStrategy,
    PreconditionViolation,
    SimConfig,
    chsh,
    conditional_probabilities,
    incompatibility_coefficient,
    matrices_from_angles,
    lhv_baseline_chsh,
    reconstruct_via_interference,
    run_property_suite,
    setting_correlation,
    simulate_chsh,
)
from contextprob import verification
from contextprob.eprbohm import angle_matrices

SEEDS = [*range(16), 2**64 - 1]
BLOCK = verification._BLOCK
MARGIN = 0.05
TSIRELSON = 2.0 * math.sqrt(2.0)


# ---------------------------------------------------------------- scalar reference


def ref_matrices(xi, eta):
    c2x, s2x = math.cos(xi) ** 2, math.sin(xi) ** 2
    c2e, s2e = math.cos(eta) ** 2, math.sin(eta) ** 2
    return ((c2x, s2x), (s2x, c2x)), ((s2e, c2e), (c2e, s2e))


def ref_closed(delta):
    s2, c2 = math.sin(delta) ** 2, math.cos(delta) ** 2
    return ((s2, c2), (c2, s2))


def ref_interference(p_plus, t_plus, p_minus, t_minus, theta):
    classical = p_plus * t_plus + p_minus * t_minus
    value = classical + 2.0 * math.cos(theta) * math.sqrt(p_plus * t_plus * p_minus * t_minus)
    assert -1e-12 <= value <= 1.0 + 1e-12
    return min(max(value, 0.0), 1.0)


def ref_column(p_ac, p_ba, j, cos_plus, cos_minus):
    pp, pm = p_ac[0][j], p_ac[1][j]
    return (
        ref_interference(pp, p_ba[0][0], pm, p_ba[0][1], math.acos(cos_plus)),
        ref_interference(pp, p_ba[1][0], pm, p_ba[1][1], math.acos(cos_minus)),
    )


def ref_entries(p_ac, p_ba, flip_second_column, signs=(-1.0, 1.0)):
    flip = -1.0 if flip_second_column else 1.0
    plus = ref_column(p_ac, p_ba, 0, *signs)
    minus = ref_column(p_ac, p_ba, 1, flip * signs[0], flip * signs[1])
    return ((plus[0], minus[0]), (plus[1], minus[1]))


def ref_row_residual(m):
    return max(abs(row[0] + row[1] - 1.0) for row in m)


def ref_correlation(delta, q_plus, q_minus):
    cond = ref_closed(delta)
    total = 0.0
    for i, beta in enumerate((1, -1)):
        for j, (gamma, q) in enumerate(((1, q_plus), (-1, q_minus))):
            total += beta * gamma * cond[i][j] * q
    return total


def ref_lambda(observed, p_plus, t_plus, p_minus, t_minus):
    classical = p_plus * t_plus + p_minus * t_minus
    return (observed - classical) / (2.0 * math.sqrt(p_plus * t_plus * p_minus * t_minus))


def reference_suite(n, seed, tol=1e-12):
    """The per-sample loop: the reports the blocked sweep must reproduce.

    Returns the JSON of both reports, keyed by ``break_phase_flip``; the mode
    changes what the phase-flip check evaluates, not what anything draws.
    """
    rng = np.random.default_rng(seed)
    lo, hi = MARGIN, np.pi / 2.0 - MARGIN

    def angles():
        xi, eta = rng.uniform(lo, hi, size=2)
        return float(xi), float(eta)

    checks = []

    worst = 0.0
    for _ in range(n):
        xi, eta = angles()
        closed = ref_closed(xi - eta)
        recon = ref_entries(*ref_matrices(xi, eta), True)
        for i in (0, 1):
            for j in (0, 1):
                worst = max(worst, abs(closed[i][j] - recon[i][j]))
    checks.append(("reconstruction-agreement", worst, worst <= tol))

    worst, passed = 0.0, True
    for _ in range(n):
        xi, eta = angles()
        p_ac, p_ba = ref_matrices(xi, eta)
        p_bc = ref_closed(xi - eta)
        for m in (p_ac, p_ba, p_bc, ref_entries(p_ac, p_ba, True)):
            worst = max(worst, ref_row_residual(m))
            passed = passed and ref_row_residual(m) <= tol
        passed = passed and all(v > 0.0 for m in (p_ac, p_ba, p_bc) for row in m for v in row)
    checks.append(("double-stochasticity", worst, passed))

    passed = True
    for _ in range(n):
        p_ac, p_ba = ref_matrices(*angles())
        for cos_plus, cos_minus, normalized in (
            (-1.0, 1.0, True), (1.0, -1.0, True), (1.0, 1.0, False), (-1.0, -1.0, False),
        ):
            plus, minus = ref_column(p_ac, p_ba, 0, cos_plus, cos_minus)
            passed = passed and (abs(plus + minus - 1.0) <= tol) == normalized
    checks.append(("phase-opposition", 0.0 if passed else 1.0, passed))

    flip_passed = {False: True, True: True}
    for _ in range(n):
        p_ac, p_ba = ref_matrices(*angles())
        for broken in flip_passed:
            entries = ref_entries(p_ac, p_ba, not broken)
            flip_passed[broken] = flip_passed[broken] and ref_row_residual(entries) <= tol
    flip_index = len(checks)
    checks.append(None)

    worst = 0.0
    for _ in range(n):
        xi, eta = angles()
        p_ac, p_ba = ref_matrices(xi, eta)
        closed = ref_closed(xi - eta)
        for j, flip in ((0, 1.0), (1, -1.0)):
            for i, cos_theta in ((0, -1.0), (1, 1.0)):
                lam = ref_lambda(closed[i][j], p_ac[0][j], p_ba[i][0], p_ac[1][j], p_ba[i][1])
                worst = max(worst, abs(lam - flip * cos_theta))
    checks.append(("coefficient-roundtrip", worst, worst <= tol))

    worst = 0.0
    for _ in range(n):
        delta = float(rng.uniform(-2.0 * np.pi, 2.0 * np.pi))
        p_plus = float(rng.uniform(0.0, 1.0))
        value = ref_correlation(delta, p_plus, 1.0 - p_plus)
        worst = max(worst, abs(value + math.cos(2.0 * delta)))
    checks.append(("correlation-closed-form", worst, worst <= tol))

    worst = 0.0
    for _ in range(n):
        a, a_prime, b, b_prime = (float(x) for x in rng.uniform(0.0, 2.0 * np.pi, size=4))
        s = (
            ref_correlation(a - b, 0.5, 0.5)
            - ref_correlation(a - b_prime, 0.5, 0.5)
            + ref_correlation(a_prime - b, 0.5, 0.5)
            + ref_correlation(a_prime - b_prime, 0.5, 0.5)
        )
        worst = max(worst, max(abs(s) - TSIRELSON, 0.0))
    checks.append(("chsh-bound", worst, worst <= tol))

    reports = {}
    for broken, passed in flip_passed.items():
        name = "selection-phase-flip (flip suppressed)" if broken else "selection-phase-flip"
        checks[flip_index] = (name, 0.0 if passed else 1.0, passed)
        reports[broken] = json.dumps([
            {"name": name, "n_samples": n, "worst_residual": float(worst), "passed": bool(passed)}
            for name, worst, passed in checks
        ])
    return reports


def suite_json(n, seed, break_phase_flip=False):
    return json.dumps(
        [asdict(check) for check in run_property_suite(n, seed, break_phase_flip=break_phase_flip)]
    )


# ---------------------------------------------------------------- byte identity


def assert_matches_reference(n, seed):
    reference = reference_suite(n, seed)
    for break_phase_flip in (False, True):
        assert suite_json(n, seed, break_phase_flip) == reference[break_phase_flip]


class TestMatchesThePerSampleLoop:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_small_and_benchmark_sizes(self, seed):
        for n in (1, 2, 3, 2000):
            assert_matches_reference(n, seed)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_around_the_default_block(self, seed):
        for n in (BLOCK - 1, BLOCK, BLOCK + 1):
            assert_matches_reference(n, seed)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_around_a_small_block(self, seed, monkeypatch):
        # Block invariance (below) carries these to every block size.
        monkeypatch.setattr(verification, "_BLOCK", 64)
        for n in (63, 64, 65, 130):
            assert_matches_reference(n, seed)

    def test_the_negative_control_fails_and_the_rest_pass(self):
        for check in run_property_suite(BLOCK + 1, 3, break_phase_flip=True):
            assert check.passed is (check.name != "selection-phase-flip (flip suppressed)")

    def test_fields_are_plain_python_scalars(self):
        for check in run_property_suite(5, 1):
            assert type(check.worst_residual) is float
            assert type(check.passed) is bool
            assert type(check.n_samples) is int


ENTRY_POINTS = ["run_property_suite", "SimConfig", "simulate_chsh", "lhv_baseline_chsh"]


def call_entry_point(entry, count, seed):
    quadruple, uniform = (0.0, 0.5, 0.25, 0.75), BinaryDistribution.uniform()
    return {
        "run_property_suite": lambda: run_property_suite(count, seed),
        "SimConfig": lambda: SimConfig(AnglePair(1.0, 0.5), uniform, count, seed),
        "simulate_chsh": lambda: simulate_chsh(*quadruple, uniform, count, seed),
        "lhv_baseline_chsh": lambda: lhv_baseline_chsh(
            *quadruple, LhvStrategy.RANDOM_LOCAL, count, seed
        ),
    }[entry]()


@pytest.mark.parametrize("seed", [-1, 1.5, "x", None, True, 2**70])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_rejects_a_seed_outside_the_64_bit_integers(seed, entry):
    # One check, errors.require_seed, guards every seeded entry point.
    with pytest.raises(PreconditionViolation, match="seed must"):
        call_entry_point(entry, 5, seed)


@pytest.mark.parametrize("count", [0, -1, 1.5, True, "x", 2**63, 2**70])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_rejects_a_count_that_is_not_a_positive_integer(count, entry):
    # One check, errors.require_count, guards every counted entry point. A
    # count from 2**63 up is refused before any trial runs.
    with pytest.raises(InvalidCount, match="must be a positive integer"):
        call_entry_point(entry, count, 1)


def test_the_largest_count_still_configures_a_run():
    # Construction only: running 2**63 - 1 trials would never finish.
    assert call_entry_point("SimConfig", 2**63 - 1, 1).n_pairs == 2**63 - 1


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 300),
    block=st.integers(1, 128),
    seed=st.integers(0, 2**64 - 1),
    break_phase_flip=st.booleans(),
)
def test_block_size_never_changes_the_report(n, block, seed, break_phase_flip):
    reference = suite_json(n, seed, break_phase_flip)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verification, "_BLOCK", block)
        assert suite_json(n, seed, break_phase_flip) == reference


# ---------------------------------------------------------------- failure paths


class TestFailingChecksReportTheirWorstResidual:
    """Only patching a kernel makes these checks fail. The sweep alone takes
    the worst residual, so a failure is reported, never hidden."""

    def check(self, name, n=BLOCK + 1):
        (found,) = [c for c in run_property_suite(n, 5) if c.name == name]
        return found.worst_residual, found.passed

    def test_phase_opposition_reports_its_failure_indicator(self, monkeypatch):
        # Zero residuals normalize the equal-sign columns too, which must fail.
        monkeypatch.setattr(
            verification, "phase_opposition_residuals", lambda p_ac, *_: np.zeros(len(p_ac))
        )
        assert self.check("phase-opposition") == (1.0, False)

    def test_a_nan_residual_is_reported_and_fails(self, monkeypatch):
        # max(0.0, nan) is 0.0, which would read as a pass.
        monkeypatch.setattr(
            verification, "correlation_values", lambda delta, *_: np.full(len(delta), np.nan)
        )
        worst, passed = self.check("correlation-closed-form")
        assert math.isnan(worst) and passed is False

    def test_a_non_positive_entry_fails_double_stochasticity(self, monkeypatch):
        # Identity matrices have unit rows but zero entries.
        def identities(xi, eta):
            return (np.tile(np.eye(2), (len(xi), 1, 1)),) * 2

        monkeypatch.setattr(verification, "angle_matrices", identities)
        rng = np.random.default_rng(0)
        assert verification._sweep(rng, 10, verification._double_stochasticity) == (1.0, False)


# ---------------------------------------------------------------- kernels vs math


class TestKernelsMatchScalarMath:
    """The vectorized trig and square kernels must round exactly like
    ``math.sin(x) ** 2`` and ``math.cos(x) ** 2``; a platform whose vector
    libm differs fails here instead of silently moving output digests."""

    def test_closed_form_stack_on_drawn_differences(self):
        rng = np.random.default_rng(11)
        deltas = np.concatenate([
            rng.uniform(-2.0 * np.pi, 2.0 * np.pi, 20_000),
            rng.uniform(-1e6, 1e6, 5_000),
        ])
        stack = conditional_probabilities(deltas)
        expected = np.array([ref_closed(d) for d in deltas.tolist()])
        assert np.array_equal(stack, expected)

    def test_angle_matrix_stacks_on_drawn_angles(self):
        rng = np.random.default_rng(12)
        xi, eta = rng.uniform(1e-6, np.pi / 2.0 - 1e-6, size=(2, 20_000))
        p_ac, p_ba = angle_matrices(xi, eta)
        expected = [ref_matrices(x, e) for x, e in zip(xi.tolist(), eta.tolist())]
        assert np.array_equal(p_ac, np.array([m[0] for m in expected]))
        assert np.array_equal(p_ba, np.array([m[1] for m in expected]))

    def test_scalar_wrappers_equal_the_scalar_formulas(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            xi, eta = (float(v) for v in rng.uniform(MARGIN, np.pi / 2.0 - MARGIN, size=2))
            angles = AnglePair(xi, eta)
            p_ac, p_ba = matrices_from_angles(angles)
            ref_ac, ref_ba = ref_matrices(xi, eta)
            assert p_ac.entries.tolist() == [list(r) for r in ref_ac]
            assert p_ba.entries.tolist() == [list(r) for r in ref_ba]
            recon = reconstruct_via_interference(angles).entries.tolist()
            assert recon == [list(r) for r in ref_entries(ref_ac, ref_ba, True)]
            coeff = incompatibility_coefficient(
                ref_closed(xi - eta)[0][1], p_ac.column(-1), p_ba, 1
            )
            assert coeff.lam == ref_lambda(
                ref_closed(xi - eta)[0][1], ref_ac[0][1], ref_ba[0][0], ref_ac[1][1], ref_ba[0][1]
            )
            q = BinaryDistribution.from_p_plus(float(rng.uniform()))
            delta = float(rng.uniform(-7.0, 7.0))
            value = setting_correlation(delta, q)
            assert type(value) is float
            assert value == ref_correlation(delta, q.p_plus, q.p_minus)
            settings_ = [float(v) for v in rng.uniform(0.0, 2.0 * np.pi, size=4)]
            s = chsh(*settings_, q)
            assert type(s) is float
            a, a_prime, b, b_prime = settings_
            assert s == (
                ref_correlation(a - b, q.p_plus, q.p_minus)
                - ref_correlation(a - b_prime, q.p_plus, q.p_minus)
                + ref_correlation(a_prime - b, q.p_plus, q.p_minus)
                + ref_correlation(a_prime - b_prime, q.p_plus, q.p_minus)
            )
