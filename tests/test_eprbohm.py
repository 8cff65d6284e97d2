import math

import numpy as np
import pytest

from contextprob import (
    DEFAULT_SIGNS,
    MINUS,
    PLUS,
    AnglePair,
    BinaryDistribution,
    PreconditionViolation,
    SignConvention,
    chsh,
    conditional_probabilities,
    epr_bohm_probabilities,
    matrices_from_angles,
    reconstruct_via_interference,
    setting_correlation,
    verify_phase_opposition,
    verify_selection_phase_flip,
)
from contextprob.core import row_sum_residuals

OPTIMAL = (0.0, math.pi / 4.0, math.pi / 8.0, 3.0 * math.pi / 8.0)


def random_angles(rng, margin=1e-3):
    lo, hi = margin, math.pi / 2.0 - margin
    return AnglePair(float(rng.uniform(lo, hi)), float(rng.uniform(lo, hi)))


class TestAnglePair:
    def test_open_interval_enforced(self):
        for xi in (0.0, math.pi / 2.0, -0.3, 2.0):
            with pytest.raises(PreconditionViolation):
                AnglePair(xi, 0.7)
        with pytest.raises(PreconditionViolation):
            AnglePair(0.7, math.pi / 2.0)

    def test_interior_angles_accepted(self):
        pair = AnglePair(1e-9, math.pi / 2.0 - 1e-9)
        assert pair.delta == pytest.approx(1e-9 - math.pi / 2.0 + 1e-9)


class TestSignConvention:
    def test_default_is_minus_plus(self):
        assert DEFAULT_SIGNS.cos_theta_plus == -1.0
        assert DEFAULT_SIGNS.cos_theta_minus == 1.0

    def test_flipped(self):
        assert DEFAULT_SIGNS.flipped() == SignConvention(1.0, -1.0)

    def test_rejects_equal_signs(self):
        with pytest.raises(PreconditionViolation):
            SignConvention(1.0, 1.0)

    def test_rejects_non_unit_cosines(self):
        with pytest.raises(PreconditionViolation):
            SignConvention(0.5, -0.5)


class TestMatricesFromAngles:
    def test_quarter_pi_gives_uniform_columns(self):
        p_ac, p_ba = matrices_from_angles(AnglePair(math.pi / 4.0, math.pi / 4.0))
        np.testing.assert_allclose(p_ac.entries, 0.5, atol=1e-15)
        np.testing.assert_allclose(p_ba.entries, 0.5, atol=1e-15)

    def test_hand_evaluated_entries(self):
        # cos^2(pi/3) = 1/4 on the p_ac diagonal, sin^2(pi/6) = 1/4 on p_ba's
        p_ac, p_ba = matrices_from_angles(AnglePair(math.pi / 3.0, math.pi / 6.0))
        assert p_ac.prob(PLUS, PLUS) == pytest.approx(0.25, abs=1e-12)
        assert p_ac.prob(MINUS, PLUS) == pytest.approx(0.75, abs=1e-12)
        assert p_ba.prob(PLUS, PLUS) == pytest.approx(0.25, abs=1e-12)

    def test_always_double_stochastic_and_positive(self):
        rng = np.random.default_rng(555)
        for _ in range(200):
            angles = random_angles(rng)
            for m in matrices_from_angles(angles):
                assert row_sum_residuals(m.entries) <= 1e-12
                assert np.all(m.entries > 0.0)


class TestEprBohmProbabilities:
    def test_equal_angles_are_perfectly_anticorrelated(self):
        m = epr_bohm_probabilities(AnglePair(0.9, 0.9))
        np.testing.assert_array_equal(m.entries, [[0.0, 1.0], [1.0, 0.0]])

    def test_quarter_pi_difference_is_uniform(self):
        m = epr_bohm_probabilities(AnglePair(math.pi / 3.0, math.pi / 12.0))
        np.testing.assert_allclose(m.entries, 0.5, atol=1e-15)

    def test_hand_evaluated_sixty_thirty(self):
        m = epr_bohm_probabilities(AnglePair(math.pi / 3.0, math.pi / 6.0))
        assert m.prob(PLUS, PLUS) == pytest.approx(0.25, abs=1e-12)
        assert m.prob(MINUS, MINUS) == pytest.approx(0.25, abs=1e-12)
        assert m.prob(PLUS, MINUS) == pytest.approx(0.75, abs=1e-12)

    def test_depends_only_on_angle_difference(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            xi = float(rng.uniform(0.3, 1.2))
            eta = float(rng.uniform(0.05, xi - 0.05))
            shift = float(rng.uniform(-0.04, 0.3))
            base = epr_bohm_probabilities(AnglePair(xi, eta))
            moved = epr_bohm_probabilities(AnglePair(xi + shift, eta + shift))
            np.testing.assert_allclose(base.entries, moved.entries, atol=1e-12)

    def test_symmetric_in_angle_swap(self):
        a = epr_bohm_probabilities(AnglePair(1.1, 0.4))
        b = epr_bohm_probabilities(AnglePair(0.4, 1.1))
        np.testing.assert_allclose(a.entries, b.entries, atol=1e-15)

    def test_closed_form_helper_accepts_any_real_difference(self):
        cond = conditional_probabilities(-7.3)
        assert cond[0, 0] == pytest.approx(math.sin(7.3) ** 2, abs=1e-15)
        np.testing.assert_allclose(cond.sum(axis=0), 1.0, atol=1e-15)


class TestReconstruction:
    def test_matches_closed_form_everywhere(self):
        rng = np.random.default_rng(2718)
        worst = 0.0
        for _ in range(500):
            angles = random_angles(rng)
            closed = epr_bohm_probabilities(angles)
            recon = reconstruct_via_interference(angles)
            worst = max(worst, float(np.max(np.abs(closed.entries - recon.entries))))
        assert worst <= 1e-12

    def test_flipped_signs_give_angle_sum_family(self):
        # the opposite convention is self-consistent but shifts the phase:
        # p(+|+) becomes sin^2(xi + eta), which is 1 at xi + eta = pi/2
        angles = AnglePair(math.pi / 3.0, math.pi / 6.0)
        recon = reconstruct_via_interference(angles, DEFAULT_SIGNS.flipped())
        assert recon.prob(PLUS, PLUS) == pytest.approx(1.0, abs=1e-12)
        rng = np.random.default_rng(404)
        for _ in range(100):
            angles = random_angles(rng, margin=0.05)
            recon = reconstruct_via_interference(angles, DEFAULT_SIGNS.flipped())
            expected = math.sin(angles.xi + angles.eta) ** 2
            assert recon.prob(PLUS, PLUS) == pytest.approx(expected, abs=1e-12)

    def test_equal_angles_reconstruct_the_zero_entry(self):
        recon = reconstruct_via_interference(AnglePair(0.7, 0.7))
        assert recon.prob(PLUS, PLUS) == 0.0
        assert recon.prob(MINUS, PLUS) == 1.0

    def test_reconstruction_is_double_stochastic(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            recon = reconstruct_via_interference(random_angles(rng))
            assert row_sum_residuals(recon.entries) <= 1e-12


class TestPhaseOpposition:
    def test_dichotomy_over_sign_combinations(self):
        rng = np.random.default_rng(97)
        for _ in range(100):
            angles = random_angles(rng, margin=0.05)
            for cp in (1.0, -1.0):
                for cm in (1.0, -1.0):
                    expected = cp * cm == -1.0
                    assert verify_phase_opposition(angles, cp, cm) is expected

    def test_rejects_interior_cosines(self):
        with pytest.raises(PreconditionViolation):
            verify_phase_opposition(AnglePair(0.5, 0.5), 0.3, -1.0)

    def test_equal_sign_residual_matches_product_formula(self):
        # the normalization misses by sin(2 xi) sin(2 eta) when both
        # corrections point the same way
        angles = AnglePair(0.6, 0.8)
        p_ac, p_ba = matrices_from_angles(angles)
        prior = p_ac.column(PLUS)
        from contextprob import interference_probability

        total = interference_probability(
            prior, p_ba, PLUS, 0.0
        ) + interference_probability(prior, p_ba, MINUS, 0.0)
        expected = 1.0 + math.sin(2 * 0.6) * math.sin(2 * 0.8)
        assert total == pytest.approx(expected, abs=1e-12)


class TestSelectionPhaseFlip:
    def test_holds_with_the_flip(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            assert verify_selection_phase_flip(random_angles(rng))

    def test_fails_when_flip_suppressed(self):
        rng = np.random.default_rng(2025)
        for _ in range(100):
            angles = random_angles(rng, margin=0.1)
            assert not verify_selection_phase_flip(angles, violate_flip=True)

    def test_violation_residual_has_known_size(self):
        # suppressed flip leaves row sums at 1 -/+ sin(2 xi) sin(2 eta)
        angles = AnglePair(1.0, 0.3)
        from contextprob.eprbohm import angle_matrices, phase_entries

        p_ac, p_ba = angle_matrices(angles.xi, angles.eta)
        entries = phase_entries(p_ac, p_ba, DEFAULT_SIGNS, flip_second_column=False)
        residual = float(np.max(np.abs(entries.sum(axis=1) - 1.0)))
        assert residual == pytest.approx(math.sin(2.0) * math.sin(0.6), abs=1e-12)


class TestCorrelation:
    def test_equal_angles_give_perfect_anticorrelation(self):
        assert setting_correlation(
            AnglePair(0.8, 0.8).delta, BinaryDistribution.uniform()
        ) == pytest.approx(-1.0, abs=1e-15)

    def test_quarter_pi_difference_vanishes(self):
        assert setting_correlation(
            AnglePair(math.pi / 3.0, math.pi / 12.0).delta, BinaryDistribution.uniform()
        ) == pytest.approx(0.0, abs=1e-15)

    def test_eighth_pi_value(self):
        value = setting_correlation(math.pi / 8.0, BinaryDistribution.uniform())
        assert value == pytest.approx(-math.sqrt(0.5), abs=1e-12)

    def test_marginal_drops_out(self):
        rng = np.random.default_rng(7100)
        for _ in range(200):
            delta = float(rng.uniform(-6.0, 6.0))
            q = BinaryDistribution.from_p_plus(float(rng.uniform(0.0, 1.0)))
            lhs = setting_correlation(delta, q)
            rhs = setting_correlation(delta, BinaryDistribution.uniform())
            assert lhs == pytest.approx(rhs, abs=1e-12)
            assert lhs == pytest.approx(-math.cos(2.0 * delta), abs=1e-12)
            assert abs(lhs) <= 1.0 + 1e-15

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_difference(self, bad):
        with pytest.raises(PreconditionViolation):
            setting_correlation(bad, BinaryDistribution.uniform())


class TestChsh:
    def test_optimal_settings_reach_the_extreme(self):
        s = chsh(*OPTIMAL, BinaryDistribution.uniform())
        assert s == pytest.approx(-2.0 * math.sqrt(2.0), abs=1e-12)
        assert abs(s) == pytest.approx(2.8284271247461903, abs=1e-12)

    def test_equal_settings_give_minus_two(self):
        s = chsh(0.3, 0.3, 0.3, 0.3, BinaryDistribution.uniform())
        assert s == pytest.approx(-2.0, abs=1e-12)

    def test_bound_holds_over_random_settings(self):
        rng = np.random.default_rng(888)
        bound = 2.0 * math.sqrt(2.0)
        for _ in range(2000):
            a, ap, b, bp = rng.uniform(0.0, 2.0 * math.pi, size=4)
            s = chsh(float(a), float(ap), float(b), float(bp), BinaryDistribution.uniform())
            assert abs(s) <= bound + 1e-12

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_settings(self, bad):
        for k in range(4):
            settings = list(OPTIMAL)
            settings[k] = bad
            with pytest.raises(PreconditionViolation):
                chsh(*settings, BinaryDistribution.uniform())

    def test_rejects_a_difference_that_overflows(self):
        with pytest.raises(PreconditionViolation):
            chsh(1e308, 0.0, -1e308, 0.0, BinaryDistribution.uniform())
