import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contextprob import (
    BOUNDARY_GUARD,
    MINUS,
    PLUS,
    BinaryDistribution,
    InterferenceCoefficient,
    InvalidDistribution,
    InvalidMatrix,
    OutOfRangeProbability,
    PreconditionViolation,
    Regime,
    TransitionMatrix,
    classical_total_probability,
    cli,
    incompatibility_coefficient,
    interference_probability,
)
from contextprob.core import row_sum_residuals


def random_prior(rng):
    return BinaryDistribution.from_p_plus(float(rng.uniform(0.0, 1.0)))


def random_column_stochastic(rng):
    a, b = rng.uniform(0.0, 1.0, size=2)
    return TransitionMatrix(np.array([[a, b], [1.0 - a, 1.0 - b]]))


def random_double_stochastic(rng):
    a = float(rng.uniform(0.0, 1.0))
    return TransitionMatrix(np.array([[a, 1.0 - a], [1.0 - a, a]]))


class TestBinaryDistribution:
    def test_accessor_by_sign(self):
        dist = BinaryDistribution(0.3, 0.7)
        assert dist.prob(PLUS) == 0.3
        assert dist.prob(MINUS) == 0.7

    def test_from_p_plus_complements(self):
        dist = BinaryDistribution.from_p_plus(0.2)
        assert dist.p_minus == 0.8

    def test_uniform(self):
        assert BinaryDistribution.uniform().p_plus == 0.5

    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidDistribution, match="normalization"):
            BinaryDistribution(0.6, 0.6)

    def test_rejects_negative_weight(self):
        with pytest.raises(InvalidDistribution):
            BinaryDistribution(-0.1, 1.1)

    def test_rejects_p_plus_outside_unit_interval(self):
        with pytest.raises(InvalidDistribution):
            BinaryDistribution.from_p_plus(1.5)

    def test_degenerate_endpoints_allowed(self):
        assert BinaryDistribution(1.0, 0.0).prob(MINUS) == 0.0

    def test_bad_outcome_rejected(self):
        with pytest.raises(PreconditionViolation):
            BinaryDistribution.uniform().prob(0)


class TestTransitionMatrix:
    def test_entries_by_sign_convention(self):
        # rows index the result, columns the condition
        m = TransitionMatrix(np.array([[0.1, 0.4], [0.9, 0.6]]))
        assert m.prob(PLUS, PLUS) == 0.1
        assert m.prob(PLUS, MINUS) == 0.4
        assert m.prob(MINUS, PLUS) == 0.9

    def test_column_is_a_distribution(self):
        m = TransitionMatrix(np.array([[0.1, 0.4], [0.9, 0.6]]))
        col = m.column(MINUS)
        assert col == BinaryDistribution(0.4, 0.6)

    def test_rejects_bad_column_sum(self):
        with pytest.raises(InvalidMatrix, match="column stochasticity"):
            TransitionMatrix(np.array([[0.5, 0.5], [0.4, 0.5]]))

    def test_rejects_wrong_shape(self):
        with pytest.raises(InvalidMatrix):
            TransitionMatrix(np.ones((2, 3)) / 2.0)

    def test_rejects_entry_outside_unit_interval(self):
        with pytest.raises(InvalidMatrix):
            TransitionMatrix(np.array([[1.2, 0.5], [-0.2, 0.5]]))

    def test_entries_frozen(self):
        m = TransitionMatrix.uniform()
        with pytest.raises(ValueError):
            m.entries[0, 0] = 0.9


class TestClassicalTotalProbability:
    def test_uniform_everything_gives_half(self):
        value = classical_total_probability(
            BinaryDistribution.uniform(), TransitionMatrix.uniform(), PLUS
        )
        assert value == 0.5

    def test_hand_evaluated_mix(self):
        prior = BinaryDistribution(0.3, 0.7)
        m = TransitionMatrix(np.array([[0.2, 0.9], [0.8, 0.1]]))
        assert classical_total_probability(prior, m, PLUS) == pytest.approx(
            0.3 * 0.2 + 0.7 * 0.9, abs=1e-15
        )

    def test_two_results_close_to_one(self):
        # decomposing both results always exhausts the probability
        rng = np.random.default_rng(1021)
        for _ in range(300):
            prior = random_prior(rng)
            m = random_column_stochastic(rng)
            total = classical_total_probability(
                prior, m, PLUS
            ) + classical_total_probability(prior, m, MINUS)
            assert abs(total - 1.0) <= 1e-12


class TestIncompatibilityCoefficient:
    def test_classical_observation_gives_zero(self):
        prior = BinaryDistribution(0.3, 0.7)
        m = TransitionMatrix(np.array([[0.2, 0.9], [0.8, 0.1]]))
        observed = classical_total_probability(prior, m, PLUS)
        coeff = incompatibility_coefficient(observed, prior, m, PLUS)
        assert coeff.regime is Regime.TRIGONOMETRIC
        assert coeff.lam == pytest.approx(0.0, abs=1e-12)
        assert coeff.theta == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_maximal_deviation_on_uniform_inputs(self):
        # observed 1 against a classical 0.5 with all four weights 0.5:
        # denominator 2*sqrt(1/16) = 0.5, so lambda = 1 and theta = 0
        coeff = incompatibility_coefficient(
            1.0, BinaryDistribution.uniform(), TransitionMatrix.uniform(), PLUS
        )
        assert coeff.lam == 1.0
        assert coeff.theta == 0.0

    def test_opposite_extreme(self):
        coeff = incompatibility_coefficient(
            0.0, BinaryDistribution.uniform(), TransitionMatrix.uniform(), PLUS
        )
        assert coeff.lam == -1.0
        assert coeff.theta == math.pi

    def test_hyperbolic_when_deviation_outgrows_weights(self):
        prior = BinaryDistribution(0.99, 0.01)
        m = TransitionMatrix(np.array([[0.99, 0.01], [0.01, 0.99]]))
        coeff = incompatibility_coefficient(0.9, prior, m, PLUS)
        assert coeff.regime is Regime.HYPERBOLIC
        assert abs(coeff.lam) > 1.0
        assert coeff.theta is None

    def test_degenerate_prior_has_no_coefficient(self):
        coeff = incompatibility_coefficient(
            0.5, BinaryDistribution(1.0, 0.0), TransitionMatrix.uniform(), PLUS
        )
        assert coeff.regime is Regime.DEGENERATE_DENOMINATOR
        assert coeff.lam is None and coeff.theta is None

    def test_degenerate_transition_entry(self):
        m = TransitionMatrix(np.array([[1.0, 0.5], [0.0, 0.5]]))
        coeff = incompatibility_coefficient(
            0.5, BinaryDistribution.uniform(), m, MINUS
        )
        assert coeff.regime is Regime.DEGENERATE_DENOMINATOR

    def test_underflowing_weight_product_is_degenerate(self):
        # every weight is nonzero, but their product underflows to 0
        prior = BinaryDistribution(1e-200, 1.0)
        m = TransitionMatrix(np.array([[1e-200, 0.5], [1.0, 0.5]]))
        coeff = incompatibility_coefficient(0.5, prior, m, PLUS)
        assert coeff.regime is Regime.DEGENERATE_DENOMINATOR
        assert coeff.lam is None and coeff.theta is None

    def test_rejects_observed_outside_unit_interval(self):
        with pytest.raises(OutOfRangeProbability):
            incompatibility_coefficient(
                1.2, BinaryDistribution.uniform(), TransitionMatrix.uniform(), PLUS
            )
        with pytest.raises(OutOfRangeProbability):
            incompatibility_coefficient(
                -0.2, BinaryDistribution.uniform(), TransitionMatrix.uniform(), PLUS
            )

    def test_regimes_are_exclusive(self):
        # every (observed, prior, transition) lands in exactly one regime
        rng = np.random.default_rng(77)
        seen = set()
        for _ in range(500):
            prior = random_prior(rng)
            m = random_column_stochastic(rng)
            observed = float(rng.uniform(0.0, 1.0))
            coeff = incompatibility_coefficient(observed, prior, m, PLUS)
            seen.add(coeff.regime)
            if coeff.regime is Regime.TRIGONOMETRIC:
                assert abs(coeff.lam) <= 1.0
                assert 0.0 <= coeff.theta <= math.pi
                assert coeff.lam == pytest.approx(math.cos(coeff.theta), abs=1e-15)
            elif coeff.regime is Regime.HYPERBOLIC:
                assert abs(coeff.lam) > 1.0
            else:
                assert coeff.lam is None
        assert Regime.TRIGONOMETRIC in seen and Regime.HYPERBOLIC in seen

    def test_json_dict_uses_lambda_key(self, capsys):
        coeff = incompatibility_coefficient(
            1.0, BinaryDistribution.uniform(), TransitionMatrix.uniform(), PLUS
        )
        assert cli._jsonable(coeff) == {"lam": 1.0, "regime": "trigonometric", "theta": 0.0}
        argv = ["lambda", "--observed", "1.0", "--prior", "0.5",
                "--matrix", "0.5,0.5,0.5,0.5", "--format", "json"]
        assert cli.main(argv) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results == {"classical": 0.5, "lambda": 1.0, "regime": "trigonometric", "theta": 0.0}


class TestInterferenceCoefficient:
    # (lam, stored lam, regime, theta): regime and theta follow from lam alone
    CASES = [
        (None, None, Regime.DEGENERATE_DENOMINATOR, None),
        (math.nan, None, Regime.DEGENERATE_DENOMINATOR, None),
        (1.0, 1.0, Regime.TRIGONOMETRIC, 0.0),
        (-1.0, -1.0, Regime.TRIGONOMETRIC, math.pi),
        (0.5, 0.5, Regime.TRIGONOMETRIC, math.acos(0.5)),
        (1.0 + 2.0**-52, 1.0 + 2.0**-52, Regime.HYPERBOLIC, None),
        (-3.0, -3.0, Regime.HYPERBOLIC, None),
    ]

    @pytest.mark.parametrize("lam, stored, regime, theta", CASES)
    def test_regime_and_theta_are_derived_from_lambda(self, lam, stored, regime, theta):
        coeff = InterferenceCoefficient(lam)
        assert coeff.lam == stored and (coeff.lam is None) == (stored is None)
        assert coeff.regime is regime
        assert coeff.theta == theta and (coeff.theta is None) == (theta is None)

    def test_regime_and_theta_are_not_arguments(self):
        with pytest.raises(TypeError):
            InterferenceCoefficient(0.5, Regime.HYPERBOLIC, None)


class TestInterferenceProbability:
    def test_right_angle_phase_reduces_to_classical(self):
        prior = BinaryDistribution(0.3, 0.7)
        m = TransitionMatrix(np.array([[0.2, 0.9], [0.8, 0.1]]))
        value = interference_probability(prior, m, PLUS, math.pi / 2.0)
        assert value == pytest.approx(
            classical_total_probability(prior, m, PLUS), abs=1e-15
        )

    def test_constructive_extreme_on_uniform_inputs(self):
        value = interference_probability(
            BinaryDistribution.uniform(), TransitionMatrix.uniform(), PLUS, 0.0
        )
        assert value == 1.0

    def test_destructive_extreme_on_uniform_inputs(self):
        value = interference_probability(
            BinaryDistribution.uniform(), TransitionMatrix.uniform(), PLUS, math.pi
        )
        assert value == 0.0

    def test_phase_domain_enforced(self):
        with pytest.raises(PreconditionViolation):
            interference_probability(
                BinaryDistribution.uniform(), TransitionMatrix.uniform(), PLUS, -0.1
            )
        with pytest.raises(PreconditionViolation):
            interference_probability(
                BinaryDistribution.uniform(), TransitionMatrix.uniform(), PLUS, 3.5
            )

    def test_inconsistent_triple_rejected(self):
        # deterministic transition to + from both conditions: the classical
        # value is already 1 and both path weights are still 0.5, so a
        # constructive phase pushes the expression to 2
        m = TransitionMatrix(np.array([[1.0, 1.0], [0.0, 0.0]]))
        prior = BinaryDistribution.uniform()
        with pytest.raises(OutOfRangeProbability):
            interference_probability(prior, m, PLUS, 0.0)
        # the opposite result has zero path weights: the correction vanishes
        # and the classical 0 comes back untouched
        assert interference_probability(prior, m, MINUS, 0.0) == 0.0

    def test_coefficient_round_trip(self):
        # interference then coefficient recovers cos(theta), provided the
        # four path weights stay clear of zero
        rng = np.random.default_rng(424242)
        for _ in range(500):
            prior = BinaryDistribution.from_p_plus(float(rng.uniform(0.1, 0.9)))
            m = random_double_stochastic(rng)
            if min(m.entries.min(), 1.0 - m.entries.max()) < 1e-3:
                continue
            theta = float(rng.uniform(0.0, math.pi))
            value = interference_probability(prior, m, PLUS, theta)
            coeff = incompatibility_coefficient(value, prior, m, PLUS)
            assert coeff.lam == pytest.approx(math.cos(theta), abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(
        p_plus=st.floats(1e-3, 1.0 - 1e-3),
        a=st.floats(1e-3, 1.0 - 1e-3),
        b=st.floats(1e-3, 1.0 - 1e-3),
        beta=st.sampled_from([PLUS, MINUS]),
        theta=st.floats(0.0, math.pi),
    )
    @example(p_plus=0.4968579287033972, a=0.001, b=0.001, beta=PLUS, theta=0.0)
    @example(p_plus=0.3, a=0.2, b=0.9, beta=MINUS, theta=math.pi)
    def test_coefficient_round_trip_off_the_angle_family(self, p_plus, a, b, beta, theta):
        # Any prior and column-stochastic matrix, not only the doubly
        # stochastic ones the angles give. Every path weight is at least 1e-3,
        # so the coefficient's denominator never vanishes.
        prior = BinaryDistribution.from_p_plus(p_plus)
        m = TransitionMatrix(np.array([[a, b], [1.0 - a, 1.0 - b]]))
        try:
            value = interference_probability(prior, m, beta, theta)
        except OutOfRangeProbability:
            return  # no probability model has this triple
        coeff = incompatibility_coefficient(value, prior, m, beta)
        root = math.sqrt(prior.p_plus * m.prob(beta, PLUS) * prior.p_minus * m.prob(beta, MINUS))
        # The boundary snap moves the value by at most BOUNDARY_GUARD, which
        # moves lambda by at most BOUNDARY_GUARD / (2 root); rounding far less.
        tol = BOUNDARY_GUARD / root
        assert abs(coeff.lam - math.cos(theta)) <= tol
        if coeff.regime is not Regime.TRIGONOMETRIC:
            # At theta = 0 or pi rounding can leave |lambda| just above 1,
            # and the coefficient is then labelled hyperbolic.
            assert coeff.regime is Regime.HYPERBOLIC and abs(coeff.lam) - 1.0 <= tol

    def test_interference_term_identity(self):
        # value - classical is exactly the 2 cos(theta) sqrt(product) term
        rng = np.random.default_rng(9)
        for _ in range(200):
            prior = random_prior(rng)
            m = random_column_stochastic(rng)
            theta = float(rng.uniform(0.3, math.pi - 0.3))
            try:
                value = interference_probability(prior, m, PLUS, theta)
            except OutOfRangeProbability:
                continue
            classical = classical_total_probability(prior, m, PLUS)
            product = (
                prior.p_plus
                * m.prob(PLUS, PLUS)
                * prior.p_minus
                * m.prob(PLUS, MINUS)
            )
            expected = classical + 2.0 * math.cos(theta) * math.sqrt(product)
            assert value == pytest.approx(expected, abs=1e-15)


class TestRowSumResiduals:
    def test_symmetric_matrix_has_unit_rows(self):
        m = TransitionMatrix(np.array([[0.25, 0.75], [0.75, 0.25]]))
        assert row_sum_residuals(m.entries) == 0.0

    def test_column_stochastic_only_has_a_row_residual(self):
        m = TransitionMatrix(np.array([[0.2, 0.9], [0.8, 0.1]]))
        assert row_sum_residuals(m.entries) == pytest.approx(0.1, abs=1e-15)
