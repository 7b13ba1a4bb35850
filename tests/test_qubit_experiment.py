"""Tests for the finite-n qubit experiments and classical baselines."""

import math

import numpy as np
import pytest

from qclass import (
    BlochVector,
    ClassificationProblem,
    DegenerateTrainingSetError,
    LabelMode,
    TrainingSetSpec,
    bayes_risk_gaussian,
    classical_coin_example,
    classical_gaussian_example,
    error_probability,
    gaussian_error_probability,
    helstrom_risk,
    pauli_data,
    plugin_strategy_run,
    positive_part,
    rescaled_risk_curve,
    run_experiment,
    sample_labels,
    tomographic_estimate,
)
from helpers import (
    positive_eigenprojector,
    sampled_error_probability,
    tomography_constant,
    weighted_operator,
)

PLANAR = ClassificationProblem.from_bloch((0.8, 0, 0), (0, 0.6, 0), 0.5)
TRIVIAL = ClassificationProblem.from_bloch((0, 0, 0.1), (0, 0, 0.5), 0.9)


class TestSampleLabels:
    def test_certain_label(self):
        rng = np.random.default_rng(0)
        assert sample_labels(10, 1.0, rng) == (10, 0)

    def test_fixed_counts_rounding(self):
        rng = np.random.default_rng(0)
        assert sample_labels(10, 0.3, rng, LabelMode.FIXED_COUNTS) == (3, 7)
        assert sample_labels(10, 0.25, rng, LabelMode.FIXED_COUNTS) == (3, 7)

    def test_law_of_large_numbers(self):
        rng = np.random.default_rng(1)
        n = 10**6
        n0, n1 = sample_labels(n, 0.5, rng)
        assert n0 + n1 == n
        sigma = math.sqrt(0.25 / n)
        assert n0 / n == pytest.approx(0.5, abs=4 * sigma)


class TestTomographicEstimate:
    def test_x_coordinate_accuracy(self):
        rng = np.random.default_rng(2)
        m = 3 * 10**6
        est = tomographic_estimate(BlochVector(0.8, 0, 0), m, rng)
        sigma = math.sqrt((1 - 0.64) / (m / 3))
        assert est.x == pytest.approx(0.8, abs=4 * sigma)

    def test_pure_state_estimate_is_clipped_to_sphere(self):
        """A +z pure state gives a raw z-average of exactly 1, so any x/y
        noise pushes the raw estimate outside the ball and the radial clip
        returns a unit vector."""
        rng = np.random.default_rng(3)
        for _ in range(50):
            est = tomographic_estimate(BlochVector(0, 0, 1), 30, rng)
            assert est.norm <= 1 + 1e-12
            assert est.z > 0.0

    def test_minimum_copies(self):
        with pytest.raises(ValueError):
            tomographic_estimate(BlochVector(0, 0, 0), 2, np.random.default_rng(0))

    def test_remainder_to_x_then_y(self):
        from qclass.qubit_experiment import _axis_counts

        assert _axis_counts(3) == (1, 1, 1)
        assert _axis_counts(4) == (2, 1, 1)
        assert _axis_counts(5) == (2, 2, 1)

    def test_clipping_inactive_for_interior_states(self):
        """At mixed states the raw estimate stays interior for large m."""
        rng = np.random.default_rng(5)
        for _ in range(500):
            est = tomographic_estimate(BlochVector(0.8, 0, 0), 3000, rng)
            assert est.norm < 1 - 1e-12

    def test_determinism(self):
        a = tomographic_estimate(BlochVector(0.5, 0.2, -0.3), 999, np.random.default_rng(7))
        b = tomographic_estimate(BlochVector(0.5, 0.2, -0.3), 999, np.random.default_rng(7))
        assert a == b


class TestPluginStrategyRun:
    def test_trivial_configuration_zero_excess(self):
        """The estimated operator stays definite: excess exactly 0.0."""
        rng = np.random.default_rng(11)
        spec = TrainingSetSpec(n=2000, problem=TRIVIAL)
        for _ in range(100):
            assert plugin_strategy_run(spec, rng) == 0.0

    def test_degenerate_training_set(self):
        spec = TrainingSetSpec(
            n=10,
            problem=ClassificationProblem.from_bloch((0.5, 0, 0), (0, 0.5, 0), 0.01),
            label_mode=LabelMode.FIXED_COUNTS,
        )
        with pytest.raises(DegenerateTrainingSetError):
            plugin_strategy_run(spec, np.random.default_rng(0))

    def test_excess_nonnegative(self):
        rng = np.random.default_rng(13)
        spec = TrainingSetSpec(n=300, problem=PLANAR)
        for _ in range(200):
            assert plugin_strategy_run(spec, rng) >= -1e-15

    def test_projector_matches_operator_route(self):
        """The plug-in rule on estimates agrees with the matrix-route oracle."""
        rng = np.random.default_rng(17)
        cases = [
            (rng.uniform(0.05, 0.95),
             BlochVector.from_array(rng.uniform(-0.5, 0.5, 3)),
             BlochVector.from_array(rng.uniform(-0.5, 0.5, 3)))
            for _ in range(200)
        ]
        small_r, small_s = BlochVector(0.1, 0, 0), BlochVector(0, 0.1, 0)
        same = BlochVector(0.3, -0.2, 0.1)
        cases += [
            (0.95, small_r, small_s),  # rank 2: guess rho
            (0.05, small_r, small_s),  # rank 0: guess sigma
            (0.5, same, same),  # the operator vanishes: rank 0
        ]
        for pi_hat, r_hat, s_hat in cases:
            direct = positive_part(*pauli_data(r_hat, s_hat, pi_hat))
            op = weighted_operator(ClassificationProblem.from_bloch(r_hat, s_hat, pi_hat))
            via_op = positive_eigenprojector(op)
            assert direct.rank == via_op.rank
            if direct.rank == 1:
                np.testing.assert_allclose(
                    direct.bloch.as_array(), via_op.bloch.as_array(), atol=1e-9
                )
        assert [positive_part(*pauli_data(r, s, pi)).rank
                for pi, r, s in cases[-3:]] == [2, 0, 0]

    def test_exact_evaluation_vs_sampled_test_copies(self):
        """The trace-formula excess agrees with a 1e6-copy empirical estimate."""
        rng = np.random.default_rng(19)
        spec = TrainingSetSpec(
            n=1000, problem=PLANAR, label_mode=LabelMode.FIXED_COUNTS, known_priors=True
        )
        n0, n1 = sample_labels(spec.n, spec.pi0, rng, spec.label_mode)
        r_hat = tomographic_estimate(PLANAR.rho.bloch, n0, rng)
        s_hat = tomographic_estimate(PLANAR.sigma.bloch, n1, rng)
        p_hat = positive_part(*pauli_data(r_hat, s_hat, spec.pi0))
        exact = error_probability(p_hat, PLANAR)
        copies = 10**6
        sampled = sampled_error_probability(p_hat, PLANAR, copies, rng)
        sigma = math.sqrt(exact * (1 - exact) / copies)
        assert sampled == pytest.approx(exact, abs=4 * sigma)
        # and the excess definition is consistent with the Helstrom floor
        assert exact - helstrom_risk(PLANAR) >= -1e-12


class TestRunExperiment:
    def test_matches_delta_method_oracle(self):
        spec = TrainingSetSpec(
            n=10**4, problem=PLANAR, label_mode=LabelMode.FIXED_COUNTS, known_priors=True
        )
        res = run_experiment(spec, 4000, 29)
        oracle = tomography_constant((0.8, 0, 0), (0, 0.6, 0), 0.5)
        assert res.mean_rescaled_excess == pytest.approx(oracle, rel=0.05)

    def test_estimated_priors_add_prior_correction(self):
        spec = TrainingSetSpec(n=10**4, problem=PLANAR)  # random labels, pi estimated
        res = run_experiment(spec, 4000, 31)
        oracle = tomography_constant((0.8, 0, 0), (0, 0.6, 0), 0.5, with_prior_term=True)
        assert res.mean_rescaled_excess == pytest.approx(oracle, rel=0.05)

    def test_antipodal_pure_constant(self):
        """Pure antipodal states: the x/y Pauli noise leaves a finite
        rescaled excess (delta-method constant 1.5); exact recovery of the
        oracle projector is a null event."""
        prob = ClassificationProblem.from_bloch((0, 0, 1.0), (0, 0, -1.0), 0.5)
        spec = TrainingSetSpec(
            n=10**4, problem=prob, label_mode=LabelMode.FIXED_COUNTS, known_priors=True
        )
        res = run_experiment(spec, 4000, 37)
        assert tomography_constant((0, 0, 1.0), (0, 0, -1.0), 0.5) == pytest.approx(1.5)
        assert res.mean_rescaled_excess == pytest.approx(1.5, rel=0.06)
        assert res.fraction_exact < 0.01

    def test_one_over_n_rate(self):
        """Mean excess at 4n is within [0.15, 0.35] of the mean excess at n."""
        means = {}
        for n in (2500, 10000):
            spec = TrainingSetSpec(
                n=n, problem=PLANAR, label_mode=LabelMode.FIXED_COUNTS, known_priors=True
            )
            res = run_experiment(spec, 2000, 23)
            means[n] = res.mean_rescaled_excess / n
        ratio = means[10000] / means[2500]
        assert 0.15 <= ratio <= 0.35

    def test_determinism_and_workers(self):
        spec = TrainingSetSpec(n=500, problem=PLANAR)
        a = run_experiment(spec, 300, 41)
        b = run_experiment(spec, 300, 41)
        c = run_experiment(spec, 300, 41, workers=3)
        assert a == b == c


class TestRescaledRiskCurve:
    def test_trivial_config_decays(self):
        # n large enough that the rare class keeps >= 3 copies in every trial
        curve = rescaled_risk_curve(TRIVIAL, [200, 500, 2000], 400, 47)
        assert curve[-1].mean_rescaled_excess <= curve[0].mean_rescaled_excess
        assert curve[-1].fraction_exact == 1.0

    def test_nontrivial_curve_flat_at_large_n(self):
        curve = rescaled_risk_curve(
            PLANAR, [5000, 20000], 1500, 53,
            label_mode=LabelMode.FIXED_COUNTS, known_priors=True,
        )
        a, b = curve[0], curve[1]
        band = 3 * math.hypot(a.stderr, b.stderr)
        assert abs(a.mean_rescaled_excess - b.mean_rescaled_excess) <= band

    def test_same_seed_identical(self):
        a = rescaled_risk_curve(PLANAR, [200, 400], 200, 59)
        b = rescaled_risk_curve(PLANAR, [200, 400], 200, 59)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            rescaled_risk_curve(PLANAR, [], 10, 0)
        with pytest.raises(ValueError):
            rescaled_risk_curve(PLANAR, [100, 100], 10, 0)


class TestClassicalGaussianExample:
    def test_bayes_risk_value(self):
        """Standard normal tail at half the separation: Phi(-1) for (0, 2)."""
        assert bayes_risk_gaussian(0.0, 2.0) == pytest.approx(0.1586552539, abs=1e-9)

    def test_midpoint_threshold_is_optimal(self):
        t_star = 1.5
        assert gaussian_error_probability(t_star, 0.0, 3.0) == bayes_risk_gaussian(0.0, 3.0)
        for t in (1.2, 1.8):
            assert gaussian_error_probability(t, 0.0, 3.0) > bayes_risk_gaussian(0.0, 3.0)

    def test_rescaled_excess_constant_in_n(self):
        means = [
            classical_gaussian_example(0.0, 3.0, n, 3000, 61).mean_rescaled_excess
            for n in (10**3, 10**4, 10**5)
        ]
        assert max(means) / min(means) < 2.0

    def test_precondition(self):
        with pytest.raises(ValueError):
            classical_gaussian_example(2.0, 1.0, 100, 10, 0)

    def test_determinism(self):
        a = classical_gaussian_example(0.0, 2.0, 1000, 500, 67)
        b = classical_gaussian_example(0.0, 2.0, 1000, 500, 67)
        assert a == b


class TestClassicalCoinExample:
    def test_exponentially_rare_mistakes(self):
        res = classical_coin_example(0.2, 0.8, 0.5, 500, 2000, 71)
        assert 1.0 - res.fraction_exact < 1e-3

    def test_fraction_decreasing_in_n(self):
        fractions = [
            1.0 - classical_coin_example(0.2, 0.8, 0.5, n, 2000, 17).fraction_exact
            for n in (50, 100, 200)
        ]
        assert fractions[0] >= fractions[1] >= fractions[2]

    def test_preconditions(self):
        with pytest.raises(ValueError):
            classical_coin_example(0.5, 0.8, 0.5, 100, 10, 0)
        with pytest.raises(ValueError):
            classical_coin_example(0.2, 0.5, 0.5, 100, 10, 0)
        with pytest.raises(ValueError):
            classical_coin_example(0.2, 0.8, 0.0, 100, 10, 0)
