"""Tests for the finite-n qubit experiments and classical baselines."""

import math

import numpy as np
import pytest

from qclass import (
    BlochVector,
    ClassificationProblem,
    LabelMode,
    TrainingSetSpec,
    error_probability,
    excess_risk,
    helstrom_risk,
    pauli_data,
    positive_part,
    rescaled_risk_curve,
    run_experiment,
    tomography_constant,
)
from qclass import montecarlo
from qclass.qubit_experiment import _Columns, _plugin_excess, _tomography
from helpers import (
    axis_counts,
    bayes_risk_gaussian,
    classical_coin_example,
    classical_gaussian_example,
    gaussian_error_probability,
    plugin_strategy_run,
    positive_eigenprojector,
    sample_labels,
    sampled_error_probability,
    tomographic_estimate,
    weighted_operator,
)

PLANAR = ClassificationProblem.from_bloch((0.8, 0, 0), (0, 0.6, 0), 0.5)
TRIVIAL = ClassificationProblem.from_bloch((0, 0, 0.1), (0, 0, 0.5), 0.9)
SKEWED = ClassificationProblem.from_bloch((0.5, 0.2, -0.3), (-0.1, 0.6, 0.2), 0.4)


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
        # the count-based estimates are unbiased too: 10^4 trials of 3000 copies
        batch = _tomography(BlochVector(0.8, 0, 0), 3000, 10_000, rng)
        sigma = math.sqrt((1 - 0.64) / 1000 / 10_000)
        assert batch[0].mean() == pytest.approx(0.8, abs=4 * sigma)

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
        """Below three copies the axes without a copy estimate 0."""
        rng = np.random.default_rng(0)
        up = BlochVector(0, 0, 1)
        assert tomographic_estimate(up, 0, rng) == BlochVector(0, 0, 0)
        assert tomographic_estimate(up, 2, rng).z == 0.0
        est = _tomography(up, np.array([0, 1, 2, 3]), 4, rng)
        np.testing.assert_array_equal(est[:, 0], 0.0)
        np.testing.assert_array_equal(est[1:, 1], 0.0)
        assert est[2, 2] == 0.0
        assert est[2, 3] > 0.0  # the one z copy of |0> gives +1

    def test_remainder_to_x_then_y(self):
        assert axis_counts(3) == (1, 1, 1)
        assert axis_counts(4) == (2, 1, 1)
        assert axis_counts(5) == (2, 2, 1)
        # the vectorised split is the same: measured along its own axis j, a
        # pure state gives +1 every time, so estimate j is positive exactly
        # when axis j got a copy
        m = np.arange(12)
        rng = np.random.default_rng(1)
        for j in range(3):
            est = _tomography(BlochVector.from_array(np.eye(3)[j]), m, m.size, rng)
            np.testing.assert_array_equal(est[j] > 0.0, [axis_counts(k)[j] > 0 for k in m])

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


class _SpyGenerator:
    """A Generator that records the copy count and size of each binomial draw."""

    def __init__(self, rng, calls):
        self._rng, self._calls = rng, calls

    def binomial(self, n, p, size=None):
        self._calls.append((n, size))
        return self._rng.binomial(n, p, size)


class TestCountSampler:
    def test_scalar_count_draws_equal_constant_array_draws(self):
        """numpy draws the same variates for an int count as for a constant
        array of it, and leaves the generator in the same state; the
        fixed-label stream rests on this."""
        scalar = np.random.Generator(np.random.PCG64(2024))
        array = np.random.Generator(np.random.PCG64(2024))
        for m in (0, 1, 5, 17, 1666, 16666, 33333):
            for p in (0.0, 0.2, 0.5, 0.8, 0.9, 1.0):
                got = scalar.binomial(m, p, 257)
                want = array.binomial(np.full(257, m), p)
                np.testing.assert_array_equal(got, want)
                assert scalar.bit_generator.state == array.bit_generator.state
        assert scalar.random() == array.random()

    def _spy_run(self, monkeypatch, mode, trials=1200, chunk=500):
        calls = []
        monkeypatch.setattr(montecarlo, "CHUNK_SIZE", chunk)
        chunk_rng = montecarlo.chunk_rng
        monkeypatch.setattr(montecarlo, "chunk_rng",
                            lambda seed, c: _SpyGenerator(chunk_rng(seed, c), calls))
        spec = TrainingSetSpec(n=1000, problem=SKEWED, label_mode=mode)
        spied = run_experiment(spec, trials, 3)
        monkeypatch.setattr(montecarlo, "chunk_rng", chunk_rng)
        assert spied == run_experiment(spec, trials, 3)
        sizes = [chunk] * (trials // chunk) + [trials % chunk]
        return calls, sizes

    def test_fixed_labels_draw_against_an_int_count(self, monkeypatch):
        calls, sizes = self._spy_run(monkeypatch, LabelMode.FIXED_COUNTS)
        assert [size for _, size in calls] == [s for s in sizes for _ in range(6)]
        n0 = math.floor(0.4 * 1000 + 0.5)
        counts = [(n0 + 2) // 3, (n0 + 1) // 3, n0 // 3,
                  (1000 - n0 + 2) // 3, (1000 - n0 + 1) // 3, (1000 - n0) // 3]
        assert [m for m, _ in calls] == counts * len(sizes)
        assert all(type(m) is int for m, _ in calls)

    def test_random_labels_draw_against_sorted_counts(self, monkeypatch):
        calls, sizes = self._spy_run(monkeypatch, LabelMode.RANDOM_LABELS)
        assert len(calls) == 7 * len(sizes)
        for c, size in enumerate(sizes):
            labels, rho, sigma = calls[7 * c], calls[7 * c + 1:7 * c + 4], calls[7 * c + 4:7 * c + 7]
            assert labels == (1000, size)
            for m, s in rho + sigma:
                assert isinstance(m, np.ndarray) and m.shape == (size,) and s == size
            for m, _ in rho:
                assert np.all(np.diff(m) >= 0)
            for m, _ in sigma:
                assert np.all(np.diff(m) <= 0)
            assert rho[0][0][0] < rho[0][0][-1]  # the class sizes do vary


class TestPluginStrategyRun:
    def test_trivial_configuration_zero_excess(self):
        """The estimated operator stays definite: excess exactly 0.0."""
        rng = np.random.default_rng(11)
        spec = TrainingSetSpec(n=2000, problem=TRIVIAL)
        for _ in range(100):
            assert plugin_strategy_run(spec, rng) == 0.0

    def test_degenerate_training_set(self):
        """A class with no copies estimates the maximally mixed state and an
        estimated prior of 0, so the plug-in guesses sigma (rank 0) and the
        excess is Tr[A P*] exactly, whatever the draws."""
        for r0, s0, expected_positive in (((0.5, 0, 0), (0, 0.5, 0), False),
                                          ((1, 0, 0), (0, -1, 0), True)):
            problem = ClassificationProblem.from_bloch(r0, s0, 0.04)
            spec = TrainingSetSpec(n=10, problem=problem, label_mode=LabelMode.FIXED_COUNTS)
            alpha, _, _, _, dn = pauli_data(problem.r, problem.s, 0.04)
            expected = max(alpha + 0.5 * dn, 0.0)  # n0 = round(0.4) = 0
            assert (expected > 0.0) == expected_positive
            rng = np.random.default_rng(0)
            assert [plugin_strategy_run(spec, rng) for _ in range(20)] == [expected] * 20
            res = run_experiment(spec, 500, 3)
            assert res.mean_rescaled_excess == pytest.approx(10 * expected, rel=1e-12)
            assert res.fraction_exact == (0.0 if expected_positive else 1.0)

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
        r_hat = tomographic_estimate(PLANAR.r, n0, rng)
        s_hat = tomographic_estimate(PLANAR.s, n1, rng)
        p_hat = positive_part(*pauli_data(r_hat, s_hat, spec.pi0))
        exact = error_probability(p_hat, PLANAR)
        copies = 10**6
        sampled = sampled_error_probability(p_hat, PLANAR, copies, rng)
        sigma = math.sqrt(exact * (1 - exact) / copies)
        assert sampled == pytest.approx(exact, abs=4 * sigma)
        # and the excess definition is consistent with the Helstrom floor
        assert exact - helstrom_risk(PLANAR) >= -1e-12


class TestVectorisedChunk:
    """The chunk's array kernel against the per-trial, per-outcome oracle."""

    @staticmethod
    def _estimate_batch(rng):
        cases = [
            (rng.uniform(0.0, 1.0),
             rng.uniform(-0.55, 0.55, 3),
             rng.uniform(-0.55, 0.55, 3))
            for _ in range(300)
        ]
        small_r, small_s = np.array([0.1, 0, 0]), np.array([0, 0.1, 0])
        same = np.array([0.3, -0.2, 0.1])
        cases += [
            (0.95, small_r, small_s),  # rank 2: guess rho
            (0.05, small_r, small_s),  # rank 0: guess sigma
            (0.5, same, same),  # the operator vanishes: rank 0
            (0.0, np.zeros(3), small_s),  # no rho copies, prior estimated 0
            (1.0, small_r, np.zeros(3)),  # no sigma copies, prior estimated 1
        ]
        pi_hat = np.array([c[0] for c in cases])
        r_hat = np.array([c[1] for c in cases])
        s_hat = np.array([c[2] for c in cases])
        return pi_hat, r_hat, s_hat

    @pytest.mark.parametrize("problem", [PLANAR, TRIVIAL, SKEWED],
                             ids=["planar", "trivial", "skewed"])
    def test_bit_exact_kernel(self, problem):
        """Array excess == scalar excess_risk(positive_part(pauli_data(...)))."""
        pi_hat, r_hat, s_hat = self._estimate_batch(np.random.default_rng(5))
        truth = pauli_data(problem.r, problem.s, problem.pi0)
        r_cols, s_cols = _Columns(*r_hat.T.copy()), _Columns(*s_hat.T.copy())
        # a known prior is the scalar-broadcast case of the same kernel
        for pi in (0.3, pi_hat):
            projectors = [
                positive_part(*pauli_data(BlochVector.from_array(r),
                                          BlochVector.from_array(s), p))
                for p, r, s in zip(np.broadcast_to(pi, pi_hat.shape), r_hat, s_hat)
            ]
            batch = _plugin_excess(truth, r_cols, s_cols, pi)
            assert batch.tolist() == [excess_risk(p, problem) for p in projectors]
        assert {p.rank for p in projectors} == {0, 1, 2}  # of the pi_hat batch

    @pytest.mark.parametrize("n", [30, 300])
    @pytest.mark.parametrize("mode", list(LabelMode), ids=lambda m: m.value)
    def test_same_distribution_as_per_outcome_oracle(self, n, mode):
        """Mean rescaled excess agrees within 4 combined standard errors."""
        spec = TrainingSetSpec(n=n, problem=SKEWED, label_mode=mode)
        fast = run_experiment(spec, 20_000, (101, n))
        rng = np.random.default_rng((102, n))
        oracle = n * np.array([plugin_strategy_run(spec, rng) for _ in range(3000)])
        se = math.hypot(fast.stderr, oracle.std(ddof=1) / math.sqrt(oracle.size))
        assert abs(fast.mean_rescaled_excess - oracle.mean()) <= 4 * se

    def test_trivial_regime_every_trial_exactly_zero(self):
        for mode in LabelMode:
            spec = TrainingSetSpec(n=2000, problem=TRIVIAL, label_mode=mode)
            res = run_experiment(spec, 20_000, 7)
            assert res.fraction_exact == 1.0
            assert res.mean_rescaled_excess == 0.0


class TestTrainingSetSpec:
    def test_n_limit(self):
        """n up to 10**12 runs; above it the spec is refused by name."""
        spec = TrainingSetSpec(n=10**12, problem=PLANAR, known_priors=True)
        res = run_experiment(spec, 100, 5)
        assert math.isfinite(res.mean_rescaled_excess)
        for n in (10**12 + 1, 2**62, 10**30):
            with pytest.raises(ValueError, match=r"at most 10\*\*12"):
                TrainingSetSpec(n=n, problem=PLANAR)


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

    def test_matches_scipy_normal_cdf(self):
        """Oracle: the scipy ndtr formula, on a grid reaching both tails."""
        ndtr = pytest.importorskip("scipy.special").ndtr
        t = np.linspace(-12.0, 12.0, 48_001)
        for a, b in ((0.0, 3.0), (0.0, 2.0), (-1.5, 4.0), (2.0, 2.25)):
            want = 0.5 * (1.0 - ndtr(t - a)) + 0.5 * ndtr(t - b)
            got = gaussian_error_probability(t, a, b)
            assert np.max(np.abs(got - want)) <= 1e-15

    def test_scalar_and_array_types(self):
        scalar = gaussian_error_probability(0.7, 0.0, 2.0)
        assert np.ndim(scalar) == 0
        assert isinstance(float(scalar), float)
        arr = gaussian_error_probability(np.array([0.7, 1.0, 1.3]), 0.0, 2.0)
        assert isinstance(arr, np.ndarray) and arr.dtype == np.float64 and arr.shape == (3,)
        assert arr[0] == scalar

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
