"""Tests for the Gaussian limit model: outcome laws, estimators, the exact
residual law behind the chunk draws, MC risks."""

import math

import numpy as np
import pytest

from qclass import (
    NumericalError,
    StrategyKind,
    build_frame,
    build_gaussian_model,
    monte_carlo_risk,
    optimal_estimate,
    optimal_minimax_risk,
    plugin_estimate,
    plugin_risk,
    prior_correction,
    quantum_risk_term,
    relative_perp,
)
from qclass.gaussian_model import (
    _heterodyne_params,
    _joint_params,
    _prior_direction,
    _residual_law,
    _residual_rows,
)
from qclass import gaussian_model
from qclass.montecarlo import chunk_rng

from helpers import draw_outcomes, random_nontrivial_config

PLANAR = ((0.8, 0.0, 0.0), (0.0, 0.6, 0.0), 0.5)
ANTIPODAL = ((0.0, 0.0, 1.0), (0.0, 0.0, -1.0), 0.5)
SKEWED = ((0.5, 0.2, -0.3), (-0.1, 0.6, 0.2), 0.4)
PURE = ((0.0, 0.0, 1.0), (0.6, 0.0, 0.0), 0.5)
U, V = (0.2, -0.1, 0.4), (0.3, 0.2, -0.2)

CLOSED_FORM = {
    StrategyKind.HETERODYNE_PLUGIN: plugin_risk,
    StrategyKind.OPTIMAL_JOINT: optimal_minimax_risk,
    StrategyKind.OPTIMAL_JOINT_UNKNOWN_PRIORS:
        lambda f, pi0: optimal_minimax_risk(f, pi0) + prior_correction(f, pi0),
}


def planar_frame():
    return build_frame(*PLANAR)


def oracle_residuals(strategy, frame, pi0, u, v, delta, rng, size):
    """z_hat - target from every measurement channel drawn separately.

    Channels in the library's draw order, then the prior count of
    unknown priors; the estimates go through the library's estimators.
    """
    model = build_gaussian_model(frame, u, v, pi0)
    target_l, target_k = relative_perp(u, v, frame, pi0)
    if strategy is StrategyKind.HETERODYNE_PLUGIN:
        outcomes = draw_outcomes(rng, _heterodyne_params(model), size)
        z_l, z_k = plugin_estimate(*outcomes, frame, pi0)
    else:
        outcomes = draw_outcomes(rng, _joint_params(model, frame, pi0), size)
        z_l, z_k = optimal_estimate(*outcomes, frame, pi0)
    if strategy is StrategyKind.OPTIMAL_JOINT_UNKNOWN_PRIORS:
        w_l, w_k = _prior_direction(frame)
        count = rng.normal(delta, math.sqrt(pi0 * (1.0 - pi0)), size)
        z_l = z_l + count * w_l
        z_k = z_k + count * w_k
        target_l, target_k = target_l + delta * w_l, target_k + delta * w_k
    return z_l - target_l, z_k - target_k


class TestBuildGaussianModel:
    def test_zero_parameters_zero_means(self):
        model = build_gaussian_model(planar_frame(), (0, 0, 0), (0, 0, 0), 0.5)
        assert model.mean_xr == 0 and model.mean_xs == 0
        assert model.mean_q1 == 0 and model.mean_p1 == 0
        assert model.mean_q2 == 0 and model.mean_p2 == 0

    def test_planar_values(self):
        model = build_gaussian_model(planar_frame(), (1, 0, 0), (0, 0, 0), 0.5)
        assert model.mean_q1 == pytest.approx(math.sqrt(0.5 / 1.6))
        assert model.var_mode1 == pytest.approx(1 / 1.6)
        assert model.var_mode2 == pytest.approx(1 / 1.2)
        assert model.var_xr == pytest.approx(0.36)
        assert model.var_xs == pytest.approx(0.64)

    def test_pure_state_limit(self):
        f = build_frame((0, 0, 1.0), (0.6, 0, 0), 0.5)
        model = build_gaussian_model(f, (0, 0, 0.3), (0, 0, 0), 0.5)
        assert model.var_xr == 0.0
        assert model.var_mode1 == pytest.approx(0.5)
        # deterministic classical component sampled as its mean
        x_r = draw_outcomes(np.random.default_rng(0), _heterodyne_params(model), 100)[0]
        assert np.all(x_r == model.mean_xr)


class TestSampleHeterodyne:
    def test_moments(self):
        """Empirical means and variances of all six channels at 5e4 draws."""
        f = planar_frame()
        model = build_gaussian_model(f, (0.7, -0.4, 0.2), (0.3, 0.5, -0.6), 0.5)
        rng = np.random.default_rng(211)
        n = 50_000
        recs = np.column_stack(draw_outcomes(rng, _heterodyne_params(model), n))
        means = (model.mean_xr, model.mean_xs, model.mean_q1,
                 model.mean_p1, model.mean_q2, model.mean_p2)
        het1 = model.var_mode1 + 0.5
        het2 = model.var_mode2 + 0.5
        variances = (model.var_xr, model.var_xs, het1, het1, het2, het2)
        for j in range(6):
            sd = math.sqrt(variances[j])
            assert recs[:, j].mean() == pytest.approx(means[j], abs=4 * sd / math.sqrt(n))
            assert recs[:, j].var() == pytest.approx(variances[j], rel=0.02)

    def test_planar_q1_variance_value(self):
        # 1/(2*0.8) + 1/2 = 1.125
        model = build_gaussian_model(planar_frame(), (0, 0, 0), (0, 0, 0), 0.5)
        assert model.var_mode1 + 0.5 == pytest.approx(1.125)


class TestSampleOptimalJoint:
    def test_total_mse_commuting_case(self):
        """c = 0 means no added noise: summed MSE equals Var(Ql) + Var(Qk) = 2."""
        f = build_frame(*ANTIPODAL)
        model = build_gaussian_model(f, (0, 0, 0), (0, 0, 0), 0.5)
        _, sds = _joint_params(model, f, 0.5)
        assert sds[2] ** 2 + sds[3] ** 2 == pytest.approx(2.0, abs=1e-12)

    def test_total_mse_planar_matches_quantum_term(self):
        f = planar_frame()
        model = build_gaussian_model(f, (0, 0, 0), (0, 0, 0), 0.5)
        _, sds = _joint_params(model, f, 0.5)
        assert sds[2] ** 2 + sds[3] ** 2 == pytest.approx(
            quantum_risk_term(f, 0.5), abs=1e-12
        )

    def test_empirical_mse(self):
        f = planar_frame()
        model = build_gaussian_model(f, (0, 0, 0), (0, 0, 0), 0.5)
        rng = np.random.default_rng(223)
        n = 50_000
        _, _, y_l, y_k = draw_outcomes(rng, _joint_params(model, f, 0.5), n)
        total = (y_l**2 + y_k**2).mean()
        assert total == pytest.approx(1.78, rel=0.02)

    def test_heisenberg_penalty(self):
        """Summed outcome variance exceeds Var(Ql) + Var(Qk) by exactly |c|."""
        rng = np.random.default_rng(227)
        for _ in range(50):
            r, s, pi0 = random_nontrivial_config(rng)
            f = build_frame(r, s, pi0)
            model = build_gaussian_model(f, (0, 0, 0), (0, 0, 0), pi0)
            _, sds = _joint_params(model, f, pi0)
            var_sum = pi0 * f.sin_phi0**2 + (1 - pi0) * f.sin_phi1**2 + 1.0
            c = 2 * (pi0 * f.r0_norm * f.sin_phi0 - (1 - pi0) * f.s0_norm * f.sin_phi1)
            total = sds[2] ** 2 + sds[3] ** 2
            assert total == pytest.approx(var_sum + abs(c), abs=1e-12)
            assert total >= var_sum - 1e-12


class TestOptimalEstimate:
    def test_zero_record(self):
        zeros = np.zeros(4)
        z_l, z_k = optimal_estimate(zeros, zeros, zeros, zeros, planar_frame(), 0.5)
        assert np.all(z_l == 0.0) and np.all(z_k == 0.0)

    def test_noiseless_record_at_means(self):
        """Record frozen at the means recovers the classical piece exactly."""
        f = planar_frame()
        u, v = (0, 0, 1.0), (0, 0, 0)
        model = build_gaussian_model(f, u, v, 0.5)
        z_l, _ = optimal_estimate(model.mean_xr, model.mean_xs, 0.0, 0.0, f, 0.5)
        # sqrt(pi0) cos(phi0) * sqrt(pi0) u3 = pi0 cos(phi0) u3 = 0.3
        assert z_l == pytest.approx(0.3, abs=1e-12)

    def test_unbiasedness(self):
        f = planar_frame()
        u, v = (0.5, -0.7, 0.9), (-0.3, 0.4, 0.6)
        model = build_gaussian_model(f, u, v, 0.5)
        z_true = relative_perp(u, v, f, 0.5)
        rng = np.random.default_rng(229)
        n = 100_000
        draws = draw_outcomes(rng, _joint_params(model, f, 0.5), n)
        ests = optimal_estimate(*draws, f, 0.5)
        for est, truth in zip(ests, z_true):
            assert est.mean() == pytest.approx(truth, abs=4 * est.std() / math.sqrt(n))


class TestPluginEstimate:
    def test_zero_record(self):
        zeros = [np.zeros(4)] * 6
        z_l, z_k = plugin_estimate(*zeros, planar_frame(), 0.5)
        assert np.all(z_l == 0.0) and np.all(z_k == 0.0)

    def test_noiseless_inversion_identity(self):
        """A record frozen at the model means reproduces z_perp exactly."""
        f = planar_frame()
        u, v = (0.4, -0.8, 1.2), (0.9, 0.2, -0.5)
        model = build_gaussian_model(f, u, v, 0.5)
        means, _ = _heterodyne_params(model)
        z_l, z_k = plugin_estimate(*means, f, 0.5)
        true_l, true_k = relative_perp(u, v, f, 0.5)
        assert z_l == pytest.approx(true_l, abs=1e-12)
        assert z_k == pytest.approx(true_k, abs=1e-12)

    def test_zk_variance(self):
        """Var(z_k~) = pi0 (1 + r0) + pi1 (1 + s0)."""
        f = planar_frame()
        model = build_gaussian_model(f, (0, 0, 0), (0, 0, 0), 0.5)
        rng = np.random.default_rng(233)
        n = 100_000
        _, zks = plugin_estimate(*draw_outcomes(rng, _heterodyne_params(model), n), f, 0.5)
        expected = 0.5 * 1.8 + 0.5 * 1.6
        assert zks.var() == pytest.approx(expected, rel=0.02)


class TestResidualLaw:
    """The two-normal law that gaussian-sim draws from."""

    @staticmethod
    def exact_risk(strategy, frame, pi0, u, v, delta):
        b_l, sigma_l, b_k, sigma_k = _residual_law(strategy, frame, pi0, u, v, delta)
        return (b_l**2 + b_k**2 + sigma_l**2 + sigma_k**2) / (4.0 * frame.d0_norm)

    def test_expectation_is_closed_form(self):
        """E loss = (b_l^2 + b_k^2 + sigma_l^2 + sigma_k^2)/(4|d0|) is each
        strategy's constant, at generic, pure-state and delta != 0 configs."""
        rng = np.random.default_rng(251)
        configs = [PLANAR, ANTIPODAL, SKEWED, PURE]
        configs += [random_nontrivial_config(rng) for _ in range(60)]
        configs += [random_nontrivial_config(rng, norm_lo=1.0, norm_hi=1.0)
                    for _ in range(20)]
        for r, s, pi0 in configs:
            f = build_frame(r, s, pi0)
            u, v = rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3)
            delta = rng.uniform(-2, 2)
            for strategy, closed_form in CLOSED_FORM.items():
                assert self.exact_risk(strategy, f, pi0, u, v, delta) == pytest.approx(
                    closed_form(f, pi0), rel=1e-12, abs=0)

    def test_oracle_residual_is_linear_in_channel_normals(self):
        """The per-channel oracle's residual equals C z + b, with z the
        channel normals that drew it."""
        for config in (SKEWED, PURE):
            f = build_frame(*config)
            pi0 = config[2]
            for strategy in StrategyKind:
                c_l, b_l, c_k, b_k = _residual_rows(strategy, f, pi0, U, V, 0.3)
                res_l, res_k = oracle_residuals(
                    strategy, f, pi0, U, V, 0.3, np.random.default_rng(71), 500)
                z = np.random.default_rng(71).normal(size=(c_l.size, 500))
                for res, c, b in ((res_l, c_l, b_l), (res_k, c_k, b_k)):
                    expected = b + sum(c_j * z_j for c_j, z_j in zip(c, z))
                    np.testing.assert_allclose(res, expected, rtol=0, atol=1e-12)

    def test_collapsed_mc_matches_oracle_mc(self):
        f = build_frame(*SKEWED)
        pi0 = SKEWED[2]
        n = 200_000
        for i, strategy in enumerate(StrategyKind):
            res = monte_carlo_risk(strategy, f, pi0, U, V, trials=n, seed=81 + i, delta=0.3)
            res_l, res_k = oracle_residuals(
                strategy, f, pi0, U, V, 0.3, np.random.default_rng(91 + i), n)
            loss = (res_l**2 + res_k**2) / (4.0 * f.d0_norm)
            gap = abs(res.mean_rescaled_excess - loss.mean())
            assert gap <= 4 * math.hypot(res.stderr, loss.std(ddof=1) / math.sqrt(n))

    def test_correlated_residuals_raise(self, monkeypatch):
        """A prior direction with a k0 part would couple the two components."""
        monkeypatch.setattr(gaussian_model, "_prior_direction", lambda frame: (0.5, 0.5))
        with pytest.raises(NumericalError, match="correlated"):
            monte_carlo_risk(StrategyKind.OPTIMAL_JOINT_UNKNOWN_PRIORS, planar_frame(),
                             0.5, U, V, trials=10, seed=1)


class TestMonteCarloRisk:
    def test_seed_determinism_and_worker_independence(self):
        f = planar_frame()
        kw = dict(trials=150_000, seed=5)
        a = monte_carlo_risk(StrategyKind.OPTIMAL_JOINT, f, 0.5, (0, 0, 0), (0, 0, 0), **kw)
        b = monte_carlo_risk(StrategyKind.OPTIMAL_JOINT, f, 0.5, (0, 0, 0), (0, 0, 0), **kw)
        c = monte_carlo_risk(
            StrategyKind.OPTIMAL_JOINT, f, 0.5, (0, 0, 0), (0, 0, 0), workers=4, **kw
        )
        assert a == b == c

    def test_matches_closed_forms_at_anchors(self):
        for (r, s, pi0), seed in ((PLANAR, 31), (ANTIPODAL, 37)):
            f = build_frame(r, s, pi0)
            targets = {
                StrategyKind.OPTIMAL_JOINT: optimal_minimax_risk(f, pi0),
                StrategyKind.HETERODYNE_PLUGIN: plugin_risk(f, pi0),
                StrategyKind.OPTIMAL_JOINT_UNKNOWN_PRIORS:
                    optimal_minimax_risk(f, pi0) + prior_correction(f, pi0),
            }
            for strategy, target in targets.items():
                res = monte_carlo_risk(
                    strategy, f, pi0, (0.2, -0.1, 0.4), (0.3, 0.2, -0.2),
                    trials=200_000, seed=seed,
                )
                assert res.mean_rescaled_excess == pytest.approx(
                    target, abs=3 * res.stderr
                )

    def test_risk_flat_in_local_parameters(self):
        """The estimators are unbiased linear maps: the risk ignores (u, v)."""
        f = planar_frame()
        rng = np.random.default_rng(241)
        for strategy in (StrategyKind.OPTIMAL_JOINT, StrategyKind.HETERODYNE_PLUGIN):
            results = []
            for i in range(5):
                u = rng.uniform(-2, 2, 3)
                v = rng.uniform(-2, 2, 3)
                results.append(
                    monte_carlo_risk(strategy, f, 0.5, u, v, trials=200_000, seed=300 + i)
                )
            for i in range(5):
                for j in range(i + 1, 5):
                    gap = abs(results[i].mean_rescaled_excess - results[j].mean_rescaled_excess)
                    band = 3 * math.hypot(results[i].stderr, results[j].stderr)
                    assert gap <= band

    def test_unknown_priors_flat_in_delta(self):
        f = planar_frame()
        rs = [
            monte_carlo_risk(
                StrategyKind.OPTIMAL_JOINT_UNKNOWN_PRIORS, f, 0.5,
                (0, 0, 0), (0, 0, 0), trials=200_000, seed=47, delta=delta,
            )
            for delta in (0.0, 1.5)
        ]
        gap = abs(rs[0].mean_rescaled_excess - rs[1].mean_rescaled_excess)
        assert gap <= 3 * math.hypot(rs[0].stderr, rs[1].stderr)

    def test_chunk_loss_is_estimator_loss(self):
        """A one-chunk run is the estimator loss under the residual law,
        evaluated on the chunk's two rows of standard normals, bit for bit
        (the law itself is checked against the per-channel oracle in
        TestResidualLaw)."""
        f = build_frame(*SKEWED)
        pi0 = SKEWED[2]
        for strategy in StrategyKind:
            res = monte_carlo_risk(strategy, f, pi0, U, V, trials=1000, seed=61, delta=0.3)
            b_l, sigma_l, b_k, sigma_k = _residual_law(strategy, f, pi0, U, V, 0.3)
            z_l, z_k = chunk_rng(61, 0).normal(size=(2, 1000))
            loss = ((b_l + sigma_l * z_l) ** 2 + (b_k + sigma_k * z_k) ** 2) * (
                1.0 / (4.0 * f.d0_norm))
            assert res.mean_rescaled_excess == loss.mean()
            assert res.stderr == loss.std(ddof=1) / math.sqrt(1000)

    def test_invalid_trials(self):
        with pytest.raises(ValueError):
            monte_carlo_risk(
                StrategyKind.OPTIMAL_JOINT, planar_frame(), 0.5,
                (0, 0, 0), (0, 0, 0), trials=0, seed=1,
            )
