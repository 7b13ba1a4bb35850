"""Tests for the Gaussian limit model: the one-rule residual law behind the
chunk draws, checked against a per-channel oracle, an explicit meter and
the closed forms, and the MC risks."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qclass import (
    build_frame,
    classical_risk_term,
    optimal_minimax_risk,
    plugin_risk,
    prior_correction,
    quantum_risk_term,
)
from qclass.gaussian_model import StrategyKind, _residual_variances, monte_carlo_risks
from qclass import montecarlo
from qclass.montecarlo import chunk_rng
from qclass.qubit_core import as_float3

from helpers import perp_components, random_nontrivial_config, relative_perp
from strategies import PROPERTY, nontrivial_config

PLANAR = ((0.8, 0.0, 0.0), (0.0, 0.6, 0.0), 0.5)
ANTIPODAL = ((0.0, 0.0, 1.0), (0.0, 0.0, -1.0), 0.5)
SKEWED = ((0.5, 0.2, -0.3), (-0.1, 0.6, 0.2), 0.4)
U, V = (0.2, -0.1, 0.4), (0.3, 0.2, -0.2)
ZERO = (0, 0, 0)

CLOSED_FORM = {
    StrategyKind.HETERODYNE_PLUGIN: plugin_risk,
    StrategyKind.OPTIMAL_JOINT: optimal_minimax_risk,
    StrategyKind.OPTIMAL_JOINT_UNKNOWN_PRIORS:
        lambda f, pi0: optimal_minimax_risk(f, pi0) + prior_correction(f, pi0),
}


def planar_frame():
    return build_frame(*PLANAR)


# The per-channel oracle: every outcome channel of both measurements, with
# its mean at the local parameters (u, v) and its sd typed in, and the two
# estimators that read them.  The library derives the residual law from the
# state through one measurement rule instead; the tests check one against
# the other.

def channel_means(frame, u, v, pi0):
    """Means (x_r, x_s, q1, p1, q2, p2) of the classical pair and of the two
    modes' quadratures at local parameters (u, v) in frame coordinates, and
    the std devs of the classical pair."""
    u = as_float3(u)
    v = as_float3(v)
    r0 = frame.r0_norm
    s0 = frame.s0_norm
    pi1 = 1.0 - pi0
    c1 = math.sqrt(pi0 / (2.0 * r0))
    c2 = math.sqrt(pi1 / (2.0 * s0))
    means = (math.sqrt(pi0) * u[2], math.sqrt(pi1) * v[2],
             c1 * u[0], c1 * u[1], c2 * v[0], c2 * v[1])
    # a pure state normalised in floating point can have |r0| = 1 + 2e-16
    sds = (math.sqrt(max(0.0, 1.0 - r0 ** 2)), math.sqrt(max(0.0, 1.0 - s0 ** 2)))
    return means, sds


def heterodyne_params(frame, u, v, pi0):
    """Means and std devs in draw order (x_r, x_s, q1, p1, q2, p2).

    Heterodyne adds 1/2 to each quadrature variance 1/(2 r0), 1/(2 s0).
    """
    means, (sd_xr, sd_xs) = channel_means(frame, u, v, pi0)
    sd_het1 = math.sqrt(1.0 / (2.0 * frame.r0_norm) + 0.5)
    sd_het2 = math.sqrt(1.0 / (2.0 * frame.s0_norm) + 0.5)
    return means, (sd_xr, sd_xs, sd_het1, sd_het1, sd_het2, sd_het2)


def joint_params(frame, u, v, pi0):
    """Means and std devs in draw order (x_r, x_s, y_l, y_k): the collective
    quadratures Q_l, Q_k with the penalty |c|/2 on each."""
    (mean_xr, mean_xs, mean_q1, mean_p1, mean_q2, mean_p2), (sd_xr, sd_xs) = (
        channel_means(frame, u, v, pi0))
    pi1 = 1.0 - pi0
    cl = math.sqrt(2.0 * frame.r0_norm * pi0)
    cs = math.sqrt(2.0 * frame.s0_norm * pi1)
    mean_yl = cl * frame.sin_phi0 * mean_q1 + cs * frame.sin_phi1 * mean_q2
    mean_yk = cl * mean_p1 - cs * mean_p2
    var_ql = pi0 * frame.sin_phi0 ** 2 + pi1 * frame.sin_phi1 ** 2
    c = 2.0 * (pi0 * frame.r0_norm * frame.sin_phi0 - pi1 * frame.s0_norm * frame.sin_phi1)
    penalty = 0.5 * abs(c)
    means = (mean_xr, mean_xs, mean_yl, mean_yk)
    sds = (sd_xr, sd_xs, math.sqrt(var_ql + penalty), math.sqrt(1.0 + penalty))
    return means, sds


def optimal_estimate(x_r, x_s, y_l, y_k, frame, pi0):
    """(z_l, z_k) from the classical pair and the joint (Q_l, Q_k) readings."""
    pi1 = 1.0 - pi0
    z_l = math.sqrt(pi0) * frame.cos_phi0 * x_r - math.sqrt(pi1) * frame.cos_phi1 * x_s + y_l
    return z_l, y_k


def plugin_estimate(x_r, x_s, q1, p1, q2, p2, frame, pi0):
    """Invert the mean maps to (u~, v~) and project pi0 u~ - pi1 v~."""
    pi1 = 1.0 - pi0
    inv1 = math.sqrt(2.0 * frame.r0_norm / pi0)
    inv2 = math.sqrt(2.0 * frame.s0_norm / pi1)
    return perp_components(
        q1 * inv1, p1 * inv1, x_r / math.sqrt(pi0),
        q2 * inv2, p2 * inv2, x_s / math.sqrt(pi1),
        frame, pi0,
    )


def prior_direction(frame):
    """(l0, k0) components of (r0 + s0)_perp; the k0 part vanishes by geometry."""
    return frame.r0_norm * frame.cos_phi0 + frame.s0_norm * frame.cos_phi1, 0.0


def draw_outcomes(rng, params, size):
    """One array of ``size`` normal draws per channel, channel by channel."""
    means, sds = params
    return [rng.normal(m, sd, size) for m, sd in zip(means, sds)]


def residual_rows(strategy, frame, pi0, u, v, delta):
    """(c_l, b_l, c_k, b_k): the estimator residual z_hat - target as C z + b.

    z holds one independent standard normal per channel, in draw order (the
    prior count of unknown priors last).  The estimators applied to the unit
    outcomes and scaled by the channel sds give the rows c_l, c_k; applied
    to the channel means, minus the target, they give the offsets b_l, b_k.
    """
    target_l, target_k = relative_perp(u, v, frame, pi0)
    if strategy is StrategyKind.HETERODYNE_PLUGIN:
        means, sds = heterodyne_params(frame, u, v, pi0)
        estimate = plugin_estimate
    else:
        means, sds = joint_params(frame, u, v, pi0)
        estimate = optimal_estimate
    c_l, c_k = estimate(*np.eye(len(means)), frame, pi0)
    c_l = c_l * sds
    c_k = c_k * sds
    b_l, b_k = estimate(*means, frame, pi0)
    if strategy is StrategyKind.OPTIMAL_JOINT_UNKNOWN_PRIORS:
        w_l, w_k = prior_direction(frame)
        prior_sd = math.sqrt(pi0 * (1.0 - pi0))
        c_l = np.append(c_l, prior_sd * w_l)
        c_k = np.append(c_k, prior_sd * w_k)
        b_l, b_k = b_l + delta * w_l, b_k + delta * w_k
        target_l, target_k = target_l + delta * w_l, target_k + delta * w_k
    return c_l, b_l - target_l, c_k, b_k - target_k


def oracle_residuals(strategy, frame, pi0, u, v, delta, rng, size):
    """z_hat - target from every measurement channel drawn separately, in
    draw order, then the prior count of unknown priors."""
    target_l, target_k = relative_perp(u, v, frame, pi0)
    if strategy is StrategyKind.HETERODYNE_PLUGIN:
        outcomes = draw_outcomes(rng, heterodyne_params(frame, u, v, pi0), size)
        z_l, z_k = plugin_estimate(*outcomes, frame, pi0)
    else:
        outcomes = draw_outcomes(rng, joint_params(frame, u, v, pi0), size)
        z_l, z_k = optimal_estimate(*outcomes, frame, pi0)
    if strategy is StrategyKind.OPTIMAL_JOINT_UNKNOWN_PRIORS:
        w_l, w_k = prior_direction(frame)
        count = rng.normal(delta, math.sqrt(pi0 * (1.0 - pi0)), size)
        z_l = z_l + count * w_l
        z_k = z_k + count * w_k
        target_l, target_k = target_l + delta * w_l, target_k + delta * w_k
    return z_l - target_l, z_k - target_k


def loss_coefficients(strategy, frame, pi0):
    """(A, B) of the loss A z_l^2 + B z_k^2, in the library's arithmetic."""
    inv4d = 1.0 / (4.0 * frame.d0_norm)
    var_l, var_k = _residual_variances(strategy, frame, pi0)
    return var_l * inv4d, var_k * inv4d


# The meter oracle: a joint measurement of the two observables a.R and b.R
# couples one meter mode m = (q_m, p_m) and reads out a.R + g.m and b.R + h.m.
# J is the symplectic form, [R_i, R_j] = i J_ij, one 2x2 block per mode.

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
J4 = np.kron(np.eye(2), J2)


def observables(frame, pi0):
    """(a, b, sigma): the two observables of the module docstring and the
    diagonal of the modes' covariance."""
    root_r = math.sqrt(2.0 * frame.r0_norm * pi0)
    root_s = math.sqrt(2.0 * frame.s0_norm * (1.0 - pi0))
    a = np.array([root_r * frame.sin_phi0, 0.0, root_s * frame.sin_phi1, 0.0])
    b = np.array([0.0, root_r, 0.0, -root_s])
    sigma = np.array([0.5 / frame.r0_norm] * 2 + [0.5 / frame.s0_norm] * 2)
    return a, b, sigma


def meter_covariance(nu, t, theta):
    """A single-mode Gaussian covariance: thermal factor nu >= 1, squeezing
    t, rotation theta (Williamson's form; nu = 1, t = 0 is the vacuum)."""
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    return 0.5 * nu * rot @ np.diag([math.exp(-2.0 * t), math.exp(2.0 * t)]) @ rot.T


def physical(cov):
    """Whether cov + iJ/2 is positive semidefinite, to rounding."""
    eig = np.linalg.eigvalsh(cov + 0.5j * J2)
    return eig.min() >= -1e-12 * eig.max()


def commuting_readout(g, h0, c):
    """h = h0 + beta J^T g, the beta that makes g^T J h = -c: then
    [a.R + g.m, b.R + h.m] = i c + i g^T J h = 0."""
    beta = (-c - g @ J2 @ h0) / (g @ g)
    return h0 + beta * (J2.T @ g)


class TestChannelParams:
    """(means, sds) of the oracle's outcome channels, in draw order."""

    def test_zero_parameters_zero_means(self):
        for params in (heterodyne_params, joint_params):
            means, _ = params(planar_frame(), ZERO, ZERO, 0.5)
            assert all(m == 0 for m in means)

    def test_planar_values(self):
        means, sds = heterodyne_params(planar_frame(), (1, 0, 0), ZERO, 0.5)
        assert means[2] == pytest.approx(math.sqrt(0.5 / 1.6))  # q1
        # heterodyne sd: mode variance 1/(2 r0) plus 1/2
        assert sds[2] == sds[3] == pytest.approx(math.sqrt(1 / 1.6 + 0.5))
        assert sds[4] == sds[5] == pytest.approx(math.sqrt(1 / 1.2 + 0.5))
        assert sds[0] ** 2 == pytest.approx(0.36)
        assert sds[1] ** 2 == pytest.approx(0.64)
        _, joint_sds = joint_params(planar_frame(), (1, 0, 0), ZERO, 0.5)
        assert joint_sds[:2] == sds[:2]

    def test_pure_state_limit(self):
        f = build_frame((0, 0, 1.0), (0.6, 0, 0), 0.5)
        means, sds = heterodyne_params(f, (0, 0, 0.3), ZERO, 0.5)
        assert sds[0] == 0.0
        assert sds[2] == pytest.approx(math.sqrt(0.5 + 0.5))
        # deterministic classical component sampled as its mean
        x_r = draw_outcomes(np.random.default_rng(0), (means, sds), 100)[0]
        assert np.all(x_r == means[0])


class TestSampleHeterodyne:
    def test_moments(self):
        """Empirical means and variances of all six channels at 5e4 draws."""
        means, sds = heterodyne_params(
            planar_frame(), (0.7, -0.4, 0.2), (0.3, 0.5, -0.6), 0.5)
        rng = np.random.default_rng(211)
        n = 50_000
        recs = np.column_stack(draw_outcomes(rng, (means, sds), n))
        for j in range(6):
            assert recs[:, j].mean() == pytest.approx(means[j], abs=4 * sds[j] / math.sqrt(n))
            assert recs[:, j].var() == pytest.approx(sds[j] ** 2, rel=0.02)

    def test_planar_q1_variance_value(self):
        # 1/(2*0.8) + 1/2 = 1.125
        _, sds = heterodyne_params(planar_frame(), ZERO, ZERO, 0.5)
        assert sds[2] ** 2 == pytest.approx(1.125)


class TestSampleOptimalJoint:
    def test_total_mse_commuting_case(self):
        """c = 0 means no added noise: summed MSE equals Var(Ql) + Var(Qk) = 2."""
        _, sds = joint_params(build_frame(*ANTIPODAL), ZERO, ZERO, 0.5)
        assert sds[2] ** 2 + sds[3] ** 2 == pytest.approx(2.0, abs=1e-12)

    def test_total_mse_planar_matches_quantum_term(self):
        f = planar_frame()
        _, sds = joint_params(f, ZERO, ZERO, 0.5)
        assert sds[2] ** 2 + sds[3] ** 2 == pytest.approx(
            quantum_risk_term(f, 0.5), abs=1e-12
        )

    def test_empirical_mse(self):
        rng = np.random.default_rng(223)
        n = 50_000
        _, _, y_l, y_k = draw_outcomes(rng, joint_params(planar_frame(), ZERO, ZERO, 0.5), n)
        total = (y_l**2 + y_k**2).mean()
        assert total == pytest.approx(1.78, rel=0.02)

    def test_heisenberg_penalty(self):
        """The library's joint variances exceed Var(a.R) + Var(b.R) by |c|
        in sum, split evenly, where the heterodyne rule adds more."""
        rng = np.random.default_rng(227)
        for _ in range(50):
            r, s, pi0 = random_nontrivial_config(rng)
            f = build_frame(r, s, pi0)
            pi1 = 1.0 - pi0
            var_l, var_k = _residual_variances(StrategyKind.OPTIMAL_JOINT, f, pi0)
            het_l, het_k = _residual_variances(StrategyKind.HETERODYNE_PLUGIN, f, pi0)
            var_a = pi0 * f.sin_phi0**2 + pi1 * f.sin_phi1**2
            c = 2 * (pi0 * f.r0_norm * f.sin_phi0 - pi1 * f.s0_norm * f.sin_phi1)
            classical = var_l - var_a - abs(c) / 2
            assert var_k == pytest.approx(1.0 + abs(c) / 2, abs=1e-12)
            assert var_l + var_k - classical == pytest.approx(var_a + 1.0 + abs(c), abs=1e-12)
            assert het_l + het_k >= var_l + var_k - 1e-12


class TestOptimalEstimate:
    def test_zero_record(self):
        zeros = np.zeros(4)
        z_l, z_k = optimal_estimate(zeros, zeros, zeros, zeros, planar_frame(), 0.5)
        assert np.all(z_l == 0.0) and np.all(z_k == 0.0)

    def test_noiseless_record_at_means(self):
        """Record frozen at the means recovers the classical piece exactly."""
        f = planar_frame()
        means, _ = joint_params(f, (0, 0, 1.0), ZERO, 0.5)
        z_l, _ = optimal_estimate(means[0], means[1], 0.0, 0.0, f, 0.5)
        # sqrt(pi0) cos(phi0) * sqrt(pi0) u3 = pi0 cos(phi0) u3 = 0.3
        assert z_l == pytest.approx(0.3, abs=1e-12)

    def test_unbiasedness(self):
        f = planar_frame()
        u, v = (0.5, -0.7, 0.9), (-0.3, 0.4, 0.6)
        z_true = relative_perp(u, v, f, 0.5)
        rng = np.random.default_rng(229)
        n = 100_000
        draws = draw_outcomes(rng, joint_params(f, u, v, 0.5), n)
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
        means, _ = heterodyne_params(f, u, v, 0.5)
        z_l, z_k = plugin_estimate(*means, f, 0.5)
        true_l, true_k = relative_perp(u, v, f, 0.5)
        assert z_l == pytest.approx(true_l, abs=1e-12)
        assert z_k == pytest.approx(true_k, abs=1e-12)

    def test_zk_variance(self):
        """Var(z_k~) = pi0 (1 + r0) + pi1 (1 + s0)."""
        f = planar_frame()
        rng = np.random.default_rng(233)
        n = 100_000
        _, zks = plugin_estimate(*draw_outcomes(rng, heterodyne_params(f, ZERO, ZERO, 0.5), n),
                                 f, 0.5)
        expected = 0.5 * 1.8 + 0.5 * 1.6
        assert zks.var() == pytest.approx(expected, rel=0.02)


class TestResidualLaw:
    """The one-rule law that gaussian-sim draws from, against the closed
    forms and against the per-channel oracle."""

    @PROPERTY
    @given(config=nontrivial_config)
    def test_expectation_is_closed_form(self, config):
        """(var_l + var_k)/(4|d0|) is each strategy's constant: the law comes
        from the state and the measurement rule, the constants from the
        paper's formulas."""
        r, s, pi0 = config
        f = build_frame(r, s, pi0)
        for strategy, closed_form in CLOSED_FORM.items():
            var_l, var_k = _residual_variances(strategy, f, pi0)
            assert (var_l + var_k) / (4.0 * f.d0_norm) == pytest.approx(
                closed_form(f, pi0), rel=1e-12, abs=0)

    @PROPERTY
    @given(config=nontrivial_config,
           local=st.lists(st.floats(-2.0, 2.0), min_size=7, max_size=7))
    def test_oracle_rows_match_the_law(self, config, local):
        """The oracle's coefficient rows have the library's variances as
        squared norms and are orthogonal (independent components), and its
        offsets vanish: the residual has mean zero at every (u, v, delta)."""
        r, s, pi0 = config
        f = build_frame(r, s, pi0)
        u, v, delta = local[:3], local[3:6], local[6]
        for strategy in StrategyKind:
            c_l, b_l, c_k, b_k = residual_rows(strategy, f, pi0, u, v, delta)
            var_l, var_k = _residual_variances(strategy, f, pi0)
            assert math.fsum(c_l * c_l) == pytest.approx(var_l, rel=1e-12, abs=0)
            assert math.fsum(c_k * c_k) == pytest.approx(var_k, rel=1e-12, abs=0)
            assert abs(math.fsum(c_l * c_k)) <= 1e-12 * math.sqrt(var_l * var_k)
            assert abs(b_l) < 1e-12 and abs(b_k) < 1e-12

    def test_oracle_residual_is_linear_in_channel_normals(self):
        """The per-channel oracle's residual equals C z + b, with z the
        channel normals that drew it."""
        pure = ((0.0, 0.0, 1.0), (0.6, 0.0, 0.0), 0.5)
        for config in (SKEWED, pure):
            f = build_frame(*config)
            pi0 = config[2]
            for strategy in StrategyKind:
                c_l, b_l, c_k, b_k = residual_rows(strategy, f, pi0, U, V, 0.3)
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
            res = monte_carlo_risks([strategy], f, pi0, trials=n, seed=81 + i)[0]
            res_l, res_k = oracle_residuals(
                strategy, f, pi0, U, V, 0.3, np.random.default_rng(91 + i), n)
            loss = (res_l**2 + res_k**2) / (4.0 * f.d0_norm)
            gap = abs(res.mean_rescaled_excess - loss.mean())
            assert gap <= 4 * math.hypot(res.stderr, loss.std(ddof=1) / math.sqrt(n))


class TestMeasurementRule:
    """The rule "a joint measurement adds |c|/2 to each variance", derived
    from explicit meters (Arthurs and Kelly, Bell Syst. Tech. J. 44, 725,
    1965) rather than restated."""

    @PROPERTY
    @given(config=nontrivial_config,
           meter=st.tuples(st.floats(1.0, 10.0), st.floats(-2.0, 2.0),
                           st.floats(0.0, 2.0 * math.pi)),
           readout=st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4))
    def test_added_noise_is_at_least_the_commutator(self, config, meter, readout):
        """Any physical single-mode meter whose two read-outs commute adds
        noises g^T S g and h^T S h that sum to at least |c|."""
        r, s, pi0 = config
        a, b, _ = observables(build_frame(r, s, pi0), pi0)
        c = a @ J4 @ b
        cov = meter_covariance(*meter)
        assert physical(cov)
        g = np.array(readout[:2])
        if g @ g < 1e-6:
            g = np.array([1.0, 0.0])
        h = commuting_readout(g, np.array(readout[2:]), c)
        assert abs(g @ J2 @ h + c) <= 1e-12 * (1.0 + abs(c) + (g @ g) * (h @ h))
        noise = g @ cov @ g + h @ cov @ h
        assert noise >= abs(c) - 1e-12 * noise

    @PROPERTY
    @given(config=nontrivial_config, kappa=st.floats(0.1, 10.0))
    def test_arthurs_kelly_meter_gives_the_library_variances(self, config, kappa):
        """Read out a.R + kappa q_m and b.R - (c/kappa) p_m with the meter
        squeezed to kappa^2 exp(-2t) = |c|: each read-out gains |c|/2, and
        with the classical term on the l0 side the variances are
        _residual_variances' for the optimal joint measurement."""
        r, s, pi0 = config
        f = build_frame(r, s, pi0)
        a, b, sigma = observables(f, pi0)
        c = a @ J4 @ b
        if c == 0.0:  # commuting observables: no meter is needed
            return
        cov = np.diag([abs(c) / kappa**2, kappa**2 / abs(c)]) / 2.0
        g, h = np.array([kappa, 0.0]), np.array([0.0, -c / kappa])
        assert physical(cov)
        assert g @ J2 @ h == pytest.approx(-c, rel=1e-15, abs=0)
        var_l = classical_risk_term(f, pi0) + a * a @ sigma + g @ cov @ g
        var_k = b * b @ sigma + h @ cov @ h
        want_l, want_k = _residual_variances(StrategyKind.OPTIMAL_JOINT, f, pi0)
        assert var_l == pytest.approx(want_l, rel=1e-15, abs=0)
        assert var_k == pytest.approx(want_k, rel=1e-15, abs=0)


class TestMonteCarloRisk:
    def test_seed_determinism_and_worker_independence(self):
        f = planar_frame()
        kw = dict(trials=150_000, seed=5)
        joint = [StrategyKind.OPTIMAL_JOINT]
        a = monte_carlo_risks(joint, f, 0.5, **kw)
        b = monte_carlo_risks(joint, f, 0.5, **kw)
        c = monte_carlo_risks(joint, f, 0.5, workers=4, **kw)
        assert a == b == c

    def test_matches_closed_forms_at_anchors(self):
        for (r, s, pi0), seed in ((PLANAR, 31), (ANTIPODAL, 37)):
            f = build_frame(r, s, pi0)
            for strategy, closed_form in CLOSED_FORM.items():
                res = monte_carlo_risks([strategy], f, pi0, trials=200_000, seed=seed)[0]
                assert res.mean_rescaled_excess == pytest.approx(
                    closed_form(f, pi0), abs=3 * res.stderr
                )

    def test_chunk_loss_is_estimator_loss(self):
        """A one-chunk run is the loss A z_l^2 + B z_k^2 on the chunk's two
        rows of standard normals: bit for bit its mean A mu_l + B mu_k and
        its sum of squared deviations A^2 S_ll + 2 A B S_lk + B^2 S_kk, from
        the rows' means and 2x2 co-moment, and to 1e-15 the loss array's
        numpy mean and sd, which sum the loss itself (the law is checked
        against the per-channel oracle in TestResidualLaw)."""
        f = build_frame(*SKEWED)
        pi0 = SKEWED[2]
        for strategy in StrategyKind:
            res = monte_carlo_risks([strategy], f, pi0, trials=1000, seed=61)[0]
            a, b = loss_coefficients(strategy, f, pi0)
            z_l, z_k = chunk_rng(61, 0).normal(size=(2, 1000)) ** 2
            mu_l, mu_k = z_l.sum() / 1000, z_k.sum() / 1000
            dz_l, dz_k = z_l - mu_l, z_k - mu_k
            s_ll, s_lk, s_kk = (dz_l * dz_l).sum(), (dz_l * dz_k).sum(), (dz_k * dz_k).sum()
            m2 = a * a * s_ll + 2.0 * a * b * s_lk + b * b * s_kk
            assert res.mean_rescaled_excess == a * mu_l + b * mu_k
            assert res.stderr == math.sqrt(m2 / 999) / math.sqrt(1000)
            loss = a * z_l + b * z_k
            assert res.mean_rescaled_excess == pytest.approx(loss.mean(), rel=1e-15, abs=0)
            assert res.stderr == pytest.approx(loss.std(ddof=1) / math.sqrt(1000),
                                               rel=1e-15, abs=0)

    # 1000 trials in chunks of 97: ten full chunks and a ragged one of 30
    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("name", ["all", "duplicate"])
    def test_co_moment_matches_a_loss_array_per_strategy(self, monkeypatch, name, workers):
        """Over many chunks each strategy's result agrees to 1e-14 with the
        per-strategy path it replaced: the loss array A z_l^2 + B z_k^2 of
        every chunk reduced by run_chunked's array path."""
        monkeypatch.setattr(montecarlo, "CHUNK_SIZE", 97)
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
        f = build_frame(*SKEWED)
        pi0 = SKEWED[2]
        strategies = TestSharedDraw.LISTS[name]
        got = monte_carlo_risks(strategies, f, pi0, trials=1000, seed=23, workers=workers)
        for strategy, res in zip(strategies, got):
            a, b = loss_coefficients(strategy, f, pi0)

            def loss(rng, size):
                z_l, z_k = rng.standard_normal((2, size)) ** 2
                return a * z_l + b * z_k

            [want] = montecarlo.run_chunked(1000, 23, loss, workers=workers)
            want = montecarlo.summarize(want)
            assert res.trials == want.trials == 1000
            assert res.mean_rescaled_excess == pytest.approx(want.mean_rescaled_excess,
                                                             rel=1e-14, abs=0)
            assert res.stderr == pytest.approx(want.stderr, rel=1e-14, abs=0)

    @PROPERTY
    @given(config=nontrivial_config, seed=st.integers(0, 2**32 - 1))
    def test_stderr_is_exact(self, config, seed):
        """The loss A X + B Y, X and Y independent chi-square(1), has
        variance 2A^2 + 2B^2, so a run's stderr is known before it runs.

        The tolerance comes from the loss's fourth moment: with cumulants
        k2 = 2(A^2 + B^2) and k4 = 48(A^4 + B^4), the central fourth moment
        is k4 + 3 k2^2, so the sample variance has variance (k4 + 2 k2^2)/N
        and the sample sd a relative sd of sqrt(k4/k2^2 + 2)/(2 sqrt(N)) =
        sqrt(1/2 + 3(A^4 + B^4)/(A^2 + B^2)^2)/sqrt(N), at most 1.9/sqrt(N).
        The check allows five of these."""
        r, s, pi0 = config
        f = build_frame(r, s, pi0)
        trials = 1 << 16
        results = monte_carlo_risks(list(StrategyKind), f, pi0, trials=trials, seed=seed)
        for strategy, res in zip(StrategyKind, results):
            a, b = loss_coefficients(strategy, f, pi0)
            exact = math.sqrt(2.0 * (a * a + b * b) / trials)
            quartic = (a**4 + b**4) / (a * a + b * b) ** 2
            rel_sd = math.sqrt((0.5 + 3.0 * quartic) / trials)
            assert res.stderr == pytest.approx(exact, rel=5.0 * rel_sd, abs=0)

    def test_invalid_trials(self):
        with pytest.raises(ValueError):
            monte_carlo_risks([StrategyKind.OPTIMAL_JOINT], planar_frame(), 0.5,
                              trials=0, seed=1)


class _DrawSpy:
    """Forwards to a chunk's Generator and records every draw asked of it."""

    def __init__(self, gen, calls):
        self._gen = gen
        self._calls = calls

    def __getattr__(self, name):
        attr = getattr(self._gen, name)

        def recorded(*args, **kwargs):
            self._calls.append((name, args, kwargs))
            return attr(*args, **kwargs)

        return recorded


class TestSharedDraw:
    """One draw per chunk serves every strategy of a monte_carlo_risks call."""

    LISTS = {
        "all": list(StrategyKind),
        "duplicate": [StrategyKind.HETERODYNE_PLUGIN, StrategyKind.OPTIMAL_JOINT_UNKNOWN_PRIORS,
                      StrategyKind.HETERODYNE_PLUGIN],
    }

    # 1000 trials in chunks of 97: ten full chunks and a ragged one of 30
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(LISTS))
    def test_each_result_equals_the_strategy_alone(self, monkeypatch, name, workers):
        monkeypatch.setattr(montecarlo, "CHUNK_SIZE", 97)
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
        pools = []
        real_pool = montecarlo.ThreadPoolExecutor

        def pool(max_workers):
            pools.append(max_workers)
            return real_pool(max_workers=max_workers)

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", pool)
        strategies = self.LISTS[name]
        f = build_frame(*SKEWED)
        kw = dict(trials=1000, seed=23)
        got = monte_carlo_risks(strategies, f, SKEWED[2], workers=workers, **kw)
        assert pools == ([] if workers == 1 else [2])
        alone = [monte_carlo_risks([s], f, SKEWED[2], **kw)[0] for s in strategies]
        assert got == alone
        assert len({r.mean_rescaled_excess for r in got}) == len(set(strategies))

    @pytest.mark.parametrize("count", [1, 3, 6])
    def test_one_standard_normal_call_per_chunk(self, monkeypatch, count):
        monkeypatch.setattr(montecarlo, "CHUNK_SIZE", 97)
        f = build_frame(*SKEWED)
        strategies = (list(StrategyKind) * 2)[:count]
        kw = dict(trials=1000, seed=23)
        want = monte_carlo_risks(strategies, f, SKEWED[2], **kw)
        calls = []
        real_rng = montecarlo.chunk_rng
        monkeypatch.setattr(montecarlo, "chunk_rng",
                            lambda seed, c: _DrawSpy(real_rng(seed, c), calls))
        assert monte_carlo_risks(strategies, f, SKEWED[2], **kw) == want
        sizes = [97] * 10 + [30]
        assert calls == [("standard_normal", ((2, size),), {}) for size in sizes]
