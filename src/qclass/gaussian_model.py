"""Sampling from the limit Gaussian model of the training set.

For n -> infinity the training data around a nontrivial configuration is
equivalent to two classical Gaussians and two displaced thermal oscillator
modes, all with means linear in the local parameters (u, v):

    X_r ~ N(sqrt(pi0) u3, 1 - r0^2)     X_s ~ N(sqrt(pi1) v3, 1 - s0^2)
    mode 1: quadrature means sqrt(pi0 / 2 r0) (u1, u2), variance 1/(2 r0)
    mode 2: quadrature means sqrt(pi1 / 2 s0) (v1, v2), variance 1/(2 s0)

Two measurement strategies are described by their (exactly Gaussian)
outcome laws:

* Heterodyne plug-in: measure both quadratures of each mode, which adds
  1/2 to every quadrature variance, invert the mean maps to estimates
  (u~, v~) and project pi0 u~ - pi1 v~ onto the (l0, k0) plane.
* Optimal joint: measure the pair of collective quadratures

      Q_l = sqrt(2 r0 pi0) sin(phi0) Q1 + sqrt(2 s0 pi1) sin(phi1) Q2
      Q_k = sqrt(2 r0 pi0) P1 - sqrt(2 s0 pi1) P2

  with commutator i*c; the optimal joint outcome law is taken as two
  independent Gaussians centred at the true (z_l^q, z_k) whose variances
  carry the unavoidable penalty |c| split evenly (|c|/2 per component),
  and the classical part contributes the estimator
  sqrt(pi0) cos(phi0) X_r - sqrt(pi1) cos(phi1) X_s.

``_heterodyne_params`` and ``_joint_params`` give each law as the
(means, sds) of its independent channels in a fixed draw order, computed
from the frame, (u, v) and pi0.

With unknown priors the training labels add an independent prior count
Z ~ N(delta, pi0 pi1) and the target becomes z_perp + delta*(r0 + s0)_perp.

The loss reads the outcomes only through the residual z_hat - target, and
both estimators are linear in independent normal outcomes.  Each residual
component is therefore exactly normal, and the two are independent: the
l0 component reads only X_r, X_s, the Q quadratures (or Q_l) and the prior
count, the k0 component only the P quadratures (or Q_k), since
(r0 + s0)_perp has no k0 part.  So ``monte_carlo_risks`` draws two standard
normals per trial from this exact law instead of every outcome channel;
no approximation is involved.  A pure state (r0 = 1) has a deterministic
classical channel (variance 0), which adds nothing to the residual spread.
Every strategy's residual law is a scaled and shifted copy of the same two
standard normals, so one draw per chunk serves every strategy of a call
(common random numbers): a strategy's result does not depend on which
other strategies share the call.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .local_geometry import LocalFrame, NumericalError, perp_components, relative_perp
from .montecarlo import ExperimentResult, run_chunked, summarize
from .qubit_core import as_float3


class StrategyKind(Enum):
    OPTIMAL_JOINT = "optimal_joint"
    HETERODYNE_PLUGIN = "heterodyne_plugin"
    OPTIMAL_JOINT_UNKNOWN_PRIORS = "optimal_joint_unknown_priors"


def _channel_means(frame: LocalFrame, u, v, pi0: float):
    """Means (x_r, x_s, q1, p1, q2, p2) of the classical pair and of the two
    modes' quadratures at local parameters (u, v) in frame coordinates, and
    the std devs of the classical pair."""
    u = as_float3(u)
    v = as_float3(v)
    r0 = frame.r0_norm
    s0 = frame.s0_norm
    if r0 <= 0.0 or s0 <= 0.0:
        raise ValueError("thermal mode variance diverges for zero-length states")
    pi1 = 1.0 - pi0
    c1 = math.sqrt(pi0 / (2.0 * r0))
    c2 = math.sqrt(pi1 / (2.0 * s0))
    means = (math.sqrt(pi0) * u[2], math.sqrt(pi1) * v[2],
             c1 * u[0], c1 * u[1], c2 * v[0], c2 * v[1])
    # a pure state normalised in floating point can have |r0| = 1 + 2e-16;
    # its classical variance is 0, as for |r0| = 1
    sds = (math.sqrt(max(0.0, 1.0 - r0 ** 2)), math.sqrt(max(0.0, 1.0 - s0 ** 2)))
    return means, sds


def _heterodyne_params(frame: LocalFrame, u, v, pi0: float):
    """Means and std devs in draw order (x_r, x_s, q1, p1, q2, p2).

    Heterodyne adds 1/2 to each quadrature variance 1/(2 r0), 1/(2 s0).
    """
    means, (sd_xr, sd_xs) = _channel_means(frame, u, v, pi0)
    sd_het1 = math.sqrt(1.0 / (2.0 * frame.r0_norm) + 0.5)
    sd_het2 = math.sqrt(1.0 / (2.0 * frame.s0_norm) + 0.5)
    return means, (sd_xr, sd_xs, sd_het1, sd_het1, sd_het2, sd_het2)


def _joint_params(frame: LocalFrame, u, v, pi0: float):
    """Means and std devs in draw order (x_r, x_s, y_l, y_k)."""
    (mean_xr, mean_xs, mean_q1, mean_p1, mean_q2, mean_p2), (sd_xr, sd_xs) = (
        _channel_means(frame, u, v, pi0))
    pi1 = 1.0 - pi0
    cl = math.sqrt(2.0 * frame.r0_norm * pi0)
    cs = math.sqrt(2.0 * frame.s0_norm * pi1)
    mean_yl = cl * frame.sin_phi0 * mean_q1 + cs * frame.sin_phi1 * mean_q2
    mean_yk = cl * mean_p1 - cs * mean_p2
    var_ql = pi0 * frame.sin_phi0 ** 2 + pi1 * frame.sin_phi1 ** 2
    var_qk = 1.0
    c = 2.0 * (pi0 * frame.r0_norm * frame.sin_phi0 - pi1 * frame.s0_norm * frame.sin_phi1)
    penalty = 0.5 * abs(c)
    means = (mean_xr, mean_xs, mean_yl, mean_yk)
    sds = (sd_xr, sd_xs, math.sqrt(var_ql + penalty), math.sqrt(var_qk + penalty))
    return means, sds


def optimal_estimate(x_r, x_s, y_l, y_k, frame: LocalFrame, pi0: float):
    """(z_l, z_k) from the classical pair and the joint (Q_l, Q_k) readings.

    Elementwise over equal-shape arrays (or scalars) of outcomes.
    """
    pi1 = 1.0 - pi0
    z_l = math.sqrt(pi0) * frame.cos_phi0 * x_r - math.sqrt(pi1) * frame.cos_phi1 * x_s + y_l
    return z_l, y_k


def plugin_estimate(x_r, x_s, q1, p1, q2, p2, frame: LocalFrame, pi0: float):
    """Invert the mean maps to (u~, v~) and project pi0 u~ - pi1 v~.

    Elementwise over equal-shape arrays (or scalars) of heterodyne
    outcomes; returns (z_l, z_k).
    """
    pi1 = 1.0 - pi0
    inv1 = math.sqrt(2.0 * frame.r0_norm / pi0)
    inv2 = math.sqrt(2.0 * frame.s0_norm / pi1)
    return perp_components(
        q1 * inv1, p1 * inv1, x_r / math.sqrt(pi0),
        q2 * inv2, p2 * inv2, x_s / math.sqrt(pi1),
        frame, pi0,
    )


def _prior_direction(frame: LocalFrame) -> tuple[float, float]:
    """(l0, k0) components of (r0 + s0)_perp; the k0 part vanishes by geometry."""
    return frame.r0_norm * frame.cos_phi0 + frame.s0_norm * frame.cos_phi1, 0.0


def _residual_rows(strategy: StrategyKind, frame: LocalFrame, pi0: float, u, v,
                   delta: float):
    """(c_l, b_l, c_k, b_k): the estimator residual z_hat - target as C z + b.

    z holds one independent standard normal per channel, in the order of
    ``_heterodyne_params``/``_joint_params`` (the prior count of unknown
    priors last).  The estimator maps applied
    to the unit outcomes and scaled by the channel sds give the coefficient
    rows c_l, c_k; applied to the channel means, minus the target, they
    give the offsets b_l, b_k.
    """
    target_l, target_k = relative_perp(u, v, frame, pi0)
    if strategy is StrategyKind.HETERODYNE_PLUGIN:
        means, sds = _heterodyne_params(frame, u, v, pi0)
        estimate = plugin_estimate
    else:
        means, sds = _joint_params(frame, u, v, pi0)
        estimate = optimal_estimate
    c_l, c_k = estimate(*np.eye(len(means)), frame, pi0)
    c_l = c_l * sds
    c_k = c_k * sds
    b_l, b_k = estimate(*means, frame, pi0)
    if strategy is StrategyKind.OPTIMAL_JOINT_UNKNOWN_PRIORS:
        w_l, w_k = _prior_direction(frame)
        prior_sd = math.sqrt(pi0 * (1.0 - pi0))
        c_l = np.append(c_l, prior_sd * w_l)
        c_k = np.append(c_k, prior_sd * w_k)
        b_l, b_k = b_l + delta * w_l, b_k + delta * w_k
        target_l, target_k = target_l + delta * w_l, target_k + delta * w_k
    return c_l, b_l - target_l, c_k, b_k - target_k


def _residual_law(strategy: StrategyKind, frame: LocalFrame, pi0: float, u, v,
                  delta: float) -> tuple[float, float, float, float]:
    """(b_l, sigma_l, b_k, sigma_k): the residual's l0 and k0 components are
    independent N(b_l, sigma_l^2) and N(b_k, sigma_k^2).

    sigma is the norm of the coefficient row.  A cross term fsum(c_l*c_k)
    that does not vanish would make the two components dependent and
    raises NumericalError.
    """
    c_l, b_l, c_k, b_k = _residual_rows(strategy, frame, pi0, u, v, delta)
    sigma_l = math.sqrt(math.fsum(c_l * c_l))
    sigma_k = math.sqrt(math.fsum(c_k * c_k))
    if not abs(math.fsum(c_l * c_k)) <= 1e-12 * sigma_l * sigma_k:
        raise NumericalError("the l0 and k0 estimator residuals are correlated")
    return b_l, sigma_l, b_k, sigma_k


# trials per pass of the k0 term, so its temporary stays small
_BLOCK = 1 << 13
# numpy's standard_normal never returns |z| above 13.8: its ziggurat tail
# is r - log(U)/r with r = 3.654 and U >= 2**-53
_Z_MAX = 14.0


def monte_carlo_risks(
    strategies,
    frame: LocalFrame,
    pi0: float,
    u,
    v,
    trials: int,
    seed,
    *,
    delta: float = 0.0,
    workers: int = 1,
) -> list[ExperimentResult]:
    """Mean quadratic loss of each strategy over the same seeded trials.

    The loss is |z_perp - z_hat|^2 / (4 |d0|); with unknown priors the
    target shifts to z_perp + delta*(r0 + s0)_perp and the estimator adds
    the prior count Z ~ N(delta, pi0 pi1) times the same direction (the
    risk is flat in delta, which defaults to 0).  Each chunk draws one
    (2, size) array of standard normals, row 0 for the l0 and row 1 for the
    k0 residual component, and every strategy's loss is evaluated
    elementwise from it under the strategy's exact residual law
    (``_residual_law``).  Before any draw, a law that is not finite, or
    whose loss or its trial summary could overflow, raises NumericalError
    naming the strategy.  The strategies take turns in one loss buffer,
    each reduced by ``run_chunked`` before the next is computed.  One
    ExperimentResult per entry of ``strategies``, in order; each equals the
    result of a call with that strategy alone.  Deterministic for fixed
    seed regardless of ``workers``.
    """
    inv4d = 1.0 / (4.0 * frame.d0_norm)
    laws = []
    for strategy in map(StrategyKind, strategies):
        b_l, sigma_l, b_k, sigma_k = law = _residual_law(strategy, frame, pi0, u, v, delta)
        # the largest loss a draw can give; trials times its square bounds
        # every sum the trial summary forms, and a non-finite law fails too
        top_l, top_k = _Z_MAX * sigma_l + abs(b_l), _Z_MAX * sigma_k + abs(b_k)
        top = (top_l * top_l + top_k * top_k) * inv4d
        if not math.isfinite(trials * top * top):
            raise NumericalError(f"strategy {strategy.value}: the loss overflows "
                                 "(u, v or delta too large)")
        laws.append(law)

    def chunk_fn(rng, size):
        z_l, z_k = rng.standard_normal((2, size))
        loss = np.empty(size)
        block = np.empty(min(size, _BLOCK))
        for b_l, sigma_l, b_k, sigma_k in laws:
            np.multiply(z_l, sigma_l, out=loss)
            loss += b_l
            np.square(loss, out=loss)
            for lo in range(0, size, _BLOCK):
                term = block[:min(_BLOCK, size - lo)]
                np.multiply(z_k[lo:lo + _BLOCK], sigma_k, out=term)
                term += b_k
                np.square(term, out=term)
                loss[lo:lo + _BLOCK] += term
            loss *= inv4d
            yield loss

    moments = run_chunked(trials, seed, chunk_fn, workers=workers)
    return [summarize(m, n=None) for m in moments]
