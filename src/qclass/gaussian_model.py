"""Sampling from the limit Gaussian model of the training set.

For n -> infinity the training data around a nontrivial configuration is
equivalent to two classical Gaussians, of variances 1 - r0^2 and 1 - s0^2,
and two displaced thermal oscillator modes with quadratures
R = (Q1, P1, Q2, P2) and covariance

    Sigma = diag(1/(2 r0), 1/(2 r0), 1/(2 s0), 1/(2 s0)).

Both strategies estimate the components of pi0 u - pi1 v along l0, the
unit direction of the states' parts across p0, and k0 = p0 x l0, from the
classical pair and the same two linear observables a.R and b.R:

    a = (sqrt(2 r0 pi0) sin(phi0), 0, sqrt(2 s0 pi1) sin(phi1), 0)
    b = (0, sqrt(2 r0 pi0), 0, -sqrt(2 s0 pi1))

and they differ only in how they measure them, which is one rule: a joint
measurement of two observables adds noise to each.

* Optimal joint: an Arthurs-Kelly measurement (Bell Syst. Tech. J. 44,
  725, 1965) of the pair adds |c|/2 to each variance, with c = a^T J b
  the commutator and J the symplectic form.
* Heterodyne plug-in: the same rule per mode (every quadrature gains 1/2),
  so a.R gains |a|^2/2 and b.R gains |b|^2/2.

The classical pair enters the l0 component only, through the classical
risk term.  With unknown priors the estimated prior count adds
pi0 pi1 t_l^2 to it, where t_l = r0 cos(phi0) + s0 cos(phi1) is the l0
part of (r0 + s0)_perp.  So ``_residual_variances`` gives the law of the
estimator residual z_hat - z_perp from the state alone.  Both estimators
are unbiased linear maps of normal outcomes, so the residual has mean zero
at every (u, v, delta), and its two components are independent normals:
the l0 component reads only the classical pair, the Q quadratures and the
prior count, the k0 component only the P quadratures.  The loss
|z_hat - z_perp|^2 / (4 |d0|) is then A z_l^2 + B z_k^2 in two standard
normals, with A = var_l/(4 |d0|) and B = var_k/(4 |d0|); its mean is the
strategy's closed-form constant.  One draw per chunk serves every
strategy of a call (common random numbers): a strategy's result does not
depend on which other strategies share the call.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .asymptotics import classical_risk_term
from .local_geometry import LocalFrame, NumericalError
from .montecarlo import ExperimentResult, run_chunked, summarize


class StrategyKind(Enum):
    OPTIMAL_JOINT = "optimal_joint"
    HETERODYNE_PLUGIN = "heterodyne_plugin"
    OPTIMAL_JOINT_UNKNOWN_PRIORS = "optimal_joint_unknown_priors"


def _residual_variances(strategy: StrategyKind, frame: LocalFrame,
                        pi0: float) -> tuple[float, float]:
    """(var_l, var_k): variances of the l0 and k0 components of the residual."""
    pi1 = 1.0 - pi0
    r0, s0 = frame.r0_norm, frame.s0_norm
    root_r, root_s = math.sqrt(2.0 * r0 * pi0), math.sqrt(2.0 * s0 * pi1)
    a = (root_r * frame.sin_phi0, 0.0, root_s * frame.sin_phi1, 0.0)
    b = (0.0, root_r, 0.0, -root_s)
    sigma = (0.5 / r0, 0.5 / r0, 0.5 / s0, 0.5 / s0)
    var_a = sum(x * x * s for x, s in zip(a, sigma))
    var_b = sum(x * x * s for x, s in zip(b, sigma))
    if strategy is StrategyKind.HETERODYNE_PLUGIN:
        noise_l = 0.5 * sum(x * x for x in a)
        noise_k = 0.5 * sum(x * x for x in b)
    else:
        c = a[0] * b[1] - a[1] * b[0] + a[2] * b[3] - a[3] * b[2]
        noise_l = noise_k = 0.5 * abs(c)
    var_l = classical_risk_term(frame, pi0) + var_a + noise_l
    if strategy is StrategyKind.OPTIMAL_JOINT_UNKNOWN_PRIORS:
        t_l = r0 * frame.cos_phi0 + s0 * frame.cos_phi1
        var_l += pi0 * pi1 * t_l * t_l
    return var_l, var_b + noise_k


# trials per pass of the k0 term, so its temporary stays small
_BLOCK = 1 << 13
# numpy's standard_normal never returns |z| above 13.8: its ziggurat tail
# is r - log(U)/r with r = 3.654 and U >= 2**-53
_Z_MAX = 14.0


def monte_carlo_risks(
    strategies,
    frame: LocalFrame,
    pi0: float,
    trials: int,
    seed,
    *,
    workers: int = 1,
) -> list[ExperimentResult]:
    """Mean quadratic loss of each strategy over the same seeded trials.

    The loss is |z_hat - z_perp|^2 / (4 |d0|), which does not depend on the
    local parameters (u, v, delta): the residual z_hat - z_perp has mean
    zero (``_residual_variances``).  Each chunk draws one (2, size) array
    of standard normals and squares it in place, row 0 for the l0 and
    row 1 for the k0 residual component, and every strategy's loss is
    A z_l^2 + B z_k^2 with A = var_l/(4 |d0|) and B = var_k/(4 |d0|).
    Before any draw, coefficients whose loss or its trial summary could
    overflow (a tiny |d0|), or that are not finite, raise NumericalError
    naming the strategy and |d0|.  The strategies take turns in one loss
    buffer, each reduced by ``run_chunked`` before the next is computed.
    One ExperimentResult per entry of ``strategies``, in order; each equals
    the result of a call with that strategy alone.  Deterministic for fixed
    seed regardless of ``workers``.
    """
    inv4d = 1.0 / (4.0 * frame.d0_norm)
    coefficients = []
    for strategy in map(StrategyKind, strategies):
        var_l, var_k = _residual_variances(strategy, frame, pi0)
        a, b = var_l * inv4d, var_k * inv4d
        # the largest loss a draw can give; trials times its square bounds
        # every sum the trial summary forms
        top = _Z_MAX * _Z_MAX * (a + b)
        if not math.isfinite(trials * top * top):
            raise NumericalError(f"strategy {strategy.value}: the loss overflows "
                                 f"(|d0| = {frame.d0_norm!r} too small)")
        coefficients.append((a, b))

    def chunk_fn(rng, size):
        z = rng.standard_normal((2, size))
        np.square(z, out=z)
        z_l, z_k = z
        loss = np.empty(size)
        block = np.empty(min(size, _BLOCK))
        for a, b in coefficients:
            np.multiply(z_l, a, out=loss)
            for lo in range(0, size, _BLOCK):
                term = block[:min(_BLOCK, size - lo)]
                np.multiply(z_k[lo:lo + _BLOCK], b, out=term)
                loss[lo:lo + _BLOCK] += term
            yield loss

    moments = run_chunked(trials, seed, chunk_fn, workers=workers)
    return [summarize(m) for m in moments]
