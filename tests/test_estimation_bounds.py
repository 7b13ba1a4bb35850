"""The paper's two risk constants against quantum estimation theory.

Both constants weigh the error of the estimated d = pi0 r - pi1 s by
W = P/(4|d0|), where P = I - p0 p0^T projects across p0 = d0/|d0|.  The
covariances below are built from 2x2 density matrices, so the checks do not
start from the Gaussian limit model's measurement rule:

- The optimal constant is the Holevo bound of that weight.  A qubit model
  is D-invariant at a mixed state, so the Holevo bound is the RLD bound
  Tr[W Re Z] + TrAbs[sqrt(W) Im Z sqrt(W)], with
  Z = pi0 J_rho^-1 + pi1 J_sigma^-1 and J_jk = Tr[sigma_j rho^-1 sigma_k]/4
  the RLD Fisher information of the Bloch vector.  sqrt(W) is
  P/(2 sqrt|d0|), as P is a projector.  With the prior estimated too,
  Z gains pi0 pi1 (r + s)(r + s)^T and the bound is the optimal constant
  plus ``prior_correction``.
- The plug-in constant is Tr[W Sigma] for the heterodyne covariance of each
  class, Sigma_v with variance 1 - |v|^2 along v and 1 + |v| across it.
- The Gill-Massar bound, the least Tr[W Sigma] of a measurement on one copy
  at a time, sum over classes of pi (tr sqrt(G^1/2 P G^1/2))^2/(4|d0|)
  with G = I - v v^T the inverse SLD Fisher information, lies between the
  optimal constant, which a collective measurement reaches, and
  ``tomography_constant``, the constant of one such measurement.
- At a pure r0 the RLD bound does not exist, so the optimal constant there
  is checked by continuity: from |r0| = 1 - delta it approaches its value
  at |r0| = 1 linearly in delta, and equals the Holevo bound on the way.
"""

import math

import numpy as np
import pytest
from hypothesis import given

from helpers import SIGMA_X, SIGMA_Y, SIGMA_Z, bloch_to_density
from qclass import (build_frame, optimal_minimax_risk, plugin_risk, prior_correction,
                    tomography_constant)
from strategies import PROPERTY, mixed_config, unit

PAULI = np.array([SIGMA_X, SIGMA_Y, SIGMA_Z])


def _across_d0(r, s, pi0):
    """(P, |d0|): the projector across p0 = d0/|d0|, and |d0|."""
    d0 = pi0 * r - (1.0 - pi0) * s
    d0_norm = float(np.linalg.norm(d0))
    p0 = d0 / d0_norm
    return np.eye(3) - np.outer(p0, p0), d0_norm


def _rld_inverse(v) -> np.ndarray:
    """Inverse of the RLD Fisher information of the Bloch vector at v."""
    rho_inv = np.linalg.inv(bloch_to_density(v).matrix)
    # J_jk = Tr[sigma_j rho^-1 sigma_k]/4
    fisher = np.einsum("jab,bc,kca->jk", PAULI, rho_inv, PAULI) / 4.0
    return np.linalg.inv(fisher)


def holevo_bound(r, s, pi0, unknown_priors=False) -> float:
    """Tr[W Re Z] + TrAbs[sqrt(W) Im Z sqrt(W)], the RLD form of the Holevo bound."""
    perp, d0_norm = _across_d0(r, s, pi0)
    pi1 = 1.0 - pi0
    z = pi0 * _rld_inverse(r) + pi1 * _rld_inverse(s)
    if unknown_priors:
        z = z + pi0 * pi1 * np.outer(r + s, r + s)
    sqrt_w = perp / (2.0 * math.sqrt(d0_norm))
    imaginary = np.linalg.eigvalsh(1j * (sqrt_w @ z.imag @ sqrt_w))
    return float(np.trace(perp @ z.real)) / (4.0 * d0_norm) + float(np.abs(imaginary).sum())


def gill_massar_bound(r, s, pi0) -> float:
    """Sum over classes of pi (tr sqrt(G^1/2 P G^1/2))^2/(4|d0|), G = I - v v^T.

    G^1/2 P G^1/2 has the nonzero eigenvalues of B G B^T, with B the (2, 3)
    orthonormal rows that P projects onto, so the trace is taken in that
    2x2 tangent plane, and no rounding zero is square-rooted."""
    perp, d0_norm = _across_d0(r, s, pi0)
    tangent = np.linalg.eigh(perp)[1][:, 1:].T  # eigenvalues 0, 1, 1
    total = 0.0
    for weight, v in ((pi0, r), (1.0 - pi0, s)):
        block = tangent @ (np.eye(3) - np.outer(v, v)) @ tangent.T
        total += weight * float(np.sqrt(np.linalg.eigvalsh(block)).sum()) ** 2
    return total / (4.0 * d0_norm)


def _heterodyne_covariance(v) -> np.ndarray:
    length = float(np.linalg.norm(v))
    along = np.outer(v, v) / length**2
    return (1.0 - length**2) * along + (1.0 + length) * (np.eye(3) - along)


def plugin_bound(r, s, pi0) -> float:
    """Tr[W Sigma], with Sigma the heterodyne covariance of the estimated d."""
    perp, d0_norm = _across_d0(r, s, pi0)
    spread = pi0 * _heterodyne_covariance(r) + (1.0 - pi0) * _heterodyne_covariance(s)
    return float(np.trace(perp @ spread)) / (4.0 * d0_norm)


@PROPERTY
@given(mixed_config)
def test_constants_are_the_estimation_bounds(config):
    """The optimal constant is the Holevo bound, with known and with
    estimated priors; the plug-in constant is the heterodyne bound and lies
    above the Holevo bound (up to rounding, where the gap closes)."""
    frame = build_frame(*config)
    pi0 = config[2]
    optimal, plugin = optimal_minimax_risk(frame, pi0), plugin_risk(frame, pi0)
    holevo = holevo_bound(*config)
    assert holevo == pytest.approx(optimal, rel=1e-10)
    assert holevo_bound(*config, unknown_priors=True) == pytest.approx(
        optimal + prior_correction(frame, pi0), rel=1e-10)
    assert plugin_bound(*config) == pytest.approx(plugin, rel=1e-12)
    assert holevo <= plugin * (1.0 + 1e-12)


@PROPERTY
@given(mixed_config)
def test_gill_massar_lies_between_the_constants(config):
    """optimal constant <= Gill-Massar bound <= tomography_constant, to
    1e-12 relative: a collective measurement beats every measurement of one
    copy at a time, and Pauli tomography is one of those."""
    optimal = optimal_minimax_risk(build_frame(*config), config[2])
    bound = gill_massar_bound(*config)
    assert optimal <= bound * (1.0 + 1e-12)
    assert bound <= tomography_constant(*config) * (1.0 + 1e-12)


# pure r0 directions, each with a mixed s0 and pi0: the planar anchor, the
# generic config and the antipodal pair (s0 at r0's opposite pole)
PURE_R0_ANCHORS = [
    pytest.param((1.0, 0.0, 0.0), (0.0, 0.6, 0.0), 0.5, id="planar"),
    pytest.param(tuple(unit((0.0, 0.3, 0.9))), (0.5, 0.0, -0.4), 0.35, id="generic"),
    pytest.param((0.0, 0.0, 1.0), (0.0, 0.0, -0.6), 0.5, id="antipodal"),
]


@pytest.mark.parametrize("r_hat, s, pi0", PURE_R0_ANCHORS)
def test_pure_state_limit(r_hat, s, pi0):
    """At |r0| = 1 - delta, delta = 1e-3 ... 1e-6, the optimal constant
    equals the Holevo bound (to 1e-15/delta relative: the RLD inverse loses
    digits as 1/delta), and the quotients (C(1) - C(1 - delta))/delta
    converge linearly: each step of delta by 10 shrinks their change by at
    least 5 (by 10 where C is smooth in delta)."""
    r_hat, s = np.array(r_hat), np.array(s)
    pure = optimal_minimax_risk(build_frame(r_hat, s, pi0), pi0)
    quotients = []
    for delta in (1e-3, 1e-4, 1e-5, 1e-6):
        r = (1.0 - delta) * r_hat
        optimal = optimal_minimax_risk(build_frame(r, s, pi0), pi0)
        assert holevo_bound(r, s, pi0) == pytest.approx(optimal, rel=1e-15 / delta)
        quotients.append((pure - optimal) / delta)
    steps = np.abs(np.diff(quotients))
    assert np.all(steps[1:] <= steps[:-1] / 5.0), quotients
