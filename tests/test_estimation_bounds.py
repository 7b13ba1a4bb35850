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

Gill-Massar and tomography bounds are not checked here.
"""

import math

import numpy as np
import pytest
from hypothesis import given

from helpers import SIGMA_X, SIGMA_Y, SIGMA_Z, bloch_to_density
from qclass import build_frame, optimal_minimax_risk, plugin_risk, prior_correction
from strategies import PROPERTY, mixed_config

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
