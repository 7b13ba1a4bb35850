"""Local Bloch-sphere geometry around a nontrivial configuration.

Around a pair (r0, s0) with prior pi0 satisfying the nontriviality
condition, the optimal projector has Bloch vector p0 = d0/|d0| with
d0 = pi0*r0 - pi1*s0.  Three orthonormal frames organise the local
analysis (all unit 3-vectors in Cartesian coordinates):

* (p0, l0, k0): l0 spans the (r0, s0) plane together with p0, and
  k0 = p0 x l0 is the plane normal.
* (a1, a2, a3): a3 along r0, a2 = k0; local perturbations u of r0 are
  written in this frame, u = u1*a1 + u2*a2 + u3*a3.
* (b1, b2, b3): the same for s0, with b2 = k0.

Angle conventions (these pin every sign downstream):

    sin(phi0) = r0_hat . p0      cos(phi0) = r0_hat . l0  >= 0
    sin(phi1) = -s0_hat . p0     cos(phi1) = s0_hat . l0

l0 is oriented so cos(phi0) >= 0, which forces cos(phi1) >= 0 through the
constraint pi0*r0*cos(phi0) = pi1*s0*cos(phi1) (d0 has no l0 component),
and gives |d0| = pi0*r0*sin(phi0) + pi1*s0*sin(phi1).  Parallel vectors
pointing the same way get (sin(phi0), sin(phi1)) = (+1, -1); antiparallel
vectors get (+1, +1).  The in-plane axes a1, b1 are fixed by
a1.l0 = +sin(phi0) and b1.l0 = -sin(phi1); both frames then come out
right-handed.

A candidate classifier with per-sample-size n is parametrised by a
2-vector z_hat in the (l0, k0) plane through
p_hat = (d0 + z_hat/sqrt(n)) / |...| (the same map that sends the local
parameters to the oracle direction), and its rescaled excess risk
converges to the quadratic loss |z_perp - z_hat|^2 / (4|d0|), where
z_perp collects the (l0, k0) components of pi0*u - pi1*v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qubit_core import (
    BlochVector,
    DensityMatrix,
    Projector,
    as_vector3,
    bloch_to_density,
)
from .helstrom import TrivialityVerdict, triviality_check

# r0_hat is parallel to p0 (degenerate plane) below this tolerance.
_PARALLEL_TOL = 1e-12


class TrivialConfigurationError(ValueError):
    """The configuration is trivial or degenerate: no local frame exists."""


class NumericalError(ArithmeticError):
    """A construction invariant failed: rounding destroyed the result."""


@dataclass(frozen=True)
class LocalFrame:
    """Reference frames, angles and norms of a nontrivial configuration."""

    p0: np.ndarray
    l0: np.ndarray
    k0: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    a3: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    b3: np.ndarray
    sin_phi0: float
    cos_phi0: float
    sin_phi1: float
    cos_phi1: float
    d0_norm: float
    r0_norm: float
    s0_norm: float

    @property
    def r0_vec(self) -> np.ndarray:
        return self.r0_norm * self.a3

    @property
    def s0_vec(self) -> np.ndarray:
        return self.s0_norm * self.b3

    def u_to_cartesian(self, u) -> np.ndarray:
        """Perturbation of r0 from a-frame coordinates to Cartesian."""
        u = as_vector3(u)
        return u[0] * self.a1 + u[1] * self.a2 + u[2] * self.a3

    def v_to_cartesian(self, v) -> np.ndarray:
        """Perturbation of s0 from b-frame coordinates to Cartesian."""
        v = as_vector3(v)
        return v[0] * self.b1 + v[1] * self.b2 + v[2] * self.b3


@dataclass(frozen=True)
class PerpEstimate:
    """Components (z_l, z_k) of a vector in the plane orthogonal to p0."""

    z_l: float
    z_k: float

    def as_array(self) -> np.ndarray:
        return np.array([self.z_l, self.z_k])


def _fallback_l0(p0: np.ndarray) -> np.ndarray:
    # r0 and s0 parallel: any in-plane choice works, pick the first
    # coordinate axis not parallel to p0 and project p0 out (deterministic).
    for axis in np.eye(3):
        if abs(float(axis @ p0)) < 1.0 - 1e-9:
            w = axis - (axis @ p0) * p0
            return w / float(np.linalg.norm(w))
    raise NumericalError("p0 is parallel to all three coordinate axes")


def build_frame(r0, s0, pi0: float) -> LocalFrame:
    """Construct the local frame of a nontrivial configuration.

    Raises ValueError for zero-length state vectors,
    TrivialConfigurationError when (r0, s0, pi0) is trivial or degenerate,
    and NumericalError when rounding breaks a frame identity.
    """
    r = as_vector3(r0)
    s = as_vector3(s0)
    r0n = float(np.linalg.norm(r))
    s0n = float(np.linalg.norm(s))
    if r0n == 0.0 or s0n == 0.0:
        raise ValueError("state Bloch vectors must be nonzero to define a frame")
    verdict = triviality_check(r, s, pi0)
    if verdict is not TrivialityVerdict.NONTRIVIAL:
        raise TrivialConfigurationError(
            f"configuration is {verdict.value}; the local frame needs the "
            "nontrivial regime"
        )
    pi1 = 1.0 - pi0
    d0 = pi0 * r - pi1 * s
    d0n = float(np.linalg.norm(d0))
    p0 = d0 / d0n

    r_hat = r / r0n
    s_hat = s / s0n
    w = r_hat - (r_hat @ p0) * p0
    wn = float(np.linalg.norm(w))
    if wn > _PARALLEL_TOL:
        l0 = w / wn  # r_hat.l0 = wn > 0, so cos(phi0) >= 0 automatically
    else:
        l0 = _fallback_l0(p0)
    k0 = np.cross(p0, l0)

    sin_phi0 = float(r_hat @ p0)
    cos_phi0 = float(r_hat @ l0)
    sin_phi1 = -float(s_hat @ p0)
    cos_phi1 = float(s_hat @ l0)

    a3 = r_hat
    a2 = k0
    a1 = -cos_phi0 * p0 + sin_phi0 * l0
    b3 = s_hat
    b2 = k0
    b1 = -cos_phi1 * p0 - sin_phi1 * l0

    frame = LocalFrame(
        p0=p0, l0=l0, k0=k0,
        a1=a1, a2=a2, a3=a3,
        b1=b1, b2=b2, b3=b3,
        sin_phi0=sin_phi0, cos_phi0=cos_phi0,
        sin_phi1=sin_phi1, cos_phi1=cos_phi1,
        d0_norm=d0n, r0_norm=r0n, s0_norm=s0n,
    )
    _check_frame(frame, pi0)
    return frame


def _check_frame(frame: LocalFrame, pi0: float) -> None:
    """Construction invariants; a violation raises NumericalError."""
    pi1 = 1.0 - pi0
    tol = 1e-9
    residuals = {
        "sin^2 + cos^2 = 1 for phi0": frame.sin_phi0 ** 2 + frame.cos_phi0 ** 2 - 1.0,
        "sin^2 + cos^2 = 1 for phi1": frame.sin_phi1 ** 2 + frame.cos_phi1 ** 2 - 1.0,
        "d0 has no l0 component":
            pi0 * frame.r0_norm * frame.cos_phi0 - pi1 * frame.s0_norm * frame.cos_phi1,
        "|d0| = pi0 r0 sin(phi0) + pi1 s0 sin(phi1)": frame.d0_norm - (
            pi0 * frame.r0_norm * frame.sin_phi0 + pi1 * frame.s0_norm * frame.sin_phi1
        ),
    }
    for identity, residual in residuals.items():
        if not abs(residual) < tol:
            raise NumericalError(f"local frame violates {identity}")
    if not (frame.cos_phi0 >= -tol and frame.cos_phi1 >= -tol):
        raise NumericalError("local frame has a negative cos(phi0) or cos(phi1)")


def relative_perp(u, v, frame: LocalFrame, pi0: float) -> PerpEstimate:
    """(l0, k0) components of z = pi0*u - pi1*v for frame-coordinate u, v.

        z_l = (pi0 cos(phi0) u3 - pi1 cos(phi1) v3)
              + (pi0 sin(phi0) u1 + pi1 sin(phi1) v1)
        z_k = pi0 u2 - pi1 v2
    """
    u = as_vector3(u)
    v = as_vector3(v)
    z_l, z_k = perp_components(u[0], u[1], u[2], v[0], v[1], v[2], frame, pi0)
    return PerpEstimate(float(z_l), float(z_k))


def perp_components(u1, u2, u3, v1, v2, v3, frame: LocalFrame, pi0: float):
    """(z_l, z_k) of ``relative_perp`` from the six coordinates.

    Elementwise, so the coordinates may be scalars or equal-shape arrays.
    """
    pi1 = 1.0 - pi0
    z_l = (
        pi0 * frame.cos_phi0 * u3
        - pi1 * frame.cos_phi1 * v3
        + pi0 * frame.sin_phi0 * u1
        + pi1 * frame.sin_phi1 * v1
    )
    return z_l, pi0 * u2 - pi1 * v2


def quadratic_loss(z_perp: PerpEstimate, z_hat: PerpEstimate, d0_norm: float) -> float:
    """|z_perp - z_hat|^2 / (4 |d0|), the limit of n * excess risk."""
    if d0_norm <= 0.0:
        raise ValueError("d0_norm must be positive")
    dl = z_perp.z_l - z_hat.z_l
    dk = z_perp.z_k - z_hat.z_k
    return (dl * dl + dk * dk) / (4.0 * d0_norm)


def estimator_to_projector(z_hat: PerpEstimate, frame: LocalFrame, n: int) -> Projector:
    """Rank-1 projector with Bloch vector (d0 + z_hat/sqrt(n)) normalised.

    The estimate perturbs d0 (not the unit vector p0): the oracle direction
    is (d0 + z/sqrt(n))/|...|, and only the matching parametrisation makes
    n * excess_risk converge to quadratic_loss(z_perp, z_hat).  To leading
    order the result is p0 + z_hat/(sqrt(n)|d0|), so it stays within
    O(|z_hat|/sqrt(n)) of p0.
    """
    if int(n) != n or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    vec = frame.d0_norm * frame.p0 + (
        z_hat.z_l * frame.l0 + z_hat.z_k * frame.k0
    ) / math.sqrt(n)
    vec = vec / float(np.linalg.norm(vec))
    return Projector(rank=1, bloch=BlochVector.from_array(vec))


def local_states(frame: LocalFrame, u, v, n: int) -> tuple[DensityMatrix, DensityMatrix]:
    """States at Bloch vectors r0 + u/sqrt(n) and s0 + v/sqrt(n).

    u and v are in a-/b-frame coordinates.  A perturbation that leaves the
    Bloch ball raises InvalidStateError.
    """
    if int(n) != n or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    root = math.sqrt(n)
    r = frame.r0_vec + frame.u_to_cartesian(u) / root
    s = frame.s0_vec + frame.v_to_cartesian(v) / root
    return bloch_to_density(r), bloch_to_density(s)
