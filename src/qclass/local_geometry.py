"""Local Bloch-sphere geometry around a nontrivial configuration.

Around a pair (r0, s0) with prior pi0 satisfying the nontriviality
condition, the optimal projector has Bloch vector p0 = d0/|d0| with
d0 = pi0*r0 - pi1*s0.  The orthonormal frame (p0, l0, k0) of unit
3-vectors in Cartesian coordinates organises the local analysis: l0 spans
the (r0, s0) plane together with p0, and k0 = p0 x l0 is the plane
normal.  Local perturbations u of r0 and v of s0 are coordinates in one
orthonormal frame per state: the third axis along the state, the second
along k0 and the first in the (r0, s0) plane, with the sign that
``relative_perp`` in tests/helpers.py fixes.  The library never reads u
and v: the limit-model loss does not depend on them.  The tests build the
two frames from a LocalFrame and the two states (``cartesian_frames`` in
tests/helpers.py).

Angle conventions (these pin every sign downstream):

    sin(phi0) = r0_hat . p0      cos(phi0) = r0_hat . l0  >= 0
    sin(phi1) = -s0_hat . p0     cos(phi1) = s0_hat . l0

l0 is oriented so cos(phi0) >= 0, which forces cos(phi1) >= 0 through the
constraint pi0*r0*cos(phi0) = pi1*s0*cos(phi1) (d0 has no l0 component),
and gives |d0| = pi0*r0*sin(phi0) + pi1*s0*sin(phi1).  Parallel vectors
pointing the same way get (sin(phi0), sin(phi1)) = (+1, -1); antiparallel
vectors get (+1, +1).

A candidate classifier with per-sample-size n is parametrised by a
2-vector z_hat in the (l0, k0) plane through
p_hat = (d0 + z_hat/sqrt(n)) / |...| (the same map that sends the local
parameters to the oracle direction), and its rescaled excess risk
converges to the quadratic loss |z_perp - z_hat|^2 / (4|d0|), where
z_perp collects the (l0, k0) components of pi0*u - pi1*v
(``relative_perp``; it, the map and the loss are test oracles in
tests/helpers.py).

k0 = (p0 x r0_hat)/|...| and l0 = k0 x p0, so r0_hat.l0 = |p0 x r0_hat| >= 0
and l0 stays orthogonal to p0 to rounding however close r0 comes to
+/-p0.  Only an exactly zero cross product (parallel to working precision)
falls back to the first coordinate axis not parallel to p0.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .helstrom import ClassificationProblem, TrivialityVerdict, pauli_data, verdict_of


class TrivialConfigurationError(ValueError):
    """The configuration is trivial or degenerate: no local frame exists."""


class NumericalError(ArithmeticError):
    """A construction invariant failed: rounding destroyed the result."""


class LocalFrame(namedtuple("LocalFrame", "p0 l0 k0 sin_phi0 cos_phi0 sin_phi1 "
                                           "cos_phi1 d0_norm r0_norm s0_norm")):
    """Reference frame, angles and norms of a nontrivial configuration.

    The unit vectors p0, l0, k0 are float triples (x, y, z); the angles
    sin_phi0 ... cos_phi1 and the norms d0_norm, r0_norm, s0_norm are
    floats and are all that the closed-form constants read.
    """

    __slots__ = ()


def _dot(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b) -> tuple[float, float, float]:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _unit(a) -> tuple[float, float, float]:
    n = math.sqrt(_dot(a, a))
    return a[0] / n, a[1] / n, a[2] / n


def _fallback_l0(p0) -> tuple[float, float, float]:
    # r0 and s0 parallel: any in-plane choice works, pick the first
    # coordinate axis not parallel to p0 and project p0 out (deterministic);
    # a unit p0 has some component below 1/sqrt(3) in size
    j = next(j for j in range(3) if abs(p0[j]) < 1.0 - 1e-9)
    return _unit(tuple(float(i == j) - p0[j] * p for i, p in enumerate(p0)))


def build_frame(r0, s0, pi0: float) -> LocalFrame:
    """Construct the local frame of a nontrivial configuration.

    Raises ValueError for a pi0 outside (0, 1) and InvalidStateError for
    an invalid state, through ClassificationProblem; ValueError for
    zero-length state vectors, TrivialConfigurationError when (r0, s0,
    pi0) is trivial or degenerate, and NumericalError when rounding
    breaks a frame identity.
    """
    problem = ClassificationProblem(r0, s0, pi0)
    r, s = problem.r, problem.s
    r0n, s0n = r.norm, s.norm
    if r0n == 0.0 or s0n == 0.0:
        raise ValueError("state Bloch vectors must be nonzero to define a frame")
    alpha, (dx, dy, dz), d0n = pauli_data(r, s, pi0)
    verdict = verdict_of(alpha, d0n)
    if verdict is not TrivialityVerdict.NONTRIVIAL:
        raise TrivialConfigurationError(
            f"configuration is {verdict.value}; the local frame needs the "
            "nontrivial regime"
        )
    p0 = (dx / d0n, dy / d0n, dz / d0n)
    r_hat = (r.x / r0n, r.y / r0n, r.z / r0n)
    s_hat = (s.x / s0n, s.y / s0n, s.z / s0n)

    k0 = _cross(p0, r_hat)
    big = max(abs(k0[0]), abs(k0[1]), abs(k0[2]))
    if big == 0.0:
        l0 = _fallback_l0(p0)
        k0 = _cross(p0, l0)
    else:
        # scaled first, so a tiny cross product cannot underflow in _unit
        k0 = _unit((k0[0] / big, k0[1] / big, k0[2] / big))
        l0 = _cross(k0, p0)  # r_hat.l0 = |p0 x r_hat| >= 0

    sin_phi0 = _dot(r_hat, p0)
    cos_phi0 = _dot(r_hat, l0)
    sin_phi1 = -_dot(s_hat, p0)
    cos_phi1 = _dot(s_hat, l0)

    frame = LocalFrame(
        p0=p0, l0=l0, k0=k0,
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
