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
    sin(phi1) = -s0_hat . p0     cos(phi1) = s0_hat . l0  >= 0

l0 is oriented so that one cosine is >= 0 (below), which forces the other
to be >= 0 through the constraint pi0*r0*cos(phi0) = pi1*s0*cos(phi1) (d0
has no l0 component), and gives |d0| = pi0*r0*sin(phi0) +
pi1*s0*sin(phi1).  Parallel vectors
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

k0 = (p0 x t_hat)/|...| and l0 = k0 x p0, where t_hat is the direction of
the shorter of pi0 r0 and pi1 s0, so t_hat.l0 = |p0 x t_hat| >= 0 and l0
stays orthogonal to p0 to rounding however close the states come to
+/-p0.  This one rule is the better conditioned choice for every
configuration: d0 has no part across p0, so pi0 |r0_perp| = pi1 |s0_perp|
= h, and |p0 x r0_hat| = h/(pi0 |r0|), |p0 x s0_hat| = h/(pi1 |s0|).  When
one state is tiny next to the other, d0 lies along the long one to
rounding and only the short one's cross product is not noise.  Both hats
are normalised after scaling by their largest component, as a subnormal
norm has too few digits to divide by.  An exactly zero cross product
(parallel states) falls back to the first coordinate axis not parallel
to p0.
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


def _direction(a) -> tuple[float, float, float]:
    """a/|a| of a nonzero triple, scaled by its largest component first, so
    that neither a tiny a's sum of squares nor its subnormal norm loses the
    digits of the result."""
    big = max(abs(a[0]), abs(a[1]), abs(a[2]))
    return _unit((a[0] / big, a[1] / big, a[2] / big))


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
    r_hat, s_hat = _direction(r), _direction(s)
    # oriented by the shorter weighted state (see the module docstring)
    k0 = _cross(p0, s_hat if (1.0 - pi0) * s0n <= pi0 * r0n else r_hat)
    if k0 == (0.0, 0.0, 0.0):
        l0 = _fallback_l0(p0)
        k0 = _cross(p0, l0)
    else:
        k0 = _direction(k0)
        l0 = _cross(k0, p0)
    frame = LocalFrame(
        p0=p0, l0=l0, k0=k0,
        sin_phi0=_dot(r_hat, p0), cos_phi0=_dot(r_hat, l0),
        sin_phi1=-_dot(s_hat, p0), cos_phi1=_dot(s_hat, l0),
        d0_norm=d0n, r0_norm=r0n, s0_norm=s0n,
    )
    _check_frame(frame, pi0)
    return frame


def _check_frame(frame: LocalFrame, pi0: float) -> None:
    """Construction invariants to 1e-9; a violation raises NumericalError."""
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
