"""Local Bloch-sphere geometry around a nontrivial configuration.

Around a pair (r0, s0) with prior pi0 satisfying the nontriviality
condition, the optimal projector has Bloch vector p0 = d0/|d0| with
d0 = pi0*r0 - pi1*s0.  Every closed-form constant reads the
configuration only through the angles of the two states against p0 and
the norms |r0|, |s0|, |d0|, which a LocalFrame holds.  The local-expansion
oracles (the perturbation frames, the estimate -> projector map and the
quadratic loss) are test helpers in tests/helpers.py, on axes l0 and k0
across p0 that ``frame_axes`` there builds from the states.

Angle conventions (these pin every sign downstream):

    sin(phi0) = r0_hat . p0      cos(phi0) = |p0 x r0_hat|  >= 0
    sin(phi1) = -s0_hat . p0     cos(phi1) = |p0 x s0_hat|  >= 0

d0 has no part across p0, so the states' parts across it point the same
way with pi0 |r0| cos(phi0) = pi1 |s0| cos(phi1), and |d0| = pi0 |r0|
sin(phi0) + pi1 |s0| sin(phi1).  Parallel vectors pointing the same way
get (sin(phi0), sin(phi1)) = (+1, -1); antiparallel vectors get (+1, +1).

The shorter of pi0 r0 and pi1 s0 has the larger cross product with p0,
so its cosine is the cross-product norm and the other cosine follows
from the constraint above.  When one state is tiny next to the other,
d0 lies along the long one to rounding and only the short one's cross
product is not noise.  Each hat and the cross product are scaled by
their largest component before their sum of squares is taken, as a
subnormal norm has too few digits to divide by.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .helstrom import ClassificationProblem, TrivialityVerdict, pauli_data, verdict_of


class TrivialConfigurationError(ValueError):
    """The configuration is trivial or degenerate: no local frame exists."""


class NumericalError(ArithmeticError):
    """A construction invariant failed: rounding destroyed the result."""


class LocalFrame(namedtuple("LocalFrame", "p0 sin_phi0 cos_phi0 sin_phi1 cos_phi1 "
                                           "d0_norm r0_norm s0_norm")):
    """Optimal direction, angles and norms of a nontrivial configuration.

    p0 is a float triple (x, y, z); the angles sin_phi0 ... cos_phi1 and
    the norms d0_norm, r0_norm, s0_norm are floats and are all that the
    closed-form constants read.
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


def _scaled(a) -> tuple[tuple[float, float, float], float]:
    """(a/big, big) of a nonzero triple, big its largest component in size,
    so that neither a tiny a's sum of squares nor its subnormal norm loses
    the digits of a result."""
    big = max(abs(a[0]), abs(a[1]), abs(a[2]))
    return (a[0] / big, a[1] / big, a[2] / big), big


def _direction(a) -> tuple[float, float, float]:
    """a/|a| of a nonzero triple."""
    b, _ = _scaled(a)
    n = math.sqrt(_dot(b, b))
    return b[0] / n, b[1] / n, b[2] / n


def _norm(a) -> float:
    """|a| of a triple."""
    if a == (0.0, 0.0, 0.0):
        return 0.0
    b, big = _scaled(a)
    return big * math.sqrt(_dot(b, b))


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
    # the shorter weighted state's cosine is its cross product with p0, the
    # other's follows from pi0 |r0| cos(phi0) = pi1 |s0| cos(phi1)
    w_r, w_s = pi0 * r0n, (1.0 - pi0) * s0n
    if w_s <= w_r:
        cos_phi1 = _norm(_cross(p0, s_hat))
        cos_phi0 = cos_phi1 * (w_s / w_r)
    else:
        cos_phi0 = _norm(_cross(p0, r_hat))
        cos_phi1 = cos_phi0 * (w_r / w_s)
    frame = LocalFrame(
        p0=p0,
        sin_phi0=_dot(r_hat, p0), cos_phi0=cos_phi0,
        sin_phi1=-_dot(s_hat, p0), cos_phi1=cos_phi1,
        d0_norm=d0n, r0_norm=r0n, s0_norm=s0n,
    )
    _check_frame(frame, pi0)
    return frame


def _check_frame(frame: LocalFrame, pi0: float) -> None:
    """Construction invariants to 1e-9; a violation raises NumericalError."""
    pi1 = 1.0 - pi0
    residuals = {
        "sin^2 + cos^2 = 1 for phi0": frame.sin_phi0 ** 2 + frame.cos_phi0 ** 2 - 1.0,
        "sin^2 + cos^2 = 1 for phi1": frame.sin_phi1 ** 2 + frame.cos_phi1 ** 2 - 1.0,
        "|d0| = pi0 r0 sin(phi0) + pi1 s0 sin(phi1)": frame.d0_norm - (
            pi0 * frame.r0_norm * frame.sin_phi0 + pi1 * frame.s0_norm * frame.sin_phi1
        ),
    }
    for identity, residual in residuals.items():
        if not abs(residual) < 1e-9:
            raise NumericalError(f"local frame violates {identity}")
