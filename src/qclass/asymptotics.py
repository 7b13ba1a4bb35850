"""Closed-form constants of the rescaled excess risk.

All quantities are limits of n * excess risk (or additive pieces of such a
limit) for a nontrivial configuration described by a LocalFrame and prior
pi0.  Writing phi0, phi1 for the frame angles, r0 = |r0|, s0 = |s0| and
d0 = |d0|:

* classical term:  pi0 (1 - r0^2) cos^2(phi0) + pi1 (1 - s0^2) cos^2(phi1)
* quantum term:    pi0 sin^2(phi0) + pi1 sin^2(phi1) + 1 + |c|
* commutator:      c = 2 (pi0 r0 sin(phi0) - pi1 s0 sin(phi1))
* optimal risk:    (2 + |c| - r0 s0 cos(phi0) cos(phi1)) / (4 d0),
                   which equals (classical + quantum) / (4 d0) through the
                   frame identity pi0 r0^2 cos^2(phi0) + pi1 s0^2 cos^2(phi1)
                   = r0 s0 cos(phi0) cos(phi1)
* plug-in risk:    [2 + pi0 (r0 sin^2(phi0) + r0 - r0^2 cos^2(phi0))
                      + pi1 (s0 sin^2(phi1) + s0 - s0^2 cos^2(phi1))] / (4 d0)
* gap:             [pi0 r0 (1 -+ sin(phi0))^2 + pi1 s0 (1 +- sin(phi1))^2] / (4 d0),
                   upper signs for c > 0; equals plug-in - optimal, vanishes
                   exactly for parallel same-direction states; 1 - sin(phi)
                   is taken as cos^2(phi)/(1 + sin(phi)) when sin(phi) > 0
* prior correction (unknown priors): pi0 pi1 |(r0 + s0)_perp|^2 / (4 d0),
                   the extra variance from estimating pi0 at rate n^{-1/2}

``tomography_constant`` is the delta-method constant of the finite-n
Pauli-tomography plug-in that ``qubit-sim`` simulates when each state is
mixed or has no Bloch component along l0.  For a pure state with one, the
clip to the ball acts at first order and the simulated n * excess settles
below it: 1.2023 against 1.27468 at n = 1e6 for r0 = (.6, 0, .8), s0 =
(0, .6, -.8), pi0 = 1/2.  It is specific to that measurement and is not
the heterodyne plug-in constant.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .local_geometry import LocalFrame, NumericalError, build_frame
from .qubit_core import as_float3


class RiskReport(namedtuple("RiskReport", "classical_term quantum_term commutator_c "
                                           "optimal_risk plugin_risk gap prior_correction")):
    """All closed-form constants for one configuration, as floats."""

    __slots__ = ()


def classical_risk_term(frame: LocalFrame, pi0: float) -> float:
    """Mean square error of the best estimator using the classical components."""
    pi1 = 1.0 - pi0
    return (
        pi0 * (1.0 - frame.r0_norm ** 2) * frame.cos_phi0 ** 2
        + pi1 * (1.0 - frame.s0_norm ** 2) * frame.cos_phi1 ** 2
    )


def commutator_c(frame: LocalFrame, pi0: float) -> float:
    """Commutator constant c of the two collective quadrature observables."""
    pi1 = 1.0 - pi0
    return 2.0 * (
        pi0 * frame.r0_norm * frame.sin_phi0 - pi1 * frame.s0_norm * frame.sin_phi1
    )


def quantum_risk_term(frame: LocalFrame, pi0: float) -> float:
    """Minimal summed MSE of jointly measuring the two quantum components.

    Var(Q_l) + Var(Q_k) + |c|; the |c| term is the unavoidable penalty for
    measuring non-commuting observables together.
    """
    pi1 = 1.0 - pi0
    return (
        pi0 * frame.sin_phi0 ** 2
        + pi1 * frame.sin_phi1 ** 2
        + 1.0
        + abs(commutator_c(frame, pi0))
    )


def _optimal_numerator(frame: LocalFrame, pi0: float) -> float:
    """2 + |c| - r0 s0 cos(phi0) cos(phi1), the O(1) numerator of the optimal risk."""
    return (
        2.0
        + abs(commutator_c(frame, pi0))
        - frame.r0_norm * frame.s0_norm * frame.cos_phi0 * frame.cos_phi1
    )


def optimal_minimax_risk(frame: LocalFrame, pi0: float) -> float:
    """Rescaled excess-risk constant of the optimal learning strategy."""
    return _optimal_numerator(frame, pi0) / (4.0 * frame.d0_norm)


def plugin_risk(frame: LocalFrame, pi0: float) -> float:
    """Rescaled excess-risk constant of the estimate-then-classify strategy."""
    pi1 = 1.0 - pi0
    r0 = frame.r0_norm
    s0 = frame.s0_norm
    num = (
        2.0
        + pi0 * (r0 * frame.sin_phi0 ** 2 + r0 - r0 ** 2 * frame.cos_phi0 ** 2)
        + pi1 * (s0 * frame.sin_phi1 ** 2 + s0 - s0 ** 2 * frame.cos_phi1 ** 2)
    )
    return num / (4.0 * frame.d0_norm)


def _one_minus(sin: float, cos: float) -> float:
    """1 - sin of an angle, as cos^2/(1 + sin) where 1 - sin would cancel."""
    return cos * cos / (1.0 + sin) if sin > 0.0 else 1.0 - sin


def risk_gap(frame: LocalFrame, pi0: float) -> float:
    """plugin_risk - optimal_minimax_risk in closed form.

    The sign pattern follows the sign of c; at c = 0 both patterns coincide
    (checked: NumericalError otherwise) and the upper one is returned.
    Each 1 -+ sin(phi) is taken without cancellation, so the gap of a
    nearly parallel same-direction pair keeps its relative accuracy.
    """
    pi1 = 1.0 - pi0
    r0 = frame.r0_norm
    s0 = frame.s0_norm
    sin0, cos0, sin1, cos1 = frame.sin_phi0, frame.cos_phi0, frame.sin_phi1, frame.cos_phi1
    c = commutator_c(frame, pi0)
    upper = pi0 * r0 * _one_minus(sin0, cos0) ** 2 + pi1 * s0 * _one_minus(-sin1, cos1) ** 2
    lower = pi0 * r0 * _one_minus(-sin0, cos0) ** 2 + pi1 * s0 * _one_minus(sin1, cos1) ** 2
    if c == 0.0:
        if not abs(upper - lower) <= 1e-12:
            raise NumericalError("risk gap sign branches disagree at c = 0")
        num = upper
    else:
        num = upper if c > 0.0 else lower
    return num / (4.0 * frame.d0_norm)


def prior_correction(frame: LocalFrame, pi0: float) -> float:
    """Additional rescaled risk when the priors are unknown.

    pi0 pi1 |(r0 + s0)_perp|^2 / (4 |d0|), with the perp taken against p0;
    zero exactly when r0 + s0 is parallel to p0.  Both states lie in the
    (p0, l0) plane, so (r0 + s0)_perp = (r0 cos(phi0) + s0 cos(phi1)) l0.
    """
    pi1 = 1.0 - pi0
    t_l = frame.r0_norm * frame.cos_phi0 + frame.s0_norm * frame.cos_phi1
    return pi0 * pi1 * t_l * t_l / (4.0 * frame.d0_norm)


def risk_report(frame: LocalFrame, pi0: float) -> RiskReport:
    """Assemble every constant; checks the decomposition identity.

    Raises NumericalError when classical + quantum misses the optimal
    risk's numerator 2 + |c| - r0 s0 cos(phi0) cos(phi1) by more than
    1e-12.  Both are O(1); the risks themselves grow like 1/|d0|, so an
    absolute tolerance on them would fail at small |d0| on rounding alone.
    Also raises NumericalError, naming |d0|, when a constant is not
    finite: below |d0| ~ 1e-308 the risks overflow.
    """
    classical = classical_risk_term(frame, pi0)
    quantum = quantum_risk_term(frame, pi0)
    numerator = _optimal_numerator(frame, pi0)
    optimal = numerator / (4.0 * frame.d0_norm)
    plug = plugin_risk(frame, pi0)
    report = RiskReport(
        classical_term=classical,
        quantum_term=quantum,
        commutator_c=commutator_c(frame, pi0),
        optimal_risk=optimal,
        plugin_risk=plug,
        gap=risk_gap(frame, pi0),
        prior_correction=prior_correction(frame, pi0),
    )
    if not abs(classical + quantum - numerator) <= 1e-12:
        raise NumericalError("classical + quantum terms miss the optimal risk")
    # an O(1) term that is not finite fails the identity above; the four
    # risks, of order 1/|d0|, are tested here
    if not (math.isfinite(optimal) and math.isfinite(plug)
            and math.isfinite(report.gap) and math.isfinite(report.prior_correction)):
        raise NumericalError(f"a risk constant is not finite "
                             f"(|d0| = {frame.d0_norm!r} too small)")
    return report


def tomography_constant(r0, s0, pi0: float) -> float:
    """Delta-method constant of the Pauli-tomography plug-in rescaled excess.

    Per Cartesian coordinate j the tomography error of r has variance
    3(1 - r_j^2)/(pi0 n) (a third of the class copies per axis), and only
    the components along l0 and k0 survive the projection, so

        C = [3 pi0 sum_j (1-r_j^2) w_j + 3 pi1 sum_j (1-s_j^2) w_j] / (4 |d0|)

    with w_j = l0_j^2 + k0_j^2 = 1 - p0_j^2 (the frame is orthonormal).
    Estimating the prior from the label counts adds ``prior_correction``.
    Takes the Bloch vectors and builds the frame.  It is the limit of
    ``qubit-sim`` only where each state is mixed or has no component
    along l0 (see the module docstring).

    Near the triviality boundary it is the limit only once x = eps
    sqrt(n)/(2 tau) >~ 6, n eps^2 >> tau^2 (eps = |d0| - |pi0 - pi1|,
    tau^2 = n Var of the plug-in's eigenvalue nearest 0): before, rank
    flips lift n * excess above it.  On the trivial side at eps = -0.003
    only 0.54, 0.70 and 0.96 of trials gave exactly 0 at n = 1e4, 1e5,
    1e6 (README; ROADMAP item 18).
    """
    frame = build_frame(r0, s0, pi0)
    pi1 = 1.0 - pi0
    w = [1.0 - p * p for p in frame.p0]
    num = (
        3.0 * pi0 * sum((1.0 - x * x) * w_j for x, w_j in zip(as_float3(r0), w))
        + 3.0 * pi1 * sum((1.0 - x * x) * w_j for x, w_j in zip(as_float3(s0), w))
    )
    return num / (4.0 * frame.d0_norm)
