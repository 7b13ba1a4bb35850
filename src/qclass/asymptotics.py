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
                   exactly for parallel same-direction states
* prior correction (unknown priors): pi0 pi1 |(r0 + s0)_perp|^2 / (4 d0),
                   the extra variance from estimating pi0 at rate n^{-1/2}
"""

from __future__ import annotations

from dataclasses import dataclass

from .local_geometry import LocalFrame, NumericalError


@dataclass(frozen=True)
class RiskReport:
    """All closed-form constants for one configuration."""

    classical_term: float
    quantum_term: float
    commutator_c: float
    optimal_risk: float
    plugin_risk: float
    gap: float
    prior_correction: float


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


def optimal_minimax_risk(frame: LocalFrame, pi0: float) -> float:
    """Rescaled excess-risk constant of the optimal learning strategy."""
    return (
        2.0
        + abs(commutator_c(frame, pi0))
        - frame.r0_norm * frame.s0_norm * frame.cos_phi0 * frame.cos_phi1
    ) / (4.0 * frame.d0_norm)


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


def risk_gap(frame: LocalFrame, pi0: float) -> float:
    """plugin_risk - optimal_minimax_risk in closed form.

    The sign pattern follows the sign of c; at c = 0 both patterns coincide
    (checked: NumericalError otherwise) and the upper one is returned.
    """
    pi1 = 1.0 - pi0
    r0 = frame.r0_norm
    s0 = frame.s0_norm
    c = commutator_c(frame, pi0)
    upper = pi0 * r0 * (1.0 - frame.sin_phi0) ** 2 + pi1 * s0 * (1.0 + frame.sin_phi1) ** 2
    lower = pi0 * r0 * (1.0 + frame.sin_phi0) ** 2 + pi1 * s0 * (1.0 - frame.sin_phi1) ** 2
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
    zero exactly when r0 + s0 is parallel to p0.
    """
    pi1 = 1.0 - pi0
    t = frame.r0_vec + frame.s0_vec
    t_perp = t - (t @ frame.p0) * frame.p0
    return pi0 * pi1 * float(t_perp @ t_perp) / (4.0 * frame.d0_norm)


def risk_report(frame: LocalFrame, pi0: float) -> RiskReport:
    """Assemble every constant; checks the decomposition identity.

    Raises NumericalError when (classical + quantum)/(4|d0|) misses the
    optimal risk by more than 1e-12.
    """
    classical = classical_risk_term(frame, pi0)
    quantum = quantum_risk_term(frame, pi0)
    optimal = optimal_minimax_risk(frame, pi0)
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
    if not abs((classical + quantum) / (4.0 * frame.d0_norm) - optimal) <= 1e-12:
        raise NumericalError("classical + quantum terms miss the optimal risk")
    return report
