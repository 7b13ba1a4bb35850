"""Minimum-error discrimination of two known qubit states.

For states (rho, sigma) with priors (pi0, pi1) the optimal ("oracle")
measurement accepts rho on the strictly-positive eigenspace of
A = pi0*rho - pi1*sigma, and its error probability is (1 - Tr|A|)/2.
Writing A = alpha*I + (d/2).sigma with alpha = (pi0 - pi1)/2 and
d = pi0*r - pi1*s, every quantity below reduces to scalar arithmetic in
(alpha, d), which keeps the hot paths allocation-free.  ``pauli_data`` is
the one place that computes (alpha, d, |d|) and ``positive_part`` the one
rule for the strictly-positive eigenspace; the oracle, the triviality
verdict, the excess risk and the qubit plug-in all read from them.

When |d| < |pi0 - pi1| the operator A is definite and the best strategy is
to always guess the higher-prior label without measuring; the boundary
|d| = |pi0 - pi1| is reported as its own verdict because neither open
regime covers it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .qubit_core import (
    DensityMatrix,
    BlochVector,
    Projector,
    bloch_to_density,
)


class DegenerateProblemError(ValueError):
    """Equal priors with coinciding states: every projector is optimal."""


class TrivialityVerdict(Enum):
    """Regime of the configuration (r0, s0, pi0)."""

    NONTRIVIAL = "nontrivial"
    TRIVIAL_GUESS_RHO = "trivial_guess_rho"
    TRIVIAL_GUESS_SIGMA = "trivial_guess_sigma"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class ClassificationProblem:
    """Pair of states with prior pi0 for rho (pi1 = 1 - pi0)."""

    rho: DensityMatrix
    sigma: DensityMatrix
    pi0: float

    def __post_init__(self) -> None:
        if not (0.0 < self.pi0 < 1.0):
            raise ValueError(f"pi0 must lie strictly in (0, 1), got {self.pi0!r}")
        if not isinstance(self.rho, DensityMatrix):
            object.__setattr__(self, "rho", DensityMatrix(self.rho))
        if not isinstance(self.sigma, DensityMatrix):
            object.__setattr__(self, "sigma", DensityMatrix(self.sigma))

    @property
    def pi1(self) -> float:
        return 1.0 - self.pi0

    @classmethod
    def from_bloch(cls, r, s, pi0: float) -> "ClassificationProblem":
        return cls(bloch_to_density(r), bloch_to_density(s), pi0)


def pauli_data(r: BlochVector, s: BlochVector, pi0: float):
    """Pauli data of A = pi0*rho - pi1*sigma = alpha*I + (d/2).sigma.

    Returns (alpha, dx, dy, dz, |d|); the eigenvalues of A are
    alpha -/+ |d|/2.
    """
    pi1 = 1.0 - pi0
    alpha = 0.5 * (pi0 - pi1)
    dx = pi0 * r.x - pi1 * s.x
    dy = pi0 * r.y - pi1 * s.y
    dz = pi0 * r.z - pi1 * s.z
    return alpha, dx, dy, dz, math.sqrt(dx * dx + dy * dy + dz * dz)


def _positive_rank(alpha: float, dn: float) -> int:
    """Number of strictly positive eigenvalues of alpha*I + (d/2).sigma."""
    if alpha - 0.5 * dn > 0.0:
        return 2
    if alpha + 0.5 * dn <= 0.0:
        return 0
    return 1


def positive_part(alpha: float, dx: float, dy: float, dz: float, dn: float) -> Projector:
    """Projector onto the strictly-positive eigenspace of alpha*I + (d/2).sigma.

    Zero eigenvalues never count as positive: rank 0 when both eigenvalues
    are <= 0, rank 2 when both are > 0, and otherwise the rank-1 projector
    with Bloch vector d/|d|.  Takes the output of ``pauli_data``.
    """
    rank = _positive_rank(alpha, dn)
    if rank != 1:
        return Projector(rank=rank)
    return Projector(rank=1, bloch=BlochVector(dx / dn, dy / dn, dz / dn))


# verdict of a non-boundary configuration, indexed by the rank of P*
_VERDICT_BY_RANK = (
    TrivialityVerdict.TRIVIAL_GUESS_SIGMA,
    TrivialityVerdict.NONTRIVIAL,
    TrivialityVerdict.TRIVIAL_GUESS_RHO,
)


def triviality_check(r0, s0, pi0: float) -> TrivialityVerdict:
    """Classify (r0, s0, pi0) by comparing |pi0*r0 - pi1*s0| with |pi0 - pi1|.

    Strictly larger means a genuine measurement is needed (NONTRIVIAL);
    strictly smaller means guessing the higher-prior label is optimal; the
    equality case is DEGENERATE.  The boundary is decided by exact float
    comparison of the two computed values.
    """
    if not (0.0 < pi0 < 1.0):
        raise ValueError(f"pi0 must lie strictly in (0, 1), got {pi0!r}")
    r = BlochVector.from_array(r0)
    s = BlochVector.from_array(s0)
    alpha, _, _, _, dn = pauli_data(r, s, pi0)
    if dn == 2.0 * abs(alpha):  # 2|alpha| is |pi0 - pi1| exactly
        return TrivialityVerdict.DEGENERATE
    return _VERDICT_BY_RANK[_positive_rank(alpha, dn)]


def helstrom_projector(problem: ClassificationProblem) -> Projector:
    """Projector onto the strictly-positive eigenspace of pi0*rho - pi1*sigma.

    Rank 1 with Bloch vector d/|d| in the nontrivial regime, rank 2
    (identity, always guess rho) or rank 0 (always guess sigma) when the
    operator is definite.  Raises DegenerateProblemError when the operator
    vanishes identically (equal priors, coinciding states).
    """
    data = pauli_data(problem.rho.bloch, problem.sigma.bloch, problem.pi0)
    alpha, _, _, _, dn = data
    if dn == 0.0 and alpha == 0.0:
        raise DegenerateProblemError(
            "coinciding states with equal priors: no unique optimal projector"
        )
    return positive_part(*data)


def helstrom_risk(problem: ClassificationProblem) -> float:
    """Minimal error probability (1 - Tr|pi1*sigma - pi0*rho|)/2.

    Always in [0, min(pi0, pi1)]; equals pi1 (resp. pi0) in the trivial
    guess-rho (resp. guess-sigma) regime.
    """
    alpha, _, _, _, dn = pauli_data(problem.rho.bloch, problem.sigma.bloch, problem.pi0)
    tn = abs(alpha + 0.5 * dn) + abs(alpha - 0.5 * dn)
    return 0.5 * (1.0 - tn)


def error_probability(p_hat: Projector, problem: ClassificationProblem) -> float:
    """pi0*Tr[rho(1 - P)] + pi1*Tr[sigma P] for the POVM (P, 1 - P)."""
    pi0 = problem.pi0
    pi1 = 1.0 - pi0
    if p_hat.rank == 0:
        return pi0
    if p_hat.rank == 2:
        return pi1
    p = p_hat.bloch
    r = problem.rho.bloch
    s = problem.sigma.bloch
    acc_rho = 0.5 * (1.0 + r.x * p.x + r.y * p.y + r.z * p.z)
    acc_sigma = 0.5 * (1.0 + s.x * p.x + s.y * p.y + s.z * p.z)
    return pi0 * (1.0 - acc_rho) + pi1 * acc_sigma


def excess_risk(p_hat: Projector, problem: ClassificationProblem) -> float:
    """Tr[(pi1*sigma - pi0*rho)(P - P*)], the regret against the oracle.

    Computed as Tr[A P*] - Tr[A P] with A = pi0*rho - pi1*sigma, never as a
    difference of error probabilities (that form survives only as a test
    oracle); nonnegative for every projector up to rounding.  When both
    eigenvalues share a sign the two traces use the same summands, so a
    matching trivial estimate yields exactly 0.0.
    """
    alpha, dx, dy, dz, dn = pauli_data(problem.rho.bloch, problem.sigma.bloch, problem.pi0)
    lo = alpha - 0.5 * dn
    hi = alpha + 0.5 * dn
    tr_opt = (0.0, hi, lo + hi)[_positive_rank(alpha, dn)]
    if p_hat.rank == 0:
        tr_hat = 0.0
    elif p_hat.rank == 2:
        tr_hat = lo + hi
    else:
        p = p_hat.bloch
        tr_hat = alpha + 0.5 * (dx * p.x + dy * p.y + dz * p.z)
    return tr_opt - tr_hat
