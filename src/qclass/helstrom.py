"""Minimum-error discrimination of two known qubit states.

For states (rho, sigma) with priors (pi0, pi1) the optimal ("oracle")
measurement accepts rho on the strictly-positive eigenspace of
A = pi0*rho - pi1*sigma, and its error probability is (1 - Tr|A|)/2.
Writing A = alpha*I + (d/2).sigma with alpha = (pi0 - pi1)/2 and
d = pi0*r - pi1*s, every quantity below reduces to elementwise arithmetic
in (alpha, d).  ``pauli_data`` is the one place that computes
(alpha, d, |d|), ``positive_rank`` the one rule for the strictly-positive
eigenspace and ``excess_trace`` the one trace formula for the regret
Tr[(pi1*sigma - pi0*rho)(P - P*)]; the Helstrom risk, the triviality
verdict, the local frame and the vectorised qubit plug-in all read from
them.  A projector is never built: it is its rank and, at rank 1, the
Bloch vector d/|d|.  These three are array-first: they accept floats or
equal-shape arrays (a scalar is the size-1 case) and write every sum out
elementwise in the same order, so a trial evaluated in a batch is
bit-identical to the same trial evaluated alone.

When |d| < |pi0 - pi1| the operator A is definite and the best strategy is
to always guess the higher-prior label without measuring; the boundary
|d| = |pi0 - pi1| is reported as its own verdict because neither open
regime covers it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .qubit_core import BlochVector, vector_norm


class TrivialityVerdict(Enum):
    """Regime of the configuration (r0, s0, pi0)."""

    NONTRIVIAL = "nontrivial"
    TRIVIAL_GUESS_RHO = "trivial_guess_rho"
    TRIVIAL_GUESS_SIGMA = "trivial_guess_sigma"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class ClassificationProblem:
    """Bloch vectors r of rho and s of sigma, with prior pi0 for rho (pi1 = 1 - pi0)."""

    r: BlochVector
    s: BlochVector
    pi0: float

    def __post_init__(self) -> None:
        # a BlochVector passes through as is; a 3-sequence is checked here
        object.__setattr__(self, "r", BlochVector.from_array(self.r))
        object.__setattr__(self, "s", BlochVector.from_array(self.s))
        if not (0.0 < self.pi0 < 1.0):
            raise ValueError(f"pi0 must lie strictly in (0, 1), got {self.pi0!r}")

    @property
    def pi1(self) -> float:
        return 1.0 - self.pi0

    @classmethod
    def from_bloch(cls, r, s, pi0: float) -> "ClassificationProblem":
        """The problem with states r, s given as BlochVectors or 3-sequences."""
        return cls(r, s, pi0)


def pauli_data(r, s, pi0):
    """Pauli data of A = pi0*rho - pi1*sigma = alpha*I + (d/2).sigma.

    r and s are BlochVectors, or any objects whose x, y, z attributes are
    equal-shape arrays (one entry per problem); pi0 is a float or such an
    array.  Returns (alpha, dx, dy, dz, |d|); the eigenvalues of A are
    alpha -/+ |d|/2.
    """
    pi1 = 1.0 - pi0
    dx = pi0 * r.x - pi1 * s.x
    dy = pi0 * r.y - pi1 * s.y
    dz = pi0 * r.z - pi1 * s.z
    return 0.5 * (pi0 - pi1), dx, dy, dz, vector_norm(dx, dy, dz)


def positive_rank(alpha, dn):
    """Number of strictly positive eigenvalues of alpha*I + (d/2).sigma.

    Elementwise: an int for floats, an int array for arrays.  Zero
    eigenvalues never count, so a vanishing operator has rank 0.
    """
    return (alpha - 0.5 * dn > 0.0) * 1 + (alpha + 0.5 * dn > 0.0)


def excess_trace(data, rank, px, py, pz):
    """Tr[A P*] - Tr[A P], elementwise, for A with Pauli data ``data``.

    P* is the positive part of A and P the projector of rank ``rank`` with
    Bloch vector (px, py, pz), which is read at rank 1 only.  ``data`` is
    one ``pauli_data`` result; rank and p are floats or equal-shape arrays.
    When both eigenvalues of A share a sign, P* and a matching P use the
    same summands, so the trivial regime yields exactly 0.0.
    """
    import numpy as np  # here, so that the closed-form layer loads without it
    alpha, dx, dy, dz, dn = data
    lo = alpha - 0.5 * dn
    hi = alpha + 0.5 * dn
    rank_opt = positive_rank(alpha, dn)
    tr_opt = np.where(rank_opt == 2, lo + hi, np.where(rank_opt == 1, hi, 0.0))
    tr_rank1 = alpha + 0.5 * (dx * px + dy * py + dz * pz)
    tr_hat = np.where(rank == 2, lo + hi, np.where(rank == 1, tr_rank1, 0.0))
    return tr_opt - tr_hat


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
    alpha, _, _, _, dn = pauli_data(
        BlochVector.from_array(r0), BlochVector.from_array(s0), pi0
    )
    return verdict_of(alpha, dn)


def verdict_of(alpha: float, dn: float) -> TrivialityVerdict:
    """Verdict of ``triviality_check`` from the scalar ``pauli_data`` (alpha, |d|)."""
    if dn == 2.0 * abs(alpha):  # 2|alpha| is |pi0 - pi1| exactly
        return TrivialityVerdict.DEGENERATE
    return _VERDICT_BY_RANK[positive_rank(alpha, dn)]


def helstrom_risk(problem: ClassificationProblem) -> float:
    """Minimal error probability (1 - Tr|pi1*sigma - pi0*rho|)/2.

    Always in [0, min(pi0, pi1)]; equals pi1 (resp. pi0) in the trivial
    guess-rho (resp. guess-sigma) regime.
    """
    alpha, _, _, _, dn = pauli_data(problem.r, problem.s, problem.pi0)
    tn = abs(alpha + 0.5 * dn) + abs(alpha - 0.5 * dn)
    return 0.5 * (1.0 - tn)
