"""Minimum-error discrimination of two known qubit states.

For states (rho, sigma) with priors (pi0, pi1) the optimal ("oracle")
measurement accepts rho on the strictly-positive eigenspace of
A = pi0*rho - pi1*sigma, and its error probability is (1 - Tr|A|)/2.
Writing A = alpha*I + (d/2).sigma with alpha = (pi0 - pi1)/2 and
d = pi0*r - pi1*s, every quantity below reduces to elementwise arithmetic
in (alpha, d).  ``pauli_data`` is the one place that computes
(alpha, d, |d|), ``rank_masks`` the one rule for the strictly-positive
eigenspace and ``excess_trace`` the one trace formula for the regret
Tr[(pi1*sigma - pi0*rho)(P - P*)]; the Helstrom risk, the triviality
verdict, the local frame and the vectorised qubit plug-in all read from
them.  A projector is never built: it is its rank, read as two masks
(rank 0, rank 2), and at rank 1 the Bloch vector d/|d|.  These three are
array-first: a batch is stacked as (3, B) arrays, one pass over the block
per step, and a single problem is the size-1 case.  Each sum is written
out in the same order on both routes, so a trial evaluated in a batch is
bit-identical to the same trial evaluated alone.

When |d| < |pi0 - pi1| the operator A is definite and the best strategy is
to always guess the higher-prior label without measuring; the boundary
|d| = |pi0 - pi1| is reported as its own verdict because neither open
regime covers it.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum

from .qubit_core import BlochVector, vector_norm


class TrivialityVerdict(Enum):
    """Regime of the configuration (r0, s0, pi0)."""

    NONTRIVIAL = "nontrivial"
    TRIVIAL_GUESS_RHO = "trivial_guess_rho"
    TRIVIAL_GUESS_SIGMA = "trivial_guess_sigma"
    DEGENERATE = "degenerate"


class ClassificationProblem(namedtuple("ClassificationProblem", "r s pi0")):
    """BlochVectors r of rho and s of sigma (3-sequences are checked into
    one) and the float prior pi0 of rho (pi1 = 1 - pi0); ``_make`` and
    ``_replace`` check them as the constructor does."""

    __slots__ = ()

    def __new__(cls, r, s, pi0):
        r = BlochVector.from_array(r)
        s = BlochVector.from_array(s)
        if not (0.0 < pi0 < 1.0):
            raise ValueError(f"pi0 must lie strictly in (0, 1), got {pi0!r}")
        return tuple.__new__(cls, (r, s, pi0))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def pi1(self) -> float:
        return 1.0 - self.pi0

    @classmethod
    def from_bloch(cls, r, s, pi0: float) -> "ClassificationProblem":
        """The problem with states r, s given as BlochVectors or 3-sequences."""
        return cls(r, s, pi0)


def pauli_data(r, s, pi0):
    """Pauli data of A = pi0*rho - pi1*sigma = alpha*I + (d/2).sigma.

    For one problem r and s are BlochVectors and pi0 is a float; d is then
    a float triple.  For a batch r and s are (3, B) arrays whose columns
    are Bloch vectors and pi0 is a float or a (B,) array; d is then a new
    (3, B) array, formed in two passes.  Returns (alpha, d, |d|); the
    eigenvalues of A are alpha -/+ |d|/2.
    """
    pi1 = 1.0 - pi0
    # a batch is told apart by its missing x attribute: a type check would
    # cost every single-problem call (the report path) about 10 ns
    try:
        d = (pi0 * r.x - pi1 * s.x, pi0 * r.y - pi1 * s.y, pi0 * r.z - pi1 * s.z)
    except AttributeError:
        d = pi0 * r
        d -= pi1 * s
    return 0.5 * (pi0 - pi1), d, vector_norm(d)


def rank_masks(alpha, dn):
    """(rank 0, rank 2): where alpha*I + (d/2).sigma, |d| = dn, has no
    strictly positive eigenvalue and where it has two; its rank is 1
    elsewhere.  Elementwise: bools for floats, bool arrays for arrays.

    These are the sign tests fl(alpha +/- dn/2) > 0 of the eigenvalues,
    without the sums: rounding keeps the sign of an exact sum, so alpha +
    h > 0 exactly when h > -alpha, and alpha - h > 0 when h < alpha.  Zero
    eigenvalues never count, so a vanishing operator has rank 0.
    """
    half = 0.5 * dn
    return half <= -alpha, half < alpha


def excess_trace(data, p, rank0, rank2, out=None):
    """Tr[A P*] - Tr[A P] for one operator A and a batch of projectors P.

    ``data`` is the float ``pauli_data`` of A, its d a float triple or a
    (3, 1) float column (a run that evaluates many batches builds the
    column once), and P* is its positive part.  The batch's P has rank 0
    where the bool array ``rank0`` holds, rank 2 where ``rank2`` holds,
    and rank 1 elsewhere, with Bloch vector the column of the (3, B)
    float array p (read at rank 1 only).  p is consumed: the products
    d_j p_j are formed in it.  The rank-1 trace alpha + (d.p)/2 is taken
    for every column and then overwritten by two masked stores.  When
    both eigenvalues of A share a sign, P* and a matching P use the same
    summands, so the trivial regime yields exactly 0.0.  A single P is
    the size-1 case.  The traces are formed in ``out`` (new if None),
    which must not overlap p.
    """
    import numpy as np  # here, so that the closed-form layer loads without it
    alpha, d, dn = data
    lo = alpha - 0.5 * dn
    hi = alpha + 0.5 * dn
    opt0, opt2 = rank_masks(alpha, dn)
    tr_opt = 0.0 if opt0 else lo + hi if opt2 else hi
    if isinstance(d, tuple):
        d = np.array(d).reshape(3, 1)
    np.multiply(d, p, out=p)
    tr = np.add(p[0], p[1], out=out)
    tr += p[2]
    tr *= 0.5
    tr += alpha
    tr[rank2] = lo + hi
    tr[rank0] = 0.0
    return np.subtract(tr_opt, tr, out=tr)


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
    comparison of the two computed values.  Raises ValueError for a pi0
    outside (0, 1) and InvalidStateError for an invalid state, through
    ClassificationProblem.
    """
    problem = ClassificationProblem(r0, s0, pi0)
    alpha, _, dn = pauli_data(problem.r, problem.s, pi0)
    return verdict_of(alpha, dn)


def verdict_of(alpha: float, dn: float) -> TrivialityVerdict:
    """Verdict of ``triviality_check`` from the scalar ``pauli_data`` (alpha, |d|)."""
    rank0, rank2 = rank_masks(alpha, dn)
    # the boundary |d| = 2|alpha| (2|alpha| is |pi0 - pi1| exactly) has a
    # zero eigenvalue, which rank_masks does not count: there A has rank 0
    # if alpha <= 0 and rank 1 if alpha > 0
    if rank0:
        return TrivialityVerdict.DEGENERATE if dn == -2.0 * alpha else _VERDICT_BY_RANK[0]
    if rank2:
        return _VERDICT_BY_RANK[2]
    return TrivialityVerdict.DEGENERATE if dn == 2.0 * alpha else _VERDICT_BY_RANK[1]


def helstrom_risk(problem: ClassificationProblem) -> float:
    """Minimal error probability (1 - Tr|pi1*sigma - pi0*rho|)/2.

    Always in [0, min(pi0, pi1)]; equals pi1 (resp. pi0) in the trivial
    guess-rho (resp. guess-sigma) regime.
    """
    alpha, _, dn = pauli_data(problem.r, problem.s, problem.pi0)
    tn = abs(alpha + 0.5 * dn) + abs(alpha - 0.5 * dn)
    return 0.5 * (1.0 - tn)
