"""Shared random generators and matrix-route oracles for the tests.

The library computes every eigen-quantity of a 2x2 operator from its Pauli
data (qclass.helstrom.pauli_data / positive_part).  The oracles below take
the explicit-matrix route instead, so the tests can check one against the
other.
"""

from __future__ import annotations

import numpy as np

from qclass import BlochVector, ClassificationProblem, Projector
from qclass.qubit_core import IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z, _check_2x2_hermitian


class HermitianOperator:
    """2x2 Hermitian operator A = alpha*I + beta.sigma, no further constraint."""

    __slots__ = ("matrix", "alpha", "beta")

    def __init__(self, matrix) -> None:
        m = np.asarray(matrix, dtype=complex)
        _check_2x2_hermitian(m, "Hermitian operator")
        self.matrix = m
        self.alpha = 0.5 * (m[0, 0].real + m[1, 1].real)
        self.beta = np.array(
            [m[0, 1].real, -m[0, 1].imag, 0.5 * (m[0, 0].real - m[1, 1].real)]
        )

    @classmethod
    def from_pauli(cls, alpha: float, beta) -> "HermitianOperator":
        b = np.asarray(beta, dtype=float)
        return cls(alpha * IDENTITY + b[0] * SIGMA_X + b[1] * SIGMA_Y + b[2] * SIGMA_Z)

    def eigenvalues(self) -> tuple[float, float]:
        """Closed-form eigenvalues, ordered (alpha - |beta|, alpha + |beta|)."""
        b = float(np.linalg.norm(self.beta))
        return (self.alpha - b, self.alpha + b)


def weighted_operator(problem: ClassificationProblem) -> HermitianOperator:
    """pi0*rho - pi1*sigma as an explicit operator."""
    return HermitianOperator(
        problem.pi0 * problem.rho.matrix - problem.pi1 * problem.sigma.matrix
    )


def positive_eigenprojector(a) -> Projector:
    """Projector onto the strictly-positive eigenspace of a Hermitian A."""
    if not isinstance(a, HermitianOperator):
        a = HermitianOperator(a)
    lo, hi = a.eigenvalues()
    if lo > 0.0:
        return Projector(rank=2)
    if hi <= 0.0:
        return Projector(rank=0)
    return Projector(rank=1, bloch=BlochVector.from_array(a.beta / np.linalg.norm(a.beta)))


def trace_norm(a) -> float:
    """Tr|A| = |lambda_1| + |lambda_2| for a Hermitian 2x2 operator."""
    if not isinstance(a, HermitianOperator):
        a = HermitianOperator(a)
    lo, hi = a.eigenvalues()
    return abs(lo) + abs(hi)


def projector_matrix(p: Projector) -> np.ndarray:
    """Matrix of a projector: 0, I, or (I + p.sigma)/2."""
    if p.rank == 0:
        return np.zeros((2, 2), dtype=complex)
    if p.rank == 2:
        return IDENTITY.copy()
    b = p.bloch
    return 0.5 * (IDENTITY + b.x * SIGMA_X + b.y * SIGMA_Y + b.z * SIGMA_Z)


def random_state_vector(rng, lo=0.05, hi=0.95) -> np.ndarray:
    v = rng.normal(size=3)
    return v * (rng.uniform(lo, hi) / np.linalg.norm(v))


def random_nontrivial_config(rng, *, norm_lo=0.05, norm_hi=0.95,
                             pi_lo=0.05, pi_hi=0.95, margin=0.0):
    """(r0, s0, pi0) with |pi0 r0 - pi1 s0| > |pi0 - pi1| + margin."""
    while True:
        r = random_state_vector(rng, norm_lo, norm_hi)
        s = random_state_vector(rng, norm_lo, norm_hi)
        pi0 = rng.uniform(pi_lo, pi_hi)
        d = np.linalg.norm(pi0 * r - (1.0 - pi0) * s)
        if d > abs(2.0 * pi0 - 1.0) + margin and d > max(margin, 1e-6):
            return r, s, pi0


def random_problem(rng, **kwargs) -> ClassificationProblem:
    r, s, pi0 = random_nontrivial_config(rng, **kwargs)
    return ClassificationProblem.from_bloch(r, s, pi0)


def random_unit(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_projector(rng) -> Projector:
    """Mostly rank-1 projectors, occasionally the trivial ranks."""
    roll = rng.random()
    if roll < 0.05:
        return Projector(rank=0)
    if roll < 0.10:
        return Projector(rank=2)
    return Projector(rank=1, bloch=BlochVector.from_array(random_unit(rng)))


def random_rotation(rng) -> np.ndarray:
    """Haar-ish random rotation matrix via QR of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def tomography_constant(r0, s0, pi0, *, with_prior_term=False) -> float:
    """Delta-method oracle for the Pauli plug-in rescaled excess risk.

    Per Cartesian coordinate j the tomography error of r has variance
    3(1 - r_j^2)/(pi0 n) (a third of the class copies per axis), and only
    the components along l0 and k0 survive the projection, so

        C = [3 pi0 sum_j (1-r_j^2) w_j + 3 pi1 sum_j (1-s_j^2) w_j] / (4 |d0|)

    with w_j = l0_j^2 + k0_j^2.  Estimating the prior from the label counts
    adds the usual prior-correction term.
    """
    from qclass import build_frame, prior_correction

    frame = build_frame(r0, s0, pi0)
    r = np.asarray(r0, dtype=float)
    s = np.asarray(s0, dtype=float)
    w = frame.l0**2 + frame.k0**2
    pi1 = 1.0 - pi0
    num = 3.0 * pi0 * float(((1 - r**2) * w).sum()) + 3.0 * pi1 * float(((1 - s**2) * w).sum())
    c = num / (4.0 * frame.d0_norm)
    if with_prior_term:
        c += prior_correction(frame, pi0)
    return c


def sampled_error_probability(p_hat, problem, copies, rng) -> float:
    """Test-copy estimate of the misclassification probability of (P, 1-P)."""
    pm = projector_matrix(p_hat)
    acc_rho = float(np.trace(problem.rho.matrix @ pm).real)
    acc_sigma = float(np.trace(problem.sigma.matrix @ pm).real)
    n1 = int(rng.binomial(copies, problem.pi1))
    mis_rho = int(rng.binomial(copies - n1, min(max(1.0 - acc_rho, 0.0), 1.0)))
    mis_sigma = int(rng.binomial(n1, min(max(acc_sigma, 0.0), 1.0)))
    return (mis_rho + mis_sigma) / copies
