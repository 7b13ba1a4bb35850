"""Shared random generators, matrix-route and per-outcome oracles for the tests.

The library works on Bloch vectors alone and computes every eigen-quantity
of a 2x2 operator from its Pauli data (qclass.helstrom.pauli_data /
positive_rank).  The oracles below take the explicit-matrix route instead
(density matrices, Pauli matrices, matrix projectors), so the tests can
check one against the other.  The local-expansion helpers (perturbed
states, the estimate -> projector map and the quadratic loss) live here
too, as only the tests use them.

The library's qubit-sim draws six binomial counts per trial for a whole
chunk at once.  The per-trial plug-in below draws every +/-1 outcome
instead, one trial at a time, and is the reference it is tested against.
Likewise gaussian-sim draws two normals per trial from the exact law of
the estimator residual; ``draw_outcomes`` draws every measurement channel
of the Gaussian model instead.

The classical warm-up baselines (two-Gaussian location and two-cell coin
problems, with the same rescaled-risk interface as the qubit experiments)
are here too, as only the tests use them.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from qclass import (
    BlochVector,
    ClassificationProblem,
    ExperimentResult,
    InvalidStateError,
    LabelMode,
    Projector,
    excess_risk,
    pauli_data,
    positive_part,
)
from qclass.montecarlo import run_chunked, summarize
from qclass.qubit_core import ATOL

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY = np.eye(2, dtype=complex)


def _check_2x2_hermitian(m: np.ndarray, what: str) -> None:
    if m.shape != (2, 2):
        raise InvalidStateError(f"{what} must be 2x2, got shape {m.shape}")
    if (
        abs(m[0, 0].imag) > ATOL
        or abs(m[1, 1].imag) > ATOL
        or abs(m[0, 1] - m[1, 0].conjugate()) > ATOL
    ):
        raise InvalidStateError(f"{what} is not Hermitian to {ATOL}")


class DensityMatrix:
    """2x2 density matrix: Hermitian, unit trace, positive semidefinite.

    The Bloch vector is extracted once at construction and cached as
    ``.bloch``; the eigenvalues are (1 +/- |r|)/2.
    """

    __slots__ = ("matrix", "bloch")

    def __init__(self, matrix) -> None:
        m = np.asarray(matrix, dtype=complex)
        _check_2x2_hermitian(m, "density matrix")
        trace = m[0, 0].real + m[1, 1].real
        if abs(trace - 1.0) > ATOL:
            raise InvalidStateError(f"density matrix trace {trace!r} != 1")
        rx = 2.0 * m[0, 1].real
        ry = -2.0 * m[0, 1].imag
        rz = m[0, 0].real - m[1, 1].real
        norm = math.sqrt(rx * rx + ry * ry + rz * rz)
        if 0.5 * (1.0 - norm) < -ATOL:
            raise InvalidStateError(
                f"density matrix has eigenvalue {0.5 * (1.0 - norm)!r} < 0"
            )
        if norm > 1.0:
            # rounding fuzz at the pure-state boundary only
            rx, ry, rz = rx / norm, ry / norm, rz / norm
        self.matrix = m
        self.bloch = BlochVector(rx, ry, rz)

    def __repr__(self) -> str:
        b = self.bloch
        return f"DensityMatrix(bloch=({b.x:.6g}, {b.y:.6g}, {b.z:.6g}))"


def bloch_to_density(r) -> DensityMatrix:
    """rho = (I + r.sigma)/2.  Raises InvalidStateError when |r| > 1."""
    r = BlochVector.from_array(r)
    m = 0.5 * (IDENTITY + r.x * SIGMA_X + r.y * SIGMA_Y + r.z * SIGMA_Z)
    return DensityMatrix(m)


def density_to_bloch(rho) -> BlochVector:
    """Bloch vector of a density matrix (validates non-DensityMatrix input)."""
    if not isinstance(rho, DensityMatrix):
        rho = DensityMatrix(rho)
    return rho.bloch


class PerpEstimate(NamedTuple):
    """Components (z_l, z_k) of a vector in the plane orthogonal to p0."""

    z_l: float
    z_k: float

    def as_array(self) -> np.ndarray:
        return np.array([self.z_l, self.z_k])


def quadratic_loss(z_perp, z_hat, d0_norm: float) -> float:
    """|z_perp - z_hat|^2 / (4 |d0|), the limit of n * excess risk.

    z_perp and z_hat are (z_l, z_k) pairs, such as ``relative_perp`` results
    or PerpEstimates.
    """
    if d0_norm <= 0.0:
        raise ValueError("d0_norm must be positive")
    dl = z_perp[0] - z_hat[0]
    dk = z_perp[1] - z_hat[1]
    return (dl * dl + dk * dk) / (4.0 * d0_norm)


def estimator_to_projector(z_hat, frame, n: int) -> Projector:
    """Rank-1 projector with Bloch vector (d0 + z_hat/sqrt(n)) normalised.

    The estimate perturbs d0 (not the unit vector p0): the oracle direction
    is (d0 + z/sqrt(n))/|...|, and only the matching parametrisation makes
    n * excess_risk converge to quadratic_loss(z_perp, z_hat).  To leading
    order the result is p0 + z_hat/(sqrt(n)|d0|), so it stays within
    O(|z_hat|/sqrt(n)) of p0.
    """
    if int(n) != n or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    z_l, z_k = z_hat
    vec = frame.d0_norm * frame.p0 + (z_l * frame.l0 + z_k * frame.k0) / math.sqrt(n)
    vec = vec / float(np.linalg.norm(vec))
    return Projector(rank=1, bloch=BlochVector.from_array(vec))


def local_states(frame, u, v, n: int) -> tuple[DensityMatrix, DensityMatrix]:
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
        problem.pi0 * bloch_to_density(problem.r).matrix
        - problem.pi1 * bloch_to_density(problem.s).matrix
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


def sampled_error_probability(p_hat, problem, copies, rng) -> float:
    """Test-copy estimate of the misclassification probability of (P, 1-P)."""
    pm = projector_matrix(p_hat)
    acc_rho = float(np.trace(bloch_to_density(problem.r).matrix @ pm).real)
    acc_sigma = float(np.trace(bloch_to_density(problem.s).matrix @ pm).real)
    n1 = int(rng.binomial(copies, problem.pi1))
    mis_rho = int(rng.binomial(copies - n1, min(max(1.0 - acc_rho, 0.0), 1.0)))
    mis_sigma = int(rng.binomial(n1, min(max(acc_sigma, 0.0), 1.0)))
    return (mis_rho + mis_sigma) / copies


def sample_pauli(r, axis, rng: np.random.Generator, size: int | None = None):
    """Outcome(s) of measuring axis.sigma on the state with Bloch vector r.

    Born rule: P(+1) = (1 + r.axis)/2.  The axis must be a unit vector.
    Returns a single int for ``size=None``, otherwise an int array of +/-1.
    """
    if not isinstance(r, BlochVector):
        r = BlochVector.from_array(r)
    av = np.asarray(axis, dtype=float)
    if abs(float(np.linalg.norm(av)) - 1.0) > ATOL:
        raise ValueError("measurement axis must be a unit vector")
    p = 0.5 * (1.0 + r.x * av[0] + r.y * av[1] + r.z * av[2])
    p = min(max(p, 0.0), 1.0)
    if size is None:
        return 1 if rng.random() < p else -1
    return np.where(rng.random(size) < p, 1, -1)


def sample_labels(n: int, pi0: float, rng, mode: LabelMode = LabelMode.RANDOM_LABELS):
    """Class sizes (n0, n1): n0 ~ Binomial(n, pi0), or round(pi0 * n) with
    halves rounded up for FIXED_COUNTS."""
    if mode is LabelMode.FIXED_COUNTS:
        n0 = int(math.floor(pi0 * n + 0.5))
    else:
        n0 = int(rng.binomial(n, pi0))
    return n0, n - n0


def axis_counts(m: int) -> tuple[int, int, int]:
    """Copies per Pauli axis: an equal split, remainder to x, then y."""
    base, rem = divmod(m, 3)
    return base + (1 if rem >= 1 else 0), base + (1 if rem >= 2 else 0), base


_AXES = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


def tomographic_estimate(r: BlochVector, m: int, rng) -> BlochVector:
    """Per-outcome Pauli tomography of r from m copies.

    Each coordinate is the average of the +/-1 outcomes on its share of the
    copies, or 0 for an axis that got none; an estimate outside the Bloch
    ball is clipped radially to the unit sphere.
    """
    est = np.zeros(3)
    for j, m_j in enumerate(axis_counts(m)):
        if m_j:
            est[j] = sample_pauli(r, _AXES[j], rng, size=m_j).mean()
    norm = float(np.linalg.norm(est))
    if norm > 1.0:
        est /= norm
    return BlochVector.from_array(est)


def plugin_strategy_run(spec, rng) -> float:
    """One trial of the tomography plug-in, outcome by outcome; its exact excess."""
    n0, n1 = sample_labels(spec.n, spec.pi0, rng, spec.label_mode)
    r_hat = tomographic_estimate(spec.problem.r, n0, rng)
    s_hat = tomographic_estimate(spec.problem.s, n1, rng)
    pi_hat = spec.pi0 if spec.known_priors else n0 / spec.n
    return excess_risk(positive_part(*pauli_data(r_hat, s_hat, pi_hat)), spec.problem)


def draw_outcomes(rng: np.random.Generator, params, size: int) -> list[np.ndarray]:
    """One array of ``size`` normal draws per channel, channel by channel.

    ``params`` is a (means, sds) pair from ``qclass.gaussian_model``'s
    ``_heterodyne_params`` or ``_joint_params``.
    """
    means, sds = params
    return [rng.normal(m, sd, size) for m, sd in zip(means, sds)]


class DegenerateTrainingSetError(ValueError):
    """A class ended up with no training copies."""


_erfc = np.vectorize(math.erfc, otypes=[float])


def _normal_cdf(x):
    """Standard normal CDF Phi(x) = erfc(-x/sqrt(2))/2, elementwise."""
    return 0.5 * _erfc(np.negative(x) / math.sqrt(2.0))


def gaussian_error_probability(t, a: float, b: float):
    """Error probability of guessing the b-class when x >= t (equal priors).

    0.5*(1 - Phi(t - a)) + 0.5*Phi(t - b); vectorised in t.
    """
    return 0.5 * (1.0 - _normal_cdf(t - a)) + 0.5 * _normal_cdf(t - b)


def bayes_risk_gaussian(a: float, b: float) -> float:
    """Minimal error probability, attained at the midpoint threshold."""
    return float(gaussian_error_probability(0.5 * (a + b), a, b))


def classical_gaussian_example(
    a: float, b: float, n: int, trials: int, seed: int, workers: int = 1
) -> ExperimentResult:
    """Midpoint plug-in classifier for N(a,1) vs N(b,1), equal priors.

    Each trial draws the class counts and the class means from their exact
    laws (the means are sufficient), forms the threshold (a_hat+b_hat)/2
    and evaluates its excess error by the exact Gaussian integral.
    Returns the n-rescaled summary; the excess has rate 1/n.
    """
    if not a < b:
        raise ValueError(f"require a < b, got a={a!r}, b={b!r}")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n!r}")
    bayes = bayes_risk_gaussian(a, b)

    def chunk_fn(rng, size):
        n0 = rng.binomial(n, 0.5, size)
        if np.any((n0 == 0) | (n0 == n)):
            raise DegenerateTrainingSetError("a class received no samples")
        a_hat = a + rng.standard_normal(size) / np.sqrt(n0)
        b_hat = b + rng.standard_normal(size) / np.sqrt(n - n0)
        t_hat = 0.5 * (a_hat + b_hat)
        # the midpoint is the exact minimiser, so clamp rounding dust
        return np.maximum(gaussian_error_probability(t_hat, a, b) - bayes, 0.0)

    losses = run_chunked(trials, seed, chunk_fn, workers=workers)
    return summarize(losses, n=n, scale=float(n), with_fraction_exact=True)


def classical_coin_example(
    eta0: float,
    eta1: float,
    p_x0: float,
    n: int,
    trials: int,
    seed: int,
    workers: int = 1,
) -> ExperimentResult:
    """Two-cell plug-in classifier with regression values bounded away from 1/2.

    X in {0, 1} with P(X=0) = p_x0 and eta(x) = P(Y=1|X=x); requires
    eta0 < 1/2 < eta1, so the oracle predicts the cell index.  The plug-in
    classifies by the empirical eta_hat (empty cells fall back to the
    predict-0 rule) and its excess is exactly zero unless an empirical
    frequency crosses 1/2, which happens with exponentially small
    probability; 1 - fraction_exact is the nonzero-excess fraction.
    """
    if not eta0 < 0.5:
        raise ValueError(f"require eta0 < 1/2, got {eta0!r}")
    if not eta1 > 0.5:
        raise ValueError(f"require eta1 > 1/2, got {eta1!r}")
    if not 0.0 < p_x0 < 1.0:
        raise ValueError(f"require 0 < p_x0 < 1, got {p_x0!r}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    margin0 = p_x0 * (1.0 - 2.0 * eta0)
    margin1 = (1.0 - p_x0) * (2.0 * eta1 - 1.0)

    def chunk_fn(rng, size):
        m0 = rng.binomial(n, p_x0, size)
        m1 = n - m0
        k0 = rng.binomial(m0, eta0)
        k1 = rng.binomial(m1, eta1)
        eta0_hat = np.where(m0 > 0, k0 / np.maximum(m0, 1), 0.5)
        eta1_hat = np.where(m1 > 0, k1 / np.maximum(m1, 1), 0.5)
        wrong0 = eta0_hat > 0.5
        wrong1 = eta1_hat <= 0.5
        return wrong0 * margin0 + wrong1 * margin1

    losses = run_chunked(trials, seed, chunk_fn, workers=workers)
    return summarize(losses, n=n, scale=float(n), with_fraction_exact=True)
