# bench/child.py imports this module in every benchmark child, for its
# tomography_constant oracle, before it falls back to the library's.  So
# whatever this module imports counts in the peak_rss_mb of all four
# benchmark workloads (a hypothesis import here added 10-12 MB): keep
# hypothesis, scipy and mpmath out of it, and import them in the test
# modules that need them.  tests/test_layering.py checks this.
"""Shared random generators, matrix-route and per-outcome oracles for the tests.

The library works on Bloch vectors alone and computes every eigen-quantity
of a 2x2 operator from its Pauli data (qclass.helstrom.pauli_data /
rank_masks); it has no projector type.  The oracles below take the
explicit-matrix route instead (density matrices, Pauli matrices, the
``Projector`` type and its matrix, error probabilities as matrix traces),
so the tests can check one against the other.  ``excess_risk`` and
``plugin_excess`` are the library's own trace formula and plug-in kernel
on a single trial, its size-1 case; ``int_rank_plugin_excess`` is the
plug-in kernel as three calls over int ranks and a nested np.where, which
the library's boolean-mask kernel must match bit for bit.  The
local-expansion helpers (the a- and b-frames of the perturbations,
perturbed states, the axes l0 and k0 across p0, the estimate -> projector
map, the (l0, k0) components ``relative_perp`` of the local parameters and
the quadratic loss) live here too, as only the tests use them.

The library's qubit-sim draws six Pauli counts per trial for a whole
chunk at once, from alias tables or as binomials.  The per-trial plug-in
below draws every +/-1 outcome instead, one trial at a time, and is the
reference its draws are tested against; it evaluates each trial with
``plugin_excess``, so a trial the kernel makes exactly 0 is 0 here too.

The classical warm-up baselines (two-Gaussian location and two-cell coin
problems, with the same rescaled-risk interface as the qubit experiments)
are here too, as only the tests use them.

``render_csv_reference`` writes the CLI's rows through ``csv.writer``: the
oracle whose bytes the CLI's comma-joined rows must match.
"""

from __future__ import annotations

import csv
import io
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from qclass import (
    BlochVector,
    ClassificationProblem,
    InvalidStateError,
    excess_trace,
    pauli_data,
    rank_masks,
)
from qclass.cli import _fmt
from qclass.montecarlo import ExperimentResult, run_chunked, summarize
from qclass.qubit_core import ATOL, _rescaled_norm, as_float3
from qclass.qubit_experiment import LabelMode, _plugin_excess

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


@dataclass(frozen=True)
class Projector:
    """Orthogonal projector on C^2: rank 0, rank 1 (with Bloch vector), or rank 2.

    A rank-1 projector has matrix (I + p.sigma)/2 with |p| = 1; the Bloch
    vector is meaningless (and must be None) for ranks 0 and 2.
    """

    rank: int
    bloch: BlochVector | None = None

    def __post_init__(self) -> None:
        if self.rank not in (0, 1, 2):
            raise ValueError(f"projector rank must be 0, 1 or 2, got {self.rank}")
        if self.rank == 1:
            if self.bloch is None:
                raise ValueError("rank-1 projector requires a Bloch vector")
            if abs(self.bloch.norm - 1.0) > ATOL:
                raise ValueError(
                    f"rank-1 projector Bloch vector has norm {self.bloch.norm!r}"
                )
        elif self.bloch is not None:
            raise ValueError("rank-0/2 projectors carry no Bloch vector")


def relative_perp(u, v, frame, pi0: float) -> tuple[float, float]:
    """(l0, k0) components (z_l, z_k) of z = pi0*u - pi1*v for frame-coordinate u, v.

        z_l = (pi0 cos(phi0) u3 - pi1 cos(phi1) v3)
              + (pi0 sin(phi0) u1 + pi1 sin(phi1) v1)
        z_k = pi0 u2 - pi1 v2
    """
    return perp_components(*as_float3(u), *as_float3(v), frame, pi0)


def perp_components(u1, u2, u3, v1, v2, v3, frame, pi0: float):
    """(z_l, z_k) of ``relative_perp`` from the six coordinates.

    Elementwise, so the coordinates may be scalars or equal-shape arrays.
    """
    pi1 = 1.0 - pi0
    z_l = (
        pi0 * frame.cos_phi0 * u3
        - pi1 * frame.cos_phi1 * v3
        + pi0 * frame.sin_phi0 * u1
        + pi1 * frame.sin_phi1 * v1
    )
    return z_l, pi0 * u2 - pi1 * v2


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


def frame_axes(frame, r0, s0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p0, l0, k0): the LocalFrame's p0 and two unit axes across it.

    The states' parts across p0 point the same way (d0 has none); l0 is
    their unit common direction, so both l0 parts are >= 0, and k0 = p0 x l0.
    Parallel states get the coordinate axis of least size in p0, p0 projected out.
    """
    p0 = np.asarray(frame.p0)
    both = (np.asarray(r0, dtype=float) / frame.r0_norm
            + np.asarray(s0, dtype=float) / frame.s0_norm)
    k0 = np.cross(p0, both)
    if k0.any():
        k0 /= np.linalg.norm(k0)
        return p0, np.cross(k0, p0), k0
    j = int(np.argmin(np.abs(p0)))
    l0 = np.eye(3)[j] - p0[j] * p0
    l0 /= np.linalg.norm(l0)
    return p0, l0, np.cross(p0, l0)


def estimator_to_projector(z_hat, frame, axes, n: int) -> Projector:
    """Rank-1 projector with Bloch vector (d0 + z_hat/sqrt(n)) normalised.

    z_hat holds the components along l0 and k0 of ``axes`` (``frame_axes``).
    The estimate perturbs d0 (not the unit vector p0): the oracle direction
    is (d0 + z/sqrt(n))/|...|, and only the matching parametrisation makes
    n * excess_risk converge to quadratic_loss(z_perp, z_hat).  To leading
    order the result is p0 + z_hat/(sqrt(n)|d0|), so it stays within
    O(|z_hat|/sqrt(n)) of p0.
    """
    if int(n) != n or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    z_l, z_k = z_hat
    p0, l0, k0 = axes
    vec = frame.d0_norm * p0 + (z_l * l0 + z_k * k0) / math.sqrt(n)
    vec = vec / float(np.linalg.norm(vec))
    return Projector(rank=1, bloch=BlochVector.from_array(vec))


class CartesianFrames(NamedTuple):
    """The a-frame of r0 and the b-frame of s0, and the two states.

    a3 and b3 point along r0 and s0, a2 = b2 = k0, and the in-plane axes
    are fixed by a1.l0 = +sin(phi0) and b1.l0 = -sin(phi1), so both frames
    are right-handed (axes as in ``frame_axes``, angles as in
    qclass.local_geometry).  Local parameters u, v are coordinates in
    these frames: u = u1*a1 + u2*a2 + u3*a3 and v = v1*b1 + v2*b2 + v3*b3.
    """

    a1: np.ndarray
    a2: np.ndarray
    a3: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    b3: np.ndarray
    r0_vec: np.ndarray
    s0_vec: np.ndarray

    def u_to_cartesian(self, u) -> np.ndarray:
        """Perturbation of r0 from a-frame coordinates to Cartesian."""
        u1, u2, u3 = as_float3(u)
        return u1 * self.a1 + u2 * self.a2 + u3 * self.a3

    def v_to_cartesian(self, v) -> np.ndarray:
        """Perturbation of s0 from b-frame coordinates to Cartesian."""
        v1, v2, v3 = as_float3(v)
        return v1 * self.b1 + v2 * self.b2 + v3 * self.b3


def cartesian_frames(frame, r0, s0) -> CartesianFrames:
    """The a- and b-frames of the LocalFrame ``frame`` built from r0 and s0."""
    r0 = np.asarray(r0, dtype=float)
    s0 = np.asarray(s0, dtype=float)
    p0, l0, k0 = frame_axes(frame, r0, s0)
    a1 = -frame.cos_phi0 * p0 + frame.sin_phi0 * l0
    b1 = -frame.cos_phi1 * p0 - frame.sin_phi1 * l0
    return CartesianFrames(a1, k0, r0 / frame.r0_norm,
                           b1, k0, s0 / frame.s0_norm, r0, s0)


def local_states(frames: CartesianFrames, u, v, n: int) -> tuple[DensityMatrix, DensityMatrix]:
    """States at Bloch vectors r0 + u/sqrt(n) and s0 + v/sqrt(n).

    u and v are in a-/b-frame coordinates (``cartesian_frames``).  A
    perturbation that leaves the Bloch ball raises InvalidStateError.
    """
    if int(n) != n or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    root = math.sqrt(n)
    r = frames.r0_vec + frames.u_to_cartesian(u) / root
    s = frames.s0_vec + frames.v_to_cartesian(v) / root
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
    # scaled first: below |beta| ~ 1e-154 its sum of squares is subnormal
    beta = a.beta / np.abs(a.beta).max()
    return Projector(rank=1, bloch=BlochVector.from_array(beta / np.linalg.norm(beta)))


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


def acceptances(p_hat: Projector, problem) -> tuple[float, float]:
    """Tr[rho P] and Tr[sigma P], the chances that (P, 1-P) answers rho."""
    pm = projector_matrix(p_hat)
    return (float(np.trace(bloch_to_density(problem.r).matrix @ pm).real),
            float(np.trace(bloch_to_density(problem.s).matrix @ pm).real))


def error_probability(p_hat: Projector, problem) -> float:
    """pi0*Tr[rho(1 - P)] + pi1*Tr[sigma P] for the POVM (P, 1 - P)."""
    acc_rho, acc_sigma = acceptances(p_hat, problem)
    return problem.pi0 * (1.0 - acc_rho) + problem.pi1 * acc_sigma


def excess_risk(p_hat: Projector, problem) -> float:
    """Tr[(pi1*sigma - pi0*rho)(P - P*)] by the library's ``excess_trace``
    on a single trial, its size-1 case."""
    p = as_float3(p_hat.bloch) if p_hat.rank == 1 else (0.0, 0.0, 0.0)
    data = pauli_data(problem.r, problem.s, problem.pi0)
    return float(excess_trace(data, np.array([p], dtype=float).T, np.array([p_hat.rank == 0]),
                              np.array([p_hat.rank == 2]))[0])


def plugin_excess(problem, r_hat, s_hat, pi_hat) -> float:
    """The library's plug-in excess of one trial evaluated alone:
    ``_plugin_excess`` on (3, 1) columns of the estimates r_hat, s_hat."""
    r_col, s_col = (np.array([as_float3(v)], dtype=float).T for v in (r_hat, s_hat))
    truth = pauli_data(problem.r, problem.s, problem.pi0)
    return float(_plugin_excess(truth, r_col, s_col, pi_hat)[0])


def int_rank(alpha, dn):
    """Positive eigenvalues of alpha*I + (d/2).sigma as an int (array),
    from the signs of the rounded eigenvalues alpha -/+ |d|/2."""
    return (alpha - 0.5 * dn > 0.0) * 1 + (alpha + 0.5 * dn > 0.0)


def mask_rank(alpha: float, dn: float) -> int:
    """The rank of one operator by the library's ``rank_masks``."""
    rank0, rank2 = rank_masks(alpha, dn)
    return 0 if rank0 else 2 if rank2 else 1


def int_rank_plugin_excess(truth, r_hat, s_hat, pi_hat, out=None):
    """``_plugin_excess`` by an independent route: the Pauli arithmetic a
    coordinate at a time, |d| with its own tiny-vector rescale, int ranks,
    and the trace formula Tr[A P*] - Tr[A P] selected by a nested np.where.
    The same float operations in the same order, so the result must equal
    the library's bit for bit.  Like it, it writes the values into ``out``
    if given (which may share memory with r_hat's first row) and returns
    them."""
    alpha_t, (tx, ty, tz), tn = truth
    pi1 = 1.0 - pi_hat
    dx, dy, dz = (pi_hat * r - pi1 * s for r, s in zip(r_hat, s_hat))
    squares = dx * dx + dy * dy + dz * dz
    dn = squares ** 0.5
    tiny = squares < sys.float_info.min
    if tiny.any():
        dn[tiny] = _rescaled_norm(dx[tiny], dy[tiny], dz[tiny])
    rank = int_rank(0.5 * (pi_hat - pi1), dn)
    with np.errstate(divide="ignore", invalid="ignore"):
        px, py, pz = dx / dn, dy / dn, dz / dn
    lo, hi = alpha_t - 0.5 * tn, alpha_t + 0.5 * tn
    rank_opt = int_rank(alpha_t, tn)
    tr_opt = np.where(rank_opt == 2, lo + hi, np.where(rank_opt == 1, hi, 0.0))
    tr_rank1 = alpha_t + 0.5 * (tx * px + ty * py + tz * pz)
    tr_hat = np.where(rank == 2, lo + hi, np.where(rank == 1, tr_rank1, 0.0))
    return np.subtract(tr_opt, tr_hat, out=out)


def sampled_error_probability(p_hat, problem, copies, rng) -> float:
    """Test-copy estimate of the misclassification probability of (P, 1-P)."""
    acc_rho, acc_sigma = acceptances(p_hat, problem)
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
    return plugin_excess(spec.problem, r_hat, s_hat, pi_hat)


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

    [moments] = run_chunked(trials, seed, chunk_fn, workers=workers)
    return summarize(moments, n=n)


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

    [moments] = run_chunked(trials, seed, chunk_fn, workers=workers)
    return summarize(moments, n=n)


def render_csv_reference(rows) -> str:
    """qclass.cli.render_csv through csv.writer (minimal quoting): the same
    header, cells and order, with any quoting a cell would need."""
    param_keys = sorted({k for row in rows for k in row.params})
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(param_keys + ["metric", "value", "stderr", "n"])
    for row in rows:
        writer.writerow([_fmt(row.params.get(k)) for k in param_keys]
                        + [row.metric, _fmt(row.value), _fmt(row.stderr), _fmt(row.n)])
    return buf.getvalue()
