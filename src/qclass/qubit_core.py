"""Exact 2x2 qubit algebra: Bloch vectors, density matrices, projectors.

Every Hermitian 2x2 matrix decomposes as A = alpha*I + beta.sigma with real
alpha and a real 3-vector beta, and has eigenvalues alpha +/- |beta|.  The
package uses that closed form throughout (the positive-part rule lives in
qclass.helstrom); no iterative solver is involved, so results are exact up
to a handful of rounding operations.

States are Bloch vectors r with |r| <= 1 and rho = (I + r.sigma)/2.
Direction and difference vectors (measurement axes, d = pi0*r - pi1*s, ...)
carry no norm constraint and are passed around as plain length-3 numpy
arrays throughout the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Absolute tolerance for Hermiticity / trace / positivity checks.  All
# inputs are analytically constructed, so 1e-12 only absorbs rounding.
ATOL = 1e-12

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY = np.eye(2, dtype=complex)


class InvalidStateError(ValueError):
    """Input does not describe a valid qubit state or operator."""


def as_vector3(x) -> np.ndarray:
    """Coerce a BlochVector or any length-3 sequence to a float array."""
    if isinstance(x, BlochVector):
        return x.as_array()
    a = np.asarray(x, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class BlochVector:
    """Bloch vector of a qubit state; the norm must not exceed 1.

    Only state vectors are wrapped in this type.  Unconstrained 3-vectors
    (directions, differences) stay plain numpy arrays.
    """

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        n = self.norm
        if not math.isfinite(n):
            raise InvalidStateError("Bloch vector has non-finite entries")
        if n > 1.0 + ATOL:
            raise InvalidStateError(f"Bloch vector norm {n!r} exceeds 1")

    @property
    def norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    @classmethod
    def from_array(cls, arr) -> "BlochVector":
        a = as_vector3(arr)
        return cls(float(a[0]), float(a[1]), float(a[2]))


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


def bloch_to_density(r) -> DensityMatrix:
    """rho = (I + r.sigma)/2.  Raises InvalidStateError when |r| > 1."""
    if not isinstance(r, BlochVector):
        r = BlochVector.from_array(r)
    m = 0.5 * (IDENTITY + r.x * SIGMA_X + r.y * SIGMA_Y + r.z * SIGMA_Z)
    return DensityMatrix(m)


def density_to_bloch(rho) -> BlochVector:
    """Bloch vector of a density matrix (validates non-DensityMatrix input)."""
    if not isinstance(rho, DensityMatrix):
        rho = DensityMatrix(rho)
    return rho.bloch


def sample_pauli(r, axis, rng: np.random.Generator, size: int | None = None):
    """Outcome(s) of measuring axis.sigma on the state with Bloch vector r.

    Born rule: P(+1) = (1 + r.axis)/2.  The axis must be a unit vector.
    Returns a single int for ``size=None``, otherwise an int array of +/-1.
    """
    if not isinstance(r, BlochVector):
        r = BlochVector.from_array(r)
    av = as_vector3(axis)
    if abs(float(np.linalg.norm(av)) - 1.0) > ATOL:
        raise ValueError("measurement axis must be a unit vector")
    p = 0.5 * (1.0 + r.x * av[0] + r.y * av[1] + r.z * av[2])
    p = min(max(p, 0.0), 1.0)
    if size is None:
        return 1 if rng.random() < p else -1
    return np.where(rng.random(size) < p, 1, -1)
