"""Qubit states as Bloch vectors.

A state is a Bloch vector r with |r| <= 1 (rho = (I + r.sigma)/2) and a
rank-1 projector is a unit Bloch vector p (P = (I + p.sigma)/2).  Every
Hermitian 2x2 matrix decomposes as A = alpha*I + beta.sigma and has
eigenvalues alpha +/- |beta|, so the package works on Bloch components
alone: no 2x2 matrix is ever built, and results are exact up to a handful
of rounding operations.  A projector is its rank and, at rank 1, p.

Direction and difference vectors (measurement axes, d = pi0*r - pi1*s, ...)
carry no norm constraint and are passed around as plain float triples.
This module, like the rest of the closed-form layer, loads without numpy.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from numbers import Real

# Absolute tolerance for norm checks.  All inputs are analytically
# constructed, so 1e-12 only absorbs rounding.
ATOL = 1e-12

# float and int first: they are cheap to test and cover Python and numpy
# float64 scalars; the abstract Real admits the other numpy scalar types
_REAL = (float, int, Real)


class InvalidStateError(ValueError):
    """Input does not describe a valid qubit state or operator."""


def as_float3(x) -> tuple[float, float, float]:
    """A BlochVector or any length-3 sequence of numbers as three floats."""
    if isinstance(x, BlochVector):
        return x.x, x.y, x.z
    try:
        a, b, c = x
    except (TypeError, ValueError):
        raise ValueError(f"expected a 3-vector, got {x!r}") from None
    # real numbers only: a (3, 1) array, a 3-key dict or a 3-character
    # string has three elements but is no 3-vector
    if isinstance(a, _REAL) and isinstance(b, _REAL) and isinstance(c, _REAL):
        return float(a), float(b), float(c)
    raise ValueError(f"expected a 3-vector of real numbers, got {x!r}")


def _scaled(x, y, z):
    """(x, y, z, big) of v/big and big = max_j |v_j| (1 where v = 0),
    elementwise over floats or equal-shape arrays: a tiny v keeps its digits."""
    ax, ay, az = abs(x), abs(y), abs(z)
    big = (ax >= ay) * ax + (ax < ay) * ay  # exact: one of the terms is 0
    big = (big >= az) * big + (big < az) * az
    big = big + (big == 0.0)  # 1 where v = 0
    return x / big, y / big, z / big, big


def _rescaled_norm(x, y, z):
    """|v| from ``_scaled`` v, elementwise; 0 for v = 0."""
    x, y, z, big = _scaled(x, y, z)
    ss = x * x + y * y + z * z
    return big * (math.sqrt(ss) if isinstance(ss, float) else ss ** 0.5)


def vector_norm(v):
    """|v| of a float triple v, or the norm of each column of a (3, ...)
    float array v.

    Below the smallest normal float the sum of squares loses its digits
    (|v| < ~1e-154); there the vector is rescaled first (``_rescaled_norm``).
    Both routes sum the squares as (x^2 + y^2) + z^2, both square roots are
    correctly rounded, and numpy evaluates an array's ** 0.5 as np.sqrt, so
    a column's norm equals the same triple's float result bit for bit.  An
    array is squared in one pass and its norms formed in place; one
    reduction tells whether any column needs the rescaled route, and only
    then is the mask of those columns built.
    """
    if isinstance(v, tuple):
        x, y, z = v
        squares = x * x + y * y + z * z
        if squares < sys.float_info.min:
            return _rescaled_norm(x, y, z)
        return math.sqrt(squares)
    squared = v * v
    norm = squared[0] + squared[1]
    norm += squared[2]
    # a NaN fails the test as well, so it cannot hide a tiny column from
    # the masked route; an empty batch has no tiny column
    if norm.min(initial=math.inf) >= sys.float_info.min:
        norm **= 0.5
        return norm
    tiny = norm < sys.float_info.min
    norm **= 0.5
    norm[tiny] = _rescaled_norm(*v[:, tiny])
    return norm


class BlochVector(namedtuple("BlochVector", "x y z")):
    """Bloch vector (x, y, z) of a qubit state, three real numbers with norm
    at most 1; ``_make`` and ``_replace`` check it as the constructor does.

    Only state vectors are wrapped in this type.  Unconstrained 3-vectors
    (directions, differences) stay plain float triples.
    """

    __slots__ = ()

    def __new__(cls, x, y, z):
        self = tuple.__new__(cls, (x, y, z))
        n = vector_norm(self)
        if not n <= 1.0 + ATOL:  # a NaN norm fails too
            # finite entries whose squares overflow give an infinite norm
            if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
                raise InvalidStateError("Bloch vector has non-finite entries")
            raise InvalidStateError(f"Bloch vector norm {n!r} exceeds 1")
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def norm(self) -> float:
        return vector_norm(self)

    @classmethod
    def from_array(cls, arr) -> "BlochVector":
        """The state with Bloch components ``arr``; a BlochVector is returned as is."""
        if isinstance(arr, BlochVector):
            return arr
        return cls(*as_float3(arr))
