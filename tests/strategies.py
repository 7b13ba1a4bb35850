"""Hypothesis pieces shared by the property tests.

Kept out of helpers.py: the benchmark imports helpers.py, and importing
hypothesis there would add to every workload's peak memory.
"""

import math

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st

from qclass import TrivialityVerdict, triviality_check

# derandomized, with no example database
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)

_coordinate = st.floats(-1.0, 1.0, allow_nan=False)
# directions as vectors of length above 0.1, normalised by unit()
direction = st.tuples(_coordinate, _coordinate, _coordinate).filter(
    lambda v: 0.1 < math.sqrt(v[0] ** 2 + v[1] ** 2 + v[2] ** 2))


def unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


# Bloch lengths, with pure states (length 1) drawn often
_length = st.one_of(st.just(1.0), st.floats(0.05, 1.0))


def _config(v, w, a, b, pi0):
    return a * unit(v), b * unit(w), pi0


# (r0, s0, pi0) in the nontrivial regime, pure states included
nontrivial_config = st.builds(_config, direction, direction, _length, _length,
                              st.floats(0.1, 0.9)).filter(
    lambda c: triviality_check(*c) is TrivialityVerdict.NONTRIVIAL)


def _margin(c) -> float:
    """|d0| - |pi0 - pi1|: how far (r0, s0, pi0) lies inside the nontrivial
    regime."""
    r, s, pi0 = c
    return float(np.linalg.norm(pi0 * r - (1.0 - pi0) * s)) - abs(2.0 * pi0 - 1.0)


# (r0, s0, pi0) of two mixed states (Bloch lengths 0.05 to 0.95), at least
# 0.01 inside the nontrivial regime
mixed_config = st.builds(_config, direction, direction, st.floats(0.05, 0.95),
                         st.floats(0.05, 0.95), st.floats(0.1, 0.9)).filter(
    lambda c: _margin(c) >= 0.01)
