"""Hypothesis pieces shared by the property tests.

Kept out of helpers.py: the benchmark imports helpers.py, and importing
hypothesis there would add to every workload's peak memory.
"""

import math

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st

# derandomized, with no example database
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)

_coordinate = st.floats(-1.0, 1.0, allow_nan=False)
# directions as vectors of length above 0.1, normalised by unit()
direction = st.tuples(_coordinate, _coordinate, _coordinate).filter(
    lambda v: 0.1 < math.sqrt(v[0] ** 2 + v[1] ** 2 + v[2] ** 2))


def unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)
