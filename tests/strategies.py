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


# ------------------------------------------------- the frame's stress families
# Pairs close to (anti)parallel, pure states, one tiny state and pairs just
# off the |d0| = |pi0 - pi1| boundary, as lengths, priors and tilts, and as
# whole nontrivial configs.

length = st.floats(0.05, 1.0)
prior = st.floats(0.05, 0.95)
tilt = st.floats(-13.0, -3.0).map(lambda e: 10.0 ** e)


def orthonormal_pair(v, other):
    """Unit n along v and unit m orthogonal to n, in the plane of v and other."""
    n = unit(v)
    m = np.cross(n, other)
    if np.linalg.norm(m) < 1e-3:
        m = np.cross(n, [1.0, 0.0, 0.0] if abs(n[0]) < 0.9 else [0.0, 1.0, 0.0])
    return n, unit(np.cross(m, n))


def _near_parallel(v, other, a, b, pi0, eps, sign):
    n, m = orthonormal_pair(v, other)
    return a * n, sign * b * unit(n + eps * m), pi0


def _pure(v, other, b, pi0, s_pure, eps):
    r0 = unit(v)
    return r0, unit(np.asarray(other) + eps * r0) * (1.0 if s_pure else b), pi0


def _one_tiny(v, other, b, pi0, tiny, s_tiny):
    long, short = b * unit(v), tiny * unit(other)
    return (long, short, pi0) if s_tiny else (short, long, pi0)


def _off_boundary(v, other, b, pi0, gap):
    """|d0| = |pi0 - pi1| (1 + gap): r0 is solved from d0 and s0."""
    pi1 = 1.0 - pi0
    s0 = b * unit(other)
    d0 = abs(pi0 - pi1) * (1.0 + gap) * unit(v)
    return (d0 + pi1 * s0) / pi0, s0, pi0


def _valid_nontrivial(c) -> bool:
    return all(np.linalg.norm(state) <= 1.0 + 1e-12 for state in c[:2]) and _margin(c) > 1e-14


# (r0, s0, pi0) of each stress family by name, valid and nontrivial; the
# tiny state is 5e-324 to 1e-9 long.  At least 1e-14 inside the nontrivial
# regime, well above the rounding band of helstrom.regime (at most 9 eps),
# so that float and exact arithmetic agree that the config is nontrivial
# (a pure pair s0 = r0 sits on the boundary).
_tiny = st.just(5e-324) | st.floats(-323.3, -9.0).map(lambda e: 10.0 ** e)
FRAME_STRESS_FAMILIES = {
    name: strategy.filter(_valid_nontrivial) for name, strategy in {
        "near_parallel": st.builds(_near_parallel, direction, direction, length, length,
                                   prior, tilt, st.just(1.0)),
        "near_antiparallel": st.builds(_near_parallel, direction, direction, length, length,
                                       prior, tilt, st.just(-1.0)),
        "pure": st.builds(_pure, direction, direction, length, prior, st.booleans(),
                          st.just(0.0) | tilt),
        "tiny_r0": st.builds(_one_tiny, direction, direction, length, prior, _tiny,
                             st.just(False)),
        "tiny_s0": st.builds(_one_tiny, direction, direction, length, prior, _tiny,
                             st.just(True)),
        "off_boundary": st.builds(_off_boundary, direction, direction, length,
                                  prior.filter(lambda pi0: abs(2.0 * pi0 - 1.0) > 0.02),
                                  st.floats(-12.0, -3.0).map(lambda e: 10.0 ** e)),
    }.items()
}
# a config of any stress family
frame_stress_config = st.one_of(*FRAME_STRESS_FAMILIES.values())

# ------------------------------------- configs within rounding of the boundary
# r0 = s0 = unit((1, 0, 0.9375)) at pi0 = 0.75: exactly trivial (|r0| = 1 -
# 6.4e-18), while fl(|d0|) - fl(|pi0 - pi1|) = +1.1e-16 alone reads nontrivial
ROUNDED_BOUNDARY = ((0.7295372041400852, 0.0, 0.6839411288813297),
                    (0.7295372041400852, 0.0, 0.6839411288813297), 0.75)


def pure_pairs(count=20_000, seed=5):
    """(r, r, pi0) of a float unit r in a random direction and pi0 uniform in
    (0.05, 0.95): each on the boundary up to the rounding of |r| = 1."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        pi0 = rng.uniform(0.05, 0.95)
        r = tuple(unit(rng.normal(size=3)).tolist())
        yield r, r, pi0
