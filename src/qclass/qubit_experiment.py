"""Finite-n qubit experiments.

The measurable plug-in strategy at the qubit level: split the n labelled
copies by class, run Pauli tomography on each class (copies of a class
divided equally over the x, y, z axes, remainder to x then y), clip the
averaged outcomes radially to the Bloch ball, estimate the prior from the
label counts (or use the known one), and classify with the projector onto
the positive eigenspace of pi0_hat*rho_hat - pi1_hat*sigma_hat.

The average of the m_j outcomes +/-1 on axis j depends on them only
through the number k_j of +1 outcomes, k_j ~ Binomial(m_j, (1 + r_j)/2),
so each trial needs six counts instead of n outcomes; a whole chunk of
trials is evaluated as arrays.  A chunk's trials come in groups of equal
class size, and one sampler draws each axis's counts for all of them: up
to n = _HISTOGRAM_MAX_N as one multinomial over the groups' count
histograms, from pmf rows built once per run, with the six axes paired
at random by one permutation call per group; above it as one binomial
call at a cost that is the same at every n (see _tomography;
run_experiment gives the draw order).  An axis measured on zero copies (a
class with fewer than three copies) estimates 0, so every trial has a
defined outcome: with no copies of a class its estimate is the maximally
mixed state, and an estimated prior of 0 or 1 gives the rank-0 or rank-2
plug-in by the usual rule.

The excess risk of the resulting projector is evaluated exactly through
the trace formula (conditional on the projector it is a deterministic
number, so no test copies are sampled); the per-outcome sampler and the
sampled-test-copy estimate survive as test oracles.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .helstrom import ClassificationProblem, excess_trace, pauli_data, positive_rank
from .montecarlo import ExperimentResult, run_chunked, summarize
from .qubit_core import BlochVector


# Largest n a TrainingSetSpec accepts.  Above it the exact excess, of order
# 1/n, sinks to the rounding error of the trace formula Tr[A P*] - Tr[A P]
# (at n = 1e15 the mean is already biased low), so results would be wrong
# without any error being raised.
MAX_N = 10**12


class LabelMode(Enum):
    RANDOM_LABELS = "random"
    FIXED_COUNTS = "fixed"


@dataclass(frozen=True)
class TrainingSetSpec:
    """Configuration of one finite-n training experiment."""

    n: int
    problem: ClassificationProblem
    label_mode: LabelMode = LabelMode.RANDOM_LABELS
    known_priors: bool = False

    def __post_init__(self) -> None:
        # a bool is an int to Python, but never a copy count; the range test
        # comes first, as int() of inf or NaN raises an error that names no n
        if (isinstance(self.n, (bool, np.bool_)) or not 1 <= self.n < math.inf
                or int(self.n) != self.n):
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        if self.n > MAX_N:
            raise ValueError(f"n must be at most 10**12 (the excess risk falls to "
                             f"rounding error above it), got {self.n!r}")
        # stored as an int: the histogram sampler sizes and indexes tables by n
        object.__setattr__(self, "n", int(self.n))

    @property
    def pi0(self) -> float:
        return self.problem.pi0


class _Columns(NamedTuple):
    """Bloch vectors of a batch of trials, one 1-D array per coordinate."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray


# Trials per pass of the plug-in kernel over a chunk's estimates.  The
# kernel's arrays then stay small next to the estimates themselves, so the
# chunk's peak memory is set by the six count draws, not by the kernel.
_KERNEL_BLOCK = 8192

# Largest n whose counts are drawn as histograms (see _tomography).  A
# histogram chunk costs a multinomial step per (class size, count) cell,
# O(n^1.5) cells per axis with random labels, plus O(size) repeats and
# permutations, and each pmf row it needs once per run.  numpy's per-trial
# binomial costs grow with m * min(p, 1 - p) up to its BTPE switch and
# then stay flat.  On the README anchor with random labels (2-vCPU box,
# in-process) the histogram path is 6x faster at n = 300, 1.5x at n =
# 1500 and 3x slower at n = 3000.
_HISTOGRAM_MAX_N = 1024


def _axis_probability(r_j: float) -> float:
    """P(+1) for a Pauli measurement along an axis with Bloch coordinate r_j."""
    return min(max(0.5 * (1.0 + r_j), 0.0), 1.0)


def _outcome_average(k, m) -> np.ndarray:
    """(2k - m)/m, the average of m outcomes +/-1 of which k are +1, or 0
    where m = 0; elementwise over k and m."""
    avg = np.multiply(k, 2.0)
    avg -= m
    avg /= np.maximum(m, 1)
    return avg


def _clip_to_ball(est: np.ndarray) -> np.ndarray:
    """Clip the columns of a (3, size) array of estimates radially to the
    Bloch ball, in place.  Only the columns with squared norm above 1 are
    divided, by their norm: every other column's divisor max(norm, 1)
    would be exactly 1.0."""
    x, y, z = est
    norm = x * x
    norm += y * y
    norm += z * z
    outside = np.flatnonzero(norm > 1.0)
    if outside.size:
        scale = np.sqrt(norm[outside])
        for row in est:
            row[outside] /= scale
    return est


def _count_grid(m: np.ndarray, width: int) -> np.ndarray:
    """(len(m), width) counts: row g holds k = 0..m_g in its last m_g + 1
    columns, after padding with k < 0."""
    return np.arange(width) - (width - 1 - m)[:, None]


def _binomial_pmf_rows(m: np.ndarray, p: float, width: int | None = None):
    """Binomial(m_g, p) pmf for each entry m_g of m, one row each.

    Returns (k, pmf), two (len(m), width) arrays laid out as _count_grid,
    width max(m) + 1 unless given: row g holds the counts k = 0..m_g and
    their probabilities in its last m_g + 1 columns, after padding with
    k < 0 and probability 0.  A row's floats depend only on m_g, p and the
    width.  numpy's multinomial gives the last column whatever the earlier
    ones leave, and that column is always a possible count, so rounding of
    the pmf cannot put a draw in the padding.  The log k! come from
    math.lgamma.  p in {0, 1} and m_g = 0 are exact point masses, and no
    padding entry is exponentiated.
    """
    if width is None:
        width = int(m.max()) + 1
    k = _count_grid(m, width)
    mk = np.broadcast_to(m[:, None], k.shape)
    if p == 0.0 or p == 1.0:
        return k, (k == (0 if p == 0.0 else mk)).astype(float)
    log_factorial = np.array([math.lgamma(i + 1.0) for i in range(width)])
    pmf = np.zeros(k.shape)
    valid = k >= 0
    kv, mv = k[valid], mk[valid]
    pmf[valid] = np.exp(log_factorial[mv] - log_factorial[kv] - log_factorial[mv - kv]
                        + kv * math.log(p) + (mv - kv) * math.log1p(-p))
    pmf /= pmf.sum(axis=1, keepdims=True)
    return k, pmf


class _CountTable:
    """The Binomial(m_j, p) pmf rows of one axis, for copy counts m_j up to
    ``top``, each built once per run when a chunk first needs it.

    Every row has the width top + 1, so its floats do not depend on which
    rows were built with it, and a run's output not on the order its chunks
    ran in.  The rows built form one range lo..hi - 1, widened as chunks
    need; a run's worker threads share the table, so a lock guards it.
    """

    def __init__(self, p: float, top: int):
        self._p, self._width = p, top + 1
        self._lo = self._hi = self._pmf = None
        self._lock = threading.Lock()

    def rows(self, m_j: np.ndarray) -> np.ndarray:
        """The pmf rows of the copy counts m_j, their last max(m_j) + 1
        columns."""
        lo, hi = int(m_j.min()), int(m_j.max()) + 1
        with self._lock:
            if self._pmf is None:
                self._lo, self._hi, self._pmf = lo, hi, self._build(lo, hi)
            if lo < self._lo:
                self._lo, self._pmf = lo, np.concatenate((self._build(lo, self._lo), self._pmf))
            if hi > self._hi:
                self._hi, self._pmf = hi, np.concatenate((self._pmf, self._build(self._hi, hi)))
            return self._pmf[m_j - self._lo, -hi:]

    def _build(self, lo: int, hi: int) -> np.ndarray:
        return _binomial_pmf_rows(np.arange(lo, hi), self._p, self._width)[1]


def _count_tables(r: BlochVector, top: int) -> list[_CountTable]:
    """The histogram count draw's pmf tables of Bloch vector r, one per
    axis j, for class sizes up to ``top``."""
    return [_CountTable(_axis_probability(r_j), (top + 2 - j) // 3)
            for j, r_j in enumerate((r.x, r.y, r.z))]


def _tomography(states, m, h: np.ndarray, rng: np.random.Generator, n: int,
                tables) -> np.ndarray:
    """Pauli-tomography estimates of each Bloch vector in ``states`` over
    class-size groups: h[g] trials have m[i][g] copies of states[i] each,
    out of a training set of n copies.

    Axis j (x, y, z in turn) gets m_j = (m + 2 - j) // 3 copies and
    estimates (2 k_j - m_j)/m_j, or 0 when m_j = 0, from a count k_j ~
    Binomial(m_j, (1 + r_j)/2).  The counts are drawn axis by axis, x, y, z
    of states[0], then of states[1], and how depends on n.  Up to
    _HISTOGRAM_MAX_N one multinomial of h over the groups' pmf rows, taken
    from ``tables`` (the _count_tables of each state, for class sizes up to
    max(m[i]) at least; unused above _HISTOGRAM_MAX_N), gives the number of
    trials in each (group, count) cell, so no trial draws a count of its
    own; then one rng.permuted call per group, in the order of m, shuffles
    every estimate row but the first within the group, so the axes pair
    independently.  Above it one binomial call per axis draws every
    trial's count, against np.repeat(m_j, h) or the int m_j of a single
    group: numpy draws the same variates for both, and a shared int or
    sorted counts spare it its per-(m_j, p) set-up.
    Estimates outside the Bloch ball are clipped radially to the unit
    sphere.  Returns a (3 * len(states), h.sum()) array whose rows 3i to
    3i + 2 are the x, y, z estimates of states[i], with the trials grouped
    as np.repeat(m[0], h).
    """
    size = int(h.sum())
    if n <= _HISTOGRAM_MAX_N:
        averages, taken = [], []
        for m_i, axes in zip(m, tables):
            for j, table in enumerate(axes):
                m_j = (m_i + (2 - j)) // 3
                pmf = table.rows(m_j)
                # the number of trials that take each (group, count) cell
                taken.append(rng.multinomial(h, pmf).ravel())
                k = _count_grid(m_j, pmf.shape[1])
                averages.append(_outcome_average(k, m_j[:, None]).ravel())
        # every axis's cells hold size trials, so the rows come out whole
        est = np.repeat(np.concatenate(averages), np.concatenate(taken)).reshape(-1, size)
        ends = np.cumsum(h)
        for start, end in zip(ends - h, ends):
            rows = est[1:, start:end]
            rng.permuted(rows, axis=1, out=rows)
    else:
        est = np.empty((3 * len(states), size))
        for i, (r, m_i) in enumerate(zip(states, m)):
            # one int, or one count per trial (every group of one trial
            # needs no expanding)
            if m_i.size == 1:
                m_i = int(m_i[0])
            elif m_i.size < size:
                m_i = np.repeat(m_i, h)
            for j, r_j in enumerate((r.x, r.y, r.z)):
                m_j = (m_i + (2 - j)) // 3
                k = rng.binomial(m_j, _axis_probability(r_j), size)
                est[3 * i + j] = _outcome_average(k, m_j)
    for i in range(0, len(est), 3):
        _clip_to_ball(est[i:i + 3])
    return est


def _plugin_excess(truth, r_hat: _Columns, s_hat: _Columns, pi_hat):
    """Exact excess risk of the plug-in projector, one value per estimate.

    The projector is the positive part of pi_hat*rho_hat - pi1_hat*sigma_hat
    and ``truth`` the ``pauli_data`` of the problem.  Elementwise, so each
    entry equals the scalar
    ``excess_risk(positive_part(*pauli_data(r_hat, s_hat, pi_hat)), problem)``
    bit for bit.
    """
    alpha, dx, dy, dz, dn = pauli_data(r_hat, s_hat, pi_hat)
    # d/|d|, the Bloch vector of a rank-1 positive part (as in positive_part);
    # ranks 0 and 2 ignore it, also where |d| = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        dx /= dn
        dy /= dn
        dz /= dn
    return excess_trace(truth, positive_rank(alpha, dn), dx, dy, dz)


def run_experiment(
    spec: TrainingSetSpec, trials: int, seed, workers: int = 1
) -> ExperimentResult:
    """Seeded trials of the plug-in strategy at one n.

    Each chunk is evaluated as arrays over its trials, with no loop over
    trials (the kernel after the draws takes _KERNEL_BLOCK trials per
    pass).  A chunk first draws its class sizes as groups: h[g] trials have
    n0[g] copies of rho, in ascending n0.  Fixed counts are one group, n0 =
    round(pi0 * n) (halves rounded up).  Random labels draw n0 ~
    Binomial(n, pi0): up to _HISTOGRAM_MAX_N as the class-size histogram h
    ~ Multinomial(size, Binomial(n, pi0) pmf), above it as one binomial
    call, sorted, every trial its own group.  Then the x, y, z counts of
    rho, then of sigma, are drawn over the groups, and up to
    _HISTOGRAM_MAX_N the groups are permuted one by one (see _tomography),
    so a trial's value is fixed by (seed, CHUNK_SIZE, its index), not by
    its index alone.  The histogram draw builds each pmf row once per run,
    when a chunk first needs it.  Every trial has the same law, and the
    chunk is reduced to its order-free Moments.

    mean_rescaled_excess is n * (sample mean excess risk); fraction_exact
    counts trials whose excess is exactly zero (the learned projector
    reproduced the oracle, the generic event in the trivial regime).
    """
    n, pi0 = spec.n, spec.pi0
    rho, sigma = spec.problem.r, spec.problem.s
    truth = pauli_data(rho, sigma, pi0)
    fixed = spec.label_mode is LabelMode.FIXED_COUNTS
    histogram = n <= _HISTOGRAM_MAX_N
    n0_fixed = math.floor(pi0 * n + 0.5)
    tables = None
    if histogram:
        # pmf tables up to the largest class size the label law can give
        top = (n0_fixed, n - n0_fixed) if fixed else (n, n)
        tables = [_count_tables(rho, top[0]), _count_tables(sigma, top[1])]
        if not fixed:
            labels_pmf = _binomial_pmf_rows(np.array([n]), pi0)[1][0]

    def chunk_fn(rng, size):
        if fixed:
            n0, h = np.array([n0_fixed]), np.array([size])
        elif histogram:
            h = rng.multinomial(size, labels_pmf)
            n0 = np.flatnonzero(h)
            h = h[n0]
        else:
            # every trial its own group, in ascending class size
            n0 = rng.binomial(n, pi0, size)
            n0.sort()
            h = np.ones(size, dtype=int)
        est = _tomography((rho, sigma), (n0, n - n0), h, rng, n, tables)
        if spec.known_priors:
            pi_hat = pi0
        else:
            # groups of one trial need no expanding
            pi_hat = n0 / n if n0.size == size else np.repeat(n0 / n, h)
        out = np.empty(size)
        for lo in range(0, size, _KERNEL_BLOCK):
            b = slice(lo, lo + _KERNEL_BLOCK)
            out[b] = _plugin_excess(
                truth, _Columns(*est[:3, b]), _Columns(*est[3:, b]),
                pi_hat[b] if isinstance(pi_hat, np.ndarray) else pi_hat,
            )
        return out

    moments = run_chunked(trials, seed, chunk_fn, workers=workers)
    return summarize(moments, n=spec.n, scale=float(spec.n), with_fraction_exact=True)


def rescaled_risk_curve(
    problem: ClassificationProblem,
    n_list,
    trials: int,
    seed: int,
    *,
    label_mode: LabelMode = LabelMode.RANDOM_LABELS,
    known_priors: bool = False,
    workers: int = 1,
) -> list[ExperimentResult]:
    """One ExperimentResult per n in ascending n_list (independent seeds)."""
    n_list = list(n_list)
    if not n_list:
        raise ValueError("n_list must be nonempty")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly ascending")
    # every n is checked before the first one runs
    specs = [TrainingSetSpec(n=n, problem=problem, label_mode=label_mode,
                             known_priors=known_priors) for n in n_list]
    return [run_experiment(spec, trials, (seed, idx), workers=workers)
            for idx, spec in enumerate(specs)]
