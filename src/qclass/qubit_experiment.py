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
trials is evaluated as arrays.  run_experiment picks one of three
samplers once per run, from the label mode and the spec alone.  Each
draws a chunk's class sizes as groups of equal class size, then each
axis's counts for all of them:

* _alias_sampler for fixed labels, one group: each count is one uniform
  looked up in Walker's alias table of a windowed Binomial(m_j, p_j) row
  (about 19 sigma_j + 31 cells), unless the six tables would not fit in
  their cache together (n above ~1e9).
* _histogram_sampler for random labels up to n = _HISTOGRAM_MAX_N: the
  class sizes are drawn over the windowed Binomial(n, pi0) row, then one
  multinomial per axis over the full-width pmf rows of the groups' copy
  counts, paired by one permutation call per group.
* _binomial_sampler otherwise: one binomial call per axis, at a cost
  that is the same at every n.

The pmf rows and tables depend only on their keys and are kept for the
process in three caches of at most 16 MiB each, so a run's output does
not depend on what ran before it.  An axis measured on zero copies (a
class with fewer than three copies) estimates 0, so every trial has a
defined outcome: with no copies of a class its estimate is the maximally
mixed state, and an estimated prior of 0 or 1 gives the rank-0 or rank-2
plug-in by the usual rule.

The excess risk of the resulting projector is evaluated exactly through
the trace formula (conditional on the projector it is a deterministic
number, so no test copies are sampled); the per-outcome sampler and the
sampled-test-copy estimate are test oracles in tests/helpers.py.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .helstrom import ClassificationProblem, excess_trace, pauli_data, positive_rank
from .montecarlo import ExperimentResult, run_chunked, summarize


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

# Largest n that run_experiment gives to _histogram_sampler with random
# labels.  Such a chunk costs a multinomial step per (class size, count)
# cell, O(n^1.5) cells per axis, plus O(size) repeats and permutations;
# the pmf rows of every copy count its windowed label law can reach are
# built once per process (_COUNT_TABLES).
# numpy's per-trial binomial costs grow with m * min(p, 1 - p) up to its
# BTPE switch and then stay flat.  On the README anchor with random labels
# (2-vCPU box, in-process) the histogram path is 6x faster at n = 300,
# 1.5x at n = 1500 and 3x slower at n = 3000.  Fixed labels draw from
# alias tables instead (_alias_sampler).
_HISTOGRAM_MAX_N = 1024

# Probability mass a windowed pmf row may leave out, 2^-64: far below the
# rounding (2^-53 relative) of the cells it keeps.
_WINDOW_TAIL = 2.0 ** -64


def _axis_probabilities(problem: ClassificationProblem) -> list[float]:
    """P(+1) of the Pauli measurement on each of the six axes, x, y, z of
    rho and then of sigma: (1 + r_j)/2, clamped to [0, 1]."""
    return [min(max(0.5 * (1.0 + r_j), 0.0), 1.0)
            for v in (problem.r, problem.s) for r_j in (v.x, v.y, v.z)]


def _axis_copies(m0, m1) -> list:
    """Copies on each of the six axes, in the order of _axis_probabilities,
    for classes of m0 and m1 copies: m/3 per axis, the remainder to x then
    y.  Elementwise over ints and integer arrays."""
    return [(m + (2 - j)) // 3 for m in (m0, m1) for j in range(3)]


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


def _binomial_pmf_rows(m: np.ndarray, p: float) -> np.ndarray:
    """Binomial(m_g, p) pmf for each entry m_g of m, one row each.

    A read-only (len(m), max(m) + 1) array laid out as _count_grid: row g
    holds the probabilities of k = 0..m_g in its last m_g + 1 columns,
    after padding with probability 0.  A row's floats depend only on m_g,
    p and max(m).  numpy's multinomial gives the last column whatever the
    earlier ones leave, and that column is always a possible count, so
    rounding of the pmf cannot put a draw in the padding.  The log k! come
    from math.lgamma.  p in {0, 1} and m_g = 0 are exact point masses, and
    no padding entry is exponentiated.
    """
    width = int(m.max()) + 1
    k = _count_grid(m, width)
    mk = np.broadcast_to(m[:, None], k.shape)
    if p == 0.0 or p == 1.0:
        pmf = (k == (0 if p == 0.0 else mk)).astype(float)
    else:
        log_factorial = np.array([math.lgamma(i + 1.0) for i in range(width)])
        pmf = np.zeros(k.shape)
        valid = k >= 0
        kv, mv = k[valid], mk[valid]
        pmf[valid] = np.exp(log_factorial[mv] - log_factorial[kv] - log_factorial[mv - kv]
                            + kv * math.log(p) + (mv - kv) * math.log1p(-p))
        pmf /= pmf.sum(axis=1, keepdims=True)
    pmf.flags.writeable = False
    return pmf


def _window_bounds(m: int, p: float) -> tuple[int, int, int]:
    """(mode, lo, hi) of the _binomial_window row of (m, p), m >= 1 and
    0 < p < 1: the row holds the counts lo..hi around the mode."""
    mean = m * p
    log_tail = -math.log(_WINDOW_TAIL / 2.0)
    t = log_tail / 3.0 + math.sqrt(log_tail**2 / 9.0 + 2.0 * log_tail * mean * (1.0 - p))
    mode = min(math.floor((m + 1) * p), m)
    lo = min(max(math.floor(mean - t), 0), mode)
    hi = max(min(math.ceil(mean + t), m), mode)
    return mode, lo, hi


def _window_cells(m: int, p: float) -> int:
    """Cells of the _binomial_window row of (m, p), without building it."""
    if m == 0 or p == 0.0 or p == 1.0:
        return 1
    _, lo, hi = _window_bounds(m, p)
    return hi - lo + 1


def _binomial_window(m: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    """(counts, pmf) of Binomial(m, p) on a window around the mode, the
    cells in order of decreasing probability: from the mode outward.

    The window holds every count k with |k - m p| <= t, clipped to 0..m.
    Bernstein's inequality, P(|k - m p| >= t) <= 2 exp(-t^2 / (2 (v +
    t/3))) with v = m p (1 - p), gives the t at which the dropped mass is
    at most _WINDOW_TAIL = 2^-64, so a row has about 19 sigma + 31 cells.
    It is built in O(window), not O(m): each cell relative to the mode is
    the exp of a cumulative sum of log((m - k)/(k + 1)) + log(p/q) (up) or
    its negative (down), and the row is normalised to sum 1.  Its floats
    depend only on (m, p); p in {0, 1} and m = 0 are exact point masses.
    Both arrays are read-only.
    """
    if m == 0 or p == 0.0 or p == 1.0:
        counts, pmf = np.array([m if p == 1.0 else 0]), np.ones(1)
    else:
        log_odds = math.log(p) - math.log1p(-p)
        mode, lo, hi = _window_bounds(m, p)
        up = np.arange(mode, hi)  # the steps k -> k + 1 above the mode
        down = np.arange(mode, lo, -1)  # and k -> k - 1 below it
        rel = np.concatenate((
            [1.0],
            np.exp(np.cumsum(np.log((m - up) / (up + 1.0)) + log_odds)),
            np.exp(np.cumsum(np.log(down / (m - down + 1.0)) - log_odds)),
        ))
        counts = np.concatenate(([mode], up + 1, down - 1))
        order = np.argsort(-rel, kind="stable")
        counts, pmf = counts[order], rel[order] / rel.sum()
    counts.flags.writeable = False
    pmf.flags.writeable = False
    return counts, pmf


def _alias_table(m: int, p: float) -> np.ndarray:
    """Walker's alias table of the _binomial_window row of (m, p).

    A read-only (3, W) array over the row's W cells, in the row's order:
    each cell's acceptance threshold, its own outcome average (2k - m)/m,
    and the outcome average of its alias.  A uniform u picks cell
    i = floor(W u) and gives its own average if W u - i is below the
    threshold, else its alias's; so cell i has mass (its threshold, plus
    1 - the threshold of each cell aliased to it) / W.

    Vose's pairing, without its loop, in integers: a cell's mass W pmf is
    rounded to a multiple of 2^-b (b = 62 - bits of W, at most 52), the
    mode takes what rounding leaves over, and the rounded row is then
    paired exactly, each threshold a multiple of 2^-b in [0, 1].  So the
    table's law is the row's to within 2^-b in total variation.  A light
    cell (mass below 1) lacks 1 - mass, a heavy cell has mass - 1 to
    spare; laid end to end, the light cells' deficits and the heavy
    cells' surpluses cover one line twice over.  A light cell's alias is
    the heavy cell whose stretch of surplus holds the start of its
    deficit.  A heavy cell's surplus runs out at the first light cell
    whose deficit ends at or past it: the overshoot is the heavy cell's
    own deficit, its threshold is 1 - overshoot, and its alias the next
    heavy cell.  The last heavy cell's surplus ends with the last
    deficit, at threshold 1.
    """
    counts, pmf = _binomial_window(m, p)
    width = pmf.size
    one = 1 << min(52, 62 - width.bit_length())
    mass = np.rint(pmf * float(width * one)).astype(np.int64)
    mass[0] += width * one - int(mass.sum())
    threshold, alias = mass.copy(), np.arange(width)
    # the masses sum to width: some cell is heavy, and if none is light all are 1
    light, heavy = np.flatnonzero(mass < one), np.flatnonzero(mass >= one)
    if light.size:
        deficit = np.cumsum(one - mass[light])
        surplus = np.cumsum(mass[heavy] - one)
        alias[light] = heavy[np.searchsorted(surplus, deficit - (one - mass[light]), side="right")]
        threshold[heavy] = one - (deficit[np.searchsorted(deficit, surplus)] - surplus)
        alias[heavy[:-1]] = heavy[1:]
    table = np.empty((3, width))
    np.divide(threshold, one, out=table[0])
    table[1] = _outcome_average(counts, m)
    table[1].take(alias, out=table[2])
    table.flags.writeable = False
    return table


class _AliasTables(NamedTuple):
    """The alias tables of a fixed-label run's six axes, laid end to end
    for one lookup over all of them."""

    scale: np.ndarray  # (6, 1): each table's cell count W_j, as a float
    offsets: np.ndarray  # (6, 1): where each table starts
    cuts: np.ndarray  # each cell's index in its own table plus its threshold
    averages: np.ndarray  # cell i's alias average at 2i, its own at 2i + 1


def _alias_tables(*laws) -> _AliasTables:
    """_AliasTables of the axes' (m_j, p_j), x, y, z of rho and then of
    sigma, from one _alias_table each.  The arrays are read-only."""
    tables = [_alias_table(m, p) for m, p in laws]
    widths = np.array([table.shape[1] for table in tables])
    cuts = np.concatenate([table[0] + np.arange(table.shape[1]) for table in tables])
    averages = np.empty((cuts.size, 2))
    averages[:, 0] = np.concatenate([table[2] for table in tables])
    averages[:, 1] = np.concatenate([table[1] for table in tables])
    joined = _AliasTables(widths[:, None].astype(float), (np.cumsum(widths) - widths)[:, None],
                          cuts, averages.ravel())
    for array in joined:
        array.flags.writeable = False
    return joined


class _TableCache:
    """build(*key) for the life of the process: count tables whose floats
    depend only on their key, so a run's output never depends on what the
    cache holds.  Least recently used tables leave once the tables kept
    take more than ``budget`` bytes by sizeof(table); a larger table is
    built but not kept.  Worker threads and concurrent runs share a cache,
    so a lock guards it.
    """

    def __init__(self, build, sizeof, budget: int):
        self._build, self._sizeof, self._budget = build, sizeof, budget
        self._used = 0
        self._tables: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def __call__(self, *key):
        with self._lock:
            if key in self._tables:
                self._tables.move_to_end(key)
                return self._tables[key][0]
            table = self._build(*key)
            size = self._sizeof(table)
            if size <= self._budget:
                self._tables[key] = table, size
                self._used += size
                while self._used > self._budget:
                    self._used -= self._tables.popitem(last=False)[1][1]
            return table


# The windowed rows of the random-label class sizes by (n, pi0), 16 bytes
# a cell: at most 16 MiB.
_WINDOWS = _TableCache(_binomial_window, lambda row: row[0].nbytes + row[1].nbytes, 16 << 20)


# A fixed-label run's joined alias tables by its six (m_j, p_j), 24 bytes
# a cell: at most 16 MiB.  A run draws from them only if they fit, up to
# n ~ 1e9 on the README anchor (_alias_tables_fit); above, every run
# would rebuild them.
_ALIAS_MAX_CELLS = (16 << 20) // 24
_ALIAS_TABLES = _TableCache(_alias_tables, lambda tables: 3 * tables.cuts.nbytes,
                            24 * _ALIAS_MAX_CELLS)

# The pmf rows of one axis by (p, m_lo, m_hi), for the copy counts m_lo..m_hi
# that a random-label run can reach, 8 (m_hi - m_lo + 1)(m_hi + 1) bytes
# each: at most 16 MiB.
_COUNT_TABLES = _TableCache(
    lambda p, m_lo, m_hi: _binomial_pmf_rows(np.arange(m_lo, m_hi + 1), p),
    lambda table: table.nbytes, 16 << 20)


def _fixed_n0(spec: TrainingSetSpec) -> int:
    """Copies of rho with fixed labels: round(pi0 * n), halves rounded up."""
    return math.floor(spec.pi0 * spec.n + 0.5)


def _fixed_axis_laws(spec: TrainingSetSpec) -> list[tuple[int, float]]:
    """(m_j, p_j) of the six axes with fixed labels, x, y, z of rho and
    then of sigma."""
    n0 = _fixed_n0(spec)
    return list(zip(_axis_copies(n0, spec.n - n0), _axis_probabilities(spec.problem)))


def _alias_tables_fit(spec: TrainingSetSpec) -> bool:
    """Whether the six alias tables of a fixed-label spec fit in
    _ALIAS_TABLES together, counted from (m_j, p_j) without building a
    row."""
    return sum(_window_cells(m, p) for m, p in _fixed_axis_laws(spec)) <= _ALIAS_MAX_CELLS


def _histogram_sampler(spec: TrainingSetSpec):
    """draw(rng, size) -> (est, n0, h) for random labels, the counts drawn
    as histograms.

    h[g] trials have n0[g] copies of rho, in ascending n0: the nonempty
    cells of h ~ Multinomial(size, windowed Binomial(n, pi0) row), put
    back in ascending class size.  The window drops at most 2^-64 of the
    mass and holds the contiguous sizes lo..hi, so each axis's copy counts
    lie in a range known when the sampler is built, and the groups' rows
    come from one read-only table of that range.  For each axis, x, y, z
    of rho and then of sigma, one multinomial of h over the rows gives the
    number of trials in each (group, count) cell, and np.repeat expands
    their outcome averages; then one rng.permuted call per group shuffles
    every estimate row but rho's x within the group, so the axes pair
    independently.  est holds the unclipped (6, size) estimates in the
    order of the groups.
    """
    n = spec.n
    # the window's cells run from the mode outward over the sizes lo..hi
    sizes, labels_pmf = _WINDOWS(n, spec.pi0)
    ascending = np.argsort(sizes)
    lo, hi = int(sizes.min()), int(sizes.max())
    # copy counts grow with the class size: the window's ends bound them
    tables = [(_COUNT_TABLES(p, m_lo, m_hi), m_lo) for p, m_lo, m_hi in zip(
        _axis_probabilities(spec.problem), _axis_copies(lo, n - hi), _axis_copies(hi, n - lo))]

    def draw(rng, size):
        h = rng.multinomial(size, labels_pmf)[ascending]
        n0 = np.flatnonzero(h)
        h = h[n0]
        n0 += lo
        averages, taken = [], []
        for (table, m_lo), m_j in zip(tables, _axis_copies(n0, n - n0)):
            width = int(m_j.max()) + 1
            k = _count_grid(m_j, width)
            taken.append(rng.multinomial(h, table[m_j - m_lo, -width:]).ravel())
            averages.append(_outcome_average(k, m_j[:, None]).ravel())
        # every axis's cells hold size trials, so the rows come out whole
        est = np.repeat(np.concatenate(averages), np.concatenate(taken)).reshape(6, size)
        ends = np.cumsum(h)
        for start, end in zip(ends - h, ends):
            paired = est[1:, start:end]
            rng.permuted(paired, axis=1, out=paired)
        return est, n0, h

    return draw


def _alias_sampler(spec: TrainingSetSpec):
    """draw(rng, size) -> (est, n0, h) as _histogram_sampler, for fixed
    labels: one group, n0 = [round(pi0 * n)] and h = [size], every count
    drawn from its axis's alias table (_alias_table) by one uniform.

    A chunk draws one (6, size) array of uniforms and turns it into
    estimates in place, _KERNEL_BLOCK trials at a time: x = W_j u picks
    cell floor(x) of axis j's table, which gives its own average if x is
    below the cell's cut (its index plus its threshold), else its
    alias's.  The two averages of a cell sit side by side, so one gather
    reads the estimate.
    """
    scale, offsets, cuts, averages = _ALIAS_TABLES(*_fixed_axis_laws(spec))
    n0 = np.array([_fixed_n0(spec)])

    def draw(rng, size):
        est = rng.random((6, size))
        for lo in range(0, size, _KERNEL_BLOCK):
            x = est[:, lo:lo + _KERNEL_BLOCK]
            x *= scale
            # u < 1 and W_j < 2^53, so x rounds below W_j: floor(x) is a cell
            cell = x.astype(np.intp)
            cell += offsets
            own = x < cuts.take(cell)
            cell <<= 1
            cell += own
            averages.take(cell, out=x, mode="clip")
        return est, n0, np.array([size])

    return draw


def _binomial_sampler(spec: TrainingSetSpec):
    """draw(rng, size) -> (est, n0, h) as _histogram_sampler, by one
    binomial call per axis at a cost that is the same at every n.

    Fixed labels are one group, as in _alias_sampler, whose copy
    counts are drawn against as ints; random labels draw n0 ~ Binomial(n,
    pi0) per trial, sorted, every trial its own group.  numpy draws the
    same variates for an int as for a constant array, and a shared int or
    sorted counts spare it its per-(m_j, p) set-up.
    """
    n, pi0 = spec.n, spec.pi0
    fixed = spec.label_mode is LabelMode.FIXED_COUNTS
    n0_fixed = _fixed_n0(spec)
    probabilities = _axis_probabilities(spec.problem)

    def draw(rng, size):
        if fixed:
            n0, h = np.array([n0_fixed]), np.array([size])
            m = (n0_fixed, n - n0_fixed)
        else:
            n0 = rng.binomial(n, pi0, size)
            n0.sort()
            h = np.ones(size, dtype=int)
            m = (n0, n - n0)
        est = np.empty((6, size))
        for out, m_j, p in zip(est, _axis_copies(*m), probabilities):
            out[:] = _outcome_average(rng.binomial(m_j, p, size), m_j)
        return est, n0, h

    return draw


def _plugin_excess(truth, r_hat: _Columns, s_hat: _Columns, pi_hat):
    """Exact excess risk of the plug-in projector, one value per estimate.

    The projector is the positive part of pi_hat*rho_hat - pi1_hat*sigma_hat
    and ``truth`` the ``pauli_data`` of the problem.  Elementwise, so a
    batch equals each of its trials evaluated alone (as size-1 columns) bit
    for bit, whatever the batch's size and order.
    """
    alpha, dx, dy, dz, dn = pauli_data(r_hat, s_hat, pi_hat)
    # d/|d|, the Bloch vector of a rank-1 positive part; ranks 0 and 2
    # ignore it, also where |d| = 0
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
    trials (the alias draw and the kernel after every draw take
    _KERNEL_BLOCK trials per pass).  One of the three samplers, picked
    once per run from the spec alone (see the module docstring):
    _alias_sampler for fixed labels whose six alias tables fit their
    cache, _histogram_sampler for random labels up to _HISTOGRAM_MAX_N,
    else _binomial_sampler.  It draws a chunk's class sizes as groups and
    the six estimates of every trial, in the order of the groups, so a
    trial's value is fixed by (seed, CHUNK_SIZE, its index), not by its
    index alone.  Every trial has the same law, and the chunk is reduced
    to its order-free Moments.

    mean_rescaled_excess is n * (sample mean excess risk); fraction_exact
    counts trials whose excess is exactly zero (the learned projector
    reproduced the oracle, the generic event in the trivial regime).
    """
    n, pi0 = spec.n, spec.pi0
    truth = pauli_data(spec.problem.r, spec.problem.s, pi0)
    if spec.label_mode is LabelMode.FIXED_COUNTS:
        sampler = _alias_sampler if _alias_tables_fit(spec) else _binomial_sampler
    else:
        sampler = _histogram_sampler if n <= _HISTOGRAM_MAX_N else _binomial_sampler
    draw = sampler(spec)

    def chunk_fn(rng, size):
        est, n0, h = draw(rng, size)
        _clip_to_ball(est[:3])
        _clip_to_ball(est[3:])
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

    [moments] = run_chunked(trials, seed, chunk_fn, workers=workers)
    return summarize(moments, n=spec.n)


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
