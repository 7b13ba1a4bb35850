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
trials is evaluated as arrays.  A run's set-up is one lookup of its
_RunPlan, which _build_plan decides and builds once per key (label mode,
n, pi0, six axis probabilities) and keeps, _PLANS_KEPT plans at most, in
a functools.lru_cache.  The plan's draw takes a chunk's class sizes, one
shared by every trial (fixed labels) or one per trial (random labels),
then each axis's counts for all trials, by one of two samplers:

* the alias draw (_alias_draw): each class size and each count is one
  uniform looked up in Walker's alias table of a windowed Binomial row
  (about 19 sigma + 31 cells), the class size in that of Binomial(n,
  pi0) and the count on axis j in that of Binomial(m_j, p_j) for the
  trial's copy count m_j, a row of the axis's _axis_table, the one
  per-axis law.  It draws fixed labels unless the six tables
  would hold more than _ALIAS_MAX_CELLS cells (n above ~1e9), and random
  labels up to n = _RANDOM_ALIAS_MAX_N.  The tables live only in the
  draw; the plan is the draw and, per class, a flag: whether any
  estimate the draw can give lies outside the Bloch ball, read from the
  cells a lookup can reach: own values of cells with threshold > 0,
  alias values of cells with threshold < 1 (a far-tail cell whose mass
  rounds to 0 is never drawn).  Where no estimate can leave the ball,
  the radial clip would divide nothing, and the run skips it.
* _binomial_draw otherwise: one binomial call per axis, at a cost that
  is the same at every n.

A plan depends only on its key, so a run's output does not depend on
what ran before it.

A new sampler is one more _RunPlan(draw, clip) that _build_plan returns:
its draw(rng, size) gives (est, n0) as the two above do, and each clip
flag is False only where no estimate its draw can give leaves the ball.
The tests reach every sampler through this contract, and a new one is
tested by adding one parameter to their contract test
(tests/test_qubit_experiment.py, TestRunPlanContract).

An axis measured on zero copies (a class with fewer than three copies)
estimates 0, so every trial has a defined outcome: with no copies of a
class its estimate is the maximally mixed state, and an estimated prior
of 0 or 1 gives the rank-0 or rank-2 plug-in by the usual rule.

The excess risk of the resulting projector is evaluated exactly through
the trace formula (conditional on the projector it is a deterministic
number, so no test copies are sampled); the per-outcome sampler and the
sampled-test-copy estimate are test oracles in tests/helpers.py.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .helstrom import ClassificationProblem, excess_trace, pauli_data, rank_masks
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
        # stored as an int: the samplers take copy counts and table keys from n
        object.__setattr__(self, "n", int(self.n))

    @property
    def pi0(self) -> float:
        return self.problem.pi0


# Trials per pass of the plug-in kernel over a chunk's (6, B) estimates.
# Its (3, B) temporaries, at most two alive at once (0.4 MB at B = 8192),
# stay small next to the chunk's 3 MB of estimates, so the chunk's peak
# memory is set by the six count draws, not by the kernel.
_KERNEL_BLOCK = 8192

# Largest n at which run_experiment draws random labels from alias tables.
# Each axis's table then has a row per copy count that the windowed label
# law reaches: at n = 1024 (pi0 = 1/2) about 335 class sizes and 104k
# cells over the six axes, built in about 5 ms when a key is first run.
# Above, per-trial binomials, whose cost does not grow with n, are kept:
# on a 2-vCPU box a cold build at n = 3000 took 13 ms, 30 times a
# 1000-trial binomial run.  ROADMAP item 20 carries the random-label cost
# above this n.
_RANDOM_ALIAS_MAX_N = 1024

# Probability mass a windowed pmf row may leave out, 2^-64: far below the
# rounding (2^-53 relative) of the cells it keeps.
_WINDOW_TAIL = 2.0 ** -64


def _axis_probabilities(problem: ClassificationProblem) -> list[float]:
    """P(+1) of the Pauli measurement on each of the six axes, x, y, z of
    rho and then of sigma: (1 + r_j)/2, clamped to [0, 1]."""
    halves = [0.5 * (1.0 + r_j) for v in (problem.r, problem.s) for r_j in (v.x, v.y, v.z)]
    # a Bloch norm may exceed 1 by ATOL, so p can leave [0, 1]; the clamp
    # runs only there, as min and max on every p cost each run ~1 us
    return [p if 0.0 <= p <= 1.0 else min(max(p, 0.0), 1.0) for p in halves]


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
    # nonzero of the mask is one dispatch fewer than flatnonzero
    outside = (norm > 1.0).nonzero()[0]
    if outside.size:
        scale = np.sqrt(norm[outside])
        for row in est:
            row[outside] /= scale
    return est


def _window_bounds(m, p):
    """(mode, lo, hi) of the _binomial_windows row of (m, p), 0 < p < 1:
    the row holds the counts lo..hi around the mode.  Elementwise over
    ints or arrays m >= 0 and p, as floats."""
    mean = m * p
    log_tail = -math.log(_WINDOW_TAIL / 2.0)
    t = log_tail / 3.0 + np.sqrt(log_tail**2 / 9.0 + 2.0 * log_tail * mean * (1.0 - p))
    mode = np.minimum(np.floor((m + 1) * p), m)
    lo = np.minimum(np.maximum(np.floor(mean - t), 0), mode)
    hi = np.maximum(np.minimum(np.ceil(mean + t), m), mode)
    return mode, lo, hi


def _window_cells(m, p):
    """Cells of the _binomial_windows rows of (m, p), without building
    them; elementwise over ints or arrays m and p."""
    _, lo, hi = _window_bounds(m, p)
    return np.where((p == 0.0) | (p == 1.0), 1, hi - lo + 1)


def _binomial_windows(m: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray]:
    """(counts, pmf) of Binomial(m_r, p) on a window around the mode, one
    row for each entry m_r of the integer array m, a row's cells in order
    of decreasing probability: from the mode outward.

    The window holds every count k with |k - m p| <= t, clipped to 0..m.
    Bernstein's inequality, P(|k - m p| >= t) <= 2 exp(-t^2 / (2 (v +
    t/3))) with v = m p (1 - p), gives the t at which the dropped mass is
    at most _WINDOW_TAIL = 2^-64, so a row has about 19 sigma + 31 cells.
    It is built in O(window), not O(m): each cell relative to the mode is
    the exp of a cumulative sum of log((m - k)/(k + 1)) + log(p/q) (up) or
    its negative (down), and the row is normalised to sum 1.  (Differences
    of log k! would lose about 5 digits at m ~ 1e9.)  A row narrower than
    the widest ends in cells of probability 0.  The floats depend only on
    (m, p), and a one-row array's only on (m_0, p); p in {0, 1} and m_r = 0
    are exact point masses.
    """
    m = np.asarray(m, dtype=np.int64)
    if p == 0.0 or p == 1.0:
        return (m if p == 1.0 else 0 * m)[:, None], np.ones((m.size, 1))
    log_odds = math.log(p) - math.log1p(-p)
    mode, lo, hi = (bound.astype(np.int64)[:, None] for bound in _window_bounds(m, p))
    m = m[:, None]
    up = mode + np.arange((hi - mode).max())  # the steps k -> k + 1 above the mode
    down = mode - np.arange((mode - lo).max())  # and k -> k - 1 below it
    counts = np.concatenate((mode, up + 1, down - 1), axis=1)
    rel = np.ones(counts.shape)
    rise, fall = rel[:, 1:1 + up.shape[1]], rel[:, 1 + up.shape[1]:]
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log((m - up) / (up + 1.0), out=rise)
        np.log(down / (m - down + 1.0), out=fall)
    rise += log_odds
    fall -= log_odds
    # a step past its row's window is -inf, so the cells beyond it get 0
    rise[up >= hi] = -np.inf
    fall[down <= lo] = -np.inf
    for steps in (rise, fall):
        np.exp(np.cumsum(steps, axis=1, out=steps), out=steps)
    order = np.argsort(-rel, axis=1, kind="stable")[:, :int((hi - lo).max()) + 1]
    order += np.arange(0, rel.size, rel.shape[1])[:, None]
    return counts.take(order), rel.take(order) / rel.sum(axis=1, keepdims=True)


def _alias_table(values: np.ndarray, pmf: np.ndarray):
    """Walker's alias table of each row of a (R, W) pmf whose cells hold
    ``values``: (thresholds, own values, alias values), each (R, W).

    A uniform u picks cell i = floor(W u) of a row and gives its own value
    if W u - i is below its threshold, else its alias's; so cell i has
    mass (its threshold, plus 1 - the threshold of each cell aliased to
    it) / W.

    Vose's pairing, without its loop, in integers, for all rows at once:
    a cell's mass W pmf is rounded to a multiple of 2^-b (b = 62 - bits of
    R W, at most 52), each row's first cell takes what rounding leaves
    over, and the rounded rows are paired exactly, each threshold a
    multiple of 2^-b in [0, 1].  So each row's law is its pmf's to within
    2^-b in total variation, and the sums below stay under 2^62.  A light
    cell (mass below 1) lacks 1 - mass, a heavy cell has mass - 1 to
    spare; laid end to end, row after row, the light cells' deficits and
    the heavy cells' surpluses cover one line twice over.  A row's
    deficits equal its surpluses, so the two meet at the end of every
    row, and no cell is paired outside its own.  A light cell's alias is
    the heavy cell whose stretch of surplus holds the start of its
    deficit.  A heavy cell's surplus runs out at the first light cell
    whose deficit ends at or past it: the overshoot is the heavy cell's
    own deficit, its threshold is 1 - overshoot, and its alias the next
    heavy cell.  The last heavy cell of a row ends with its last deficit,
    at threshold 1, so that alias is never taken.  A cell of
    probability 0 (a row's padding) has threshold 0: it gives its alias.
    """
    rows, width = pmf.shape
    one = 1 << min(52, 62 - (rows * width).bit_length())
    mass = np.rint(pmf * float(width * one)).astype(np.int64)
    mass[:, 0] += width * one - mass.sum(axis=1)
    mass = mass.ravel()
    threshold, alias = mass.copy(), np.arange(mass.size)
    # a row's masses sum to width: some cell is heavy, and if none is light all are 1
    light, heavy = np.flatnonzero(mass < one), np.flatnonzero(mass >= one)
    if light.size:
        ends = np.concatenate(([0], np.cumsum(one - mass[light])))
        surplus = np.cumsum(mass[heavy] - one)
        # ends[reach[i]] is the first deficit end at or past heavy cell i's
        # surplus, and the deficits of lights reach[i - 1]..reach[i] - 1
        # start within that surplus
        reach = np.searchsorted(ends, surplus)
        alias[light] = np.repeat(heavy, np.diff(reach, prepend=0))
        threshold[heavy] = one - (ends[reach] - surplus)
        alias[heavy[:-1]] = heavy[1:]
    alias_values = values.ravel()[alias].reshape(rows, width)
    return (threshold / one).reshape(rows, width), values, alias_values


def _axis_table(copies, p: float):
    """The law of one axis's count draw: (thresholds, own averages, alias
    averages), each (R, W), Walker's alias table (_alias_table) of the
    windowed Binomial(m_r, p) row (_binomial_windows) of each entry m_r of
    the copy counts ``copies`` (ints), its cells holding the outcome
    averages (2k - m_r)/m_r."""
    copies = np.asarray(copies)
    counts, pmf = _binomial_windows(copies, p)
    return _alias_table(_outcome_average(counts, copies[:, None]), pmf)


class _AliasTables(NamedTuple):
    """Alias tables laid end to end for one lookup over all of them: the
    count tables of the six axes, x, y, z of rho and then of sigma, or the
    class-size table of random labels."""

    scale: np.ndarray  # (k, 1): each table's row width W_j, as a float
    offsets: np.ndarray  # (k, G): where table j's row for class size low + g starts
    cuts: np.ndarray  # each cell's index in its row plus its threshold
    values: np.ndarray  # cell i's alias value at 2i, its own at 2i + 1


def _joined(tables, rows) -> _AliasTables:
    """_AliasTables of _alias_table outputs, rows[j][g] being the row of
    table j for the g-th class size.  The arrays are read-only."""
    widths = np.array([thresholds.shape[1] for thresholds, _, _ in tables])
    cells = np.array([thresholds.size for thresholds, _, _ in tables])
    offsets = (np.cumsum(cells) - cells)[:, None] + widths[:, None] * np.asarray(rows)
    cuts = np.concatenate([(thresholds + np.arange(thresholds.shape[1])).ravel()
                           for thresholds, _, _ in tables])
    values = np.empty((cuts.size, 2), dtype=tables[0][1].dtype)
    values[:, 0] = np.concatenate([alias.ravel() for _, _, alias in tables])
    values[:, 1] = np.concatenate([own.ravel() for _, own, _ in tables])
    joined = _AliasTables(widths[:, None].astype(float), offsets, cuts, values.ravel())
    for array in joined:
        array.flags.writeable = False
    return joined


def _fixed_n0(n: int, pi0: float) -> int:
    """Copies of rho with fixed labels: round(pi0 * n), halves rounded up."""
    return math.floor(pi0 * n + 0.5)


class _RunPlan(NamedTuple):
    """How a run draws, built once per key by _build_plan: its draw (an
    alias draw holds its tables) and one clip flag per class.  A binomial
    plan clips both classes."""

    draw: Callable  # draw(rng, size) -> (est, n0), see _alias_draw and _binomial_draw
    # rho's and sigma's flags; where one is False, _clip_to_ball would
    # divide no column of that class, so run_experiment skips it
    clip: tuple[bool, bool]


# Run plans kept for the process, least recently used leaving first: a
# CLI call runs each key once, a benchmark pass repeats at most two.  An
# alias plan holds at most _ALIAS_MAX_CELLS cells of 24 bytes, 16 MiB (a
# fixed-label key with more draws by binomials), so four plans take at
# most 64 MiB, near n = 1e9 (2.4 MiB for random labels at n = 1024).  Two
# threads that miss one key may both build it, harmlessly, as a plan
# depends only on its key.
_PLANS_KEPT = 4
_ALIAS_MAX_CELLS = (16 << 20) // 24


@functools.lru_cache(maxsize=_PLANS_KEPT)
def _build_plan(label_mode: LabelMode, n: int, pi0: float, *probabilities) -> _RunPlan:
    """_RunPlan (its draw and two clip flags) of a run at n whose axes
    measure +1 with the given probabilities, by the one rule that picks
    how a run draws.  Random labels draw from alias tables up to n =
    _RANDOM_ALIAS_MAX_N, fixed labels while their six tables hold at most
    _ALIAS_MAX_CELLS cells, counted from (m_j, p_j) without building a row
    (up to n ~ 1.1e9 on the README anchor); the tables live only in the
    alias draw.  Otherwise the plan draws by _binomial_draw.

    Fixed labels have one class size, so each axis's table has one row.
    Random labels draw the class size from the table of the windowed
    Binomial(n, pi0) row, whose contiguous sizes lo..hi give each axis
    contiguous copy counts: the axis's table has one row for each, all as
    wide as its widest row."""
    if label_mode is LabelMode.FIXED_COUNTS:
        n0 = _fixed_n0(n, pi0)
        cells = _window_cells(np.array(_axis_copies(n0, n - n0)), np.array(probabilities))
        alias, labels, sizes = cells.sum() <= _ALIAS_MAX_CELLS, None, np.array([n0])
    elif alias := n <= _RANDOM_ALIAS_MAX_N:
        window, pmf = _binomial_windows(np.array([n]), pi0)
        labels = _joined([_alias_table(window, pmf)], [[0]])
        sizes = np.arange(window.min(), window.max() + 1)
    if not alias:
        return _RunPlan(_binomial_draw(label_mode, n, pi0, *probabilities), (True, True))
    tables, rows = [], []
    for m, p in zip(_axis_copies(sizes, n - sizes), probabilities):
        copies = np.arange(m.min(), m.max() + 1)
        tables.append(_axis_table(copies, p))
        rows.append(m - copies[0])
    # a draw gives a cell's own value only where its threshold is above 0
    # (x >= floor(x) = cut at threshold 0) and its alias's only where the
    # threshold is below 1: no estimate exceeds these in |.| on its axis.
    # Tail cells whose mass rounds to 0, and padding cells, have threshold
    # 0, so their own values never count
    x0, y0, z0, x1, y1, z1 = (
        float(np.abs(np.concatenate((own[thresholds > 0.0], alias[thresholds < 1.0]))).max())
        for thresholds, own, alias in tables)
    # squared and summed in _clip_to_ball's order, (x x + y y) + z z:
    # rounding is monotone, so no drawable estimate's norm exceeds these
    clip = (x0 * x0 + y0 * y0 + z0 * z0 > 1.0, x1 * x1 + y1 * y1 + z1 * z1 > 1.0)
    return _RunPlan(_alias_draw(labels, _joined(tables, rows), int(sizes[0])), clip)


def _alias_cells(x: np.ndarray, tables: _AliasTables, rows=None) -> np.ndarray:
    """The index in tables.values of the value each uniform in x (k, B)
    draws from its table: x = W_j u picks cell i = floor(x) of the row
    that starts at tables.offsets[j, rows] (at tables.offsets[j, 0] for
    every trial if rows is None), which gives its own value (index
    2i + 1) if x is below the cell's cut, else its alias's (2i).  Scales
    x in place."""
    x *= tables.scale
    # u < 1 and W_j < 2^53, so x rounds below W_j: floor(x) is a cell
    cell = x.astype(np.intp)
    if rows is None:
        # fixed labels: a take per axis of all-zero rows gives the same
        # cells but made qubit_large_n ~3% slower than this broadcast
        cell += tables.offsets
    else:
        # one axis at a time: a (k, B) gather of the offsets adds a
        # block-sized temporary, which made an 8192-trial draw ~1.5x slower
        for cell_j, offsets_j in zip(cell, tables.offsets):
            cell_j += offsets_j.take(rows)
    own = x < tables.cuts.take(cell)
    cell <<= 1
    cell += own
    return cell


def _alias_draw(labels: _AliasTables | None, counts: _AliasTables, low: int):
    """draw(rng, size) -> (est, n0): the unclipped (6, size) estimates, x,
    y, z of rho and then of sigma, and the copies of rho, an int shared by
    every trial (fixed labels) or one per trial (random labels).  Every
    class size and count is one uniform looked up in an alias table
    (_alias_table).

    With random labels a chunk first draws one uniform per trial, whose
    lookup in the table of the windowed Binomial(n, pi0) row is the
    trial's class size.  Then it draws one (6, size) array of uniforms and
    turns it into estimates in place, _KERNEL_BLOCK trials at a time: on
    axis j a trial's lookup runs in the row of its copy count m_j, which
    starts at offsets[j, n0 - low].  The two averages of a cell sit side
    by side, so one gather reads the estimate.  With fixed labels each
    axis's table has one row, and the (6, 1) offsets are broadcast.
    """

    def draw(rng, size):
        if labels is None:
            n0 = low
        else:
            n0 = labels.values.take(_alias_cells(rng.random((1, size)), labels)[0])
        est = rng.random((6, size))
        for start in range(0, size, _KERNEL_BLOCK):
            x = est[:, start:start + _KERNEL_BLOCK]
            rows = None if labels is None else n0[start:start + _KERNEL_BLOCK] - low
            counts.values.take(_alias_cells(x, counts, rows), out=x, mode="clip")
        return est, n0

    return draw


def _binomial_draw(label_mode: LabelMode, n: int, pi0: float, *probabilities):
    """draw(rng, size) -> (est, n0) as _alias_draw, by one binomial call
    per axis at a cost that is the same at every n.

    Fixed labels draw against their copy counts as ints; random labels
    draw n0 ~ Binomial(n, pi0) per trial, sorted.  numpy draws the same
    variates for an int as for a constant array, and a shared int or
    sorted counts spare it its per-(m_j, p) set-up.
    """
    fixed = label_mode is LabelMode.FIXED_COUNTS
    n0_fixed = _fixed_n0(n, pi0)

    def draw(rng, size):
        if fixed:
            n0 = n0_fixed
        else:
            n0 = rng.binomial(n, pi0, size)
            n0.sort()
        est = np.empty((6, size))
        for out, m_j, p in zip(est, _axis_copies(n0, n - n0), probabilities):
            out[:] = _outcome_average(rng.binomial(m_j, p, size), m_j)
        return est, n0

    return draw


def _plugin_excess(truth, r_hat: np.ndarray, s_hat: np.ndarray, pi_hat, out=None):
    """Exact excess risk of the plug-in projector, one value per column of
    the (3, B) estimates r_hat and s_hat.

    The projector is the positive part of pi_hat*rho_hat - pi1_hat*sigma_hat
    and ``truth`` the ``pauli_data`` of the problem (its d a float triple
    or a (3, 1) column).  Elementwise, so a batch equals each of its
    trials evaluated alone (as size-1 columns) bit for bit, whatever the
    batch's size and order.  It writes into ``out`` (new if None), which
    may be r_hat's first row: pauli_data reads every estimate into a new
    d before excess_trace writes a value.
    """
    alpha, d, dn = pauli_data(r_hat, s_hat, pi_hat)
    rank0, rank2 = rank_masks(alpha, dn)
    # d/|d|, the Bloch vector of a rank-1 positive part; ranks 0 and 2
    # ignore it, also where |d| = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        d /= dn
    return excess_trace(truth, d, rank0, rank2, out)


def run_experiment(
    spec: TrainingSetSpec, trials: int, seed, workers: int = 1
) -> ExperimentResult:
    """Seeded trials of the plug-in strategy at one n.

    Each chunk is evaluated as arrays over its trials, with no loop over
    trials (the alias draw and the kernel after every draw take
    _KERNEL_BLOCK trials per pass; the kernel, _plugin_excess, reads a
    block's clipped estimates as one stacked (6, B) slice and writes its
    excess over rho's x estimates, which it has read, so every chunk
    returns est[0]).  The truth's d is built once per run as the (3, 1)
    column that the kernel uses as it is.

    The draw and the clip flags come from the spec's cached _RunPlan, one
    _build_plan lookup (see _build_plan for which sampler a key gets).  The
    draw takes a chunk's class sizes and the six estimates of every trial,
    so a trial's value is fixed by (seed, CHUNK_SIZE, its index), not by
    its index alone.  Each class's estimates are clipped to the ball
    unless the plan's flag shows that the clip would divide nothing.
    Every trial has the same law, and the chunk is reduced to its
    order-free Moments.

    mean_rescaled_excess is n * (sample mean excess risk); fraction_exact
    counts trials whose excess is exactly zero (the learned projector
    reproduced the oracle, the generic event in the trivial regime).
    """
    n, pi0 = spec.n, spec.pi0
    alpha, d, dn = pauli_data(spec.problem.r, spec.problem.s, pi0)
    # np.reshape of a tuple goes through np.asarray and takes 3x as long
    truth = alpha, np.array(d).reshape(3, 1), dn
    draw, (clip_rho, clip_sigma) = _build_plan(spec.label_mode, n, pi0,
                                               *_axis_probabilities(spec.problem))

    def chunk_fn(rng, size):
        est, n0 = draw(rng, size)
        if clip_rho:
            _clip_to_ball(est[:3])
        if clip_sigma:
            _clip_to_ball(est[3:])
        for lo in range(0, size, _KERNEL_BLOCK):
            b = slice(lo, lo + _KERNEL_BLOCK)
            # a class size shared by every trial gives one float
            pi_hat = pi0 if spec.known_priors else (
                n0[b] if isinstance(n0, np.ndarray) else n0) / n
            _plugin_excess(truth, est[:3, b], est[3:, b], pi_hat, out=est[0, b])
        return est[0]

    [moments] = run_chunked(trials, seed, chunk_fn, workers=workers)
    return summarize(moments, n=spec.n)

