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
trials is evaluated as arrays.  Up to n = _HISTOGRAM_MAX_N a chunk's
counts are drawn as histograms over the class sizes and the counts, one
multinomial per axis, then paired at random within each class size;
above it each axis draws one binomial count per trial, at a cost that is
the same at every n (run_experiment gives the draw order of both).  An axis
measured on zero copies (a class with fewer than three copies) estimates
0, so every trial has a defined outcome: with no copies of a class its
estimate is the maximally mixed state, and an estimated prior of 0 or 1
gives the rank-0 or rank-2 plug-in by the usual rule.

The excess risk of the resulting projector is evaluated exactly through
the trace formula (conditional on the projector it is a deterministic
number, so no test copies are sampled); the per-outcome sampler and the
sampled-test-copy estimate survive as test oracles.
"""

from __future__ import annotations

import math
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
        # a bool is an int to Python, but never a copy count
        if isinstance(self.n, (bool, np.bool_)) or int(self.n) != self.n or self.n < 1:
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

# Largest n whose chunks are drawn as histograms (see run_experiment).  A
# histogram chunk costs a multinomial step per (class size, count) cell,
# O(n^1.5) cells per axis with random labels, plus O(size) repeats and
# shuffles; numpy's per-trial binomial costs grow with m * min(p, 1 - p)
# up to its BTPE switch and then stay flat.  On the README anchor with
# random labels (2-vCPU box, in-process) the histogram path is 6x faster
# at n = 300, 1.5x at n = 1500 and 3x slower at n = 3000.
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
    Bloch ball, in place."""
    x, y, z = est
    norm = x * x
    norm += y * y
    norm += z * z
    np.sqrt(norm, out=norm)
    est /= np.maximum(norm, 1.0, out=norm)
    return est


def _tomography(r: BlochVector, m, size: int, rng: np.random.Generator) -> np.ndarray:
    """Pauli-tomography estimates of r for ``size`` trials with m copies each.

    m is an int shared by every trial or an int array of length ``size``.
    Axis j (x, y, z in turn) gets m_j = (m + 2 - j) // 3 copies and draws
    one count k_j ~ Binomial(m_j, (1 + r_j)/2) per trial, all ``size``
    counts in one call; its estimate is the outcome average
    (2 k_j - m_j)/m_j, or 0 when m_j = 0.  numpy draws the same variates
    for an int m as for a constant array of it, so the shape of m changes
    only the cost: a shared int, or equal sizes next to each other, spares
    the sampler its per-(m_j, p) set-up.  Estimates outside the Bloch ball
    are clipped radially to the unit sphere.  Returns a (3, size) array
    whose rows are the x, y, z estimates.
    """
    est = np.empty((3, size))
    for j, r_j in enumerate((r.x, r.y, r.z)):
        m_j = (m + (2 - j)) // 3
        est[j] = _outcome_average(rng.binomial(m_j, _axis_probability(r_j), size), m_j)
    return _clip_to_ball(est)


def _binomial_pmf_rows(m: np.ndarray, p: float, log_factorial: np.ndarray):
    """Binomial(m_g, p) pmf for each entry m_g of m, one row each.

    Returns (k, pmf), two (len(m), max(m) + 1) arrays: row g holds the
    counts k = 0..m_g and their probabilities in its last m_g + 1 columns,
    after padding with k < 0 and probability 0.  numpy's multinomial gives
    the last column whatever the earlier ones leave, and that column is
    always a possible count, so rounding of the pmf cannot put a draw in
    the padding.  ``log_factorial[k]`` is log k!.  p in {0, 1} and m_g = 0
    are exact point masses, and no padding entry is exponentiated.
    """
    width = int(m.max()) + 1
    k = np.arange(width) - (width - 1 - m)[:, None]
    mk = np.broadcast_to(m[:, None], k.shape)
    if p == 0.0 or p == 1.0:
        return k, (k == (0 if p == 0.0 else mk)).astype(float)
    pmf = np.zeros(k.shape)
    valid = k >= 0
    kv, mv = k[valid], mk[valid]
    pmf[valid] = np.exp(log_factorial[mv] - log_factorial[kv] - log_factorial[mv - kv]
                        + kv * math.log(p) + (mv - kv) * math.log1p(-p))
    pmf /= pmf.sum(axis=1, keepdims=True)
    return k, pmf


def _histogram_tomography(r: BlochVector, m: np.ndarray, h: np.ndarray, log_factorial,
                          rng: np.random.Generator, keep_first: bool) -> np.ndarray:
    """``_tomography`` drawn as histograms: h[g] trials have m[g] copies.

    Axis j draws one multinomial of h over the Binomial(m_j, p_j) pmf rows
    of the groups and expands the outcome averages of the cells with
    np.repeat, so a group's estimates come out sorted.  Each axis is then
    shuffled within each group (group by group, in the order of m), except
    the first when ``keep_first``, so the three axes pair independently.
    The trials come out grouped as np.repeat(m, h).
    """
    est = np.empty((3, int(h.sum())))
    ends = np.cumsum(h)
    for j, r_j in enumerate((r.x, r.y, r.z)):
        m_j = (m + (2 - j)) // 3
        k, pmf = _binomial_pmf_rows(m_j, _axis_probability(r_j), log_factorial)
        est[j] = np.repeat(_outcome_average(k, m_j[:, None]).ravel(),
                           rng.multinomial(h, pmf).ravel())
        if j > 0 or not keep_first:
            for lo, hi in zip(ends - h, ends):
                rng.shuffle(est[j, lo:hi])
    return _clip_to_ball(est)


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
    pass).  Fixed counts use the one class size n0 = round(pi0 * n) (halves
    rounded up) for every trial; random labels draw n0 ~ Binomial(n, pi0).
    The chunk's trials come out ordered by class size, so a trial's value
    is fixed by (seed, CHUNK_SIZE, its index), not by its index alone.  Two
    samplers draw the counts, chosen by n:

    * n <= _HISTOGRAM_MAX_N draws histograms.  Random labels first draw the
      class-size histogram h ~ Multinomial(size, Binomial(n, pi0) pmf); the
      n0 values with h > 0 are the groups (fixed counts: one group of
      size).  Then the x, y, z axes of rho, then of sigma, each draw one
      multinomial over the groups' count pmfs and shuffle the estimates
      within each group, except rho's x axis (see _histogram_tomography).
      No trial draws a count of its own.
    * Larger n draws per trial: the class sizes with one binomial call,
      sorted (random labels only), then the x, y, z counts of rho, then of
      sigma, one binomial call each for the whole chunk (see _tomography).

    Both give every trial the same law, and the chunk is reduced to its
    order-free Moments.

    mean_rescaled_excess is n * (sample mean excess risk); fraction_exact
    counts trials whose excess is exactly zero (the learned projector
    reproduced the oracle, the generic event in the trivial regime).
    """
    n, pi0 = spec.n, spec.pi0
    rho, sigma = spec.problem.r, spec.problem.s
    truth = pauli_data(rho, sigma, pi0)
    fixed = spec.label_mode is LabelMode.FIXED_COUNTS
    fixed_n0 = math.floor(pi0 * n + 0.5)

    if n <= _HISTOGRAM_MAX_N:
        log_factorial = np.array([math.lgamma(k + 1.0) for k in range(n + 1)])
        labels_pmf = _binomial_pmf_rows(np.array([n]), pi0, log_factorial)[1][0]

        def draw(rng, size):
            if fixed:
                n0, h = np.array([fixed_n0]), np.array([size])
            else:
                h = rng.multinomial(size, labels_pmf)
                n0 = np.flatnonzero(h)
                h = h[n0]
            r_hat = _histogram_tomography(rho, n0, h, log_factorial, rng, keep_first=True)
            s_hat = _histogram_tomography(sigma, n - n0, h, log_factorial, rng,
                                          keep_first=False)
            return r_hat, s_hat, fixed_n0 if fixed else np.repeat(n0, h)
    else:
        def draw(rng, size):
            if fixed:
                n0 = fixed_n0
            else:
                n0 = rng.binomial(n, pi0, size)
                n0.sort()
            return _tomography(rho, n0, size, rng), _tomography(sigma, n - n0, size, rng), n0

    def chunk_fn(rng, size):
        r_hat, s_hat, n0 = draw(rng, size)
        pi_hat = pi0 if spec.known_priors else n0 / n
        out = np.empty(size)
        for lo in range(0, size, _KERNEL_BLOCK):
            b = slice(lo, lo + _KERNEL_BLOCK)
            out[b] = _plugin_excess(
                truth, _Columns(*r_hat[:, b]), _Columns(*s_hat[:, b]),
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
    results = []
    for idx, n in enumerate(n_list):
        spec = TrainingSetSpec(
            n=n, problem=problem, label_mode=label_mode, known_priors=known_priors
        )
        results.append(run_experiment(spec, trials, (seed, idx), workers=workers))
    return results
