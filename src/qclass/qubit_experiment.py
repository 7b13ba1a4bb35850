"""Finite-n qubit experiments.

The measurable plug-in strategy at the qubit level: split the n labelled
copies by class, run Pauli tomography on each class (copies of a class
divided equally over the x, y, z axes, remainder to x then y), clip the
averaged outcomes radially to the Bloch ball, estimate the prior from the
label counts (or use the known one), and classify with the projector onto
the positive eigenspace of pi0_hat*rho_hat - pi1_hat*sigma_hat.

The average of the m_j outcomes +/-1 on axis j depends on them only
through the number k_j of +1 outcomes, k_j ~ Binomial(m_j, (1 + r_j)/2),
so each trial draws six counts instead of n outcomes and costs the same
at every n; a whole chunk of trials is evaluated as arrays.  An axis
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
        if int(self.n) != self.n or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        if self.n > MAX_N:
            raise ValueError(f"n must be at most 10**12 (the excess risk falls to "
                             f"rounding error above it), got {self.n!r}")

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
        k_j = rng.binomial(m_j, min(max(0.5 * (1.0 + r_j), 0.0), 1.0), size)
        np.multiply(k_j, 2.0, out=est[j])
        del k_j  # before the next axis allocates its own
        est[j] -= m_j
        est[j] /= np.maximum(m_j, 1)
    x, y, z = est
    norm = x * x
    norm += y * y
    norm += z * z
    np.sqrt(norm, out=norm)
    est /= np.maximum(norm, 1.0, out=norm)
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
    pass).  Draw order per chunk, each draw one call for the whole chunk:
    the class sizes n0 ~ Binomial(n, pi0) (random labels only), then the
    x, y, z counts of rho, then the x, y, z counts of sigma.  Fixed counts
    use the one int n0 = round(pi0 * n) (halves rounded up) for every
    trial.  Random labels sort the chunk's n0 draw before the counts are
    drawn, so trials with equal class sizes sit next to each other and the
    count sampler reuses its set-up across them; a chunk's trials are
    therefore ordered by class size, and a trial's value is fixed by
    (seed, CHUNK_SIZE, its index), not by its index alone.

    mean_rescaled_excess is n * (sample mean excess risk); fraction_exact
    counts trials whose excess is exactly zero (the learned projector
    reproduced the oracle, the generic event in the trivial regime).
    """
    n, pi0 = spec.n, spec.pi0
    rho, sigma = spec.problem.r, spec.problem.s
    truth = pauli_data(rho, sigma, pi0)

    def chunk_fn(rng, size):
        if spec.label_mode is LabelMode.FIXED_COUNTS:
            n0 = math.floor(pi0 * n + 0.5)
        else:
            n0 = rng.binomial(n, pi0, size)
            n0.sort()
        r_hat = _tomography(rho, n0, size, rng)
        s_hat = _tomography(sigma, n - n0, size, rng)
        pi_hat = pi0 if spec.known_priors else n0 / n
        out = np.empty(size)
        for lo in range(0, size, _KERNEL_BLOCK):
            b = slice(lo, lo + _KERNEL_BLOCK)
            out[b] = _plugin_excess(
                truth, _Columns(*r_hat[:, b]), _Columns(*s_hat[:, b]),
                pi_hat[b] if isinstance(pi_hat, np.ndarray) else pi_hat,
            )
        return out

    losses = run_chunked(trials, seed, chunk_fn, workers=workers)
    return summarize(losses, n=spec.n, scale=float(spec.n), with_fraction_exact=True)


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
