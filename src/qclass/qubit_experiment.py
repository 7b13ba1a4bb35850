"""Finite-n qubit experiments and the classical warm-up examples.

The measurable plug-in strategy at the qubit level: split the n labelled
copies by class, run per-copy Pauli tomography on each class (copies of a
class divided equally over the x, y, z axes, remainder to x then y), clip
the averaged outcomes radially to the Bloch ball, estimate the prior from
the label counts (or use the known one), and classify with the projector
onto the positive eigenspace of pi0_hat*rho_hat - pi1_hat*sigma_hat.

The excess risk of the resulting projector is evaluated exactly through
the trace formula (conditional on the projector it is a deterministic
number, so no test copies are sampled); the sampled-test-copy estimate
survives as a test oracle.

Two classical baselines with the same rescaled-risk interface: the
two-Gaussian location problem (excess risk of rate 1/n, midpoint plug-in)
and the two-cell coin problem (exponentially small excess).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import ndtr

from .helstrom import ClassificationProblem, excess_risk, pauli_data, positive_part
from .montecarlo import ExperimentResult, run_chunked, summarize
from .qubit_core import BlochVector, sample_pauli

_AXES = (
    np.array([1.0, 0.0, 0.0]),
    np.array([0.0, 1.0, 0.0]),
    np.array([0.0, 0.0, 1.0]),
)


class DegenerateTrainingSetError(ValueError):
    """A class ended up with no training copies."""


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

    @property
    def pi0(self) -> float:
        return self.problem.pi0


def sample_labels(
    n: int,
    pi0: float,
    rng: np.random.Generator,
    mode: LabelMode = LabelMode.RANDOM_LABELS,
) -> tuple[int, int]:
    """Class sizes (n0, n1) of a training set of n labelled copies.

    RANDOM_LABELS draws n0 ~ Binomial(n, pi0); FIXED_COUNTS uses the
    deterministic n0 = round(pi0 * n) (half-integers round up).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    if mode is LabelMode.FIXED_COUNTS:
        n0 = int(math.floor(pi0 * n + 0.5))
    else:
        n0 = int(rng.binomial(n, pi0))
    return n0, n - n0


def _axis_counts(m: int) -> tuple[int, int, int]:
    base, rem = divmod(m, 3)
    return base + (1 if rem >= 1 else 0), base + (1 if rem >= 2 else 0), base


def tomographic_estimate(r: BlochVector, m: int, rng: np.random.Generator) -> BlochVector:
    """Pauli tomography of the state with Bloch vector r from m copies.

    Each coordinate is the average of the +/-1 outcomes on its third of
    the copies; an estimate outside the Bloch ball is clipped radially to
    the unit sphere so the result is always a valid state.
    """
    if m < 3:
        raise ValueError(f"tomography needs at least 3 copies, got {m!r}")
    est = np.empty(3)
    for j, m_j in enumerate(_axis_counts(m)):
        outcomes = sample_pauli(r, _AXES[j], rng, size=m_j)
        est[j] = outcomes.mean()
    norm = float(np.linalg.norm(est))
    if norm > 1.0:
        est /= norm
    return BlochVector.from_array(est)


def plugin_strategy_run(spec: TrainingSetSpec, rng: np.random.Generator) -> float:
    """One trial of the tomography plug-in; returns its exact excess risk."""
    n0, n1 = sample_labels(spec.n, spec.pi0, rng, spec.label_mode)
    if n0 == 0 or n1 == 0:
        raise DegenerateTrainingSetError(
            f"training set has an empty class (n0={n0}, n1={n1})"
        )
    r_hat = tomographic_estimate(spec.problem.rho.bloch, n0, rng)
    s_hat = tomographic_estimate(spec.problem.sigma.bloch, n1, rng)
    pi_hat = spec.pi0 if spec.known_priors else n0 / spec.n
    p_hat = positive_part(*pauli_data(r_hat, s_hat, pi_hat))
    return excess_risk(p_hat, spec.problem)


def run_experiment(
    spec: TrainingSetSpec, trials: int, seed, workers: int = 1
) -> ExperimentResult:
    """Seeded trials of the plug-in strategy at one n.

    mean_rescaled_excess is n * (sample mean excess risk); fraction_exact
    counts trials whose excess is exactly zero (the learned projector
    reproduced the oracle, the generic event in the trivial regime).
    """

    def chunk_fn(rng, size):
        out = np.empty(size)
        for i in range(size):
            out[i] = plugin_strategy_run(spec, rng)
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


def gaussian_error_probability(t, a: float, b: float):
    """Error probability of guessing the b-class when x >= t (equal priors).

    0.5*(1 - Phi(t - a)) + 0.5*Phi(t - b); vectorised in t.
    """
    return 0.5 * (1.0 - ndtr(t - a)) + 0.5 * ndtr(t - b)


def bayes_risk_gaussian(a: float, b: float) -> float:
    """Minimal error probability, attained at the midpoint threshold."""
    return float(gaussian_error_probability(0.5 * (a + b), a, b))


def classical_gaussian_example(
    a: float, b: float, n: int, trials: int, seed: int, workers: int = 1
) -> ExperimentResult:
    """Midpoint plug-in classifier for N(a,1) vs N(b,1), equal priors.

    Each trial draws the class counts and the class means from their exact
    laws (the means are sufficient), forms the threshold (a_hat+b_hat)/2
    and evaluates its excess error by the exact Gaussian integral.
    Returns the n-rescaled summary; the excess has rate 1/n.
    """
    if not a < b:
        raise ValueError(f"require a < b, got a={a!r}, b={b!r}")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n!r}")
    bayes = bayes_risk_gaussian(a, b)

    def chunk_fn(rng, size):
        n0 = rng.binomial(n, 0.5, size)
        if np.any((n0 == 0) | (n0 == n)):
            raise DegenerateTrainingSetError("a class received no samples")
        a_hat = a + rng.standard_normal(size) / np.sqrt(n0)
        b_hat = b + rng.standard_normal(size) / np.sqrt(n - n0)
        t_hat = 0.5 * (a_hat + b_hat)
        # the midpoint is the exact minimiser, so clamp rounding dust
        return np.maximum(gaussian_error_probability(t_hat, a, b) - bayes, 0.0)

    losses = run_chunked(trials, seed, chunk_fn, workers=workers)
    return summarize(losses, n=n, scale=float(n), with_fraction_exact=True)


def classical_coin_example(
    eta0: float,
    eta1: float,
    p_x0: float,
    n: int,
    trials: int,
    seed: int,
    workers: int = 1,
) -> ExperimentResult:
    """Two-cell plug-in classifier with regression values bounded away from 1/2.

    X in {0, 1} with P(X=0) = p_x0 and eta(x) = P(Y=1|X=x); requires
    eta0 < 1/2 < eta1, so the oracle predicts the cell index.  The plug-in
    classifies by the empirical eta_hat (empty cells fall back to the
    predict-0 rule) and its excess is exactly zero unless an empirical
    frequency crosses 1/2, which happens with exponentially small
    probability; 1 - fraction_exact is the nonzero-excess fraction.
    """
    if not eta0 < 0.5:
        raise ValueError(f"require eta0 < 1/2, got {eta0!r}")
    if not eta1 > 0.5:
        raise ValueError(f"require eta1 > 1/2, got {eta1!r}")
    if not 0.0 < p_x0 < 1.0:
        raise ValueError(f"require 0 < p_x0 < 1, got {p_x0!r}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    margin0 = p_x0 * (1.0 - 2.0 * eta0)
    margin1 = (1.0 - p_x0) * (2.0 * eta1 - 1.0)

    def chunk_fn(rng, size):
        m0 = rng.binomial(n, p_x0, size)
        m1 = n - m0
        k0 = rng.binomial(m0, eta0)
        k1 = rng.binomial(m1, eta1)
        eta0_hat = np.where(m0 > 0, k0 / np.maximum(m0, 1), 0.5)
        eta1_hat = np.where(m1 > 0, k1 / np.maximum(m1, 1), 0.5)
        wrong0 = eta0_hat > 0.5
        wrong1 = eta1_hat <= 0.5
        return wrong0 * margin0 + wrong1 * margin1

    losses = run_chunked(trials, seed, chunk_fn, workers=workers)
    return summarize(losses, n=n, scale=float(n), with_fraction_exact=True)
