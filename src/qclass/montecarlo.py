"""Chunk-deterministic Monte Carlo driver shared by the simulators.

Trials are evaluated in fixed chunks of CHUNK_SIZE.  Chunk c draws from a
fresh Generator(PCG64(SeedSequence((*seed, c)))), and every sampler draws
its variates in a documented fixed column order, so the value attributed
to trial i is a deterministic function of (seed, CHUNK_SIZE, i).  A
sampler may also order the trials within a chunk (a random-label qubit
chunk sorts them by class size), which the chunk size alone fixes.
Chunks are independent and concatenated in index order, which makes the
result independent of how many workers evaluate them.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

CHUNK_SIZE = 1 << 16

Seed = int | tuple[int, ...]


@dataclass(frozen=True)
class ExperimentResult:
    """Summary of a batch of seeded Monte Carlo trials.

    mean_rescaled_excess is the rescaled (n * excess, or already-rescaled
    Gaussian-model loss) sample mean; stderr is its standard error.
    fraction_exact counts trials whose excess is exactly 0.0, i.e. trials
    where the learned projector reproduced the oracle one; it is None for
    simulations where exact recovery is not meaningful.  n is None in the
    limit (Gaussian) model.
    """

    n: int | None
    trials: int
    mean_rescaled_excess: float
    stderr: float
    fraction_exact: float | None = None


def chunk_rng(seed: Seed, chunk_index: int) -> np.random.Generator:
    """Generator for one chunk; entropy is the flattened (seed..., chunk)."""
    entropy = (*seed, chunk_index) if isinstance(seed, tuple) else (seed, chunk_index)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def run_chunked(
    trials: int,
    seed: Seed,
    chunk_fn: Callable[[np.random.Generator, int], np.ndarray],
    workers: int = 1,
) -> np.ndarray:
    """Per-trial values of chunk_fn(rng, size) over all chunks, in order."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    n_chunks = (trials + CHUNK_SIZE - 1) // CHUNK_SIZE

    def one(c: int) -> np.ndarray:
        size = min(CHUNK_SIZE, trials - c * CHUNK_SIZE)
        out = np.asarray(chunk_fn(chunk_rng(seed, c), size), dtype=float)
        if out.shape != (size,):
            raise ValueError(f"chunk_fn returned shape {out.shape}, expected ({size},)")
        return out

    if workers == 1 or n_chunks == 1:
        parts = [one(c) for c in range(n_chunks)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(one, range(n_chunks)))
    return parts[0] if n_chunks == 1 else np.concatenate(parts)


def summarize(
    values: np.ndarray,
    *,
    n: int | None = None,
    scale: float = 1.0,
    with_fraction_exact: bool = False,
) -> ExperimentResult:
    """Mean / stderr summary of per-trial values, rescaled by ``scale``."""
    m = int(values.size)
    mean = float(values.mean())
    sd = float(values.std(ddof=1)) if m > 1 else 0.0
    fraction = float(np.mean(values == 0.0)) if with_fraction_exact else None
    return ExperimentResult(
        n=n,
        trials=m,
        mean_rescaled_excess=scale * mean,
        stderr=scale * sd / math.sqrt(m),
        fraction_exact=fraction,
    )
