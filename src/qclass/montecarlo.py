"""Chunk-deterministic Monte Carlo driver shared by the simulators.

Trials are evaluated in fixed chunks of CHUNK_SIZE.  Chunk c draws from a
fresh Generator(PCG64(SeedSequence((*seed, c)))), and every sampler draws
its variates in a documented fixed column order, so the value attributed
to trial i is a deterministic function of (seed, CHUNK_SIZE, i).  A
sampler may also order the trials within a chunk, which the chunk size
alone fixes: a random-label qubit chunk drawn by binomials sorts them by
class size, and one drawn from alias tables leaves them in draw order.
Each chunk is reduced to its Moments inside its task, and the Moments are
merged in chunk-index order, which makes the result independent of how
many workers evaluate the chunks; a run holds one chunk's values per
worker thread, not one value per trial.  A chunk function that can reduce
its own draw returns its Moments instead, one per result (one per strategy
of a Gaussian-model run, all from one reduction of the shared draw), and
the run keeps one Moments per result; a chunk of one array is the
one-result case.  A run starts at most one thread per CPU this process may
run on (its affinity mask, not the machine's CPU count).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import reduce
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


@dataclass(frozen=True)
class Moments:
    """Count, mean, sum of squared deviations from the mean (m2) and number
    of exact zeros of a batch of per-trial values."""

    count: int
    mean: float
    m2: float
    zeros: int

    @classmethod
    def of(cls, values: np.ndarray) -> Moments:
        """Moments of one float array, in numpy's order: ``mean`` is
        bit-identical to ``values.mean()`` and ``m2 / (count - 1)`` to
        ``values.var(ddof=1)``.

        Consumes ``values``: the deviations are formed and squared in place,
        so no second array of its size is allocated, and the array holds
        the squared deviations afterwards.  The mean is numpy's own
        (``add.reduce`` over the array, divided by its size), without the
        wrapper of ``ndarray.mean``.
        """
        mean = values.sum() / values.size
        zeros = values.size - int(np.count_nonzero(values))
        values -= mean
        np.square(values, out=values)
        return cls(int(values.size), float(mean), float(values.sum()), zeros)

    def merge(self, other: Moments) -> Moments:
        """Moments of both batches (Chan, Golub and LeVeque's pairwise update)."""
        count = self.count + other.count
        delta = other.mean - self.mean
        return Moments(
            count,
            self.mean + delta * (other.count / count),
            self.m2 + other.m2 + delta * delta * (self.count * other.count / count),
            self.zeros + other.zeros,
        )


def chunk_rng(seed: Seed, chunk_index: int) -> np.random.Generator:
    """Generator for one chunk; entropy is the flattened (seed..., chunk)."""
    entropy = (*seed, chunk_index) if isinstance(seed, tuple) else (seed, chunk_index)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (a process pinned to one CPU gets one), else os.cpu_count()."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_chunked(
    trials: int,
    seed: Seed,
    chunk_fn: Callable[[np.random.Generator, int], np.ndarray | list[Moments]],
    workers: int = 1,
) -> list[Moments]:
    """Moments of chunk_fn(rng, size) over all chunks, merged in chunk order,
    one per result.

    chunk_fn returns one ``(size,)`` array, the one-result case, which
    ``Moments.of`` reduces (consuming it), or a list of the chunk's own
    Moments, one per result, each counting ``size`` trials; every chunk
    must give the same number of results.  At most ``min(workers, chunks,
    CPUs this process may run on)`` threads evaluate the chunks.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    n_chunks = (trials + CHUNK_SIZE - 1) // CHUNK_SIZE

    def one(c: int) -> list[Moments]:
        size = min(CHUNK_SIZE, trials - c * CHUNK_SIZE)
        out = chunk_fn(chunk_rng(seed, c), size)
        if not isinstance(out, np.ndarray):
            for m in out:
                if m.count != size:
                    raise ValueError(f"chunk_fn returned Moments of {m.count} trials, "
                                     f"expected {size}")
            return out
        values = np.asarray(out, dtype=float)
        if values.shape != (size,):
            raise ValueError(f"chunk_fn returned shape {values.shape}, expected ({size},)")
        return [Moments.of(values)]

    def merge(results: list[Moments], more: list[Moments]) -> list[Moments]:
        if len(more) != len(results):
            raise ValueError(f"chunk_fn returned {len(more)} results, expected {len(results)}")
        return [a.merge(b) for a, b in zip(results, more)]

    # the affinity mask is a system call, asked only when it can matter
    threads = min(workers, n_chunks)
    if threads > 1:
        threads = min(threads, _usable_cpus())
    if threads == 1:
        return reduce(merge, map(one, range(n_chunks)))
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return reduce(merge, pool.map(one, range(n_chunks)))


def summarize(moments: Moments, n: int | None = None) -> ExperimentResult:
    """Mean / stderr summary of per-trial moments.  At a copy count n both
    are rescaled by n and the fraction of exact zeros is reported; in the
    limit model (n None) neither."""
    m = moments.count
    sd = math.sqrt(moments.m2 / (m - 1)) if m > 1 else 0.0
    scale = 1 if n is None else n
    return ExperimentResult(
        n=n,
        trials=m,
        mean_rescaled_excess=scale * moments.mean,
        stderr=scale * sd / math.sqrt(m),
        fraction_exact=None if n is None else moments.zeros / m,
    )
