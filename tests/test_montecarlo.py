"""Tests for the chunked Monte Carlo driver and its streaming summary."""

import math
import os
import tracemalloc

import numpy as np
import pytest

from qclass import ClassificationProblem, build_frame, montecarlo
from qclass.gaussian_model import StrategyKind, monte_carlo_risks
from qclass.montecarlo import ExperimentResult, Moments, run_chunked, summarize
from qclass.qubit_experiment import LabelMode, TrainingSetSpec, run_experiment


def _values(rng, size):
    """Per-trial values with exact zeros and a wide dynamic range."""
    v = rng.lognormal(0.0, 2.0, size)
    v[rng.random(size) < 0.3] = 0.0
    return v


def _recording(seen):
    """A chunk function that also keeps a copy of every chunk it returns."""

    def chunk_fn(rng, size):
        v = _values(rng, size)
        seen.append(v.copy())
        return v

    return chunk_fn


def _one_array(values):
    return summarize(Moments.of(values), n=1)


class TestSummary:
    @pytest.mark.parametrize("trials", [2, 3, 17, 1000, 65_536])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_single_chunk_is_numpy_bit_for_bit(self, trials, seed):
        seen = []
        res = summarize(*run_chunked(trials, seed, _recording(seen)), n=7)
        (values,) = seen
        assert res.trials == trials and res.n == 7
        assert res.mean_rescaled_excess == 7.0 * float(values.mean())
        assert res.stderr == 7.0 * float(values.std(ddof=1)) / math.sqrt(trials)
        assert res.fraction_exact == float(np.mean(values == 0.0))

    def test_copy_count_sets_scale_and_exact_fraction(self):
        """At a copy count n the mean and stderr are n times the plain ones
        and the fraction of exact zeros is reported; without one (the
        limit model) neither."""
        [m] = run_chunked(1000, 2, _values)
        sd = math.sqrt(m.m2 / 999)
        plain, at_n = summarize(m), summarize(m, n=40)
        assert (plain.n, plain.trials, plain.fraction_exact) == (None, 1000, None)
        assert (plain.mean_rescaled_excess, plain.stderr) == (m.mean, sd / math.sqrt(1000))
        assert (at_n.n, at_n.trials, at_n.fraction_exact) == (40, 1000, m.zeros / 1000)
        assert at_n.mean_rescaled_excess == 40.0 * m.mean
        assert at_n.stderr == 40.0 * sd / math.sqrt(1000)
        assert 0 < m.zeros < 1000

    def test_single_trial_has_zero_stderr(self):
        for v in (0.0, 2.5):
            res = summarize(*run_chunked(1, 0, lambda rng, size: np.full(size, v)), n=1)
            assert (res.trials, res.mean_rescaled_excess, res.stderr) == (1, v, 0.0)
            assert res.fraction_exact == float(v == 0.0)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 4, 5, 6, 7])
    @pytest.mark.parametrize("trials", [1, 2, 7, 50, 101])
    def test_multi_chunk_matches_one_array(self, monkeypatch, chunk, trials):
        monkeypatch.setattr(montecarlo, "CHUNK_SIZE", chunk)
        seen = []
        res = summarize(*run_chunked(trials, 11, _recording(seen)), n=1)
        assert len(seen) == -(-trials // chunk)
        want = _one_array(np.concatenate(seen))
        assert res.trials == want.trials == trials
        assert res.fraction_exact == want.fraction_exact
        assert res.mean_rescaled_excess == pytest.approx(want.mean_rescaled_excess, rel=1e-13)
        assert res.stderr == pytest.approx(want.stderr, rel=1e-13)
        if trials == 1:
            assert res.stderr == 0.0

    def test_ragged_last_chunk_of_many(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "CHUNK_SIZE", 1000)
        seen = []
        res = summarize(*run_chunked(200_001, 12, _recording(seen)), n=1)
        assert [v.size for v in seen[-2:]] == [1000, 1]
        want = _one_array(np.concatenate(seen))
        assert res.fraction_exact == want.fraction_exact
        assert res.mean_rescaled_excess == pytest.approx(want.mean_rescaled_excess, rel=1e-13)
        assert res.stderr == pytest.approx(want.stderr, rel=1e-13)

    def test_merge_of_a_constant_batch_has_zero_spread(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "CHUNK_SIZE", 3)
        m = run_chunked(10, 0, lambda rng, size: np.full(size, 0.25))
        assert m == [Moments(10, 0.25, 0.0, 0)]

    def test_workers_give_equal_results(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "CHUNK_SIZE", 97)
        results = {summarize(*run_chunked(5000, 4, _values, workers=w), n=1)
                   for w in (1, 2, 3)}
        assert len(results) == 1
        frame = build_frame((0.5, 0.2, -0.3), (-0.1, 0.6, 0.2), 0.4)
        gaussian = {monte_carlo_risks([StrategyKind.HETERODYNE_PLUGIN], frame, 0.4,
                                      trials=3000, seed=5, workers=w)[0]
                    for w in (1, 2, 3)}
        assert len(gaussian) == 1

    def test_one_array_is_the_one_row_case(self, monkeypatch):
        """A chunk function returning a bare array gives a list of one
        Moments, bit for bit the one of a chunk returning [Moments.of(array)]."""
        monkeypatch.setattr(montecarlo, "CHUNK_SIZE", 97)
        bare = run_chunked(1000, 3, _values)
        assert isinstance(bare, list) and len(bare) == 1
        assert bare == run_chunked(1000, 3, lambda rng, size: [Moments.of(_values(rng, size))])

    def test_chunk_of_wrong_shape_raises(self):
        with pytest.raises(ValueError, match="expected"):
            run_chunked(10, 0, lambda rng, size: np.zeros(size + 1))

    def test_no_workers_raises(self):
        with pytest.raises(ValueError, match="workers must be >= 1, got 0"):
            run_chunked(10, 0, _values, workers=0)

    def test_memory_is_bounded_by_chunks_not_trials(self, monkeypatch):
        """64 chunks of 4096 trials hold less than four chunk arrays at once;
        keeping every trial's value would hold 64 of them."""
        chunk = 4096
        monkeypatch.setattr(montecarlo, "CHUNK_SIZE", chunk)
        montecarlo.chunk_rng(0, 0)  # numpy.random loads on first use
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            summarize(*run_chunked(64 * chunk, 5, lambda rng, size: rng.random(size)))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 4 * chunk * 8


def _scaled_moments(rng, size):
    """A chunk function returning the Moments of three scaled copies of one
    draw."""
    values = _values(rng, size)
    return [Moments.of(values * scale) for scale in (0.5, 1.5, 2.5)]


class TestRows:
    """A chunk function may return a list of its own Moments, one per row of
    results; run_chunked keeps one Moments per row."""

    def test_moments_of_wrong_count_raise(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "CHUNK_SIZE", 4)

        def chunk_fn(rng, size):
            return [Moments.of(np.zeros(size)), Moments.of(np.zeros(size + 1))]

        with pytest.raises(ValueError, match=r"Moments of 5 trials, expected 4$"):
            run_chunked(6, 0, chunk_fn)

    def test_chunks_with_different_row_counts_raise(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "CHUNK_SIZE", 4)
        with pytest.raises(ValueError, match="returned 1 results, expected 2"):
            run_chunked(6, 0, lambda rng, size: [Moments.of(np.zeros(size))] * (size // 2))

    def test_rows_do_not_depend_on_workers(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "CHUNK_SIZE", 97)
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
        results = [run_chunked(5000, 4, _scaled_moments, workers=w) for w in (1, 2, 3)]
        assert results[0] == results[1] == results[2]
        assert len(results[0]) == 3
        assert results[0][1:2] == run_chunked(5000, 4, lambda rng, size: _values(rng, size) * 1.5)

    def test_moments_of_consumes_its_input(self):
        values = _values(np.random.default_rng(2), 1000)
        want = (float(values.mean()), float(values.var(ddof=1)))
        m = Moments.of(values)
        assert (m.mean, m.m2 / (m.count - 1)) == want
        assert float(values.sum()) == m.m2

    @staticmethod
    def _gaussian_peak(strategies):
        """tracemalloc peak of one monte_carlo_risks call over eight chunks."""
        frame = build_frame((0.5, 0.2, -0.3), (-0.1, 0.6, 0.2), 0.4)
        montecarlo.chunk_rng(0, 0)  # numpy.random loads on first use
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            monte_carlo_risks(strategies, frame, 0.4, trials=8 * montecarlo.CHUNK_SIZE, seed=5)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_shared_draw_memory(self):
        """Three strategies over eight chunks hold one (2, size) draw and one
        (size,) product at a time, not a row per strategy."""
        assert self._gaussian_peak(list(StrategyKind)) < 1.75 * 2**20

    def test_strategy_count_costs_no_memory(self):
        """A chunk reduces its draw once for every strategy: six strategies
        hold no more than one, up to their few Moments."""
        one = self._gaussian_peak([StrategyKind.OPTIMAL_JOINT])
        six = self._gaussian_peak(list(StrategyKind) * 2)
        assert abs(six - one) < 16 * 2**10


class TestResultTypes:
    """Results hold builtin Python numbers, as their annotations say: the
    CLI prints and serialises them without converting numpy scalars."""

    FIELD_TYPES = {"n": (int, type(None)), "trials": (int,),
                   "mean_rescaled_excess": (float,), "stderr": (float,),
                   "fraction_exact": (float, type(None))}

    def assert_builtin(self, res: ExperimentResult):
        assert vars(res).keys() == self.FIELD_TYPES.keys()
        for name, value in vars(res).items():
            assert type(value) in self.FIELD_TYPES[name], (name, type(value))

    def test_moments_hold_builtin_numbers(self):
        m = Moments.of(_values(np.random.default_rng(3), 100))
        assert [type(v) for v in vars(m).values()] == [int, float, float, int]

    def test_gaussian_model_results(self):
        frame = build_frame((0.5, 0.2, -0.3), (-0.1, 0.6, 0.2), 0.4)
        for res in monte_carlo_risks(list(StrategyKind), frame, 0.4, trials=100, seed=5):
            self.assert_builtin(res)
            assert res.n is None and res.fraction_exact is None

    @pytest.mark.parametrize("mode", list(LabelMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("r, s, pi0", [
        ((0.8, 0, 0), (0, 0.6, 0), 0.5),  # every trial misses the oracle
        ((0, 0, 0.1), (0, 0, 0.5), 0.9),  # trivial: every trial recovers it
    ], ids=["planar", "trivial"])
    def test_qubit_results(self, mode, r, s, pi0):
        problem = ClassificationProblem.from_bloch(r, s, pi0)
        for known_priors in (False, True):
            spec = TrainingSetSpec(n=500, problem=problem, label_mode=mode,
                                   known_priors=known_priors)
            self.assert_builtin(run_experiment(spec, 100, 7))


class _SerialPool:
    """Stands in for ThreadPoolExecutor: records its size, maps in the caller."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable):
        return map(fn, iterable)


class TestThreadCap:
    def _sizes(self, monkeypatch, cpus, workers, trials, affinity=None):
        """Pool sizes of one run, with os.cpu_count() giving ``cpus`` and the
        affinity mask ``affinity``, or no affinity call when it is None."""
        sizes = []
        monkeypatch.setattr(montecarlo, "CHUNK_SIZE", 4)
        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor",
                            lambda max_workers: _SerialPool(sizes, max_workers))
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(affinity),
                                raising=False)
        got = run_chunked(trials, 8, _values, workers=workers)
        assert got == run_chunked(trials, 8, _values)
        return sizes

    @pytest.mark.parametrize("cpus, workers, trials, pool", [
        (4, 5000, 40, 4),    # capped by the cores
        (64, 5000, 40, 10),  # capped by the 10 chunks
        (64, 3, 40, 3),      # as asked
        (4, 2, 40, 2),
    ])
    def test_pool_size(self, monkeypatch, cpus, workers, trials, pool):
        assert self._sizes(monkeypatch, cpus, workers, trials) == [pool]

    @pytest.mark.parametrize("cpus, workers, trials", [
        (4, 5000, 4),   # one chunk
        (1, 5000, 40),  # one core
        (None, 8, 40),  # core count unknown
    ])
    def test_one_thread_runs_without_a_pool(self, monkeypatch, cpus, workers, trials):
        assert self._sizes(monkeypatch, cpus, workers, trials) == []

    def test_one_thread_asks_for_no_affinity_mask(self, monkeypatch):
        """One worker, or one chunk, needs no CPU count: the system call
        behind it is not made."""
        def no_call():
            raise AssertionError("_usable_cpus called")

        monkeypatch.setattr(montecarlo, "CHUNK_SIZE", 4)
        monkeypatch.setattr(montecarlo, "_usable_cpus", no_call)
        assert len(run_chunked(40, 8, _values, workers=1)) == 1
        assert len(run_chunked(4, 8, _values, workers=8)) == 1
        with pytest.raises(AssertionError, match="called"):
            run_chunked(40, 8, _values, workers=2)

    def test_pool_is_capped_by_the_affinity_mask(self, monkeypatch):
        """A process pinned to one CPU of 64 runs two workers as one thread;
        on three CPUs it starts three."""
        assert self._sizes(monkeypatch, 64, 2, 40, affinity={5}) == []
        assert self._sizes(monkeypatch, 64, 5000, 40, affinity={0, 2, 7}) == [3]
