"""Tests for the finite-n qubit experiments and classical baselines.

The samplers are reached through three seams only: run_experiment, the
_RunPlan(draw, clip) that _build_plan returns for a key, and the per-axis
law _axis_table that the alias draws look their counts up in.
"""

import gc
import math
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qclass import (
    BlochVector,
    ClassificationProblem,
    TrivialityVerdict,
    helstrom_risk,
    pauli_data,
    tomography_constant,
    triviality_check,
)
from qclass import montecarlo, qubit_experiment
from qclass.montecarlo import Moments, chunk_rng
from qclass.qubit_experiment import (
    LabelMode,
    TrainingSetSpec,
    _ALIAS_MAX_CELLS,
    _PLANS_KEPT,
    _RANDOM_ALIAS_MAX_N,
    _KERNEL_BLOCK,
    _WINDOW_TAIL,
    _alias_table,
    _axis_copies,
    _axis_probabilities,
    _axis_table,
    _binomial_draw,
    _binomial_windows,
    _joined,
    _plugin_excess,
    _RunPlan,
    _window_cells,
    run_experiment,
)
from helpers import (
    HermitianOperator,
    axis_counts,
    bayes_risk_gaussian,
    bloch_to_density,
    classical_coin_example,
    classical_gaussian_example,
    excess_risk,
    gaussian_error_probability,
    int_rank_plugin_excess,
    mask_rank,
    plugin_excess,
    plugin_strategy_run,
    positive_eigenprojector,
    sample_labels,
    sampled_error_probability,
    tomographic_estimate,
    weighted_operator,
)
from strategies import PROPERTY

PLANAR = ClassificationProblem.from_bloch((0.8, 0, 0), (0, 0.6, 0), 0.5)
TRIVIAL = ClassificationProblem.from_bloch((0, 0, 0.1), (0, 0, 0.5), 0.9)
SKEWED = ClassificationProblem.from_bloch((0.5, 0.2, -0.3), (-0.1, 0.6, 0.2), 0.4)
# pure states along an axis: each draws its own axis's counts from a point mass
PURE_AXES = ClassificationProblem.from_bloch((0, 0, 1), (-1, 0, 0), 0.4)
RANDOM, FIXED = LabelMode.RANDOM_LABELS, LabelMode.FIXED_COUNTS


class TestSampleLabels:
    def test_certain_label(self):
        rng = np.random.default_rng(0)
        assert sample_labels(10, 1.0, rng) == (10, 0)

    def test_fixed_counts_rounding(self):
        rng = np.random.default_rng(0)
        assert sample_labels(10, 0.3, rng, LabelMode.FIXED_COUNTS) == (3, 7)
        assert sample_labels(10, 0.25, rng, LabelMode.FIXED_COUNTS) == (3, 7)

    def test_law_of_large_numbers(self):
        rng = np.random.default_rng(1)
        n = 10**6
        n0, n1 = sample_labels(n, 0.5, rng)
        assert n0 + n1 == n
        sigma = math.sqrt(0.25 / n)
        assert n0 / n == pytest.approx(0.5, abs=4 * sigma)


def _plan(spec) -> _RunPlan:
    """spec's _RunPlan(draw, clip), by the one _build_plan lookup that
    run_experiment makes."""
    return qubit_experiment._build_plan(spec.label_mode, spec.n, spec.pi0,
                                        *_axis_probabilities(spec.problem))


def _forced_binomial_plans(monkeypatch):
    """_build_plan patched to give every key the binomial draw, whichever
    draw its own plan takes, with both clips kept: the _RunPlan seam."""
    monkeypatch.setattr(qubit_experiment, "_build_plan",
                        lambda *key: _RunPlan(_binomial_draw(*key), (True, True)))


def _fixed_n0(spec) -> int:
    """Copies of rho with fixed labels: round(pi0 n), halves rounded up."""
    return math.floor(spec.pi0 * spec.n + 0.5)


def _fixed_axis_laws(spec) -> list[tuple[int, float]]:
    """(m_j, p_j) of the six axes with fixed labels, x, y, z of rho and
    then of sigma, the copies split as the per-outcome oracle splits them."""
    n0 = _fixed_n0(spec)
    return list(zip([*axis_counts(n0), *axis_counts(spec.n - n0)],
                    _axis_probabilities(spec.problem)))


def _rho_estimates(r, copies, n, mode=FIXED):
    """rho's (3, len(copies)) estimates, one trial with each copy count
    m_g of the state r, drawn by the plan at n whose pi0 gives rho m_g
    copies (sigma is the maximally mixed state): with fixed labels its one
    class size, with random labels the first of 1,000 trials drawn with
    class size m_g."""
    columns = []
    for m_g in copies:
        problem = ClassificationProblem.from_bloch(r, (0, 0, 0), max(m_g, 0.1) / n)
        est, n0 = _plan(TrainingSetSpec(n=n, problem=problem, label_mode=mode)).draw(
            np.random.default_rng(m_g), 1 if mode is FIXED else 1000)
        trial = 0 if mode is FIXED else int(np.flatnonzero(n0 == m_g)[0])
        assert np.broadcast_to(n0, est.shape[1])[trial] == m_g
        columns.append(est[:3, trial])
    return np.array(columns).T


class TestTomographicEstimate:
    def test_x_coordinate_accuracy(self):
        rng = np.random.default_rng(2)
        m = 3 * 10**6
        est = tomographic_estimate(BlochVector(0.8, 0, 0), m, rng)
        sigma = math.sqrt((1 - 0.64) / (m / 3))
        assert est.x == pytest.approx(0.8, abs=4 * sigma)
        # the count-based estimates are unbiased too: 10^4 trials of 3000 copies
        problem = ClassificationProblem.from_bloch((0.8, 0, 0), (0, 0, 0), 0.5)
        batch, n0 = _plan(TrainingSetSpec(n=6000, problem=problem, label_mode=FIXED)).draw(
            rng, 10_000)
        sigma = math.sqrt((1 - 0.64) / 1000 / 10_000)
        assert n0 == 3000 and batch[0].mean() == pytest.approx(0.8, abs=4 * sigma)

    def test_pure_state_estimate_is_clipped_to_sphere(self):
        """A +z pure state gives a raw z-average of exactly 1, so any x/y
        noise pushes the raw estimate outside the ball and the radial clip
        returns a unit vector."""
        rng = np.random.default_rng(3)
        for _ in range(50):
            est = tomographic_estimate(BlochVector(0, 0, 1), 30, rng)
            assert est.norm <= 1 + 1e-12
            assert est.z > 0.0

    # fixed labels draw from alias tables at n = 12 and by binomials at 2e9,
    # random labels by binomials at _RANDOM_ALIAS_MAX_N + 1
    SAMPLERS = pytest.mark.parametrize("n, mode", [
        pytest.param(12, FIXED, id="12"),
        pytest.param(_RANDOM_ALIAS_MAX_N + 1, RANDOM, id=str(_RANDOM_ALIAS_MAX_N + 1)),
        pytest.param(2 * 10**9, FIXED, id="2e9"),
    ])

    @SAMPLERS
    def test_minimum_copies(self, n, mode):
        """Below three copies the axes without a copy estimate 0."""
        rng = np.random.default_rng(0)
        up = BlochVector(0, 0, 1)
        assert tomographic_estimate(up, 0, rng) == BlochVector(0, 0, 0)
        assert tomographic_estimate(up, 2, rng).z == 0.0
        est = _rho_estimates(up, range(4), n, mode)
        np.testing.assert_array_equal(est[:, 0], 0.0)
        np.testing.assert_array_equal(est[1:, 1], 0.0)
        assert est[2, 2] == 0.0
        assert est[2, 3] > 0.0  # the one z copy of |0> gives +1

    @SAMPLERS
    def test_remainder_to_x_then_y(self, n, mode):
        assert axis_counts(3) == (1, 1, 1)
        assert axis_counts(4) == (2, 1, 1)
        assert axis_counts(5) == (2, 2, 1)
        # the samplers' split is the same: measured along its own axis j, a
        # pure state gives +1 every time, so estimate j is positive exactly
        # when axis j got a copy
        for j in range(3):
            est = _rho_estimates(np.eye(3)[j], range(12), n, mode)
            np.testing.assert_array_equal(est[j] > 0.0, [axis_counts(m)[j] > 0 for m in range(12)])

    def test_axis_copies_over_ints_and_arrays(self):
        """The samplers' one split rule gives each class the oracle's split,
        x, y, z of rho and then of sigma, for ints and elementwise for
        integer arrays alike."""
        m0, m1 = np.arange(20), np.arange(20)[::-1] * 7
        columns = _axis_copies(m0, m1)
        for i in range(m0.size):
            scalar = _axis_copies(int(m0[i]), int(m1[i]))
            assert scalar == [*axis_counts(int(m0[i])), *axis_counts(int(m1[i]))]
            assert [int(c[i]) for c in columns] == scalar

    def test_clipping_inactive_for_interior_states(self):
        """At mixed states the raw estimate stays interior for large m."""
        rng = np.random.default_rng(5)
        for _ in range(500):
            est = tomographic_estimate(BlochVector(0.8, 0, 0), 3000, rng)
            assert est.norm < 1 - 1e-12

    def test_determinism(self):
        a = tomographic_estimate(BlochVector(0.5, 0.2, -0.3), 999, np.random.default_rng(7))
        b = tomographic_estimate(BlochVector(0.5, 0.2, -0.3), 999, np.random.default_rng(7))
        assert a == b


class TestCountSampler:
    def test_scalar_count_draws_equal_constant_array_draws(self):
        """numpy draws the same variates for an int count as for a constant
        array of it, and leaves the generator in the same state; the
        fixed-label stream rests on this."""
        scalar = np.random.Generator(np.random.PCG64(2024))
        array = np.random.Generator(np.random.PCG64(2024))
        for m in (0, 1, 5, 17, 1666, 16666, 33333):
            for p in (0.0, 0.2, 0.5, 0.8, 0.9, 1.0):
                got = scalar.binomial(m, p, 257)
                want = array.binomial(np.full(257, m), p)
                np.testing.assert_array_equal(got, want)
                assert scalar.bit_generator.state == array.bit_generator.state
        assert scalar.random() == array.random()

    @pytest.mark.parametrize("mode", list(LabelMode), ids=lambda m: m.value)
    def test_grouped_binomial_draw_equals_per_trial_draw(self, mode):
        """The binomial draw, at keys whose plans draw from alias tables
        and at keys whose plans draw by binomials, is byte for byte and in
        generator state its per-trial written-out draw: the large-n streams
        rest on this, and so do the runs that force the binomial plan."""
        for n in (21, _RANDOM_ALIAS_MAX_N + 1, 10**6):
            spec = TrainingSetSpec(n=n, problem=SKEWED, label_mode=mode)
            grouped, per_trial = np.random.default_rng(2024), np.random.default_rng(2024)
            got, n0 = _binomial_draw(mode, n, spec.pi0, *_axis_probabilities(SKEWED))(
                grouped, 300)
            want, m = _BinomialDrawWrittenOut(spec).draw(per_trial, 300)
            if mode is FIXED:
                assert type(n0) is int and n0 == m == _fixed_n0(spec)
            assert np.array_equal(n0, m) and got.tobytes() == want.tobytes()
            assert grouped.bit_generator.state == per_trial.bit_generator.state


def _count_grid(m: np.ndarray, width: int) -> np.ndarray:
    """(len(m), width) counts: row g holds k = 0..m_g in its last m_g + 1
    columns, after padding with k < 0."""
    return np.arange(width) - (width - 1 - m)[:, None]


def _binomial_pmf_rows(m: np.ndarray, p: float) -> np.ndarray:
    """The exact-pmf oracle: Binomial(m_g, p) pmf for each entry m_g of m,
    one row each, over every count 0..m_g, not a window.

    A (len(m), max(m) + 1) array laid out as _count_grid: row g holds the
    probabilities of k = 0..m_g in its last m_g + 1 columns, after
    padding with probability 0.  The log k! come from math.lgamma, which
    is accurate at the copy counts the tests use.  p in {0, 1} and m_g =
    0 are exact point masses, and no padding entry is exponentiated.
    """
    width = int(m.max()) + 1
    k = _count_grid(m, width)
    mk = np.broadcast_to(m[:, None], k.shape)
    if p == 0.0 or p == 1.0:
        return (k == (0 if p == 0.0 else mk)).astype(float)
    log_factorial = np.array([math.lgamma(i + 1.0) for i in range(width)])
    pmf = np.zeros(k.shape)
    valid = k >= 0
    kv, mv = k[valid], mk[valid]
    pmf[valid] = np.exp(log_factorial[mv] - log_factorial[kv] - log_factorial[mv - kv]
                        + kv * math.log(p) + (mv - kv) * math.log1p(-p))
    return pmf / pmf.sum(axis=1, keepdims=True)


def _one_row_integer_table(m: int, p: float):
    """Walker's alias table of the windowed Binomial(m, p) row in integers,
    built one row at a time in scalar arithmetic, as the library did
    before it paired all rows of an axis at once: (values, one,
    mass, threshold, alias), the cells' outcome averages, the unit 2^b,
    the rounded masses W pmf and the thresholds in units of 1/one, and
    each cell's alias index."""
    if m == 0 or p == 0.0 or p == 1.0:
        counts, pmf = np.array([m if p == 1.0 else 0]), np.ones(1)
    else:
        log_odds = math.log(p) - math.log1p(-p)
        mean = m * p
        log_tail = -math.log(_WINDOW_TAIL / 2.0)
        t = log_tail / 3.0 + math.sqrt(log_tail**2 / 9.0 + 2.0 * log_tail * mean * (1.0 - p))
        mode = min(math.floor((m + 1) * p), m)
        lo = min(max(math.floor(mean - t), 0), mode)
        hi = max(min(math.ceil(mean + t), m), mode)
        up, down = np.arange(mode, hi), np.arange(mode, lo, -1)
        rel = np.concatenate((
            [1.0],
            np.exp(np.cumsum(np.log((m - up) / (up + 1.0)) + log_odds)),
            np.exp(np.cumsum(np.log(down / (m - down + 1.0)) - log_odds)),
        ))
        counts = np.concatenate(([mode], up + 1, down - 1))
        order = np.argsort(-rel, kind="stable")
        counts, pmf = counts[order], rel[order] / rel.sum()
    width = pmf.size
    one = 1 << min(52, 62 - width.bit_length())
    mass = np.rint(pmf * float(width * one)).astype(np.int64)
    mass[0] += width * one - int(mass.sum())
    threshold, alias = mass.copy(), np.arange(width)
    light, heavy = np.flatnonzero(mass < one), np.flatnonzero(mass >= one)
    if light.size:
        deficit = np.cumsum(one - mass[light])
        surplus = np.cumsum(mass[heavy] - one)
        alias[light] = heavy[np.searchsorted(surplus, deficit - (one - mass[light]), side="right")]
        threshold[heavy] = one - (deficit[np.searchsorted(deficit, surplus)] - surplus)
        alias[heavy[:-1]] = heavy[1:]
    return (2.0 * counts - m) / max(m, 1), one, mass, threshold, alias


def _one_row_alias_table(m: int, p: float) -> np.ndarray:
    """_one_row_integer_table as floats: a (3, W) array of the thresholds,
    the own averages and the alias averages.  The library's one-row build
    must equal it bit for bit, so that the fixed-label streams keep their
    bytes."""
    values, one, _, threshold, alias = _one_row_integer_table(m, p)
    table = np.empty((3, values.size))
    np.divide(threshold, one, out=table[0])
    table[1] = values
    table[2] = values[alias]
    return table


def _exact_pmf(m: int, p: float) -> list[float]:
    """Binomial(m, p) pmf in exact rational arithmetic, rounded once.

    p is the fraction a/d exactly; Python rounds an int quotient correctly.
    """
    a, d = Fraction(p).as_integer_ratio()
    return [math.comb(m, k) * a**k * (d - a) ** (m - k) / d**m for k in range(m + 1)]


class TestBinomialPmfRows:
    """The exact-pmf oracle _binomial_pmf_rows against rational arithmetic."""

    def _check(self, m, p):
        rows = _binomial_pmf_rows(np.array(m), p)
        k = _count_grid(np.array(m), max(m) + 1)
        assert k.shape == rows.shape == (len(m), max(m) + 1)
        for k_g, row, m_g in zip(k, rows, m):
            pad = max(m) - m_g
            assert k_g.tolist() == list(range(-pad, m_g + 1))
            assert not row[:pad].any()
            np.testing.assert_allclose(row[pad:], _exact_pmf(m_g, p), rtol=1e-11, atol=1e-300)
            assert math.fsum(row) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("p", [0.0, 1e-3, 0.1, 0.5, 0.7, 0.999, 1.0])
    def test_against_exact_rational_pmf(self, p):
        self._check([0, 1, 2, 17, 341], p)

    def test_largest_class_size(self):
        """The rounding of log k! grows with k; the class sizes reach n."""
        self._check([_RANDOM_ALIAS_MAX_N], 0.4)

    def test_point_masses_are_exact(self):
        m = np.array([0, 3, 5])
        for p, k in ((0.0, 0 * m), (1.0, m)):
            want = np.zeros((3, 6))
            want[np.arange(3), k + 5 - m] = 1.0
            assert _binomial_pmf_rows(m, p).tolist() == want.tolist()
        # no copies: a point mass at any p
        assert _binomial_pmf_rows(m, 0.3)[0].tolist() == [0] * 5 + [1]

    @PROPERTY
    @given(m=st.lists(st.integers(0, 60), min_size=1, max_size=4),
           p=st.floats(0.0, 1.0))
    def test_any_probability(self, m, p):
        self._check(m, p)


def _window_row(m: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    """(counts, pmf) of the windowed Binomial(m, p) row: the one-row case
    of _binomial_windows, as _build_plan builds the class-size row."""
    counts, pmf = _binomial_windows(np.array([m]), p)
    return counts[0], pmf[0]


class TestBinomialWindow:
    """One _binomial_windows row against the Binomial pmf in 40-digit
    arithmetic."""

    @pytest.mark.parametrize("m", [0, 1, 2, 5, 1667, 16667, 1_700_000])
    def test_against_mpmath_pmf(self, m):
        mpmath = pytest.importorskip("mpmath")
        for p in (0.0, 1e-9, 0.1, 0.5, 0.9, 1.0):
            counts, pmf = _window_row(m, p)
            if m == 0 or p in (0.0, 1.0):
                # exact point masses
                assert counts.tolist() == [m if p == 1.0 else 0] and pmf.tolist() == [1.0]
                continue
            # one window of distinct counts, from the mode outward
            assert sorted(counts.tolist()) == list(range(counts.min(), counts.max() + 1))
            assert np.all(np.diff(pmf) <= 0.0) and counts[0] == math.floor((m + 1) * p)
            assert math.fsum(pmf) == pytest.approx(1.0, abs=1e-15)
            with mpmath.workdps(40):
                q = mpmath.mpf(p)
                log_p, log_q = mpmath.log(q), mpmath.log1p(-q)
                log_m = mpmath.loggamma(m + 1)
                exact = [mpmath.exp(log_m - mpmath.loggamma(k + 1) - mpmath.loggamma(m - k + 1)
                                    + k * log_p + (m - k) * log_q) for k in counts.tolist()]
                assert 1 - mpmath.fsum(exact) <= _WINDOW_TAIL
            rel = [abs(float(got / want - 1)) for got, want in zip(pmf.tolist(), exact)]
            assert max(rel) <= 1e-9, (m, p)

    def test_window_is_narrow(self):
        """A row has O(sigma) cells, not m + 1."""
        for m, p in ((1_700_000, 0.5), (10**9, 0.3), (10**11, 1e-9)):
            counts, _ = _window_row(m, p)
            assert counts.size <= 20 * math.sqrt(m * p * (1 - p)) + 32


def _alias_law(thresholds, own, alias):
    """(values, probabilities) of a draw from one row of an alias table:
    cell i gives its own value with probability threshold_i / W and its
    alias's with (1 - threshold_i) / W.  Only the values a draw can give
    are listed."""
    values = np.concatenate((own, alias))
    weights = np.concatenate((thresholds, 1.0 - thresholds)) / thresholds.size
    drawn, where = np.unique(values[weights > 0.0], return_inverse=True)
    return drawn, np.bincount(where.ravel(), weights[weights > 0.0])


class TestAliasTable:
    """Each row of an axis's alias table has its windowed row's law."""

    def _check(self, copies, p):
        thresholds, own, alias = _axis_table(copies, p)
        assert thresholds.shape == own.shape == alias.shape
        assert thresholds.shape[0] == len(copies)
        assert np.all((0.0 <= thresholds) & (thresholds <= 1.0))
        for m, row in zip(copies, zip(thresholds, own, alias)):
            counts, pmf = _window_row(m, p)
            averages = (2.0 * counts - m) / max(m, 1)
            drawn, law = _alias_law(*row)
            # every value a draw can give is one of the row's own averages:
            # no padding cell, and no cell of another row
            assert np.isin(drawn, averages).all()
            q = dict(zip(drawn.tolist(), law.tolist()))
            tv = 0.5 * math.fsum(abs(q.get(a, 0.0) - w)
                                 for a, w in zip(averages.tolist(), pmf.tolist()))
            assert tv <= 1e-12, (m, p, tv)

    @PROPERTY
    @given(m=st.sampled_from([0, 1, 2, 3]) | st.integers(0, 10**7),
           p=st.sampled_from([0.0, 1.0, 1e-300, 1 - 2**-53, 0.5]) | st.floats(0.0, 1.0))
    def test_law_is_the_window_row(self, m, p):
        """Total variation at most 1e-12, every threshold in [0, 1]: over
        point masses (m = 0, p in {0, 1}, one-cell rows), two-cell rows,
        underflowing tails and rows of thousands of cells."""
        self._check([m], p)

    @PROPERTY
    @given(low=st.sampled_from([0, 1]) | st.integers(0, 10**6), rows=st.integers(2, 40),
           p=st.sampled_from([0.0, 1.0, 1e-300, 1 - 2**-53, 0.5]) | st.floats(0.0, 1.0))
    def test_every_row_of_a_multi_row_table(self, low, rows, p):
        """A table of the copy counts low..low + rows - 1, its narrower
        rows padded to the widest, built and paired in one pass: each row
        within 1e-12 of its own windowed row in total variation, and no
        draw gives a padding cell's value or another row's."""
        self._check(list(range(low, low + rows)), p)

    @PROPERTY
    @given(m=st.sampled_from([0, 1, 2, 3]) | st.integers(0, 10**8),
           p=st.sampled_from([0.0, 1.0, 1e-300, 1 - 2**-53, 0.5]) | st.floats(0.0, 1.0))
    def test_one_row_table_is_the_one_row_build(self, m, p):
        """With one row the table is, bit for bit, the one a row at a time
        build gives (_one_row_alias_table), so the fixed-label streams keep
        their bytes."""
        table = np.stack([array[0] for array in _axis_table([m], p)])
        assert table.tobytes() == _one_row_alias_table(m, p).tobytes()

    def test_largest_tables(self):
        """About the widest row an alias plan can hold: two p = 1/2 axes
        (sigma pure along x, rho with no copy) sharing the whole cap."""
        m = 1
        while 2 * _window_cells(2 * m, 0.5) <= _ALIAS_MAX_CELLS:
            m *= 2
        assert 2 * _window_cells(m, 0.5) > _ALIAS_MAX_CELLS / 2
        self._check([m], 0.5)

    def test_cells_are_counted_without_a_row(self):
        for m in (0, 1, 2, 5, 1667, 10**6, 10**9):
            for p in (0.0, 1e-300, 1e-9, 0.3, 0.5, 1 - 2**-53, 1.0):
                assert _window_cells(m, p) == _window_row(m, p)[0].size, (m, p)


def _z(chi2, df):
    """Wilson-Hilferty z of a chi-square statistic with df degrees."""
    return ((chi2 / df) ** (1 / 3) - (1 - 2 / (9 * df))) / math.sqrt(2 / (9 * df))


def _pooled_chi2(observed, expected):
    """(chi-square, degrees of freedom) of observed against expected counts
    over ordered cells, the cells with an expected count below 5 pooled
    into their tail."""
    keep = np.flatnonzero(expected >= 5)
    lo, hi = keep[0], keep[-1]
    assert lo < hi
    exp = np.concatenate(([expected[:lo + 1].sum()], expected[lo + 1:hi], [expected[hi:].sum()]))
    obs = np.concatenate(([observed[:lo + 1].sum()], observed[lo + 1:hi], [observed[hi:].sum()]))
    return float(np.sum((obs - exp) ** 2 / exp)), exp.size - 1


def _independence_chi2(a, b):
    """(chi-square, degrees of freedom) of the independence of two count
    samples, each cut at its deciles into at most ten bins; every expected
    cell count must be at least 5."""
    bins = []
    for k in (a, b):
        edges = np.unique(np.quantile(k, np.linspace(0.1, 0.9, 9)))
        bins.append(np.searchsorted(edges, k, side="right"))
    observed = np.zeros((bins[0].max() + 1, bins[1].max() + 1))
    np.add.at(observed, tuple(bins), 1)
    expected = np.outer(observed.sum(axis=1), observed.sum(axis=0)) / a.size
    assert expected.min() >= 5
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    return chi2, (observed.shape[0] - 1) * (observed.shape[1] - 1)


class TestFixedLabelDraw:
    """The fixed-label alias draw has the law of six independent
    Binomial(m_j, p_j) counts per trial."""

    @staticmethod
    def _counts(n, trials, seed):
        """(6, trials) counts k_j of fixed-label draws at n, and the (m_j, p_j)."""
        spec = TrainingSetSpec(n=n, problem=SKEWED, label_mode=FIXED)
        draw = _plan(spec).draw
        rng = np.random.default_rng(seed)
        est = np.concatenate([draw(rng, 50_000)[0] for _ in range(trials // 50_000)], axis=1)
        laws = _fixed_axis_laws(spec)
        m = np.array([m_j for m_j, _ in laws])[:, None]
        return np.rint((est + 1.0) * m / 2.0).astype(int), laws

    def test_each_axis_is_binomial(self):
        """Chi-square of each axis's counts against Binomial(m_j, p_j), cells
        with an expected count below 5 pooled into their tail; the
        statistic's Wilson-Hilferty z must stay below 4."""
        trials = 200_000
        counts, laws = self._counts(9000, trials, 5)
        for k, (m, p) in zip(counts, laws):
            assert m >= 1000
            chi2, df = _pooled_chi2(np.bincount(k, minlength=m + 1),
                                    trials * _binomial_pmf_rows(np.array([m]), p)[0])
            assert _z(chi2, df) <= 4.0, (m, p, chi2)

    def test_axes_pairwise_uncorrelated(self):
        trials = 200_000
        counts, _ = self._counts(9000, trials, 6)
        corr = np.corrcoef(counts)
        for a in range(6):
            for b in range(a):
                assert abs(corr[a, b]) * math.sqrt(trials) <= 4.0, (a, b)

    def test_axis_pair_is_independent(self):
        """Chi-square of independence of rho's x and y counts, each cut at
        its deciles into ten bins: the 10 x 10 table's z stays below 4."""
        trials = 200_000
        counts, _ = self._counts(9000, trials, 7)
        chi2, df = _independence_chi2(*counts[:2])
        assert df >= 49 and _z(chi2, df) <= 4.0, chi2

    @pytest.mark.parametrize("n", [1, 2, 60, 10**4, 10**5])
    def test_one_group_draw_is_the_written_out_draw(self, n):
        """With fixed labels the plan's draw is, byte for byte and in
        generator state, one (6, size) array of uniforms u, then on each
        axis x = W u, cell i = floor(x), and the cell's own average where
        x < i + threshold_i, else its alias's.  The tables are those of the
        one row at a time build, not _axis_table's."""
        spec = TrainingSetSpec(n=n, problem=SKEWED, label_mode=FIXED)
        draw = _plan(spec).draw
        for size in (1, 7, 2000, 2 * _KERNEL_BLOCK + 5):
            got, want = np.random.default_rng(size), np.random.default_rng(size)
            est, n0 = draw(got, size)
            oracle = want.random((6, size))
            for out, (m, p) in zip(oracle, _fixed_axis_laws(spec)):
                out[:] = _lookup(out, _one_row_alias_table(m, p)[:, None])
            assert est.tobytes() == oracle.tobytes()
            assert type(n0) is int and n0 == _fixed_n0(spec)
            assert got.bit_generator.state == want.bit_generator.state

    @pytest.mark.parametrize("n", [10**4, 10**5])
    def test_mean_excess_matches_binomial_draw(self, monkeypatch, n):
        """n E[excess] of the alias draw lies within 4 combined standard
        errors of the per-trial binomial draw's, on another seed."""
        spec = TrainingSetSpec(n=n, problem=SKEWED, label_mode=FIXED, known_priors=True)
        alias = run_experiment(spec, 100_000, 71)
        _forced_binomial_plans(monkeypatch)
        binom = run_experiment(spec, 100_000, 72)
        se = math.hypot(alias.stderr, binom.stderr)
        assert abs(alias.mean_rescaled_excess - binom.mean_rescaled_excess) <= 4 * se


class TestRandomLabelDraw:
    """The random-label alias draw: a class size n0 from the windowed
    Binomial(n, pi0) row, then, given n0, six independent
    Binomial(m_j(n0), p_j) counts."""

    N, TRIALS = 300, 200_000

    @staticmethod
    def _draw(n, trials, seed):
        """(n0, counts k_j, copies m_j), the last two (6, trials), of
        random-label alias draws at n in 50,000-trial chunks."""
        draw = _plan(TrainingSetSpec(n=n, problem=SKEWED)).draw
        rng = np.random.default_rng(seed)
        est, n0 = (np.concatenate(parts, axis=-1)
                   for parts in zip(*(draw(rng, 50_000) for _ in range(trials // 50_000))))
        m = np.array(_axis_copies(n0, n - n0))
        return n0, np.rint((est + 1.0) * m / 2.0).astype(int), m

    def test_class_sizes_follow_the_label_window(self):
        """Chi-square of the drawn n0 against the windowed Binomial(n, pi0)
        row, tails pooled: Wilson-Hilferty z below 4."""
        n0, _, _ = self._draw(self.N, self.TRIALS, 11)
        sizes, pmf = _window_row(self.N, 0.4)
        order = np.argsort(sizes)
        observed = np.bincount(n0 - sizes.min(), minlength=sizes.size)
        assert observed.size == sizes.size  # no class size outside the window
        chi2, df = _pooled_chi2(observed, self.TRIALS * pmf[order])
        assert _z(chi2, df) <= 4.0, chi2

    def test_each_axis_is_binomial_given_n0(self):
        """Per axis, the chi-squares of its counts against
        Binomial(m_j(n0), p_j), tails pooled, summed over the class sizes
        drawn at least 2000 times: z below 4."""
        n0, k, m = self._draw(self.N, self.TRIALS, 12)
        sizes, hits = np.unique(n0, return_counts=True)
        sizes = sizes[hits >= 2000]
        assert sizes.size >= 20
        for j, p in enumerate(_axis_probabilities(SKEWED)):
            chi2 = df = 0
            for size in sizes:
                given = n0 == size
                m_j = int(m[j, given][0])
                terms = _pooled_chi2(np.bincount(k[j, given], minlength=m_j + 1),
                                     given.sum() * _binomial_pmf_rows(np.array([m_j]), p)[0])
                chi2, df = chi2 + terms[0], df + terms[1]
            assert _z(chi2, df) <= 4.0, (j, chi2, df)

    def test_axis_pair_is_independent_given_n0(self):
        """Given the most frequent class size, rho's x and sigma's x counts,
        whose copy counts both follow n0, are independent: decile-binned
        chi-square z below 4."""
        n0, k, _ = self._draw(self.N, self.TRIALS, 13)
        sizes, hits = np.unique(n0, return_counts=True)
        given = n0 == sizes[hits.argmax()]
        chi2, df = _independence_chi2(k[0, given], k[3, given])
        assert df >= 16 and _z(chi2, df) <= 4.0, (chi2, df)

    @PROPERTY
    @given(n=st.integers(1, _RANDOM_ALIAS_MAX_N),
           pi0=st.sampled_from([1e-300, 0.5, 1 - 2**-53]) | st.floats(1e-300, 1 - 2**-53),
           size=st.integers(1, 3000), seed=st.integers(0, 2**32 - 1))
    def test_every_estimate_is_a_possible_average(self, n, pi0, size, seed):
        """Every class size drawn lies in the label window, the contiguous
        sizes lo..hi, and every estimate is exactly (2k - m_j)/m_j (0 where
        m_j = 0) for a count k inside the window of its trial's
        Binomial(m_j, p_j): a row's padding, whose counts lie outside its
        window, never comes out, and neither does another row's cell."""
        problem = ClassificationProblem.from_bloch(SKEWED.r, SKEWED.s, pi0)
        est, n0 = _plan(TrainingSetSpec(n=n, problem=problem)).draw(
            np.random.default_rng(seed), size)
        sizes, _ = _window_row(n, pi0)
        assert sorted(sizes.tolist()) == list(range(sizes.min(), sizes.max() + 1))
        assert est.shape == (6, size) and n0.shape == (size,) and np.isin(n0, sizes).all()
        for est_j, m_j, p in zip(est, _axis_copies(n0, n - n0), _axis_probabilities(problem)):
            k = np.rint((est_j + 1.0) * m_j / 2.0)
            assert ((2.0 * k - m_j) / np.maximum(m_j, 1)).tobytes() == est_j.tobytes()
            _, lo, hi = qubit_experiment._window_bounds(m_j, p)
            assert np.all((lo <= k) & (k <= hi))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_axes_without_copies_estimate_zero(self, n):
        """At n = 1 to 5 every axis has trials with no copy, which estimate
        exactly 0; the pure states' own axes, drawn from point masses,
        estimate rho's z as +1 and sigma's x as -1 wherever they have a
        copy."""
        est, n0 = _plan(TrainingSetSpec(n=n, problem=PURE_AXES)).draw(
            np.random.default_rng(n), 20_000)
        m = np.array(_axis_copies(n0, n - n0))
        assert (m == 0).any(axis=1).all()
        assert not est[m == 0].any()
        assert np.all(est[2][m[2] > 0] == 1.0) and np.all(est[3][m[3] > 0] == -1.0)

    def test_worker_threads_share_the_tables(self, monkeypatch):
        """Many small chunks, run by one thread or two, reach the shared
        tables in different orders and give the same result."""
        monkeypatch.setattr(montecarlo, "CHUNK_SIZE", 50)
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
        spec = TrainingSetSpec(n=300, problem=SKEWED)
        assert len({run_experiment(spec, 3000, 9, workers=w) for w in (1, 2, 2)}) == 1


def _lookup(u, table, row=0):
    """The values that uniforms u draw from rows ``row`` of an alias table
    (thresholds, own values, alias values), each (R, W): x = W u picks
    cell i = floor(x), which gives its own value where x < i + threshold_i,
    else its alias's."""
    thresholds, own, alias = table
    x = u * thresholds.shape[1]
    i = np.floor(x).astype(int)
    return np.where(x < i + thresholds[row, i], own[row, i], alias[row, i])


class _AliasDrawWrittenOut:
    """The alias draw of a spec, written out from the per-axis law.

    With random labels a chunk's class sizes are one (1, size) array of
    uniforms looked up in the alias table of the windowed Binomial(n, pi0)
    row, and each axis has an _axis_table row for every copy count that
    those sizes reach; with fixed labels each axis has the one row of its
    copy count.  Then one (6, size) array of uniforms, each looked up in
    the row of its trial's copy count on its axis."""

    def __init__(self, spec):
        self.n = spec.n
        if spec.label_mode is FIXED:
            self.labels, self.n0 = None, _fixed_n0(spec)
            sizes = np.array([self.n0])
        else:
            self.labels = _alias_table(*_binomial_windows(np.array([spec.n]), spec.pi0))
            sizes = np.arange(self.labels[1].min(), self.labels[1].max() + 1)
        self.axes = []
        for m, p in zip(_axis_copies(sizes, spec.n - sizes), _axis_probabilities(spec.problem)):
            copies = np.arange(m.min(), m.max() + 1)
            self.axes.append((_axis_table(copies, p), copies[0]))

    def draw(self, rng, size):
        n0 = self.n0 if self.labels is None else _lookup(rng.random((1, size))[0], self.labels)
        est = rng.random((6, size))
        for out, (table, low), m_j in zip(est, self.axes, _axis_copies(n0, self.n - n0)):
            out[:] = _lookup(out, table, m_j - low)
        return est, n0

    def extremes(self):
        """Each axis's least and greatest value that a lookup can give: the
        own values of cells with threshold > 0 and the alias values of
        cells with threshold < 1."""
        ends = []
        for (thresholds, own, alias), _ in self.axes:
            drawable = np.concatenate((own[thresholds > 0.0], alias[thresholds < 1.0]))
            ends.append((drawable.min(), drawable.max()))
        return ends


class _BinomialDrawWrittenOut:
    """The binomial draw of a spec, written out per trial: the class sizes
    as one binomial call, sorted (random labels), then each axis's counts
    against the per-trial copy counts."""

    def __init__(self, spec):
        self.spec = spec

    def draw(self, rng, size):
        spec = self.spec
        if spec.label_mode is FIXED:
            n0 = _fixed_n0(spec)
            m = np.full(size, n0)
        else:
            n0 = m = np.sort(rng.binomial(spec.n, spec.pi0, size))
        est = np.empty((6, size))
        for i, (r, m_i) in enumerate(((spec.problem.r, m), (spec.problem.s, spec.n - m))):
            for j, r_j in enumerate((r.x, r.y, r.z)):
                m_j = (m_i + 2 - j) // 3
                k = rng.binomial(m_j, (1 + r_j) / 2)
                est[3 * i + j] = (2 * k - m_j) / np.maximum(m_j, 1)
        return est, n0

    def extremes(self):
        """The ends of every axis's outcome lattice: a binomial count can
        take every value 0..m_j."""
        return [(-1.0, 1.0)] * 6


def _assert_flags_sound(clip, ends):
    """Each False flag of clip, rho's and then sigma's, is sound: with each
    axis of its class at the least or the greatest value a draw gives
    (ends, six (least, greatest) pairs), every corner estimate has float
    norm^2 at most 1, summed as _clip_to_ball sums it."""
    for flag, class_ends in zip(clip, (ends[:3], ends[3:])):
        if not flag:
            x, y, z = (np.array(axis) for axis in np.meshgrid(*class_ends, indexing="ij"))
            assert np.all(x * x + y * y + z * z <= 1.0), class_ends


class TestRunPlanContract:
    """Every _RunPlan(draw, clip) that _build_plan returns keeps one
    contract, checked for each plan kind (the alias draw and the binomial
    draw, with fixed and with random labels) on chunks of 1, 7 and two
    kernel blocks plus 5 trials.  A new sampler adds one parameter: its
    key and its draw written out."""

    @pytest.mark.parametrize("mode, n, problem, written_out", [
        pytest.param(FIXED, 10**4, SKEWED, _AliasDrawWrittenOut, id="alias-fixed-1e4"),
        # the README anchor's six tables fit the cap at 1e9, not at 2e9
        pytest.param(FIXED, 10**9, PLANAR, _AliasDrawWrittenOut, id="alias-fixed-1e9"),
        pytest.param(FIXED, 2 * 10**9, PLANAR, _BinomialDrawWrittenOut, id="binomial-fixed-2e9"),
        pytest.param(RANDOM, 300, SKEWED, _AliasDrawWrittenOut, id="alias-random-300"),
        pytest.param(RANDOM, _RANDOM_ALIAS_MAX_N + 1, SKEWED, _BinomialDrawWrittenOut,
                     id="binomial-random-1025"),
        # the edges: n = 1 (rho has no copy with fixed labels, and most
        # axes none with either), the last n whose random labels draw from
        # alias tables, larger n, and pure states, whose own axes draw
        # from point masses
        pytest.param(FIXED, 1, SKEWED, _AliasDrawWrittenOut, id="alias-fixed-1"),
        pytest.param(FIXED, 30, PURE_AXES, _AliasDrawWrittenOut, id="alias-fixed-pure-30"),
        # two point-mass axes leave the pure pair four wide tables, which fit
        # the cap at 2e9
        pytest.param(FIXED, 2 * 10**9, PURE_AXES, _AliasDrawWrittenOut,
                     id="alias-fixed-pure-2e9"),
        pytest.param(RANDOM, 1, SKEWED, _AliasDrawWrittenOut, id="alias-random-1"),
        pytest.param(RANDOM, _RANDOM_ALIAS_MAX_N, SKEWED, _AliasDrawWrittenOut,
                     id="alias-random-1024"),
        pytest.param(RANDOM, 30, PURE_AXES, _AliasDrawWrittenOut, id="alias-random-pure-30"),
        pytest.param(RANDOM, 10**6, SKEWED, _BinomialDrawWrittenOut, id="binomial-random-1e6"),
    ])
    def test_contract(self, mode, n, problem, written_out):
        """(est, n0) is a (6, size) float64 array and an int (fixed labels)
        or one int64 class size per trial (random labels); every estimate
        is (2k - m_j)/m_j (0 where m_j = 0) for a count k in 0..m_j of its
        trial's copy count on its axis; equal seeds give equal bytes; the
        draw is, byte for byte and in generator state, its written-out
        draw; and a clip flag is False only if no corner of the drawable
        values of its class's three axes lies outside the ball, summed as
        _clip_to_ball sums it."""
        spec = TrainingSetSpec(n=n, problem=problem, label_mode=mode)
        (draw, clip), oracle = _plan(spec), written_out(spec)
        assert [type(flag) for flag in clip] == [bool, bool]
        for size in (1, 7, 2 * _KERNEL_BLOCK + 5):
            got, want = np.random.default_rng(size), np.random.default_rng(size)
            est, n0 = draw(got, size)
            assert est.shape == (6, size) and est.dtype == np.float64
            if mode is FIXED:
                assert type(n0) is int and n0 == _fixed_n0(spec)
            else:
                assert n0.shape == (size,) and n0.dtype == np.int64
                assert np.all((0 <= n0) & (n0 <= n))
            for est_j, m_j in zip(est, _axis_copies(n0, n - n0)):
                k = np.rint((est_j + 1.0) * m_j / 2.0)
                assert np.all((0 <= k) & (k <= m_j))
                assert ((2.0 * k - m_j) / np.maximum(m_j, 1)).tobytes() == est_j.tobytes()
            again, n0_again = draw(np.random.default_rng(size), size)
            assert again.tobytes() == est.tobytes() and np.array_equal(n0_again, n0)
            want_est, want_n0 = oracle.draw(want, size)
            assert est.tobytes() == want_est.tobytes() and np.array_equal(n0, want_n0)
            assert got.bit_generator.state == want.bit_generator.state
        _assert_flags_sound(clip, oracle.extremes())


class TestTableCache:
    """_build_plan keeps the last _PLANS_KEPT plans, tables and draws, in a
    functools.lru_cache."""

    def test_memory_holds_the_plans_kept(self):
        """Runs of twelve random-label keys near n = 1024, whose plans take
        about 2.4 MiB each: the memory held grows by one plan a key for
        the first _PLANS_KEPT keys, then stops growing, as the cache drops
        the oldest.  It keeps at least two, so a benchmark pass, which
        alternates between two keys, builds each once."""
        specs = [TrainingSetSpec(n=_RANDOM_ALIAS_MAX_N - i, problem=PLANAR)
                 for i in range(3 * _PLANS_KEPT)]
        held = []
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for spec in specs:
                run_experiment(spec, 10, 1)
                gc.collect()
                held.append(tracemalloc.get_traced_memory()[0] - start)
        finally:
            tracemalloc.stop()
        plan = held[1] - held[0]
        assert plan > 2 << 20 and _PLANS_KEPT >= 2
        assert held[_PLANS_KEPT - 1] - held[0] > (_PLANS_KEPT - 1.5) * plan, held
        assert held[-1] - held[_PLANS_KEPT - 1] < plan / 2, held

    def test_threads_share_the_plans(self):
        """Eight threads, switching often, run overlapping keys, more than
        the cache keeps, through the four-plan cache: each result equals
        the key's serial run."""
        specs = [TrainingSetSpec(n=n, problem=SKEWED, label_mode=mode)
                 for mode, n in ((RANDOM, 30), (RANDOM, 90), (RANDOM, _RANDOM_ALIAS_MAX_N + 1),
                                 (FIXED, 90), (FIXED, 10**4), (FIXED, 2 * 10**9))]
        serial = [run_experiment(spec, 200, 5) for spec in specs]
        errors = []

        def work(seed):
            for i in np.random.default_rng(seed).integers(0, len(specs), 12).tolist():
                if run_experiment(specs[i], 200, 5) != serial[i]:
                    errors.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []

    @pytest.mark.parametrize("mode", list(LabelMode), ids=lambda m: m.value)
    def test_runs_do_not_depend_on_the_cache(self, mode):
        """A run gives the same result from a warm cache and, after runs at
        more other keys than the cache keeps, from a plan built again."""
        spec = TrainingSetSpec(n=90, problem=SKEWED, label_mode=mode)
        first = run_experiment(spec, 5000, 81)
        assert run_experiment(spec, 5000, 81) == first
        for n in range(91, 92 + _PLANS_KEPT):
            run_experiment(TrainingSetSpec(n=n, problem=SKEWED, label_mode=mode), 500, 1)
        assert run_experiment(spec, 5000, 81) == first

    def test_joined_tables_are_read_only(self):
        """Threads and runs share the cached plans, so none may write into
        them: every array of the tables _joined lays end to end, the
        count tables of an axis pair and the class-size table alike,
        refuses a write."""
        counts = _joined([_axis_table(np.arange(3, 6), p) for p in (0.2, 0.7)],
                         [[0, 1, 2], [2, 1, 0]])
        labels = _joined([_alias_table(*_binomial_windows(np.array([90]), 0.4))], [[0]])
        for table in (counts, labels):
            for array in table:
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array.flat[0] = array.flat[0]


# a Bloch component: the axis probabilities 0, 1 and 1 - 2^-53 (at
# 1 - 2^-52) come often, and a vector past the ball is scaled onto the
# sphere, so pure states come often too
_COMPONENT = st.sampled_from([0.0, 1.0, -1.0, 1 - 2**-52]) | st.floats(-1.0, 1.0)
_BLOCH = st.tuples(_COMPONENT, _COMPONENT, _COMPONENT).map(
    lambda v: v if math.hypot(*v) <= 1.0 else tuple(np.divide(v, math.hypot(*v))))


def _forced_clip_flags(monkeypatch, clip):
    """_build_plan patched to give each key's _RunPlan with the clip flags
    ``clip``."""
    build = qubit_experiment._build_plan
    monkeypatch.setattr(qubit_experiment, "_build_plan",
                        lambda *key: build(*key)._replace(clip=clip))


class TestClipSkip:
    """run_experiment skips _clip_to_ball for a class only where the run
    plan shows that no estimate its draw can give lies outside the ball."""

    @PROPERTY
    @given(n=st.sampled_from([3, 100, 10**4, 10**5]) | st.integers(1, 10**6),
           r=_BLOCH, s=_BLOCH, pi0=st.sampled_from([0.5]) | st.floats(0.01, 0.99))
    def test_skip_is_exact(self, n, r, s, pi0):
        """Wherever a fixed-label plan says a class cannot leave the ball,
        every corner estimate, each axis at the least or the greatest value
        a draw gives (read from the per-axis law), has float norm^2 at most
        1, summed as _clip_to_ball sums it: the clip would divide nothing."""
        spec = TrainingSetSpec(n=n, problem=ClassificationProblem.from_bloch(r, s, pi0),
                               label_mode=FIXED)
        _assert_flags_sound(_plan(spec).clip, _AliasDrawWrittenOut(spec).extremes())

    @PROPERTY
    @given(m=st.sampled_from([0, 1, 2, 3]) | st.integers(0, 10**7),
           p=st.sampled_from([0.0, 1.0, 1e-300, 1 - 2**-53, 0.5]) | st.floats(0.0, 1.0))
    # rho's x axis on the README anchor at n = 1e4: its cells past 0.917,
    # out to 0.959, round to mass 0
    @example(m=1667, p=0.9)
    def test_drawable_cells_are_the_positive_mass_cells(self, m, p):
        """The exact law of a row's integer alias table gives cell i the
        mass threshold_i plus one - threshold_j for each cell j aliased to
        it, in units of 1/(W one): exactly the rounded masses.  The values
        of positive mass are exactly the own values of cells with
        threshold > 0 and the alias values of cells with threshold < 1 in
        the library's table, the set _build_plan reads its clip flags
        from."""
        values, one, mass, threshold, alias = _one_row_integer_table(m, p)
        law = threshold.copy()
        np.add.at(law, alias, one - threshold)
        assert law.tolist() == mass.tolist()
        thresholds, own, alias_values = (array[0] for array in _axis_table([m], p))
        drawable = set(own[thresholds > 0.0].tolist()) | set(
            alias_values[thresholds < 1.0].tolist())
        assert drawable == set(values[law > 0].tolist())

    @pytest.mark.parametrize("n, problem, clip", [
        pytest.param(10**3, PLANAR, (True, True), id="anchor-1e3"),
        pytest.param(10**4, PLANAR, (False, False), id="anchor-1e4"),
        pytest.param(10**5, PLANAR, (False, False), id="anchor-1e5"),
        pytest.param(10**4, PURE_AXES, (True, True), id="pure-1e4"),
    ])
    def test_skip_changes_no_byte(self, monkeypatch, n, problem, clip):
        """On the README anchor with fixed labels the plan keeps both clips
        at n = 1e3 and skips both at 1e4 and 1e5, and a run whose flags
        are forced True gives the same bytes in its one 2,000-trial chunk.
        A pure pair keeps both flags, and there forcing them False would
        change the bytes."""
        spec = TrainingSetSpec(n=n, problem=problem, label_mode=LabelMode.FIXED_COUNTS,
                               known_priors=True)
        assert _plan(spec).clip == clip
        runs = []
        for forced in (None, (True, True), (False, False)):
            if forced is not None:
                _forced_clip_flags(monkeypatch, forced)
            runs.append(_first_chunk(monkeypatch, spec, 2000, (27, n)).tobytes())
        plan, clipped, unclipped = runs
        assert plan == clipped
        if problem is PURE_AXES:
            assert plan != unclipped


class TestPluginStrategyRun:
    def test_trivial_configuration_zero_excess(self):
        """The estimated operator stays definite: excess exactly 0.0."""
        rng = np.random.default_rng(11)
        spec = TrainingSetSpec(n=2000, problem=TRIVIAL)
        for _ in range(100):
            assert plugin_strategy_run(spec, rng) == 0.0

    def test_degenerate_training_set(self):
        """A class with no copies estimates the maximally mixed state and an
        estimated prior of 0, so the plug-in guesses sigma (rank 0) and the
        excess is Tr[A P*] exactly, whatever the draws."""
        for r0, s0, expected_positive in (((0.5, 0, 0), (0, 0.5, 0), False),
                                          ((1, 0, 0), (0, -1, 0), True)):
            problem = ClassificationProblem.from_bloch(r0, s0, 0.04)
            spec = TrainingSetSpec(n=10, problem=problem, label_mode=LabelMode.FIXED_COUNTS)
            alpha, _, dn = pauli_data(problem.r, problem.s, 0.04)
            expected = max(alpha + 0.5 * dn, 0.0)  # n0 = round(0.4) = 0
            assert (expected > 0.0) == expected_positive
            rng = np.random.default_rng(0)
            assert [plugin_strategy_run(spec, rng) for _ in range(20)] == [expected] * 20
            res = run_experiment(spec, 500, 3)
            assert res.mean_rescaled_excess == pytest.approx(10 * expected, rel=1e-12)
            assert res.fraction_exact == (0.0 if expected_positive else 1.0)

    def test_excess_nonnegative(self):
        rng = np.random.default_rng(13)
        spec = TrainingSetSpec(n=300, problem=PLANAR)
        for _ in range(200):
            assert plugin_strategy_run(spec, rng) >= -1e-15

    def test_exact_evaluation_vs_sampled_test_copies(self):
        """The Helstrom risk plus the trace-formula excess agrees with a
        1e6-copy empirical estimate of the plug-in's error probability."""
        rng = np.random.default_rng(19)
        spec = TrainingSetSpec(
            n=1000, problem=PLANAR, label_mode=LabelMode.FIXED_COUNTS, known_priors=True
        )
        n0, n1 = sample_labels(spec.n, spec.pi0, rng, spec.label_mode)
        r_hat = tomographic_estimate(PLANAR.r, n0, rng)
        s_hat = tomographic_estimate(PLANAR.s, n1, rng)
        p_hat = positive_eigenprojector(
            weighted_operator(ClassificationProblem.from_bloch(r_hat, s_hat, spec.pi0)))
        excess = excess_risk(p_hat, PLANAR)
        exact = helstrom_risk(PLANAR) + excess
        copies = 10**6
        sampled = sampled_error_probability(p_hat, PLANAR, copies, rng)
        sigma = math.sqrt(exact * (1 - exact) / copies)
        assert sampled == pytest.approx(exact, abs=4 * sigma)
        assert excess >= -1e-12


class TestVectorisedChunk:
    """The chunk's array kernel against the per-trial, per-outcome oracle."""

    @staticmethod
    def _estimate_batch(rng):
        cases = [
            (rng.uniform(0.0, 1.0),
             rng.uniform(-0.55, 0.55, 3),
             rng.uniform(-0.55, 0.55, 3))
            for _ in range(300)
        ]
        small_r, small_s = np.array([0.1, 0, 0]), np.array([0, 0.1, 0])
        same = np.array([0.3, -0.2, 0.1])
        cases += [
            (0.95, small_r, small_s),  # rank 2: guess rho
            (0.05, small_r, small_s),  # rank 0: guess sigma
            (0.5, same, same),  # the operator vanishes: rank 0
            (0.0, np.zeros(3), small_s),  # no rho copies, prior estimated 0
            (1.0, small_r, np.zeros(3)),  # no sigma copies, prior estimated 1
            # |d| ~ 7e-161: the sum of squares is subnormal, so |d| is rescaled
            (0.5, np.array([1e-160, 0, 0]), np.array([0, -1e-160, 0])),
        ]
        pi_hat = np.array([c[0] for c in cases])
        r_hat = np.array([c[1] for c in cases])
        s_hat = np.array([c[2] for c in cases])
        return pi_hat, r_hat, s_hat

    @pytest.mark.parametrize("problem", [PLANAR, TRIVIAL, SKEWED],
                             ids=["planar", "trivial", "skewed"])
    def test_bit_exact_kernel(self, problem):
        """A batch through _plugin_excess equals each trial evaluated alone,
        bit for bit, and each entry the matrix route's excess to 1e-12, with
        the rank of positive_eigenprojector.  Written into ``out`` over
        rho's x estimates, as run_experiment's chunk writes it, the batch
        is the array out itself, with the same bits."""
        pi_hat, r_hat, s_hat = self._estimate_batch(np.random.default_rng(5))
        truth = pauli_data(problem.r, problem.s, problem.pi0)
        # a known prior is the scalar-broadcast case of the same kernel
        for pi in (0.3, pi_hat):
            trials = list(zip(np.broadcast_to(pi, pi_hat.shape).tolist(), r_hat, s_hat))
            batch = _plugin_excess(truth, r_hat.T.copy(), s_hat.T.copy(), pi)
            assert batch.tolist() == [plugin_excess(problem, r, s, p) for p, r, s in trials]
            est = np.concatenate((r_hat.T, s_hat.T))
            out = est[0]
            assert _plugin_excess(truth, est[:3], est[3:], pi, out=out) is out
            assert np.array_equal(out.view(np.int64), batch.view(np.int64))
            ranks = []
            for value, (p, r, s) in zip(batch, trials):
                op = HermitianOperator(p * bloch_to_density(r).matrix
                                       - (1.0 - p) * bloch_to_density(s).matrix)
                via_op = positive_eigenprojector(op)
                alpha, _, dn = pauli_data(BlochVector(*r), BlochVector(*s), p)
                ranks.append(mask_rank(alpha, dn))
                assert ranks[-1] == via_op.rank
                assert value == pytest.approx(excess_risk(via_op, problem), abs=1e-12)
        assert set(ranks) == {0, 1, 2}  # of the pi_hat batch

    # n = 1, 2, 3 leave axes without copies; _RANDOM_ALIAS_MAX_N is the last
    # n whose random labels draw from alias tables, the next one the first
    # drawn per trial
    @pytest.mark.parametrize("n, problem", [
        *(pytest.param(n, SKEWED, id=str(n))
          for n in (1, 2, 3, 30, 300, _RANDOM_ALIAS_MAX_N, _RANDOM_ALIAS_MAX_N + 1)),
        *(pytest.param(n, PURE_AXES, id=f"pure-{n}") for n in (5, 30)),
    ])
    @pytest.mark.parametrize("mode, binomial", [
        pytest.param(RANDOM, False, id="random"),
        pytest.param(FIXED, False, id="fixed"),
        pytest.param(FIXED, True, id="fixed-binomial"),
    ])
    def test_same_distribution_as_per_outcome_oracle(self, monkeypatch, n, problem, mode,
                                                     binomial):
        """Mean rescaled excess and the fraction of exact recoveries agree
        within 4 combined standard errors.  Fixed labels are run with their
        own plans and with the binomial plan forced on every key."""
        spec = TrainingSetSpec(n=n, problem=problem, label_mode=mode)
        if binomial:
            _forced_binomial_plans(monkeypatch)
        fast = run_experiment(spec, 20_000, (101, n))
        rng = np.random.default_rng((102, n))
        oracle = n * np.array([plugin_strategy_run(spec, rng) for _ in range(3000)])
        se = math.hypot(fast.stderr, oracle.std(ddof=1) / math.sqrt(oracle.size))
        assert abs(fast.mean_rescaled_excess - oracle.mean()) <= 4 * se
        exact = np.mean(oracle == 0.0)
        se = math.sqrt(fast.fraction_exact * (1 - fast.fraction_exact) / fast.trials
                       + exact * (1 - exact) / oracle.size)
        assert abs(fast.fraction_exact - exact) <= 4 * se

    def test_trivial_regime_every_trial_exactly_zero(self):
        for mode in LabelMode:
            spec = TrainingSetSpec(n=2000, problem=TRIVIAL, label_mode=mode)
            res = run_experiment(spec, 20_000, 7)
            assert res.fraction_exact == 1.0
            assert res.mean_rescaled_excess == 0.0


def _first_chunk(monkeypatch, spec, trials, seed):
    """The per-trial excess values of run_experiment's first chunk, as its
    chunk function returns them."""
    chunks = []

    def first_only(trials, seed, chunk_fn, workers):
        chunks.append(chunk_fn(chunk_rng(seed, 0), min(trials, montecarlo.CHUNK_SIZE)))
        return [Moments.of(chunks[-1].copy())]

    monkeypatch.setattr(qubit_experiment, "run_chunked", first_only)
    run_experiment(spec, trials, seed)
    return chunks[0]


class TestKernelRegression:
    """The boolean-mask kernel against the int-rank, nested-np.where kernel
    it replaced (tests/helpers.py), bit for bit on whole chunks."""

    @pytest.mark.parametrize("n, problem, mode, known, trials", [
        pytest.param(100, PLANAR, LabelMode.RANDOM_LABELS, False, 65_536, id="alias-random-100"),
        pytest.param(10_000, PLANAR, LabelMode.FIXED_COUNTS, True, 2_000, id="alias-fixed-1e4"),
        pytest.param(10_000, SKEWED, LabelMode.FIXED_COUNTS, False, 2_000,
                     id="alias-fixed-1e4-estimated-prior"),
        pytest.param(2_000, SKEWED, LabelMode.RANDOM_LABELS, False, 8_192 + 1_000,
                     id="binomial-random-2000"),
        pytest.param(2_000, TRIVIAL, LabelMode.RANDOM_LABELS, False, 20_000, id="trivial-random"),
        pytest.param(2_000, TRIVIAL, LabelMode.FIXED_COUNTS, False, 20_000, id="trivial-fixed"),
    ])
    def test_same_bits_as_int_rank_kernel(self, monkeypatch, n, problem, mode, known, trials):
        spec = TrainingSetSpec(n=n, problem=problem, label_mode=mode, known_priors=known)
        new = _first_chunk(monkeypatch, spec, trials, (26, n))
        monkeypatch.setattr(qubit_experiment, "_plugin_excess", int_rank_plugin_excess)
        old = _first_chunk(monkeypatch, spec, trials, (26, n))
        assert new.shape == (trials,)
        assert np.array_equal(new.view(np.int64), old.view(np.int64))
        if problem is TRIVIAL:  # every trial exactly +0.0
            assert np.array_equal(new.view(np.int64), np.zeros(trials).view(np.int64))


class TestTrainingSetSpec:
    def test_n_limit(self):
        """n up to 10**12 runs; above it the spec is refused by name."""
        spec = TrainingSetSpec(n=10**12, problem=PLANAR, known_priors=True)
        res = run_experiment(spec, 100, 5)
        assert math.isfinite(res.mean_rescaled_excess)
        for n in (10**12 + 1, 2**62, 10**30):
            with pytest.raises(ValueError, match=r"at most 10\*\*12"):
                TrainingSetSpec(n=n, problem=PLANAR)

    def test_n_is_stored_as_int(self):
        """An integral n of another type is stored as an int; a bool, a
        fraction, a nonpositive n, inf or NaN is refused by name."""
        for n in (100.0, np.int64(100), np.float64(100.0)):
            spec = TrainingSetSpec(n=n, problem=PLANAR)
            assert spec.n == 100 and type(spec.n) is int
        for n in (True, False, np.bool_(True), 100.5, 0, -3, math.inf, math.nan,
                  np.float64(math.inf)):
            with pytest.raises(ValueError, match="positive integer"):
                TrainingSetSpec(n=n, problem=PLANAR)


class TestRunExperiment:
    def test_matches_delta_method_oracle(self):
        spec = TrainingSetSpec(
            n=10**4, problem=PLANAR, label_mode=LabelMode.FIXED_COUNTS, known_priors=True
        )
        res = run_experiment(spec, 4000, 29)
        oracle = tomography_constant((0.8, 0, 0), (0, 0.6, 0), 0.5)
        assert res.mean_rescaled_excess == pytest.approx(oracle, rel=0.05)

    def test_estimated_priors_add_prior_correction(self):
        spec = TrainingSetSpec(n=10**4, problem=PLANAR)  # random labels, pi estimated
        res = run_experiment(spec, 4000, 31)
        oracle = tomography_constant((0.8, 0, 0), (0, 0.6, 0), 0.5, with_prior_term=True)
        assert res.mean_rescaled_excess == pytest.approx(oracle, rel=0.05)

    def test_antipodal_pure_constant(self):
        """Pure antipodal states: the x/y Pauli noise leaves a finite
        rescaled excess (delta-method constant 1.5); exact recovery of the
        oracle projector is a null event."""
        prob = ClassificationProblem.from_bloch((0, 0, 1.0), (0, 0, -1.0), 0.5)
        spec = TrainingSetSpec(
            n=10**4, problem=prob, label_mode=LabelMode.FIXED_COUNTS, known_priors=True
        )
        res = run_experiment(spec, 4000, 37)
        assert tomography_constant((0, 0, 1.0), (0, 0, -1.0), 0.5) == pytest.approx(1.5)
        assert res.mean_rescaled_excess == pytest.approx(1.5, rel=0.06)
        assert res.fraction_exact < 0.01

    def test_one_over_n_rate(self):
        """Mean excess at 4n is within [0.15, 0.35] of the mean excess at n."""
        means = {}
        for n in (2500, 10000):
            spec = TrainingSetSpec(
                n=n, problem=PLANAR, label_mode=LabelMode.FIXED_COUNTS, known_priors=True
            )
            res = run_experiment(spec, 2000, 23)
            means[n] = res.mean_rescaled_excess / n
        ratio = means[10000] / means[2500]
        assert 0.15 <= ratio <= 0.35

    # every sampler and both label modes, in 64-trial chunks on two CPUs, so
    # that workers 3 starts a pool of two threads; random labels draw from
    # alias tables at n = 60 and 500 and binomials at 1500, fixed labels
    # from alias tables at every n here
    @pytest.mark.parametrize("n", [60, 500, 1500])
    @pytest.mark.parametrize("mode", list(LabelMode), ids=lambda m: m.value)
    def test_determinism_and_workers(self, monkeypatch, n, mode):
        monkeypatch.setattr(montecarlo, "CHUNK_SIZE", 64)
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
        spec = TrainingSetSpec(n=n, problem=PLANAR, label_mode=mode)
        a = run_experiment(spec, 300, 41)
        b = run_experiment(spec, 300, 41)
        c = run_experiment(spec, 300, 41, workers=3)
        assert a == b == c


class TestTrivialityBoundaryLayer:
    """Near the triviality boundary the 1/n constant holds only once
    x = eps sqrt(n) / (2 tau) is large, eps = |d0| - |pi0 - pi1| (ROADMAP
    item 18).  Config A: eps = 0.0099 and tau = 0.845 for fixed labels
    with known priors, so x ~ 0.75 at n = 16,400 and ~ 18 at n = 1e7."""

    R0, S0, PI0 = (0, 0, 0.3), (0.27, 0, 0), 0.6

    def measure(self, n):
        """(n E, the constant C, the z-score of n E against C); 2^17 trials."""
        problem = ClassificationProblem.from_bloch(self.R0, self.S0, self.PI0)
        spec = TrainingSetSpec(n=n, problem=problem, label_mode=LabelMode.FIXED_COUNTS,
                               known_priors=True)
        res = run_experiment(spec, 2**17, 11)
        constant = tomography_constant(self.R0, self.S0, self.PI0)
        z = (res.mean_rescaled_excess - constant) / res.stderr
        return res.mean_rescaled_excess, constant, z

    def test_constant_is_not_reached_in_the_layer(self):
        """At x ~ 0.75 rank flips dominate: n E is about 3 C (22.13 +- 0.085
        against C = 7.018), 178 stderr above it."""
        rescaled, constant, z = self.measure(16_400)
        assert rescaled > 2 * constant
        assert z > 20

    def test_constant_holds_far_from_the_boundary(self):
        """At x ~ 18: n E = 7.0116 +- 0.0194, z = -0.3."""
        _, _, z = self.measure(10**7)
        assert abs(z) <= 4

    def test_exact_zeros_rise_on_the_trivial_side(self):
        """Config A with s0 moved in to |s0| = sqrt((0.197^2 - 0.0324)/0.16),
        so that |d0| = 0.197 and eps = -0.003: the constant is 0, but the
        fraction of trials with excess exactly 0 only rises with n (0.535,
        0.703 and 0.961 at n = 1e4, 1e5 and 1e6, 2^16 trials), and rank
        flips still give n E = 46.8 at 1e5.  At 1e7 every trial is exactly
        0."""
        s0 = (math.sqrt((0.197**2 - 0.0324) / 0.16), 0, 0)
        assert triviality_check(self.R0, s0, self.PI0) is TrivialityVerdict.TRIVIAL_GUESS_RHO
        problem = ClassificationProblem.from_bloch(self.R0, s0, self.PI0)
        runs = [run_experiment(TrainingSetSpec(n=n, problem=problem, label_mode=FIXED,
                                               known_priors=True), 2**16, (7, n))
                for n in (10**4, 10**5, 10**6, 10**7)]
        exact = [res.fraction_exact for res in runs]
        assert all(a < b for a, b in zip(exact, exact[1:])), exact
        assert exact[-1] == 1.0 and runs[-1].mean_rescaled_excess == 0.0
        assert runs[1].mean_rescaled_excess > 20


class TestRiskCurve:
    """The rescaled excess n E over ascending n, each n run at seed (seed, i)
    as qubit-sim runs n_list[i]."""

    @staticmethod
    def curve(problem, n_list, trials, seed, **spec):
        return [run_experiment(TrainingSetSpec(n=n, problem=problem, **spec), trials, (seed, i))
                for i, n in enumerate(n_list)]

    def test_trivial_config_decays(self):
        # n large enough that the rare class keeps >= 3 copies in every trial
        curve = self.curve(TRIVIAL, [200, 500, 2000], 400, 47)
        assert curve[-1].mean_rescaled_excess <= curve[0].mean_rescaled_excess
        assert curve[-1].fraction_exact == 1.0

    def test_nontrivial_curve_flat_at_large_n(self):
        a, b = self.curve(PLANAR, [5000, 20000], 1500, 53,
                          label_mode=FIXED, known_priors=True)
        band = 3 * math.hypot(a.stderr, b.stderr)
        assert abs(a.mean_rescaled_excess - b.mean_rescaled_excess) <= band


class TestClassicalGaussianExample:
    def test_bayes_risk_value(self):
        """Standard normal tail at half the separation: Phi(-1) for (0, 2)."""
        assert bayes_risk_gaussian(0.0, 2.0) == pytest.approx(0.1586552539, abs=1e-9)

    def test_midpoint_threshold_is_optimal(self):
        t_star = 1.5
        assert gaussian_error_probability(t_star, 0.0, 3.0) == bayes_risk_gaussian(0.0, 3.0)
        for t in (1.2, 1.8):
            assert gaussian_error_probability(t, 0.0, 3.0) > bayes_risk_gaussian(0.0, 3.0)

    def test_matches_scipy_normal_cdf(self):
        """Oracle: the scipy ndtr formula, on a grid reaching both tails."""
        ndtr = pytest.importorskip("scipy.special").ndtr
        t = np.linspace(-12.0, 12.0, 48_001)
        for a, b in ((0.0, 3.0), (0.0, 2.0), (-1.5, 4.0), (2.0, 2.25)):
            want = 0.5 * (1.0 - ndtr(t - a)) + 0.5 * ndtr(t - b)
            got = gaussian_error_probability(t, a, b)
            assert np.max(np.abs(got - want)) <= 1e-15

    def test_scalar_and_array_types(self):
        scalar = gaussian_error_probability(0.7, 0.0, 2.0)
        assert np.ndim(scalar) == 0
        assert isinstance(float(scalar), float)
        arr = gaussian_error_probability(np.array([0.7, 1.0, 1.3]), 0.0, 2.0)
        assert isinstance(arr, np.ndarray) and arr.dtype == np.float64 and arr.shape == (3,)
        assert arr[0] == scalar

    def test_rescaled_excess_constant_in_n(self):
        means = [
            classical_gaussian_example(0.0, 3.0, n, 3000, 61).mean_rescaled_excess
            for n in (10**3, 10**4, 10**5)
        ]
        assert max(means) / min(means) < 2.0

    def test_precondition(self):
        with pytest.raises(ValueError):
            classical_gaussian_example(2.0, 1.0, 100, 10, 0)

    def test_determinism(self):
        a = classical_gaussian_example(0.0, 2.0, 1000, 500, 67)
        b = classical_gaussian_example(0.0, 2.0, 1000, 500, 67)
        assert a == b


class TestClassicalCoinExample:
    def test_exponentially_rare_mistakes(self):
        res = classical_coin_example(0.2, 0.8, 0.5, 500, 2000, 71)
        assert 1.0 - res.fraction_exact < 1e-3

    def test_fraction_decreasing_in_n(self):
        fractions = [
            1.0 - classical_coin_example(0.2, 0.8, 0.5, n, 2000, 17).fraction_exact
            for n in (50, 100, 200)
        ]
        assert fractions[0] >= fractions[1] >= fractions[2]

    def test_preconditions(self):
        with pytest.raises(ValueError):
            classical_coin_example(0.5, 0.8, 0.5, 100, 10, 0)
        with pytest.raises(ValueError):
            classical_coin_example(0.2, 0.5, 0.5, 100, 10, 0)
        with pytest.raises(ValueError):
            classical_coin_example(0.2, 0.8, 0.0, 100, 10, 0)
