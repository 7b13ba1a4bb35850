"""Tests for the oracle classifier: Pauli data, risk, excess risk, triviality.

The projectors, error probabilities and excess risks of arbitrary
projectors come from the oracles in tests/helpers.py."""

import math
import pickle

import numpy as np
import pytest

from qclass import (
    BlochVector,
    ClassificationProblem,
    InvalidStateError,
    TrivialityVerdict,
    helstrom_risk,
    pauli_data,
    rank_masks,
    triviality_check,
)
from qclass.helstrom import verdict_of
from qclass.qubit_core import as_float3

from helpers import (
    HermitianOperator,
    Projector,
    bloch_to_density,
    error_probability,
    excess_risk,
    int_rank,
    mask_rank,
    positive_eigenprojector,
    random_problem,
    random_projector,
    random_rotation,
    trace_norm,
    weighted_operator,
)

ANTIPODAL = ClassificationProblem.from_bloch((0, 0, 1), (0, 0, -1), 0.5)
PLANAR = ClassificationProblem.from_bloch((0.8, 0, 0), (0, 0.6, 0), 0.5)
TRIVIAL = ClassificationProblem.from_bloch((0, 0, 0.1), (0, 0, 0.5), 0.9)


def oracle_projector(prob):
    """The oracle projector by the matrix route."""
    return positive_eigenprojector(weighted_operator(prob))


class TestHelstromProjector:
    def test_anchors(self):
        """d0/|d0| on the antipodal and planar anchors, where d0 is (0, 0, 1)
        and (0.4, -0.3, 0); rank 2 (always guess rho) on the trivial one."""
        for prob, p in ((ANTIPODAL, (0, 0, 1)), (PLANAR, (0.8, -0.6, 0.0))):
            alpha, (dx, dy, dz), dn = pauli_data(prob.r, prob.s, prob.pi0)
            assert mask_rank(alpha, dn) == oracle_projector(prob).rank == 1
            assert (dx / dn, dy / dn, dz / dn) == pytest.approx(p)
            assert as_float3(oracle_projector(prob).bloch) == pytest.approx(p)
        assert oracle_projector(TRIVIAL).rank == 2

    def test_matches_operator_route(self):
        """The rank and d/|d| of the Pauli data agree with the matrix-route
        oracle, at every rank."""
        rng = np.random.default_rng(7)
        problems = [random_problem(rng) for _ in range(200)] + [
            TRIVIAL,  # rank 2: always guess rho
            ClassificationProblem.from_bloch((0, 0, 0.5), (0, 0, 0.1), 0.1),  # rank 0
            # pi0 = 1/2 with r = s: the operator vanishes, and rank 0 is one
            # of many optima
            ClassificationProblem.from_bloch((0.3, -0.2, 0.1), (0.3, -0.2, 0.1), 0.5),
        ]
        ranks = []
        for prob in problems:
            alpha, (dx, dy, dz), dn = pauli_data(prob.r, prob.s, prob.pi0)
            via_op = oracle_projector(prob)
            ranks.append(mask_rank(alpha, dn))
            assert ranks[-1] == via_op.rank
            if via_op.rank == 1:
                np.testing.assert_allclose(
                    (dx / dn, dy / dn, dz / dn), as_float3(via_op.bloch), atol=1e-9
                )
        assert ranks[-3:] == [2, 0, 0]


class TestPauliData:
    def test_array_square_root_is_np_sqrt(self):
        """vector_norm takes the norms of an array in place, as dd **= 0.5,
        so that qubit_core imports no numpy; numpy must evaluate it and dd **
        0.5 as np.sqrt, bit for bit, and all must match math.sqrt, which a
        float takes."""
        tiny = np.finfo(float).tiny
        special = [0.0, -0.0, 5e-324, 1e-320, tiny / 3, tiny, 1e-300, 3.7e-300,
                   1e300, 3.7e300, np.finfo(float).max, np.inf, 0.25, 1.0, 2.0]
        rng = np.random.default_rng(5)
        x = np.concatenate([special, rng.random(4096) * 10.0 ** rng.integers(-307, 308, 4096)])
        root = x ** 0.5
        assert root.dtype == np.float64
        assert np.array_equal(root.view(np.int64), np.sqrt(x).view(np.int64))
        in_place = x.copy()
        in_place **= 0.5
        assert np.array_equal(in_place.view(np.int64), root.view(np.int64))
        assert np.array_equal(root.view(np.int64),
                              np.array([math.sqrt(v) for v in x]).view(np.int64))

    def test_tiny_d_is_rescaled(self):
        """Below |d| ~ 1e-154 the sum of squares is subnormal or 0: |d| is
        taken from d scaled by its largest component, the same on the float
        and the array route, bit for bit."""
        rng = np.random.default_rng(6)
        d = rng.uniform(-1, 1, (300, 3)) * 10.0 ** rng.integers(-300, -150, (300, 1))
        d[:3] = [[0, 0, 0], [5e-324, 0, 0], [0, -3e-200, 4e-200]]
        zero = BlochVector(0.0, 0.0, 0.0)
        dn = pauli_data(d.T.copy(), np.zeros((3, 1)), 1.0)[2]
        assert dn.tolist() == [pauli_data(BlochVector(*row), zero, 1.0)[2] for row in d]
        assert dn[:3].tolist() == [0.0, 5e-324, pytest.approx(5e-200, rel=1e-15)]
        np.testing.assert_allclose(dn[3:], [math.hypot(*row) for row in d[3:]], rtol=1e-15)


class TestRankMasks:
    def test_sign_tests_of_the_rounded_eigenvalues(self):
        """rank_masks compares |d|/2 with -/+alpha instead of forming alpha
        -/+ |d|/2: the ranks equal those of the rounded eigenvalues' signs,
        ties, zeros and subnormals included, for floats and arrays."""
        rng = np.random.default_rng(8)
        alpha = rng.uniform(-0.5, 0.5, 2000) * 10.0 ** rng.integers(-320, 1, 2000)
        dn = rng.uniform(0.0, 1.0, 2000) * 10.0 ** rng.integers(-320, 1, 2000)
        dn[:400] = 2.0 * np.abs(alpha[:400])  # an eigenvalue exactly 0
        dn[400:500] = 0.0
        alpha[500:600] = 0.0
        dn[600:700] = np.nextafter(dn[:100], 1.0)
        rank0, rank2 = rank_masks(alpha, dn)
        rank = int_rank(alpha, dn)
        assert set(rank.tolist()) == {0, 1, 2}
        assert np.array_equal(rank0, rank == 0)
        assert np.array_equal(rank2, rank == 2)
        assert [mask_rank(float(a), float(n)) for a, n in zip(alpha, dn)] == rank.tolist()


class TestClassificationProblem:
    def test_states_checked_at_construction(self):
        """A 3-sequence is coerced to a BlochVector, a BlochVector is kept as
        is, and a vector outside the Bloch ball fails at construction."""
        r = BlochVector(0.8, 0.0, 0.0)
        prob = ClassificationProblem(r, np.array([0.0, 0.6, 0.0]), 0.5)
        assert prob.r is r
        assert prob.s == BlochVector(0.0, 0.6, 0.0)
        assert prob == PLANAR
        with pytest.raises(InvalidStateError):
            ClassificationProblem((0.9, 0.9, 0.0), (0.0, 0.0, 0.0), 0.5)
        with pytest.raises(ValueError):
            ClassificationProblem((0.1, 0.2), (0.0, 0.0, 0.0), 0.5)
        with pytest.raises(InvalidStateError):
            PLANAR._replace(s=(0.0, 1.5, 0.0))

    def test_record_semantics(self):
        """A named tuple: immutable, equal to the tuple of its fields, and
        pickled through its checked constructor."""
        with pytest.raises(AttributeError):
            PLANAR.pi0 = 0.3
        r, s, pi0 = PLANAR
        assert PLANAR == (r, s, pi0) and PLANAR.pi1 == 1.0 - pi0
        back = pickle.loads(pickle.dumps(PLANAR))
        assert type(back) is ClassificationProblem and back == PLANAR
        assert type(back.r) is BlochVector and type(back.s) is BlochVector

    @pytest.mark.parametrize("pi0", [0.0, 1.0, math.nan])
    def test_prior_checked_at_construction(self, pi0):
        """The one check of a prior: it must lie strictly in (0, 1), and
        triviality_check makes it through the problem type."""
        message = r"pi0 must lie strictly in \(0, 1\), got " + repr(pi0)
        with pytest.raises(ValueError, match=message):
            ClassificationProblem((0.8, 0.0, 0.0), (0.0, 0.6, 0.0), pi0)
        with pytest.raises(ValueError, match=message):
            PLANAR._replace(pi0=pi0)
        with pytest.raises(ValueError, match=message):
            triviality_check((0.8, 0.0, 0.0), (0.0, 0.6, 0.0), pi0)


class TestHelstromRisk:
    def test_antipodal_perfectly_distinguishable(self):
        assert helstrom_risk(ANTIPODAL) == pytest.approx(0.0, abs=1e-15)

    def test_planar_anchor(self):
        assert helstrom_risk(PLANAR) == pytest.approx(0.25, abs=1e-12)

    def test_trivial_risk_is_smaller_prior(self):
        assert helstrom_risk(TRIVIAL) == pytest.approx(0.1, abs=1e-12)

    def test_equal_priors_closed_form(self):
        """For pi0 = 1/2 the risk is (1 - |r - s|/2)/2; also via trace_norm."""
        rng = np.random.default_rng(13)
        for _ in range(300):
            prob = random_problem(rng, pi_lo=0.5, pi_hi=0.5)
            r = np.array(as_float3(prob.r))
            s = np.array(as_float3(prob.s))
            closed = 0.5 * (1 - np.linalg.norm(r - s) / 2)
            assert helstrom_risk(prob) == pytest.approx(closed, abs=1e-12)
            tn = trace_norm(
                HermitianOperator(prob.pi1 * bloch_to_density(prob.s).matrix
                                  - prob.pi0 * bloch_to_density(prob.r).matrix)
            )
            assert helstrom_risk(prob) == pytest.approx(0.5 * (1 - tn), abs=1e-12)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(19)
        base = random_problem(rng)
        r = np.array(as_float3(base.r))
        s = np.array(as_float3(base.s))
        risk = helstrom_risk(base)
        for _ in range(100):
            rot = random_rotation(rng)
            rotated = ClassificationProblem.from_bloch(rot @ r, rot @ s, base.pi0)
            assert helstrom_risk(rotated) == pytest.approx(risk, abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            prob = random_problem(rng)
            risk = helstrom_risk(prob)
            assert -1e-15 <= risk <= min(prob.pi0, prob.pi1) + 1e-12


class TestErrorProbability:
    def test_helstrom_projector_attains_helstrom_risk(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            prob = random_problem(rng)
            p_star = oracle_projector(prob)
            assert error_probability(p_star, prob) == pytest.approx(
                helstrom_risk(prob), abs=1e-12
            )

    def test_identity_always_guesses_rho(self):
        assert error_probability(Projector(rank=2), PLANAR) == pytest.approx(0.5)
        assert error_probability(Projector(rank=2), TRIVIAL) == pytest.approx(0.1)

    def test_perfect_projector_on_antipodal(self):
        p = Projector(rank=1, bloch=BlochVector(0, 0, 1))
        assert error_probability(p, ANTIPODAL) == pytest.approx(0.0, abs=1e-15)


class TestExcessRisk:
    def test_zero_at_optimum(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            prob = random_problem(rng)
            assert excess_risk(oracle_projector(prob), prob) == pytest.approx(0.0, abs=1e-15)

    def test_swapped_labels_on_antipodal(self):
        worst = Projector(rank=1, bloch=BlochVector(0, 0, -1))
        assert excess_risk(worst, ANTIPODAL) == pytest.approx(1.0, abs=1e-12)

    def test_difference_form_oracle(self):
        rng = np.random.default_rng(47)
        for _ in range(500):
            prob = random_problem(rng)
            p_hat = random_projector(rng)
            diff = error_probability(p_hat, prob) - helstrom_risk(prob)
            assert excess_risk(p_hat, prob) == pytest.approx(diff, abs=1e-12)

    def test_nonnegative_for_random_projectors(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            prob = random_problem(rng)
            for _ in range(100):
                assert excess_risk(random_projector(rng), prob) >= -1e-12


class TestTrivialityCheck:
    def test_trivial_guess_rho(self):
        verdict = triviality_check((0, 0, 0.1), (0, 0, 0.5), 0.9)
        assert verdict is TrivialityVerdict.TRIVIAL_GUESS_RHO

    def test_trivial_guess_sigma(self):
        verdict = triviality_check((0, 0, 0.5), (0, 0, 0.1), 0.1)
        assert verdict is TrivialityVerdict.TRIVIAL_GUESS_SIGMA

    def test_equal_priors_distinct_states_nontrivial(self):
        verdict = triviality_check((0.3, 0, 0), (0, 0.2, 0), 0.5)
        assert verdict is TrivialityVerdict.NONTRIVIAL

    def test_boundary_is_degenerate(self):
        # |0.75 z - 0.25 z| = 0.5 = |pi0 - pi1| exactly
        verdict = triviality_check((0, 0, 1.0), (0, 0, 1.0), 0.75)
        assert verdict is TrivialityVerdict.DEGENERATE

    def test_verdict_of_is_the_definition(self):
        """verdict_of tells the boundary apart inside the rank-0 and rank-1
        branches of rank_masks; it must equal the definition: DEGENERATE
        where |d| = 2|alpha| exactly, else the verdict of the int rank,
        with the boundary at alpha < 0, alpha = 0 and alpha > 0."""
        by_rank = (TrivialityVerdict.TRIVIAL_GUESS_SIGMA, TrivialityVerdict.NONTRIVIAL,
                   TrivialityVerdict.TRIVIAL_GUESS_RHO)
        rng = np.random.default_rng(60)
        alpha = rng.uniform(-0.5, 0.5, 3000)
        alpha[:50] = 0.0
        dn = rng.uniform(0.0, 1.0, 3000)
        dn[:1000] = 2.0 * np.abs(alpha[:1000])
        dn[1000:1500] = np.nextafter(dn[:500], np.where(np.arange(500) % 2, 0.0, 1.0))
        dn[1500:1600] = 5e-324 * np.arange(100)
        for a, n in zip(alpha.tolist(), dn.tolist()):
            want = (TrivialityVerdict.DEGENERATE if n == 2.0 * abs(a)
                    else by_rank[int(int_rank(a, n))])
            assert verdict_of(a, n) is want

    def test_consistency_with_projector_rank(self):
        rng = np.random.default_rng(59)
        for _ in range(300):
            r = rng.normal(size=3)
            r *= rng.uniform(0, 1) / np.linalg.norm(r)
            s = rng.normal(size=3)
            s *= rng.uniform(0, 1) / np.linalg.norm(s)
            pi0 = rng.uniform(0.05, 0.95)
            verdict = triviality_check(r, s, pi0)
            prob = ClassificationProblem.from_bloch(r, s, pi0)
            rank = oracle_projector(prob).rank
            if verdict is TrivialityVerdict.NONTRIVIAL:
                assert rank == 1
            elif verdict is TrivialityVerdict.TRIVIAL_GUESS_RHO:
                assert rank == 2
            elif verdict is TrivialityVerdict.TRIVIAL_GUESS_SIGMA:
                assert rank == 0
