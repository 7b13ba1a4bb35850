"""Tests for the oracle classifier: projector, risk, excess risk, triviality."""

import numpy as np
import pytest

from qclass import (
    BlochVector,
    ClassificationProblem,
    DegenerateProblemError,
    Projector,
    TrivialityVerdict,
    error_probability,
    excess_risk,
    helstrom_projector,
    helstrom_risk,
    triviality_check,
)

from helpers import (
    HermitianOperator,
    positive_eigenprojector,
    projector_matrix,
    random_problem,
    random_projector,
    random_rotation,
    trace_norm,
    weighted_operator,
)

ANTIPODAL = ClassificationProblem.from_bloch((0, 0, 1), (0, 0, -1), 0.5)
PLANAR = ClassificationProblem.from_bloch((0.8, 0, 0), (0, 0.6, 0), 0.5)
TRIVIAL = ClassificationProblem.from_bloch((0, 0, 0.1), (0, 0, 0.5), 0.9)


class TestHelstromProjector:
    def test_orthogonal_pure_states(self):
        proj = helstrom_projector(ANTIPODAL)
        assert proj.rank == 1
        assert proj.bloch.as_array() == pytest.approx([0, 0, 1])

    def test_planar_anchor_direction(self):
        proj = helstrom_projector(PLANAR)
        assert proj.rank == 1
        # d0 = (0.4, -0.3, 0) normalised
        assert proj.bloch.as_array() == pytest.approx([0.8, -0.6, 0.0])

    def test_trivial_configuration_is_identity(self):
        assert helstrom_projector(TRIVIAL).rank == 2

    def test_degenerate_raises(self):
        same = ClassificationProblem.from_bloch((0.3, 0, 0), (0.3, 0, 0), 0.5)
        with pytest.raises(DegenerateProblemError):
            helstrom_projector(same)

    def test_matches_operator_route(self):
        """Pauli path must agree with the matrix-route oracle, every rank."""
        rng = np.random.default_rng(7)
        problems = [random_problem(rng) for _ in range(200)] + [
            TRIVIAL,  # rank 2: always guess rho
            ClassificationProblem.from_bloch((0, 0, 0.5), (0, 0, 0.1), 0.1),  # rank 0
        ]
        for prob in problems:
            direct = helstrom_projector(prob)
            via_op = positive_eigenprojector(weighted_operator(prob))
            assert direct.rank == via_op.rank
            if direct.rank == 1:
                np.testing.assert_allclose(
                    direct.bloch.as_array(), via_op.bloch.as_array(), atol=1e-9
                )
        assert [helstrom_projector(p).rank for p in problems[-2:]] == [2, 0]
        # pi0 = 1/2 with r = s: the operator vanishes; the oracle's rank-0
        # answer is one of many optima, so the Helstrom projector refuses
        same = ClassificationProblem.from_bloch((0.3, -0.2, 0.1), (0.3, -0.2, 0.1), 0.5)
        assert positive_eigenprojector(weighted_operator(same)).rank == 0
        with pytest.raises(DegenerateProblemError):
            helstrom_projector(same)


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
            r = prob.rho.bloch.as_array()
            s = prob.sigma.bloch.as_array()
            closed = 0.5 * (1 - np.linalg.norm(r - s) / 2)
            assert helstrom_risk(prob) == pytest.approx(closed, abs=1e-12)
            tn = trace_norm(
                HermitianOperator(prob.pi1 * prob.sigma.matrix - prob.pi0 * prob.rho.matrix)
            )
            assert helstrom_risk(prob) == pytest.approx(0.5 * (1 - tn), abs=1e-12)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(19)
        base = random_problem(rng)
        r = base.rho.bloch.as_array()
        s = base.sigma.bloch.as_array()
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
            p_star = helstrom_projector(prob)
            assert error_probability(p_star, prob) == pytest.approx(
                helstrom_risk(prob), abs=1e-12
            )

    def test_identity_always_guesses_rho(self):
        assert error_probability(Projector(rank=2), PLANAR) == pytest.approx(0.5)
        assert error_probability(Projector(rank=2), TRIVIAL) == pytest.approx(0.1)

    def test_perfect_projector_on_antipodal(self):
        p = Projector(rank=1, bloch=BlochVector(0, 0, 1))
        assert error_probability(p, ANTIPODAL) == pytest.approx(0.0, abs=1e-15)

    def test_matrix_trace_oracle(self):
        """Scalar formula vs explicit matrix traces."""
        rng = np.random.default_rng(41)
        for _ in range(200):
            prob = random_problem(rng)
            p_hat = random_projector(rng)
            pm = projector_matrix(p_hat)
            oracle = (
                prob.pi0 * np.trace(prob.rho.matrix @ (np.eye(2) - pm)).real
                + prob.pi1 * np.trace(prob.sigma.matrix @ pm).real
            )
            assert error_probability(p_hat, prob) == pytest.approx(oracle, abs=1e-12)


class TestExcessRisk:
    def test_zero_at_optimum(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            prob = random_problem(rng)
            assert excess_risk(helstrom_projector(prob), prob) == pytest.approx(0.0, abs=1e-15)

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
            rank = helstrom_projector(prob).rank
            if verdict is TrivialityVerdict.NONTRIVIAL:
                assert rank == 1
            elif verdict is TrivialityVerdict.TRIVIAL_GUESS_RHO:
                assert rank == 2
            elif verdict is TrivialityVerdict.TRIVIAL_GUESS_SIGMA:
                assert rank == 0
