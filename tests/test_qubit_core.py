"""Unit and property tests for the closed-form 2x2 algebra."""

import math

import numpy as np
import pytest

from qclass import (
    BlochVector,
    InvalidStateError,
    Projector,
)

from helpers import (
    IDENTITY,
    SIGMA_Y,
    SIGMA_Z,
    DensityMatrix,
    HermitianOperator,
    bloch_to_density,
    density_to_bloch,
    positive_eigenprojector,
    projector_matrix,
    random_projector,
    random_unit,
    sample_pauli,
    trace_norm,
)


class TestBlochDensityRoundTrip:
    def test_maximally_mixed(self):
        rho = bloch_to_density(BlochVector(0.0, 0.0, 0.0))
        np.testing.assert_allclose(rho.matrix, IDENTITY / 2, atol=1e-15)

    def test_pure_state_up(self):
        rho = bloch_to_density(BlochVector(0.0, 0.0, 1.0))
        np.testing.assert_allclose(rho.matrix, np.diag([1.0, 0.0]), atol=1e-15)

    def test_eigenvalues_against_eigvalsh_oracle(self):
        """(0.8, 0, 0) must have eigenvalues {0.9, 0.1}; oracle is numpy's solver."""
        rho = bloch_to_density(BlochVector(0.8, 0.0, 0.0))
        evals = np.sort(np.linalg.eigvalsh(rho.matrix))
        np.testing.assert_allclose(evals, [0.1, 0.9], atol=1e-12)

    def test_density_to_bloch_trivia(self):
        assert density_to_bloch(bloch_to_density(BlochVector(0, 0, 0))).as_array() == pytest.approx([0, 0, 0])
        assert density_to_bloch(DensityMatrix(np.diag([1.0, 0.0]))).z == pytest.approx(1.0)
        rho_y = DensityMatrix(0.5 * (IDENTITY + 0.6 * SIGMA_Y))
        assert density_to_bloch(rho_y).as_array() == pytest.approx([0.0, 0.6, 0.0])

    def test_round_trip_random(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            r = random_unit(rng) * rng.uniform(0, 1)
            back = density_to_bloch(bloch_to_density(BlochVector.from_array(r)))
            np.testing.assert_allclose(back.as_array(), r, atol=1e-12)

    def test_norm_validation(self):
        with pytest.raises(InvalidStateError):
            BlochVector(1.2, 0.0, 0.0)
        with pytest.raises(InvalidStateError):
            bloch_to_density(np.array([0.9, 0.9, 0.0]))

    def test_shape_validation(self):
        """Only three real numbers make a 3-vector: a (3, 1) array, a 3-key
        dict or a 3-character string is rejected before float()."""
        assert BlochVector.from_array(np.array([0.1, 0.2, 0.3])) == BlochVector(0.1, 0.2, 0.3)
        for bad in (np.array([[0.1], [0.2], [0.3]]), {"x": 0.1, "y": 0.2, "z": 0.3},
                    "123", (0.1, 0.2), np.zeros(4)):
            with pytest.raises(ValueError):
                BlochVector.from_array(bad)

    def test_density_validation(self):
        with pytest.raises(InvalidStateError):
            DensityMatrix(np.array([[0.5, 0.3], [0.1, 0.5]]))  # not Hermitian
        with pytest.raises(InvalidStateError):
            DensityMatrix(np.diag([0.7, 0.7]))  # trace != 1
        with pytest.raises(InvalidStateError):
            DensityMatrix(np.diag([1.2, -0.2]))  # negative eigenvalue


class TestPositiveEigenprojector:
    """The matrix-route oracle of tests/helpers.py, checked on its own."""

    def test_sigma_z(self):
        proj = positive_eigenprojector(HermitianOperator(SIGMA_Z))
        assert proj.rank == 1
        assert proj.bloch.as_array() == pytest.approx([0, 0, 1])

    def test_negative_identity(self):
        assert positive_eigenprojector(HermitianOperator(-IDENTITY)).rank == 0

    def test_positive_definite(self):
        # eigenvalues (0.8 +/- 0.04)/2, both positive
        a = HermitianOperator(0.5 * (0.8 * IDENTITY + 0.04 * SIGMA_Z))
        assert positive_eigenprojector(a).rank == 2

    def test_zero_operator_gives_rank_zero(self):
        """Strict positivity: a zero eigenvalue never enters the projector."""
        assert positive_eigenprojector(HermitianOperator(np.zeros((2, 2)))).rank == 0
        # one eigenvalue 0, one positive: rank 1
        proj = positive_eigenprojector(HermitianOperator(np.diag([1.0, 0.0])))
        assert proj.rank == 1

    def test_commutes_with_operator(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            a = HermitianOperator.from_pauli(rng.normal(), rng.normal(size=3))
            p = projector_matrix(positive_eigenprojector(a))
            np.testing.assert_allclose(a.matrix @ p, p @ a.matrix, atol=1e-12)

    def test_maximizes_trace_over_projectors(self):
        """Tr[A P_+] >= Tr[A Q] for every projector Q."""
        rng = np.random.default_rng(17)
        a = HermitianOperator.from_pauli(rng.normal(), rng.normal(size=3))
        best = float(np.trace(a.matrix @ projector_matrix(positive_eigenprojector(a))).real)
        for _ in range(1000):
            q = projector_matrix(random_projector(rng))
            assert best - float(np.trace(a.matrix @ q).real) >= -1e-12


class TestTraceNorm:
    def test_trivia(self):
        assert trace_norm(HermitianOperator(SIGMA_Z)) == pytest.approx(2.0)
        assert trace_norm(HermitianOperator(np.zeros((2, 2)))) == 0.0

    def test_half_direction_operator(self):
        d = np.array([0.3, 0.0, 0.4])  # |d| = 0.5, eigenvalues +/- 0.25
        a = HermitianOperator.from_pauli(0.0, d / 2)
        assert trace_norm(a) == pytest.approx(0.5, abs=1e-12)

    def test_homogeneity_and_eigvalsh_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            a = HermitianOperator.from_pauli(rng.normal(), rng.normal(size=3))
            alpha = rng.normal()
            scaled = HermitianOperator(alpha * a.matrix)
            assert trace_norm(scaled) == pytest.approx(abs(alpha) * trace_norm(a), abs=1e-10)
            oracle = float(np.abs(np.linalg.eigvalsh(a.matrix)).sum())
            assert trace_norm(a) == pytest.approx(oracle, abs=1e-12)


class TestSamplePauli:
    def test_deterministic_aligned_state(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            assert sample_pauli(BlochVector(0, 0, 1), (0, 0, 1), rng) == 1

    def test_symmetry_at_center(self):
        rng = np.random.default_rng(1)
        outcomes = sample_pauli(BlochVector(0, 0, 0), (1, 0, 0), rng, size=10**6)
        # p = 1/2, binomial sigma of the mean = 1e-3
        assert abs(outcomes.mean()) < 4e-3

    def test_born_rule_mean(self):
        rng = np.random.default_rng(2)
        outcomes = sample_pauli(BlochVector(0.8, 0, 0), (1, 0, 0), rng, size=10**6)
        sigma = math.sqrt((1 - 0.8**2) / 10**6)
        assert outcomes.mean() == pytest.approx(0.8, abs=4 * sigma)

    def test_born_rule_random_axes(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            r = random_unit(rng) * rng.uniform(0, 1)
            axis = random_unit(rng)
            p = 0.5 * (1 + float(r @ axis))
            outcomes = sample_pauli(BlochVector.from_array(r), axis, rng, size=10**5)
            freq = np.mean(outcomes == 1)
            sigma = math.sqrt(max(p * (1 - p), 1e-12) / 10**5)
            assert freq == pytest.approx(p, abs=max(4 * sigma, 1e-3))

    def test_non_unit_axis_rejected(self):
        with pytest.raises(ValueError):
            sample_pauli(BlochVector(0, 0, 0), (0.5, 0, 0), np.random.default_rng(0))

    def test_seed_determinism(self):
        a = sample_pauli(BlochVector(0.3, 0.2, 0.1), (0, 1, 0),
                         np.random.default_rng(99), size=1000)
        b = sample_pauli(BlochVector(0.3, 0.2, 0.1), (0, 1, 0),
                         np.random.default_rng(99), size=1000)
        assert np.array_equal(a, b)


class TestProjectorType:
    def test_rank_one_needs_unit_bloch(self):
        with pytest.raises(ValueError):
            Projector(rank=1, bloch=BlochVector(0.5, 0, 0))
        with pytest.raises(ValueError):
            Projector(rank=1)

    def test_idempotence(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            p = projector_matrix(random_projector(rng))
            np.testing.assert_allclose(p @ p, p, atol=1e-12)
