"""Unit and property tests for the closed-form 2x2 algebra."""

import math
import pickle

import numpy as np
import pytest

from qclass import BlochVector, InvalidStateError, build_frame, local_geometry, pauli_data
from qclass.qubit_core import _rescaled_norm, _scaled, as_float3, vector_norm

from helpers import (
    IDENTITY,
    SIGMA_Y,
    SIGMA_Z,
    DensityMatrix,
    HermitianOperator,
    Projector,
    bloch_to_density,
    density_to_bloch,
    positive_eigenprojector,
    projector_matrix,
    random_nontrivial_config,
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
        assert as_float3(density_to_bloch(bloch_to_density(BlochVector(0, 0, 0)))) == pytest.approx((0, 0, 0))
        assert density_to_bloch(DensityMatrix(np.diag([1.0, 0.0]))).z == pytest.approx(1.0)
        rho_y = DensityMatrix(0.5 * (IDENTITY + 0.6 * SIGMA_Y))
        assert as_float3(density_to_bloch(rho_y)) == pytest.approx((0.0, 0.6, 0.0))

    def test_round_trip_random(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            r = random_unit(rng) * rng.uniform(0, 1)
            back = density_to_bloch(bloch_to_density(BlochVector.from_array(r)))
            np.testing.assert_allclose(as_float3(back), r, atol=1e-12)

    def test_norm_validation(self):
        with pytest.raises(InvalidStateError):
            BlochVector(1.2, 0.0, 0.0)
        with pytest.raises(InvalidStateError, match="non-finite"):
            BlochVector(math.nan, 0.0, 0.0)
        with pytest.raises(InvalidStateError):
            bloch_to_density(np.array([0.9, 0.9, 0.0]))
        # _make and _replace build through the constructor, so they check too
        with pytest.raises(InvalidStateError):
            BlochVector(0.5, 0.0, 0.0)._replace(x=2.0)
        with pytest.raises(InvalidStateError, match="non-finite"):
            BlochVector._make((0.0, math.inf, 0.0))
        # finite entries whose squares overflow have an infinite norm
        with pytest.raises(InvalidStateError, match=r"^Bloch vector norm inf exceeds 1$"):
            BlochVector(1e308, 1e308, 0.0)
        with pytest.raises(InvalidStateError, match="non-finite"):
            BlochVector(1e308, 1e308, math.nan)

    def test_record_semantics(self):
        """A named tuple: immutable, equal to the tuple of its fields, and
        pickled through its checked constructor."""
        v = BlochVector(0.6, 0.0, 0.8)
        with pytest.raises(AttributeError):
            v.x = 0.1
        assert v == (0.6, 0.0, 0.8) and tuple(v) == (v.x, v.y, v.z)
        back = pickle.loads(pickle.dumps(v))
        assert type(back) is BlochVector and back == v

    def test_norm_of_tiny_vectors(self):
        """Below |r| ~ 1e-154 the sum of squares is subnormal; the norm is
        scaled there, and is the plain square root of the sum elsewhere."""
        assert BlochVector(1e-160, 0.0, 0.0).norm == 1e-160
        assert BlochVector(0.0, -3e-200, 4e-200).norm == pytest.approx(5e-200, rel=1e-15)
        assert BlochVector(0.0, 0.0, 0.0).norm == 0.0
        rng = np.random.default_rng(12)
        for x, y, z in rng.uniform(-0.5, 0.5, (200, 3)) * 10.0 ** rng.integers(-150, 1, (200, 1)):
            assert BlochVector(x, y, z).norm == math.sqrt(x * x + y * y + z * z)

    def test_batch_edge_cases(self):
        """An empty batch gives no norms, and a NaN column beside a tiny one
        leaves the tiny column's scaled norm as the triple route gives it."""
        assert vector_norm(np.zeros((3, 0))).shape == (0,)
        batch = np.array([[math.nan, 3e-170, 0.5], [0.0, 4e-170, 0.0], [0.0, 0.0, 0.0]])
        norms = vector_norm(batch.copy())
        assert math.isnan(norms[0])
        assert norms[1:].tolist() == [vector_norm((3e-170, 4e-170, 0.0)), 0.5]
        assert norms[1] > 0.0

    def test_one_scaled_norm(self):
        """BlochVector.norm and pauli_data's |d| are vector_norm, whose tiny
        branch is the one scaled norm of the library: they agree bit for
        bit with each other and with the column norms of a (3, B) array,
        tiny vectors included.  local_geometry has no norm of its own: the
        frame's cross-product cosine is that scaled norm of the same cross
        product, also at a 1e-170 tilt, whose squares are subnormal, and
        for a state 1e-300 long."""
        rng = np.random.default_rng(13)
        zero = BlochVector(0.0, 0.0, 0.0)
        rows = rng.uniform(-0.5, 0.5, (300, 3)) * 10.0 ** rng.integers(-320, 1, (300, 1))
        norms = []
        for row in rows:
            x, y, z = map(float, row)
            norms.append(vector_norm((x, y, z)))
            assert BlochVector(x, y, z).norm == norms[-1]
            assert pauli_data(BlochVector(x, y, z), zero, 1.0)[2] == norms[-1]
        assert vector_norm(rows.T.copy()).tolist() == norms
        assert (local_geometry._scaled, local_geometry._rescaled_norm) == (_scaled, _rescaled_norm)
        configs = [random_nontrivial_config(rng) for _ in range(300)] + [
            ((0.9, 0.0, 0.0), (0.3, 3e-171, 6e-171), 0.5),
            ((0.9, 0.0, 0.0), (-0.3, 3e-171, 6e-171), 0.5),
            ((0.8, 0.0, 0.0), (6e-301, 0.0, 8e-301), 0.5),
        ]
        for r, s, pi0 in configs:
            f = build_frame(r, s, pi0)
            shorter, cos = ((s, f.cos_phi1) if (1.0 - pi0) * f.s0_norm <= pi0 * f.r0_norm
                            else (r, f.cos_phi0))
            hat = local_geometry._direction(as_float3(shorter))
            assert cos == _rescaled_norm(*local_geometry._cross(f.p0, hat)) > 0.0

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
        assert as_float3(proj.bloch) == pytest.approx((0, 0, 1))

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
