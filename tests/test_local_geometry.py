"""Tests for the local frames, angles, quadratic loss and the expansion,
with hypothesis property tests for the configurations that stress the frame."""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from qclass import (
    ClassificationProblem,
    NumericalError,
    TrivialConfigurationError,
    TrivialityVerdict,
    build_frame,
    risk_report,
    triviality_check,
)
from qclass.local_geometry import _check_frame
from qclass.qubit_core import as_float3

from helpers import (
    PerpEstimate,
    cartesian_frames,
    estimator_to_projector,
    excess_risk,
    frame_axes,
    local_states,
    quadratic_loss,
    random_nontrivial_config,
    relative_perp,
)
from strategies import (
    PROPERTY,
    ROUNDED_BOUNDARY,
    direction,
    frame_stress_config,
    length,
    nontrivial_config,
    orthonormal_pair,
    prior,
    tilt,
    unit,
)

PLANAR = ((0.8, 0.0, 0.0), (0.0, 0.6, 0.0), 0.5)


class TestBuildFrame:
    def test_planar_anchor_values(self):
        f = build_frame(*PLANAR)
        assert f.d0_norm == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(f.p0, [0.8, -0.6, 0.0], atol=1e-12)
        assert f.sin_phi0 == pytest.approx(0.8, abs=1e-12)
        assert f.cos_phi0 == pytest.approx(0.6, abs=1e-12)
        assert f.sin_phi1 == pytest.approx(0.6, abs=1e-12)
        assert f.cos_phi1 == pytest.approx(0.8, abs=1e-12)

    @pytest.mark.parametrize("s0, cosines", [
        ((0, 0, -1.0), (0.0, 0.0)),
        ((0, 0, 0.3), (0.0, 0.0)),
        # cosines whose squares underflow keep their digits: norms are scaled first
        ((3e-171, 0, 0.3), (3e-170 / 7, 1e-169 / 7)),
    ], ids=["antipodal", "parallel", "tilted-1e-170"])
    def test_cosines_at_and_near_parallel(self, s0, cosines):
        """An exactly zero cross product gives both cosines exactly 0."""
        f = build_frame((0, 0, 1.0), s0, 0.5)
        assert (f.cos_phi0, f.cos_phi1) == pytest.approx(cosines, rel=1e-12, abs=0.0)

    def test_parallel_same_direction_signs(self):
        f = build_frame((0, 0, 0.9), (0, 0, 0.3), 0.5)
        assert f.sin_phi0 == pytest.approx(1.0)
        assert f.sin_phi1 == pytest.approx(-1.0)
        assert f.d0_norm == pytest.approx(0.3, abs=1e-12)

    def test_antiparallel_signs(self):
        f = build_frame((0, 0, 0.9), (0, 0, -0.3), 0.5)
        assert f.sin_phi0 == pytest.approx(1.0)
        assert f.sin_phi1 == pytest.approx(1.0)

    def test_errors(self):
        with pytest.raises(ValueError):
            build_frame((0, 0, 0), (0, 0, 0.5), 0.5)
        with pytest.raises(TrivialConfigurationError):
            build_frame((0, 0, 0.1), (0, 0, 0.5), 0.9)  # trivial
        with pytest.raises(TrivialConfigurationError):
            build_frame((0, 0, 1.0), (0, 0, 1.0), 0.75)  # degenerate boundary
        with pytest.raises(TrivialConfigurationError, match="configuration is degenerate"):
            build_frame(*ROUNDED_BOUNDARY)  # within rounding of the boundary
        for pi0 in (0.0, 1.0, math.nan):  # checked through ClassificationProblem
            with pytest.raises(ValueError, match=r"pi0 must lie strictly in \(0, 1\)"):
                build_frame(*PLANAR[:2], pi0)

    def test_check_rejects_a_perturbed_longer_state(self):
        """The longer weighted state's cosine is derived from the shorter
        one's, so its sin^2 + cos^2 check is the check of that derivation:
        r0 is the longer here, and its sin(phi0) off by 1e-6 fails it."""
        frame = build_frame(*PLANAR)
        perturbed = frame._replace(sin_phi0=frame.sin_phi0 + 1e-6)
        with pytest.raises(NumericalError, match=r"sin\^2 \+ cos\^2 = 1 for phi0"):
            _check_frame(perturbed, PLANAR[2])

    def test_random_frame_invariants(self):
        rng = np.random.default_rng(61)
        for _ in range(500):
            r, s, pi0 = random_nontrivial_config(rng)
            f = build_frame(r, s, pi0)
            g = cartesian_frames(f, r, s)
            pi1 = 1 - pi0
            p0, l0, k0 = frame_axes(f, r, s)
            for triple in ((p0, l0, k0), (g.a1, g.a2, g.a3), (g.b1, g.b2, g.b3)):
                gram = np.array(triple) @ np.array(triple).T
                np.testing.assert_allclose(gram, np.eye(3), atol=1e-9)
                # right-handed
                np.testing.assert_allclose(np.cross(triple[0], triple[1]), triple[2],
                                           atol=1e-9)
            # the states lie in the (p0, l0) plane at the frame's angles
            np.testing.assert_allclose(
                g.a3, f.sin_phi0 * p0 + f.cos_phi0 * l0, atol=1e-12)
            np.testing.assert_allclose(
                g.b3, -f.sin_phi1 * p0 + f.cos_phi1 * l0, atol=1e-12)
            assert f.sin_phi0**2 + f.cos_phi0**2 == pytest.approx(1.0, abs=1e-12)
            assert f.sin_phi1**2 + f.cos_phi1**2 == pytest.approx(1.0, abs=1e-12)
            assert f.cos_phi0 >= 0 and f.cos_phi1 >= 0
            assert pi0 * f.r0_norm * f.cos_phi0 == pytest.approx(
                pi1 * f.s0_norm * f.cos_phi1, abs=1e-9
            )
            assert f.d0_norm == pytest.approx(
                pi0 * f.r0_norm * f.sin_phi0 + pi1 * f.s0_norm * f.sin_phi1, abs=1e-9
            )

    def test_frame_identity(self):
        """pi0 r0^2 cos^2(phi0) + pi1 s0^2 cos^2(phi1) = r0 s0 cos(phi0) cos(phi1)."""
        rng = np.random.default_rng(67)
        for _ in range(1000):
            r, s, pi0 = random_nontrivial_config(rng)
            f = build_frame(r, s, pi0)
            lhs = (
                pi0 * f.r0_norm**2 * f.cos_phi0**2
                + (1 - pi0) * f.s0_norm**2 * f.cos_phi1**2
            )
            rhs = f.r0_norm * f.s0_norm * f.cos_phi0 * f.cos_phi1
            assert lhs == pytest.approx(rhs, abs=1e-9)


class TestRelativePerp:
    def test_zero(self):
        f = build_frame(*PLANAR)
        z_l, z_k = relative_perp((0, 0, 0), (0, 0, 0), f, 0.5)
        assert z_l == 0.0 and z_k == 0.0

    def test_planar_example(self):
        f = build_frame(*PLANAR)
        z_l, z_k = relative_perp((1, 0, 0), (0, 0, 0), f, 0.5)
        assert z_l == pytest.approx(0.4, abs=1e-12)  # pi0 sin(phi0) u1
        assert z_k == 0.0

    def test_k_cancellation(self):
        f = build_frame(*PLANAR)
        _, z_k = relative_perp((0, 1, 0), (0, 1, 0), f, 0.5)
        assert z_k == pytest.approx(0.0, abs=1e-15)

    def test_geometric_oracle(self):
        """Formula vs explicit Cartesian projection of pi0 u - pi1 v."""
        rng = np.random.default_rng(71)
        for _ in range(300):
            r, s, pi0 = random_nontrivial_config(rng)
            f = build_frame(r, s, pi0)
            u = rng.normal(size=3)
            v = rng.normal(size=3)
            z_l, z_k = relative_perp(u, v, f, pi0)
            g = cartesian_frames(f, r, s)
            _, l0, k0 = frame_axes(f, r, s)
            z_cart = pi0 * g.u_to_cartesian(u) - (1 - pi0) * g.v_to_cartesian(v)
            assert z_l == pytest.approx(float(z_cart @ l0), abs=1e-9)
            assert z_k == pytest.approx(float(z_cart @ k0), abs=1e-9)


class TestQuadraticLoss:
    def test_zero_iff_equal(self):
        z = PerpEstimate(0.5, -0.3)
        assert quadratic_loss(z, z, 1.0) == 0.0
        assert quadratic_loss(z, PerpEstimate(0.5, -0.29), 1.0) > 0.0

    def test_example(self):
        assert quadratic_loss(
            PerpEstimate(0.5, 0.0), PerpEstimate(0.0, 0.0), 1.0
        ) == pytest.approx(0.0625)

    def test_homogeneity(self):
        rng = np.random.default_rng(73)
        for _ in range(100):
            z = PerpEstimate(rng.normal(), rng.normal())
            zh = PerpEstimate(rng.normal(), rng.normal())
            z2 = PerpEstimate(2 * z.z_l, 2 * z.z_k)
            zh2 = PerpEstimate(2 * zh.z_l, 2 * zh.z_k)
            d0 = rng.uniform(0.1, 1)
            assert quadratic_loss(z2, zh2, d0) == pytest.approx(
                4 * quadratic_loss(z, zh, d0), rel=1e-12
            )

    def test_requires_positive_d0(self):
        with pytest.raises(ValueError):
            quadratic_loss(PerpEstimate(0, 0), PerpEstimate(0, 0), 0.0)


class TestEstimatorToProjector:
    def test_zero_estimate_returns_p0(self):
        f = build_frame(*PLANAR)
        proj = estimator_to_projector(PerpEstimate(0, 0), f, frame_axes(f, *PLANAR[:2]), 100)
        np.testing.assert_allclose(as_float3(proj.bloch), f.p0, atol=1e-12)

    def test_direct_formula_at_unit_d0(self):
        # antipodal pure: |d0| = 1, so the perturbation is z_hat/sqrt(n) exactly
        f = build_frame((0, 0, 1.0), (0, 0, -1.0), 0.5)
        p0, l0, _ = axes = frame_axes(f, (0, 0, 1.0), (0, 0, -1.0))
        proj = estimator_to_projector(PerpEstimate(1.0, 0.0), f, axes, 10**6)
        expected = p0 + 0.001 * l0
        expected /= np.linalg.norm(expected)
        np.testing.assert_allclose(as_float3(proj.bloch), expected, atol=1e-15)

    def test_unit_norm_and_locality(self):
        rng = np.random.default_rng(79)
        for _ in range(200):
            r, s, pi0 = random_nontrivial_config(rng)
            f = build_frame(r, s, pi0)
            zh = PerpEstimate(rng.normal(), rng.normal())
            n = int(rng.integers(1, 10**6))
            proj = estimator_to_projector(zh, f, frame_axes(f, r, s), n)
            vec = np.array(as_float3(proj.bloch))
            assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
            # within O(|z_hat|/sqrt(n)) of p0
            dist = np.linalg.norm(vec - f.p0)
            bound = np.linalg.norm(zh.as_array()) / (math.sqrt(n) * f.d0_norm)
            assert dist <= bound + 1e-12

    def test_invalid_n(self):
        f = build_frame(*PLANAR)
        with pytest.raises(ValueError):
            estimator_to_projector(PerpEstimate(0, 0), f, frame_axes(f, *PLANAR[:2]), 0)


class TestLocalStates:
    @staticmethod
    def frames(r0, s0, pi0):
        return cartesian_frames(build_frame(r0, s0, pi0), r0, s0)

    def test_zero_perturbation(self):
        rho, sigma = local_states(self.frames(*PLANAR), (0, 0, 0), (0, 0, 0), 100)
        np.testing.assert_allclose(as_float3(rho.bloch), [0.8, 0, 0], atol=1e-12)
        np.testing.assert_allclose(as_float3(sigma.bloch), [0, 0.6, 0], atol=1e-12)

    def test_radial_perturbation(self):
        frames = self.frames((0, 0, 0.5), (0.4, 0, 0), 0.5)
        rho, _ = local_states(frames, (0, 0, 1.0), (0, 0, 0), 100)
        # u3 along a3 = r0_hat: 0.5 + 1/10
        assert rho.bloch.z == pytest.approx(0.6, abs=1e-12)

    def test_ball_exit_rejected(self):
        frames = self.frames((0, 0, 1.0), (0, 0, -1.0), 0.5)
        from qclass import InvalidStateError

        with pytest.raises(InvalidStateError):
            local_states(frames, (0, 0, 1.0), (0, 0, 0), 100)


class TestLocalExpansion:
    def test_rescaled_excess_converges_to_quadratic_loss(self):
        """|n * excess(P(z_hat, n)) - L| shrinks like 1/sqrt(n)."""
        rng = np.random.default_rng(83)
        for _ in range(20):
            r, s, pi0 = random_nontrivial_config(
                rng, norm_lo=0.2, norm_hi=0.7, pi_lo=0.3, pi_hi=0.7, margin=0.05
            )
            f = build_frame(r, s, pi0)
            frames = cartesian_frames(f, r, s)
            u = rng.uniform(-1, 1, 3)
            u *= rng.uniform(0, 2) / max(np.linalg.norm(u), 1e-9)
            v = rng.uniform(-1, 1, 3)
            v *= rng.uniform(0, 2) / max(np.linalg.norm(v), 1e-9)
            zh = PerpEstimate(rng.uniform(-2, 2), rng.uniform(-2, 2))
            loss = quadratic_loss(relative_perp(u, v, f, pi0), zh, f.d0_norm)
            axes = frame_axes(f, r, s)
            errs = []
            for n in (10**2, 10**4, 10**6):
                rho_n, sigma_n = local_states(frames, u, v, n)
                prob = ClassificationProblem(rho_n.bloch, sigma_n.bloch, pi0)
                p_hat = estimator_to_projector(zh, f, axes, n)
                errs.append(abs(n * excess_risk(p_hat, prob) - loss))
            # each decade shrinks the deviation by ~sqrt(n) (slack 1.5); the
            # absolute alternative absorbs tuples whose leading error
            # coefficient crosses zero between grid points
            for a, b in zip(errs, errs[1:]):
                assert b <= max(1.5 * a / 10.0, 0.01 * loss) + 1e-12
            assert errs[2] < 0.01 * loss


# ---------------------------------------------------------------- properties
# Property tests over the configurations that stress the frame: pairs close
# to (anti)parallel, pure states and pairs just off the |d0| = |pi0 - pi1|
# boundary.  Every nontrivial draw must give a frame whose identities hold.


def assert_frame_identities(r0, s0, pi0):
    """build_frame succeeds and its four identities hold to 1e-9."""
    f = build_frame(r0, s0, pi0)
    pi1 = 1.0 - pi0
    assert abs(f.sin_phi0 ** 2 + f.cos_phi0 ** 2 - 1.0) < 1e-9
    assert abs(f.sin_phi1 ** 2 + f.cos_phi1 ** 2 - 1.0) < 1e-9
    assert abs(pi0 * f.r0_norm * f.cos_phi0 - pi1 * f.s0_norm * f.cos_phi1) < 1e-9
    assert abs(f.d0_norm - (pi0 * f.r0_norm * f.sin_phi0
                            + pi1 * f.s0_norm * f.sin_phi1)) < 1e-9
    assert f.cos_phi0 >= -1e-9 and f.cos_phi1 >= -1e-9
    return f


class TestFrameProperties:
    @PROPERTY
    @given(v=direction, other=direction, a=length, b=length, pi0=prior, eps=tilt,
           sign=st.sampled_from([1.0, -1.0]))
    def test_near_parallel_and_antiparallel(self, v, other, a, b, pi0, eps, sign):
        n, m = orthonormal_pair(v, other)
        r0 = a * n
        s0 = sign * b * unit(n + eps * m)
        assume(triviality_check(r0, s0, pi0) is TrivialityVerdict.NONTRIVIAL)
        assert_frame_identities(r0, s0, pi0)

    @PROPERTY
    @given(v=direction, other=direction, b=length, pi0=prior,
           s_pure=st.booleans(), eps=st.one_of(st.just(0.0), tilt))
    def test_pure_states(self, v, other, b, pi0, s_pure, eps):
        r0 = unit(v)
        s0 = unit(np.asarray(other) + eps * r0) * (1.0 if s_pure else b)
        assume(np.linalg.norm(r0) <= 1.0 + 1e-12 and np.linalg.norm(s0) <= 1.0 + 1e-12)
        assume(triviality_check(r0, s0, pi0) is TrivialityVerdict.NONTRIVIAL)
        assert_frame_identities(r0, s0, pi0)

    @PROPERTY
    @given(v=direction, other=direction, b=length, pi0=prior,
           tiny=st.just(5e-324) | st.floats(-323.3, -9.0).map(lambda e: 10.0 ** e),
           s_tiny=st.booleans())
    def test_one_tiny_state(self, v, other, b, pi0, tiny, s_tiny):
        """One state 5e-324 to 1e-9 long, in either role, next to one 0.05
        to 1 long: d0 lies along the long state to rounding, so the cosines
        come from the short one's cross product with p0, and its norm may be
        subnormal.  The frame passes its checks, and risk_report its
        decomposition."""
        long, short = b * unit(v), tiny * unit(other)
        r0, s0 = (long, short) if s_tiny else (short, long)
        assume(triviality_check(r0, s0, pi0) is TrivialityVerdict.NONTRIVIAL)
        frame = assert_frame_identities(r0, s0, pi0)
        assert all(math.isfinite(value) for value in risk_report(frame, pi0))

    @PROPERTY
    @given(v=direction, other=direction, b=length, pi0=prior,
           gap=st.floats(-12.0, -3.0).map(lambda e: 10.0 ** e))
    def test_just_off_the_triviality_boundary(self, v, other, b, pi0, gap):
        """|d0| = |pi0 - pi1| (1 + gap): r0 is solved from d0 and s0."""
        assume(abs(2.0 * pi0 - 1.0) > 0.02)
        pi1 = 1.0 - pi0
        s0 = b * unit(other)
        d0 = abs(pi0 - pi1) * (1.0 + gap) * unit(v)
        r0 = (d0 + pi1 * s0) / pi0
        assume(np.linalg.norm(r0) <= 1.0)
        assume(triviality_check(r0, s0, pi0) is TrivialityVerdict.NONTRIVIAL)
        assert_frame_identities(r0, s0, pi0)


# ----------------------------------------------------- the short-state rule
# The cosine of the shorter of pi0 r0 and pi1 s0 is its cross product with
# p0, and the other state's follows from it, over generic configs and the
# stress families alike.

frame_config = st.one_of(nontrivial_config, frame_stress_config)


def _hat(a) -> np.ndarray:
    """a/|a|, scaled by its largest component first (a may be subnormal)."""
    a = np.asarray(a, dtype=float)
    return unit(a / np.max(np.abs(a)))


def weighted_split(r0, s0, pi0):
    """(t_hat, o_hat): the directions of the shorter and the longer of
    pi0 r0 and pi1 s0."""
    if (1.0 - pi0) * math.hypot(*s0) <= pi0 * math.hypot(*r0):
        return _hat(s0), _hat(r0)
    return _hat(r0), _hat(s0)


def role_swap_pair(r0, s0, pi0):
    """(r0, s0, pi0) and (s0, r0, 1 - pi0), relabelled so that pi0 >= 0.5:
    then 1 - pi0 is exact and 1 - (1 - pi0) = pi0, so the two configs are
    the same problem with the roles of the states swapped."""
    if pi0 < 0.5:
        r0, s0, pi0 = s0, r0, 1.0 - pi0
    return (r0, s0, pi0), (s0, r0, 1.0 - pi0)


class TestShortStateRule:
    @PROPERTY
    @given(config=frame_config)
    def test_shorter_weighted_state_has_the_larger_cross_product(self, config):
        """pi0 |r0_perp| = pi1 |s0_perp|, so |p0 x t_hat| >= |p0 x o_hat|:
        the rule takes the better conditioned state."""
        p0 = np.asarray(build_frame(*config).p0)
        t_hat, o_hat = weighted_split(*config)
        assert (np.linalg.norm(np.cross(p0, t_hat))
                >= np.linalg.norm(np.cross(p0, o_hat)) - 1e-15)

    @PROPERTY
    @given(config=frame_config)
    def test_swapping_the_roles_mirrors_the_frame(self, config):
        """(s0, r0, pi1) has p0 negated and the angles of the two states
        swapped."""
        config, swapped = role_swap_pair(*config)
        assume(triviality_check(*swapped) is TrivialityVerdict.NONTRIVIAL)
        f, g = build_frame(*config), build_frame(*swapped)
        np.testing.assert_array_equal(g.p0, -np.asarray(f.p0))
        assert g.d0_norm == f.d0_norm
        for got, want in ((g.sin_phi0, f.sin_phi1), (g.cos_phi0, f.cos_phi1),
                          (g.sin_phi1, f.sin_phi0), (g.cos_phi1, f.cos_phi0)):
            assert got == pytest.approx(want, abs=1e-12)

    @PROPERTY
    @given(config=frame_config)
    def test_swapping_the_roles_keeps_the_risks(self, config):
        """Relabelling the states negates c and leaves every other report
        constant as it is."""
        config, swapped = role_swap_pair(*config)
        assume(triviality_check(*swapped) is TrivialityVerdict.NONTRIVIAL)
        a = risk_report(build_frame(*config), config[2])
        b = risk_report(build_frame(*swapped), swapped[2])
        for name in a._fields:
            want = -getattr(a, name) if name == "commutator_c" else getattr(a, name)
            assert getattr(b, name) == pytest.approx(
                want, rel=1e-12, abs=1e-12), name
