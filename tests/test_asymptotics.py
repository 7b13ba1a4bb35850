"""Regression and identity tests for the closed-form risk constants."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from qclass import (
    NumericalError,
    build_frame,
    classical_risk_term,
    commutator_c,
    optimal_minimax_risk,
    plugin_risk,
    prior_correction,
    quantum_risk_term,
    risk_gap,
    risk_report,
)

from helpers import cartesian_frames, random_nontrivial_config
from strategies import PROPERTY, direction, unit

ANTIPODAL = ((0.0, 0.0, 1.0), (0.0, 0.0, -1.0), 0.5)
PARALLEL = ((0.0, 0.0, 0.9), (0.0, 0.0, 0.3), 0.5)
PLANAR = ((0.8, 0.0, 0.0), (0.0, 0.6, 0.0), 0.5)


def frame_of(config):
    r, s, pi0 = config
    return build_frame(r, s, pi0), pi0


class TestAnchorValues:
    """Hand-derived oracle values for the three anchor configurations."""

    def test_classical_term(self):
        assert classical_risk_term(*frame_of(ANTIPODAL)) == pytest.approx(0.0, abs=1e-12)
        assert classical_risk_term(*frame_of(PARALLEL)) == pytest.approx(0.0, abs=1e-12)
        # 0.5*0.36*0.36 + 0.5*0.64*0.64
        assert classical_risk_term(*frame_of(PLANAR)) == pytest.approx(0.2696, abs=1e-12)

    def test_quantum_term(self):
        assert quantum_risk_term(*frame_of(ANTIPODAL)) == pytest.approx(2.0, abs=1e-12)
        # 0.5 + 0.5 + 1 + 2*0.6 with sin(phi1) = -1
        assert quantum_risk_term(*frame_of(PARALLEL)) == pytest.approx(3.2, abs=1e-12)
        # 0.32 + 0.18 + 1 + 0.28
        assert quantum_risk_term(*frame_of(PLANAR)) == pytest.approx(1.78, abs=1e-12)

    def test_commutator(self):
        assert commutator_c(*frame_of(ANTIPODAL)) == pytest.approx(0.0, abs=1e-12)
        assert commutator_c(*frame_of(PARALLEL)) == pytest.approx(1.2, abs=1e-12)
        assert commutator_c(*frame_of(PLANAR)) == pytest.approx(0.28, abs=1e-12)

    def test_optimal_risk(self):
        assert optimal_minimax_risk(*frame_of(ANTIPODAL)) == pytest.approx(0.5, abs=1e-9)
        assert optimal_minimax_risk(*frame_of(PARALLEL)) == pytest.approx(8.0 / 3.0, abs=1e-9)
        assert optimal_minimax_risk(*frame_of(PLANAR)) == pytest.approx(1.0248, abs=1e-9)

    def test_plugin_risk(self):
        assert plugin_risk(*frame_of(ANTIPODAL)) == pytest.approx(1.0, abs=1e-9)
        assert plugin_risk(*frame_of(PARALLEL)) == pytest.approx(8.0 / 3.0, abs=1e-9)
        assert plugin_risk(*frame_of(PLANAR)) == pytest.approx(1.4168, abs=1e-9)

    def test_gap(self):
        assert risk_gap(*frame_of(ANTIPODAL)) == pytest.approx(0.5, abs=1e-9)
        assert risk_gap(*frame_of(PARALLEL)) == pytest.approx(0.0, abs=1e-15)
        assert risk_gap(*frame_of(PLANAR)) == pytest.approx(0.392, abs=1e-9)

    def test_prior_correction(self):
        assert prior_correction(*frame_of(ANTIPODAL)) == pytest.approx(0.0, abs=1e-12)
        assert prior_correction(*frame_of(PARALLEL)) == pytest.approx(0.0, abs=1e-12)
        # 0.25 * 0.96^2 / 2
        assert prior_correction(*frame_of(PLANAR)) == pytest.approx(0.1152, abs=1e-9)


class TestIdentities:
    def test_decomposition(self):
        """(classical + quantum) / (4 |d0|) equals the printed optimal formula."""
        rng = np.random.default_rng(101)
        for _ in range(1000):
            r, s, pi0 = random_nontrivial_config(rng)
            f = build_frame(r, s, pi0)
            lhs = (classical_risk_term(f, pi0) + quantum_risk_term(f, pi0)) / (4 * f.d0_norm)
            assert lhs == pytest.approx(optimal_minimax_risk(f, pi0), abs=1e-9)

    def test_gap_equals_difference(self):
        rng = np.random.default_rng(103)
        for _ in range(1000):
            r, s, pi0 = random_nontrivial_config(rng)
            f = build_frame(r, s, pi0)
            assert risk_gap(f, pi0) == pytest.approx(
                plugin_risk(f, pi0) - optimal_minimax_risk(f, pi0), abs=1e-9
            )

    def test_gap_nonnegative(self):
        rng = np.random.default_rng(107)
        for _ in range(500):
            r, s, pi0 = random_nontrivial_config(rng)
            f = build_frame(r, s, pi0)
            assert risk_gap(f, pi0) >= -1e-12

    def test_risk_report_consistency(self):
        f, pi0 = frame_of(PLANAR)
        rep = risk_report(f, pi0)
        assert rep.optimal_risk == pytest.approx(
            (rep.classical_term + rep.quantum_term) / (4 * f.d0_norm), abs=1e-12
        )
        assert rep.gap == pytest.approx(rep.plugin_risk - rep.optimal_risk, abs=1e-12)

    def test_broken_identity_raises_numerical_error(self):
        """A frame whose angles no longer satisfy the identities is refused."""
        frame, pi0 = frame_of(PLANAR)
        broken = frame._replace(cos_phi0=frame.cos_phi0 + 1e-6)
        with pytest.raises(NumericalError):
            risk_report(broken, pi0)

    def test_overflowing_constants_raise_numerical_error(self):
        """At |d0| = 7.07e-311 the risks overflow to inf while the gap
        stays finite: the report is refused, naming |d0|."""
        frame, pi0 = frame_of(((1e-310, 0.0, 0.0), (0.0, 1e-310, 0.0), 0.5))
        with pytest.raises(NumericalError, match=r"\|d0\| = 7\.07"):
            risk_report(frame, pi0)


class TestGapGeometry:
    def test_zero_exactly_for_parallel_same_direction(self):
        rng = np.random.default_rng(109)
        for _ in range(100):
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            r_len = rng.uniform(0.3, 1.0)
            s_len = rng.uniform(0.05, r_len - 0.1) if r_len > 0.2 else 0.05
            f = build_frame(r_len * direction, s_len * direction, 0.5)
            assert abs(risk_gap(f, 0.5)) < 1e-12

    def test_positive_away_from_parallel(self):
        rng = np.random.default_rng(113)
        for _ in range(300):
            r, s, pi0 = random_nontrivial_config(rng)
            f = build_frame(r, s, pi0)
            # generic sampled configurations are never parallel same-direction
            cosang = float(
                (np.asarray(r) @ np.asarray(s))
                / (np.linalg.norm(r) * np.linalg.norm(s))
            )
            if cosang < 0.99:
                assert risk_gap(f, pi0) > 0.0

    def test_plugin_within_factor_two_with_antiparallel_extremal(self):
        """plugin/optimal <= 2 everywhere; unit antiparallel states attain 2.

        The attainment family is pure states with c = 0, so the absolute
        gap itself is NOT maximised at antiparallel (perpendicular unit
        vectors give 0.5303 > 0.5, and the gap diverges as |d0| -> 0); the
        factor-of-two ratio is the scale-free extremal statement.
        """
        f = build_frame(*ANTIPODAL[:2], 0.5)
        ratio_star = plugin_risk(f, 0.5) / optimal_minimax_risk(f, 0.5)
        assert ratio_star == pytest.approx(2.0, abs=1e-12)
        rng = np.random.default_rng(127)
        for _ in range(500):
            r, s, pi0 = random_nontrivial_config(rng, pi_lo=0.5, pi_hi=0.5)
            fr = build_frame(r, s, pi0)
            ratio = plugin_risk(fr, pi0) / optimal_minimax_risk(fr, pi0)
            assert ratio <= ratio_star + 1e-12

    def test_perpendicular_unit_gap_value(self):
        """Documented counterexample to gap-maximality at antiparallel."""
        f = build_frame((0, 0, 1.0), (1.0, 0, 0), 0.5)
        assert risk_gap(f, 0.5) == pytest.approx(1.5 / (4 / np.sqrt(2)), abs=1e-12)
        assert risk_gap(f, 0.5) > risk_gap(build_frame(*ANTIPODAL[:2], 0.5), 0.5)

    def test_prior_correction_positive_off_axis(self):
        rng = np.random.default_rng(131)
        for _ in range(200):
            r, s, pi0 = random_nontrivial_config(rng)
            f = build_frame(r, s, pi0)
            g = cartesian_frames(f, r, s)
            t = g.r0_vec + g.s0_vec
            p0 = np.asarray(f.p0)
            t_perp = t - (t @ p0) * p0
            pc = prior_correction(f, pi0)
            assert pc >= 0.0
            if np.linalg.norm(t_perp) > 1e-6:
                assert pc > 0.0


class TestSmallD0:
    """At pi0 = 1/2 every |d0| > 0 is nontrivial; the report's constants
    grow like 1/|d0|, and its decomposition check must not grow with them."""

    @PROPERTY
    @given(v=direction, t=direction, a=st.floats(0.05, 0.95),
           d0=st.floats(-8.0, -3.0).map(lambda e: 10.0 ** e))
    def test_no_numerical_error(self, v, t, a, d0):
        r0 = a * unit(v)
        s0 = r0 + 2.0 * d0 * unit(t)  # pi0 r0 - pi1 s0 = -d0 t
        assume(np.linalg.norm(s0) <= 1.0)
        f = build_frame(r0, s0, 0.5)
        rep = risk_report(f, 0.5)
        num = rep.classical_term + rep.quantum_term
        assert rep.optimal_risk == pytest.approx(num / (4.0 * f.d0_norm), rel=1e-12)
