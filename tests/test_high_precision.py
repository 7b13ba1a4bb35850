"""50-digit oracle for the local frame and the closed-form report constants.

The oracle evaluates the frame and the report from the exact binary
values of the float inputs with mpmath at 50 significant digits, so the
float library must agree to within its own rounding: 1e-12 relative, or
absolute for values below 1.
"""

import csv
import io
import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings

from qclass import (
    ClassificationProblem,
    TrivialityVerdict,
    build_frame,
    helstrom_risk,
    risk_report,
    triviality_check,
)
from qclass.cli import main

from helpers import random_nontrivial_config
from strategies import FRAME_STRESS_FAMILIES, PROPERTY

TOL = 1e-12
REPORT_NAMES = ("classical_term", "quantum_term", "commutator_c", "optimal_risk",
                "plugin_risk", "gap", "prior_correction")


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _norm(a):
    return mpmath.sqrt(_dot(a, a))


def _perp(a, p):
    """a minus its component along the unit vector p."""
    ap = _dot(a, p)
    return [x - ap * y for x, y in zip(a, p)]


def mp_report(r0, s0, pi0) -> dict:
    """Frame and report at 50 digits."""
    with mpmath.workdps(50):
        r = [mpmath.mpf(float(x)) for x in r0]
        s = [mpmath.mpf(float(x)) for x in s0]
        pi0 = mpmath.mpf(float(pi0))
        pi1 = 1 - pi0
        d = [pi0 * a - pi1 * b for a, b in zip(r, s)]
        d0, r0n, s0n = _norm(d), _norm(r), _norm(s)
        alpha = (pi0 - pi1) / 2
        out = {"helstrom_risk": (1 - abs(alpha + d0 / 2) - abs(alpha - d0 / 2)) / 2}
        if not d0 > abs(pi0 - pi1):
            return out
        p0 = [x / d0 for x in d]
        r_hat = [x / r0n for x in r]
        s_hat = [x / s0n for x in s]
        sin0 = _dot(r_hat, p0)
        sin1 = -_dot(s_hat, p0)
        cos0 = _norm(_perp(r_hat, p0))
        cos1 = _norm(_perp(s_hat, p0))
        c = 2 * (pi0 * r0n * sin0 - pi1 * s0n * sin1)
        upper = pi0 * r0n * (1 - sin0) ** 2 + pi1 * s0n * (1 + sin1) ** 2
        lower = pi0 * r0n * (1 + sin0) ** 2 + pi1 * s0n * (1 - sin1) ** 2
        out.update({
            "sin_phi0": sin0, "cos_phi0": cos0, "sin_phi1": sin1, "cos_phi1": cos1,
            "d0_norm": d0, "r0_norm": r0n, "s0_norm": s0n, "p0": p0,
            "classical_term": pi0 * (1 - r0n**2) * cos0**2 + pi1 * (1 - s0n**2) * cos1**2,
            "quantum_term": pi0 * sin0**2 + pi1 * sin1**2 + 1 + abs(c),
            "commutator_c": c,
            "optimal_risk": (2 + abs(c) - r0n * s0n * cos0 * cos1) / (4 * d0),
            "plugin_risk": (2 + pi0 * (r0n * sin0**2 + r0n - r0n**2 * cos0**2)
                            + pi1 * (s0n * sin1**2 + s0n - s0n**2 * cos1**2)) / (4 * d0),
            "gap": (upper if c >= 0 else lower) / (4 * d0),
            "prior_correction":
                pi0 * pi1 * _norm(_perp([a + b for a, b in zip(r, s)], p0)) ** 2 / (4 * d0),
        })
        return out


def assert_close(name, got, want):
    want = float(want)
    assert abs(got - want) <= TOL * max(1.0, abs(want)), (name, got, want)


def check_library(r0, s0, pi0, oracle):
    problem = ClassificationProblem.from_bloch(r0, s0, pi0)
    assert_close("helstrom_risk", helstrom_risk(problem), oracle["helstrom_risk"])
    if triviality_check(r0, s0, pi0) is not TrivialityVerdict.NONTRIVIAL:
        assert "d0_norm" not in oracle
        return
    frame = build_frame(r0, s0, pi0)
    for name in ("sin_phi0", "cos_phi0", "sin_phi1", "cos_phi1",
                 "d0_norm", "r0_norm", "s0_norm"):
        assert_close(name, getattr(frame, name), oracle[name])
    for got, want in zip(frame.p0, oracle["p0"]):
        assert_close("p0", got, want)
    report = risk_report(frame, pi0)
    for name in REPORT_NAMES:
        assert_close(name, getattr(report, name), oracle[name])


def test_seeded_nontrivial_configs():
    rng = np.random.default_rng(2468)
    for _ in range(200):
        r, s, pi0 = random_nontrivial_config(rng)
        check_library(r, s, pi0, mp_report(r, s, pi0))


@pytest.mark.parametrize("family", FRAME_STRESS_FAMILIES)
def test_frame_stress_families(family):
    """The frame's stress families (tests/strategies.py), one at a time:
    near-parallel and near-antiparallel pairs, pure states, a tiny r0 or
    s0 (5e-324 to 1e-9 long) and pairs just off |d0| = |pi0 - pi1|."""

    @settings(PROPERTY, max_examples=60)
    @given(config=FRAME_STRESS_FAMILIES[family])
    def check(config):
        check_library(*config, mp_report(*config))

    check()


@pytest.mark.parametrize("tilt", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
def test_gap_of_nearly_parallel_pairs(tilt):
    """The tiny gap of a nearly parallel same-direction pair keeps its
    relative accuracy (|r0| = 0.9, |s0| = 0.3, pi0 = 1/2)."""
    rng = np.random.default_rng(1357)
    for _ in range(100):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        m = rng.normal(size=3)
        m -= (m @ n) * n
        m /= np.linalg.norm(m)
        u = n + tilt * m
        r0, s0 = 0.9 * n, 0.3 * u / np.linalg.norm(u)
        want = float(mp_report(r0, s0, 0.5)["gap"])
        got = risk_report(build_frame(r0, s0, 0.5), 0.5).gap
        assert abs(got - want) <= 1e-8 * want, (got, want)


def test_pinned_sweep_angles_at_pi_are_correctly_rounded():
    """The pinned sweep's point at angle pi (r0 = (0, 0, .9), s0 = .3 (sin pi,
    0, cos pi), pi0 = .4) is antiparallel up to sin(pi) ~ 1.2e-16, so its
    cosines are ~1e-16: each of its four angles is the float nearest the
    50-digit value."""
    r0, s0 = (0.0, 0.0, 0.9), (0.3 * math.sin(math.pi), 0.0, 0.3 * math.cos(math.pi))
    frame, oracle = build_frame(r0, s0, 0.4), mp_report(r0, s0, 0.4)
    for name in ("sin_phi0", "cos_phi0", "sin_phi1", "cos_phi1"):
        assert getattr(frame, name) == float(oracle[name]), name


SWEEP_GRID = {"r0_len": [0.9], "s0_len": [0.3],
              "angle": [0.0, 0.7, math.pi / 2, math.pi], "pi0": [0.4]}
PINNED_CASES = {
    "report-planar": ("report", {"problem": {"r0": [0.8, 0.0, 0.0], "s0": [0.0, 0.6, 0.0],
                                             "pi0": 0.5}}),
    "report-trivial": ("report", {"problem": {"r0": [0, 0, 0.1], "s0": [0, 0, 0.5],
                                              "pi0": 0.9}}),
    "report-antiparallel": ("report", {"problem": {"r0": [0, 0, 0.9], "s0": [0, 0, -0.3],
                                                   "pi0": 0.4}}),
    "sweep": ("sweep", {"sweep": SWEEP_GRID}),
}


@pytest.mark.parametrize("case", sorted(PINNED_CASES))
def test_pinned_closed_form_cases(tmp_path, capsys, case):
    """Every printed number of the pinned report and sweep outputs."""
    command, cfg = PINNED_CASES[case]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(path)]) == 0
    rows = [row for row in csv.DictReader(io.StringIO(capsys.readouterr().out))
            if row["metric"] != "verdict"]
    assert rows
    for row in rows:
        r0 = [float(row[f"param.r0_{c}"]) for c in "xyz"]
        s0 = [float(row[f"param.s0_{c}"]) for c in "xyz"]
        oracle = mp_report(r0, s0, float(row["param.pi0"]))
        assert_close(row["metric"], float(row["value"]), oracle[row["metric"]])
