"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance is pinned here; the random instances are seeded, so the
suite is deterministic.
"""

import json

import numpy as np

from qclass import (
    ClassificationProblem,
    build_frame,
    classical_risk_term,
    optimal_minimax_risk,
    plugin_risk,
    prior_correction,
    quantum_risk_term,
    risk_gap,
    risk_report,
    tomography_constant,
)
from qclass.cli import main
from qclass.gaussian_model import StrategyKind, monte_carlo_risks
from qclass.qubit_experiment import LabelMode, TrainingSetSpec, run_experiment

from helpers import (
    PerpEstimate,
    cartesian_frames,
    classical_coin_example,
    classical_gaussian_example,
    estimator_to_projector,
    excess_risk,
    frame_axes,
    local_states,
    quadratic_loss,
    random_nontrivial_config,
    random_problem,
    random_projector,
    relative_perp,
)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


ANCHORS = {
    "antipodal": ((0.0, 0.0, 1.0), (0.0, 0.0, -1.0), 0.5,
                  (0.5, 1.0, 0.5, 0.0)),
    "parallel": ((0.0, 0.0, 0.9), (0.0, 0.0, 0.3), 0.5,
                 (8.0 / 3.0, 8.0 / 3.0, 0.0, 0.0)),
    "planar": ((0.8, 0.0, 0.0), (0.0, 0.6, 0.0), 0.5,
               (1.0248, 1.4168, 0.392, 0.1152)),
}


def test_criterion_1_closed_form_regression():
    """Anchor configurations reproduce the hand-derived constants to 1e-9."""
    worst = 0.0
    for name, (r, s, pi0, expected) in ANCHORS.items():
        rep = risk_report(build_frame(r, s, pi0), pi0)
        got = (rep.optimal_risk, rep.plugin_risk, rep.gap, rep.prior_correction)
        worst = max(worst, max(abs(g - e) for g, e in zip(got, expected)))
    report(1, worst <= 1e-9,
           f"3 anchors x (optimal, plugin, gap, prior), max |error| = {worst:.2e} <= 1e-9")


def test_criterion_2_frame_identity_suite():
    """Constraint, norm identity, decomposition and gap equality on 1e4 configs."""
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(10_000):
        r, s, pi0 = random_nontrivial_config(rng)
        f = build_frame(r, s, pi0)
        pi1 = 1.0 - pi0
        worst = max(
            worst,
            abs(pi0 * f.r0_norm * f.cos_phi0 - pi1 * f.s0_norm * f.cos_phi1),
            abs(f.d0_norm - (pi0 * f.r0_norm * f.sin_phi0
                             + pi1 * f.s0_norm * f.sin_phi1)),
            abs((classical_risk_term(f, pi0) + quantum_risk_term(f, pi0))
                / (4 * f.d0_norm) - optimal_minimax_risk(f, pi0)),
            abs(risk_gap(f, pi0)
                - (plugin_risk(f, pi0) - optimal_minimax_risk(f, pi0))),
        )
    report(2, worst <= 1e-9,
           f"10^4 random nontrivial configs, max identity violation = {worst:.2e} <= 1e-9")


def test_criterion_3_gaussian_mc_vs_theory():
    """20 random configs x 3 strategies at 1e6 trials, all within 3 stderr."""
    rng = np.random.default_rng(2026)
    worst_dev = 0.0
    worst_rel = 0.0
    for i in range(20):
        r, s, pi0 = random_nontrivial_config(
            rng, norm_lo=0.15, norm_hi=0.95, pi_lo=0.2, pi_hi=0.8, margin=0.05
        )
        f = build_frame(r, s, pi0)
        targets = [
            (StrategyKind.OPTIMAL_JOINT, optimal_minimax_risk(f, pi0)),
            (StrategyKind.HETERODYNE_PLUGIN, plugin_risk(f, pi0)),
            (StrategyKind.OPTIMAL_JOINT_UNKNOWN_PRIORS,
             optimal_minimax_risk(f, pi0) + prior_correction(f, pi0)),
        ]
        for j, (strategy, theory) in enumerate(targets):
            res = monte_carlo_risks([strategy], f, pi0, 10**6, (2026, i, j))[0]
            worst_dev = max(worst_dev,
                            abs(res.mean_rescaled_excess - theory) / res.stderr)
            worst_rel = max(worst_rel, res.stderr / res.mean_rescaled_excess)
    report(3, worst_dev <= 3.0 and worst_rel < 0.005,
           f"60 runs at 1e6 trials: worst deviation = {worst_dev:.2f} stderr (<= 3), "
           f"worst stderr/mean = {worst_rel:.2e} (< 0.5%)")


def test_criterion_4_helstrom_optimality_property():
    """1000 random projectors x 100 random problems: excess >= -1e-12."""
    rng = np.random.default_rng(404)
    projectors = [random_projector(rng) for _ in range(1000)]
    worst = 0.0
    for _ in range(100):
        prob = random_problem(rng)
        for p_hat in projectors:
            worst = min(worst, excess_risk(p_hat, prob))
    report(4, worst >= -1e-12,
           f"10^5 (projector, problem) pairs: min excess = {worst:.2e} >= -1e-12")


def test_criterion_5_local_expansion():
    """|n*excess - L| decreases across n in {1e2, 1e4, 1e6}; final < 1e-2 L."""
    rng = np.random.default_rng(115)
    monotone = True
    final_ok = True
    worst_final_ratio = 0.0
    for _ in range(100):
        r, s, pi0 = random_nontrivial_config(
            rng, norm_lo=0.2, norm_hi=0.7, pi_lo=0.3, pi_hi=0.7, margin=0.05
        )
        f = build_frame(r, s, pi0)
        frames = cartesian_frames(f, r, s)
        u = rng.uniform(-1, 1, 3)
        u *= rng.uniform(0, 2) / max(np.linalg.norm(u), 1e-9)
        v = rng.uniform(-1, 1, 3)
        v *= rng.uniform(0, 2) / max(np.linalg.norm(v), 1e-9)
        z_hat = PerpEstimate(rng.uniform(-2, 2), rng.uniform(-2, 2))
        loss = quadratic_loss(relative_perp(u, v, f, pi0), z_hat, f.d0_norm)
        axes = frame_axes(f, r, s)
        errs = []
        for n in (10**2, 10**4, 10**6):
            rho_n, sigma_n = local_states(frames, u, v, n)
            prob = ClassificationProblem(rho_n.bloch, sigma_n.bloch, pi0)
            errs.append(abs(n * excess_risk(estimator_to_projector(z_hat, f, axes, n), prob)
                            - loss))
        monotone &= errs[0] > errs[1] > errs[2]
        final_ok &= errs[2] < 1e-2 * loss
        worst_final_ratio = max(worst_final_ratio, errs[2] / loss)
    report(5, monotone and final_ok,
           f"100 tuples: deviation strictly decreasing over n in (1e2, 1e4, 1e6), "
           f"worst final/L = {worst_final_ratio:.2e} < 1e-2")


def test_criterion_6_triviality_concentration():
    """Trivial anchor: plug-in reproduces the guess-rho rule essentially always."""
    trivial = ClassificationProblem.from_bloch((0, 0, 0.1), (0, 0, 0.5), 0.9)
    fractions = {}
    for n, seed in ((200, 61), (2000, 62)):
        spec = TrainingSetSpec(n=n, problem=trivial, known_priors=True)
        res = run_experiment(spec, 1000, seed)
        fractions[n] = 1.0 - res.fraction_exact
    zeros_at_2000 = round((1.0 - fractions[2000]) * 1000)
    ok = zeros_at_2000 >= 999 and fractions[2000] <= fractions[200] / 10.0
    report(6, ok,
           f"n=2000: {zeros_at_2000}/1000 trials with exactly zero excess (>= 999); "
           f"nonzero fraction {fractions[2000]:.4f} <= {fractions[200]:.4f}/10 (n=200)")


def test_criterion_7_finite_n_tomography_constant():
    """Planar anchor: n * mean excess matches the delta-method oracle C_tomo."""
    oracle = tomography_constant((0.8, 0, 0), (0, 0.6, 0), 0.5)
    problem = ClassificationProblem.from_bloch((0.8, 0, 0), (0, 0.6, 0), 0.5)
    estimates = {}
    for n, seed in ((10**4, 71), (4 * 10**4, 72)):
        spec = TrainingSetSpec(
            n=n, problem=problem, label_mode=LabelMode.FIXED_COUNTS, known_priors=True
        )
        estimates[n] = run_experiment(spec, 10**4, seed).mean_rescaled_excess
    rel_oracle = abs(estimates[10**4] - oracle) / oracle
    rel_pair = abs(estimates[10**4] - estimates[4 * 10**4]) / estimates[4 * 10**4]
    report(7, rel_oracle <= 0.10 and rel_pair <= 0.05,
           f"C_tomo oracle {oracle:.4f}: n=1e4 estimate {estimates[10**4]:.4f} "
           f"({rel_oracle:.1%} off, <= 10%); n=1e4 vs n=4e4 differ by "
           f"{rel_pair:.1%} (<= 5%, rate 1/n confirmed)")


def test_criterion_8_classical_baselines():
    """Gaussian example flat in n; coin example mistakes rarer than 1e-3."""
    means = [
        classical_gaussian_example(0.0, 3.0, n, 4000, 80 + i).mean_rescaled_excess
        for i, n in enumerate((10**3, 10**4, 10**5))
    ]
    ratio = max(means) / min(means)
    coin = classical_coin_example(0.2, 0.8, 0.5, 500, 1000, 85)
    coin_fraction = 1.0 - coin.fraction_exact
    ok = 0.5 <= ratio <= 2.0 and coin_fraction < 1e-3
    report(8, ok,
           f"two-Gaussian rescaled excess over n in (1e3, 1e4, 1e5): extremes ratio "
           f"{ratio:.3f} in [0.5, 2]; coin nonzero-excess fraction at n=500 = "
           f"{coin_fraction:.4f} < 1e-3")


def test_criterion_9_cli_determinism(tmp_path):
    """Identical seeds give byte-identical files, independent of workers."""
    outputs = {}
    configs = {
        "gaussian-sim": {
            "problem": {"r0": [0.8, 0, 0], "s0": [0, 0.6, 0], "pi0": 0.5},
            "strategy": ["optimal_joint", "heterodyne_plugin",
                         "optimal_joint_unknown_priors"],
            "trials": 200_000, "seed": 90,
        },
        "qubit-sim": {
            "problem": {"r0": [0.8, 0, 0], "s0": [0, 0.6, 0], "pi0": 0.5},
            "n_list": [500, 1000], "trials": 400, "seed": 91,
        },
        "report": {
            "problem": {"r0": [0.8, 0, 0], "s0": [0, 0.6, 0], "pi0": 0.5},
        },
        "sweep": {
            "sweep": {"r0_len": [0.9], "s0_len": [0.3],
                       "angle": [0.0, 1.5707963267948966, 3.141592653589793],
                       "pi0": [0.5]},
        },
    }
    ok = True
    for command, cfg in configs.items():
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(cfg))
        blobs = []
        for run, workers in enumerate(("1", "1", "4")):
            out = tmp_path / f"{command}-{run}.csv"
            rc = main([command, "--config", str(cfg_path),
                       "--out", str(out), "--workers", workers])
            ok &= rc == 0
            blobs.append(out.read_bytes())
        ok &= blobs[0] == blobs[1] == blobs[2]
    report(9, ok,
           "all four commands byte-identical across reruns and workers in (1, 4)")
