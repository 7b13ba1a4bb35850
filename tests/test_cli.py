"""End-to-end tests of the qclass command line driver."""

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qclass
from qclass import montecarlo
from qclass.cli import main

PLANAR_PROBLEM = {"r0": [0.8, 0.0, 0.0], "s0": [0.0, 0.6, 0.0], "pi0": 0.5}


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run_to_rows(tmp_path, command, cfg, *extra):
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "out.csv"
    rc = main([command, "--config", cfg_path, "--out", str(out), *extra])
    assert rc == 0
    with open(out, newline="") as fh:
        return list(csv.DictReader(fh))


def metric_value(rows, metric, **match):
    got = [
        r for r in rows
        if r["metric"] == metric and all(r[k] == v for k, v in match.items())
    ]
    assert got, f"no row with metric={metric} and {match}"
    assert len(got) == 1
    return got[0]


class TestReport:
    def test_planar_report_values(self, tmp_path):
        rows = run_to_rows(tmp_path, "report", {"problem": PLANAR_PROBLEM})
        assert metric_value(rows, "verdict")["value"] == "nontrivial"
        assert float(metric_value(rows, "optimal_risk")["value"]) == pytest.approx(1.0248, abs=1e-9)
        assert float(metric_value(rows, "plugin_risk")["value"]) == pytest.approx(1.4168, abs=1e-9)
        assert float(metric_value(rows, "gap")["value"]) == pytest.approx(0.392, abs=1e-9)
        assert float(metric_value(rows, "helstrom_risk")["value"]) == pytest.approx(0.25)

    def test_trivial_report_emits_verdict_only(self, tmp_path):
        cfg = {"problem": {"r0": [0, 0, 0.1], "s0": [0, 0, 0.5], "pi0": 0.9}}
        rows = run_to_rows(tmp_path, "report", cfg)
        assert metric_value(rows, "verdict")["value"] == "trivial_guess_rho"
        assert float(metric_value(rows, "helstrom_risk")["value"]) == pytest.approx(0.1)
        assert {r["metric"] for r in rows} == {"verdict", "helstrom_risk"}

    def test_antipodal_gap(self, tmp_path):
        cfg = {"problem": {"r0": [0, 0, 1.0], "s0": [0, 0, -1.0], "pi0": 0.5}}
        rows = run_to_rows(tmp_path, "report", cfg)
        assert float(metric_value(rows, "gap")["value"]) == pytest.approx(0.5, abs=1e-9)

    def test_invalid_problem_exits_2(self, tmp_path, capsys):
        cfg = {"problem": {"r0": [2.0, 0, 0], "s0": [0, 0.5, 0], "pi0": 0.5}}
        rc = main(["report", "--config", write_config(tmp_path, cfg)])
        assert rc == 2
        assert "Bloch ball" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, tmp_path):
        assert main(["report", "--config", str(tmp_path / "nope.json")]) == 2


class TestNumericalFailure:
    # r0 = 0.7 n and s0 = -0.4 n + 1e-9 noise: rounding breaks the frame
    # identities of this valid nontrivial, near-antiparallel configuration
    NEAR_ANTIPARALLEL = {
        "r0": [-0.3579992576259912, -0.5912220450961072, -0.1108739145679261],
        "s0": [0.2045710047781545, 0.33784116976239353, 0.06335652271994989],
        "pi0": 0.5,
    }

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
    def test_broken_frame_exits_3(self, tmp_path, flags):
        """Exit 3 without a traceback, also when python -O strips asserts."""
        cfg = write_config(tmp_path, {"problem": self.NEAR_ANTIPARALLEL})
        env = dict(os.environ, PYTHONPATH=str(Path(qclass.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "qclass.cli", "report", "--config", cfg],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "numerical error:" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestConfigValidation:
    @pytest.mark.parametrize("field, value", [
        ("delta", [1]),
        ("delta", True),
        ("delta", float("nan")),
        ("delta", float("inf")),
        ("u", [0.0, float("nan"), 0.0]),
        ("v", [float("-inf"), 0.0, 0.0]),
        ("workers", True),
    ])
    def test_bad_gaussian_sim_field_exits_2(self, tmp_path, capsys, field, value):
        cfg = {"problem": PLANAR_PROBLEM, "strategy": "optimal_joint",
               "trials": 100, "seed": 1, field: value}
        assert main(["gaussian-sim", "--config", write_config(tmp_path, cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert field in captured.err


class TestGaussianSim:
    def test_mc_within_three_stderr_of_closed_form(self, tmp_path):
        cfg = {
            "problem": PLANAR_PROBLEM,
            "strategy": ["optimal_joint", "heterodyne_plugin",
                         "optimal_joint_unknown_priors"],
            "trials": 100_000,
            "seed": 7,
        }
        rows = run_to_rows(tmp_path, "gaussian-sim", cfg)
        for strategy in ("optimal_joint", "heterodyne_plugin",
                         "optimal_joint_unknown_priors"):
            row = metric_value(rows, "rescaled_risk_mc",
                               **{"param.strategy": strategy})
            mean = float(row["value"])
            stderr = float(row["stderr"])
            theory = float(row["param.closed_form"])
            assert abs(mean - theory) <= 3 * stderr

    def test_requires_seed_and_trials(self, tmp_path, capsys):
        cfg = {"problem": PLANAR_PROBLEM, "strategy": "optimal_joint", "trials": 100}
        assert main(["gaussian-sim", "--config", write_config(tmp_path, cfg)]) == 2
        assert "seed" in capsys.readouterr().err
        cfg = {"problem": PLANAR_PROBLEM, "strategy": "optimal_joint", "seed": 1}
        assert main(["gaussian-sim", "--config", write_config(tmp_path, cfg)]) == 2
        assert "trials" in capsys.readouterr().err

    def test_trivial_config_rejected(self, tmp_path, capsys):
        cfg = {
            "problem": {"r0": [0, 0, 0.1], "s0": [0, 0, 0.5], "pi0": 0.9},
            "strategy": "optimal_joint", "trials": 10, "seed": 1,
        }
        assert main(["gaussian-sim", "--config", write_config(tmp_path, cfg)]) == 2
        assert "nontrivial" in capsys.readouterr().err

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = {"problem": PLANAR_PROBLEM, "strategy": "optimal_joint",
               "trials": 5000, "seed": 1}
        rows_a = run_to_rows(tmp_path, "gaussian-sim", cfg, "--seed", "99")
        cfg["seed"] = 99
        rows_b = run_to_rows(tmp_path, "gaussian-sim", cfg)
        assert rows_a[0]["value"] == rows_b[0]["value"]


class TestQubitSim:
    def test_trivial_config_fraction_exact(self, tmp_path):
        cfg = {
            "problem": {"r0": [0, 0, 0.1], "s0": [0, 0, 0.5], "pi0": 0.9},
            "n_list": [500], "trials": 300, "seed": 3,
        }
        rows = run_to_rows(tmp_path, "qubit-sim", cfg)
        frac = metric_value(rows, "fraction_exact", n="500")
        assert float(frac["value"]) == 1.0

    def test_rows_per_n(self, tmp_path):
        cfg = {
            "problem": PLANAR_PROBLEM,
            "n_list": [200, 400], "trials": 100, "seed": 5,
            "label_mode": "fixed", "known_priors": True,
        }
        rows = run_to_rows(tmp_path, "qubit-sim", cfg)
        assert [(r["metric"], r["n"]) for r in rows] == [
            ("rescaled_excess_mc", "200"), ("fraction_exact", "200"),
            ("rescaled_excess_mc", "400"), ("fraction_exact", "400"),
        ]

    def test_bad_n_list_exits_2(self, tmp_path):
        cfg = {"problem": PLANAR_PROBLEM, "n_list": [400, 200],
               "trials": 10, "seed": 1}
        assert main(["qubit-sim", "--config", write_config(tmp_path, cfg)]) == 2


class TestSweep:
    def test_gap_maximal_at_antiparallel_for_unequal_lengths(self, tmp_path):
        cfg = {"sweep": {"r0_len": [0.9], "s0_len": [0.3],
                         "angle": [0.0, math.pi / 2, math.pi], "pi0": [0.5]}}
        rows = run_to_rows(tmp_path, "sweep", cfg)
        gaps = {
            r["param.angle"]: float(r["value"])
            for r in rows if r["metric"] == "gap"
        }
        assert len(gaps) == 3
        by_angle = [gaps[k] for k in sorted(gaps, key=float)]
        # parallel same-direction point has zero gap; antiparallel is maximal
        assert by_angle[0] == pytest.approx(0.0, abs=1e-12)
        assert by_angle[2] == max(by_angle)
        assert by_angle[2] == pytest.approx(0.25, abs=1e-12)

    def test_grid_order_and_degenerate_points(self, tmp_path):
        cfg = {"sweep": {"r0_len": [1.0], "s0_len": [1.0],
                         "angle": [0.0, math.pi], "pi0": [0.5]}}
        rows = run_to_rows(tmp_path, "sweep", cfg)
        verdicts = [r["value"] for r in rows if r["metric"] == "verdict"]
        # angle 0 with equal unit lengths and equal priors is degenerate
        assert verdicts == ["degenerate", "nontrivial"]

    def test_empty_grid_exits_2(self, tmp_path):
        cfg = {"sweep": {"r0_len": [], "s0_len": [1.0], "angle": [0.0],
                         "pi0": [0.5]}}
        assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 2


class TestDeterminismAndFormats:
    def test_byte_identical_reruns_and_worker_independence(self, tmp_path):
        cfg = {
            "problem": PLANAR_PROBLEM,
            "strategy": ["optimal_joint", "heterodyne_plugin"],
            "trials": 120_000, "seed": 11,
        }
        cfg_path = write_config(tmp_path, cfg)
        outs = []
        for i, workers in enumerate(("1", "1", "4")):
            out = tmp_path / f"out{i}.csv"
            rc = main(["gaussian-sim", "--config", cfg_path,
                       "--out", str(out), "--workers", workers])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_qubit_sim_byte_identical(self, tmp_path):
        cfg = {"problem": PLANAR_PROBLEM, "n_list": [300], "trials": 200, "seed": 13}
        cfg_path = write_config(tmp_path, cfg)
        blobs = []
        for i, workers in enumerate(("1", "2")):
            out = tmp_path / f"q{i}.csv"
            assert main(["qubit-sim", "--config", cfg_path, "--out", str(out),
                         "--workers", workers]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    # sha256 of the CSV output; a change of the RNG stream or of the
    # arithmetic behind any printed value changes these on purpose only
    PINNED_PROBLEM = {"r0": [0.5, 0.2, -0.3], "s0": [-0.1, 0.6, 0.2], "pi0": 0.4}
    PINNED = {
        "qubit-sim": (
            {"n_list": [60, 200], "trials": 300, "seed": 13},
            64,
            "c49eb36b57c991a8094f5ea81003abbd2d15aac599e9205c24a1820d7d3f029a",
        ),
        "gaussian-sim": (
            {"strategy": ["optimal_joint", "heterodyne_plugin",
                          "optimal_joint_unknown_priors"],
             "trials": 5000, "seed": 7,
             "u": [0.2, -0.1, 0.4], "v": [0.3, 0.2, -0.2], "delta": 0.3},
            1024,
            "c7bea4bd32d03e8f68c745962d0fa6880810db771425a53b04db959840c55e48",
        ),
    }

    @pytest.mark.parametrize("command", sorted(PINNED))
    def test_pinned_stream(self, tmp_path, monkeypatch, command):
        """Small multi-chunk runs reproduce their recorded output bytes."""
        extra, chunk, digest = self.PINNED[command]
        monkeypatch.setattr(montecarlo, "CHUNK_SIZE", chunk)
        cfg_path = write_config(tmp_path, {"problem": self.PINNED_PROBLEM, **extra})
        out = tmp_path / "pinned.csv"
        assert main([command, "--config", cfg_path, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_json_format_round_trip(self, tmp_path):
        cfg = {"problem": PLANAR_PROBLEM, "format": "json"}
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "out.json"
        assert main(["report", "--config", cfg_path, "--out", str(out)]) == 0
        rows = json.loads(out.read_text())
        by_metric = {r["metric"]: r for r in rows}
        assert by_metric["optimal_risk"]["value"] == pytest.approx(1.0248, abs=1e-12)
        assert by_metric["verdict"]["value"] == "nontrivial"

    def test_csv_floats_round_trip_exactly(self, tmp_path):
        from qclass import build_frame, optimal_minimax_risk

        rows = run_to_rows(tmp_path, "report", {"problem": PLANAR_PROBLEM})
        printed = float(metric_value(rows, "optimal_risk")["value"])
        exact = optimal_minimax_risk(build_frame((0.8, 0, 0), (0, 0.6, 0), 0.5), 0.5)
        assert printed == exact
