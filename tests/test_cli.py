"""End-to-end tests of the qclass command line driver."""

import argparse
import csv
import hashlib
import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qclass
from qclass import montecarlo
from qclass.cli import _build_parser, main

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
    # runs the CLI with _check_frame fed a frame whose cos(phi1) is off by
    # 1e-6, so the frame identities fail on purpose
    BROKEN_CHECK = (
        "import dataclasses, sys\n"
        "import qclass.cli, qclass.local_geometry as lg\n"
        "check = lg._check_frame\n"
        "def broken(frame, pi0):\n"
        "    return check(dataclasses.replace(frame, cos_phi1=frame.cos_phi1 + 1e-6), pi0)\n"
        "lg._check_frame = broken\n"
        "sys.exit(qclass.cli.main(sys.argv[1:]))\n"
    )
    # r0 = 0.7 n and s0 = -0.4 n + 1e-9 noise: a valid nontrivial,
    # near-antiparallel configuration whose frame once failed these checks
    NEAR_ANTIPARALLEL = {
        "r0": [-0.3579992576259912, -0.5912220450961072, -0.1108739145679261],
        "s0": [0.2045710047781545, 0.33784116976239353, 0.06335652271994989],
        "pi0": 0.5,
    }

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
    def test_broken_frame_exits_3(self, tmp_path, flags):
        """Exit 3 without a traceback, also when python -O strips asserts."""
        cfg = write_config(tmp_path, {"problem": PLANAR_PROBLEM})
        env = dict(os.environ, PYTHONPATH=str(Path(qclass.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, *flags, "-c", self.BROKEN_CHECK, "report", "--config", cfg],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "numerical error:" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_near_antiparallel_report(self, tmp_path):
        rows = run_to_rows(tmp_path, "report", {"problem": self.NEAR_ANTIPARALLEL})
        assert metric_value(rows, "verdict")["value"] == "nontrivial"
        assert len(rows) == 9
        assert all(math.isfinite(float(r["value"])) for r in rows[1:])

    def test_near_antiparallel_gaussian_sim(self, tmp_path):
        strategies = ["optimal_joint", "heterodyne_plugin", "optimal_joint_unknown_priors"]
        cfg = {"problem": self.NEAR_ANTIPARALLEL, "strategy": strategies,
               "trials": 20_000, "seed": 3}
        rows = run_to_rows(tmp_path, "gaussian-sim", cfg)
        assert len(rows) == 3
        for row in rows:
            z = (float(row["value"]) - float(row["param.closed_form"])) / float(row["stderr"])
            assert abs(z) <= 4.0


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

    @pytest.mark.parametrize("command", ["gaussian-sim", "qubit-sim"])
    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, command, where):
        cfg = {"problem": PLANAR_PROBLEM, "trials": 10, "seed": 1,
               "strategy": "optimal_joint", "n_list": [10]}
        argv = [command, "--config"]
        if where == "flag":
            argv += [write_config(tmp_path, cfg), "--seed", "-5"]
        else:
            argv += [write_config(tmp_path, {**cfg, "seed": -3})]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: seed must be a non-negative integer")


    HUGE = 10**400  # a JSON integer too large for a float

    @pytest.mark.parametrize("command, field", [
        ("gaussian-sim", "r0"), ("gaussian-sim", "pi0"), ("gaussian-sim", "delta"),
        ("sweep", "angle"),
    ])
    def test_integer_too_large_for_float_exits_2(self, tmp_path, capsys, command, field):
        if command == "sweep":
            grid = {"r0_len": [0.9], "s0_len": [0.3], "angle": [0.0], "pi0": [0.5]}
            cfg = {"sweep": {**grid, field: [self.HUGE]}}
        else:
            problem = dict(PLANAR_PROBLEM)
            cfg = {"problem": problem, "strategy": "optimal_joint", "trials": 100, "seed": 1}
            if field == "r0":
                problem["r0"] = [self.HUGE, 0, 0]
            elif field == "pi0":
                problem["pi0"] = self.HUGE
            else:
                cfg[field] = self.HUGE
        assert main([command, "--config", write_config(tmp_path, cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert field in captured.err


    @pytest.mark.parametrize("raw", [
        b'{"problem": {"r0": [1' + b"0" * 5000 + b', 0, 0], "s0": [0, 0.6, 0], "pi0": 0.5}}',
        b'{"problem": "\xff"}',
    ], ids=["int-literal-too-long", "not-utf8"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, raw):
        path = tmp_path / "config.json"
        path.write_bytes(raw)
        assert main(["report", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot read config")


    @pytest.mark.parametrize("out", [123, True, "", None, ["x.csv"]])
    def test_bad_out_field_exits_2(self, tmp_path, capsys, out):
        cfg = {"problem": PLANAR_PROBLEM, "out": out}
        assert main(["report", "--config", write_config(tmp_path, cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: config field 'out'")

    @pytest.mark.parametrize("where", ["flag", "config"])
    @pytest.mark.parametrize("target", ["missing-dir", "directory", "nul"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, where, target):
        path = {"missing-dir": str(tmp_path / "nonexistent" / "x.csv"),
                "directory": str(tmp_path),
                "nul": str(tmp_path / "x\0.csv")}[target]
        cfg = {"problem": PLANAR_PROBLEM}
        argv = ["report", "--config"]
        if where == "flag":
            argv += [write_config(tmp_path, cfg), "--out", path]
        else:
            argv += [write_config(tmp_path, {**cfg, "out": path})]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write output: ")


class TestImports:
    def test_cli_import_loads_no_scipy(self):
        """The start-up path is numpy and the standard library only."""
        env = dict(os.environ, PYTHONPATH=str(Path(qclass.__file__).parents[1]))
        code = ("import qclass.cli, sys; print(sorted(m for m in sys.modules "
                "if m == 'scipy' or m.startswith('scipy.')))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


class TestParserReuse:
    """The argument parser is built once per process; calls stay independent."""

    @staticmethod
    def call(capsys, argv):
        """(exit code, stdout, stderr, bytes written to --out or None)."""
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        captured = capsys.readouterr()
        written = None
        if "--out" in argv:
            path = Path(argv[argv.index("--out") + 1])
            written = path.read_bytes()
            path.unlink()
        return rc, captured.out, captured.err, written

    @pytest.mark.parametrize("first, second", [
        (["report", "--config", "{report}", "--format", "json"],
         ["report", "--config", "{report}"]),
        (["gaussian-sim", "--config", "{gaussian}", "--seed", "5"],
         ["gaussian-sim", "--config", "{gaussian}"]),
        (["report", "--config", "{report}", "--out", "{out}"],
         ["report", "--config", "{report}"]),
        (["nope"], ["report", "--config", "{report}"]),
    ], ids=["format-then-default", "seed-then-config-seed", "out-then-stdout",
            "argparse-error-then-report"])
    def test_each_call_matches_the_call_alone(self, tmp_path, capsys, first, second):
        paths = {
            "report": write_config(tmp_path, {"problem": PLANAR_PROBLEM}, "report.json"),
            "gaussian": write_config(tmp_path, {"problem": PLANAR_PROBLEM, "trials": 200,
                                                "seed": 1, "strategy": "optimal_joint"},
                                     "gaussian.json"),
            "out": str(tmp_path / "out.txt"),
        }
        argvs = [[arg.format(**paths) for arg in template] for template in (first, second)]
        alone = []
        for argv in argvs:
            _build_parser.cache_clear()
            alone.append(self.call(capsys, argv))
        in_sequence = [self.call(capsys, argv) for argv in argvs]
        assert in_sequence == alone
        assert alone[0][0] == (2 if first == ["nope"] else 0)
        assert alone[1][0] == 0
        assert alone[0][1:] != alone[1][1:]

    def test_parser_built_once(self, tmp_path, monkeypatch):
        """Guards the saving: main builds no parser after the first call."""
        argv = ["report", "--config", write_config(tmp_path, {"problem": PLANAR_PROBLEM})]
        assert main(argv) == 0
        built = []

        class CountingParser(argparse.ArgumentParser):
            def __init__(self, *args, **kwargs):
                built.append(kwargs.get("prog"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(argparse, "ArgumentParser", CountingParser)
        for _ in range(3):
            assert main(argv) == 0
        assert built == []


class TestFloatReportPath:
    """A report is computed in plain floats, from Bloch vectors alone."""

    def test_report_builds_no_matrix_and_no_numpy_vector(self, tmp_path, monkeypatch):
        """Guards the saving: after a warm-up call, three reports (a generic,
        a near-antiparallel and an exactly antiparallel pair, the last on the
        coordinate-axis fallback) call np.linalg.norm, np.cross and np.dot
        only in the config check of _parse_problem (its Bloch-ball norm),
        outside the closed-form layers."""
        problems = [PLANAR_PROBLEM, TestNumericalFailure.NEAR_ANTIPARALLEL,
                    {"r0": [0, 0, 0.9], "s0": [0, 0, -0.3], "pi0": 0.4}]
        argvs = [["report", "--config", write_config(tmp_path, {"problem": p}, f"{i}.json")]
                 for i, p in enumerate(problems)]
        assert main(argvs[0]) == 0
        calls = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls.append((name, sys._getframe(1).f_code.co_name))
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "norm", counting("norm", np.linalg.norm))
        monkeypatch.setattr(np, "cross", counting("cross", np.cross))
        monkeypatch.setattr(np, "dot", counting("dot", np.dot))
        for argv in argvs:
            assert main(argv) == 0
        assert calls  # the counters are live
        assert {caller for _, caller in calls} == {"_parse_problem"}

    def test_library_has_no_matrix_route(self):
        """No qclass module defines a density matrix or a Pauli matrix; the
        matrix route lives only in the test oracle (tests/helpers.py)."""
        for info in pkgutil.iter_modules(qclass.__path__):
            module = importlib.import_module(f"qclass.{info.name}")
            names = [n for n in vars(module)
                     if n.startswith("SIGMA_") or n in ("DensityMatrix", "IDENTITY")]
            assert names == [], info.name


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

    def test_pure_state_normalised_in_floating_point(self, tmp_path):
        """|r0| = 1 + 2.2e-16 passes the Bloch-ball check; the classical
        variance 1 - |r0|^2 is then clamped at 0, not a math domain error."""
        v = [0.9698243673082586, -0.03271874667890908, -0.24159921396994988]
        assert float(np.linalg.norm(v)) > 1.0
        cfg = {
            "problem": {"r0": v, "s0": [0, 0.6, 0], "pi0": 0.7},
            "strategy": ["optimal_joint", "heterodyne_plugin",
                         "optimal_joint_unknown_priors"],
            "trials": 2000, "seed": 1,
        }
        rows = run_to_rows(tmp_path, "gaussian-sim", cfg)
        assert [r["param.strategy"] for r in rows] == cfg["strategy"]
        assert all(math.isfinite(float(r[k])) for r in rows for k in ("value", "stderr"))

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

    def test_small_classes_have_a_defined_outcome(self, tmp_path):
        """At n=6 some trials draw fewer than 3 copies of a class; the run
        still succeeds (an axis without copies estimates 0)."""
        cfg = {"problem": PLANAR_PROBLEM, "n_list": [6], "trials": 200, "seed": 3}
        rows = run_to_rows(tmp_path, "qubit-sim", cfg)
        assert [r["metric"] for r in rows] == ["rescaled_excess_mc", "fraction_exact"]
        assert all(math.isfinite(float(r["value"])) for r in rows)

    def test_bad_n_list_exits_2(self, tmp_path):
        cfg = {"problem": PLANAR_PROBLEM, "n_list": [400, 200],
               "trials": 10, "seed": 1}
        assert main(["qubit-sim", "--config", write_config(tmp_path, cfg)]) == 2

    @pytest.mark.parametrize("n_list", [[2**62], [10**30], [100, 10**12 + 1]],
                             ids=["2**62", "10**30", "just-over-limit"])
    def test_n_above_limit_exits_2(self, tmp_path, capsys, n_list):
        """Above 10**12 the excess risk is lost in rounding: a bad config,
        not a silently wrong result or a numerical failure."""
        cfg = {"problem": PLANAR_PROBLEM, "n_list": n_list, "trials": 10, "seed": 1,
               "label_mode": "fixed", "known_priors": True}
        assert main(["qubit-sim", "--config", write_config(tmp_path, cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: n must be at most 10**12")


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
            "325844c820e2119eb0afac4d09dab034532874fe4bc23c976382d9f1ed4d536c",
        ),
        # fixed labels draw every count against one shared copy count; a
        # scalar count and a constant count array give the same variates
        "qubit-sim-fixed": (
            {"n_list": [60, 10000], "trials": 300, "seed": 13,
             "label_mode": "fixed", "known_priors": True},
            64,
            "9a8c9cca2ee753ad18cbda56fd5b5754b5e20d9672fdc57b11c3d8727aae5e1b",
        ),
        # two standard normals per trial, drawn from the exact residual law
        "gaussian-sim": (
            {"strategy": ["optimal_joint", "heterodyne_plugin",
                          "optimal_joint_unknown_priors"],
             "trials": 5000, "seed": 7,
             "u": [0.2, -0.1, 0.4], "v": [0.3, 0.2, -0.2], "delta": 0.3},
            1024,
            "89a8382ec14281947b297ba3cb7dc1c08fd401270bcc036ba6ee9e3f3a21ebb1",
        ),
    }

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_pinned_stream(self, tmp_path, monkeypatch, case):
        """Small multi-chunk runs reproduce their recorded output bytes."""
        extra, chunk, digest = self.PINNED[case]
        monkeypatch.setattr(montecarlo, "CHUNK_SIZE", chunk)
        cfg_path = write_config(tmp_path, {"problem": self.PINNED_PROBLEM, **extra})
        out = tmp_path / "pinned.csv"
        assert main([case.removesuffix("-fixed"), "--config", cfg_path, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    # sha256 of closed-form outputs: a faster CLI must print the same bytes
    # (tests/test_high_precision.py checks every printed number of these
    # cases against a 50-digit evaluation)
    SWEEP_GRID = {"r0_len": [0.9], "s0_len": [0.3],
                  "angle": [0.0, 0.7, math.pi / 2, math.pi], "pi0": [0.4]}
    PINNED_CLOSED_FORM = {
        "report-planar": (
            "report", {"problem": PLANAR_PROBLEM}, "csv",
            "a63b066da6df9e43b9133f6e75e25c9c8feca6a78409faf0ca1d2b9c3fa8f6be",
        ),
        "report-trivial": (
            "report", {"problem": {"r0": [0, 0, 0.1], "s0": [0, 0, 0.5], "pi0": 0.9}}, "csv",
            "7df1d7d7e99ea2e571815f7c0324945f6133d9e1ea2ef5d30090f84b692acf4b",
        ),
        "report-antiparallel": (
            "report", {"problem": {"r0": [0, 0, 0.9], "s0": [0, 0, -0.3], "pi0": 0.4}}, "csv",
            "ce487064b2ff19fe43e3ad7b84b6a6de19ffd303a35b1174420e638f26564db3",
        ),
        "sweep-csv": (
            "sweep", {"sweep": SWEEP_GRID}, "csv",
            "8dea6499ba8f46ef90cb3aedb582afca7608d535d8a8c7640f04c978a6cfc59f",
        ),
        "sweep-json": (
            "sweep", {"sweep": SWEEP_GRID}, "json",
            "752f45aa9b98385471dc0850bb5bb42ba1cd05f39f952f4f675efae68014fdc0",
        ),
    }

    @pytest.mark.parametrize("case", sorted(PINNED_CLOSED_FORM))
    def test_pinned_closed_form(self, tmp_path, case):
        command, cfg, fmt, digest = self.PINNED_CLOSED_FORM[case]
        out = tmp_path / "pinned.out"
        assert main([command, "--config", write_config(tmp_path, cfg),
                     "--out", str(out), "--format", fmt]) == 0
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
