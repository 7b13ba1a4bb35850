"""End-to-end tests of the qclass command line driver.

The tests call ``main`` in process through ``_run``.  A CLI call that must
fail is one row of ``FAILING_RUNS`` (its command, config, flags, exit code
and stderr), and ``test_failing_run`` checks each row's exit code, its
empty stdout and its stderr text; a new config field or flag adds its bad
values there as rows.
"""

import argparse
import contextlib
import csv
import hashlib
import importlib
import io
import json
import math
import os
import pkgutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qclass
from qclass import (ClassificationProblem, RiskReport, TrivialityVerdict, cli, montecarlo,
                    qubit_experiment)
from qclass.cli import _build_parser, main
from qclass.gaussian_model import StrategyKind
from qclass.qubit_core import ATOL
from qclass.qubit_experiment import LabelMode, TrainingSetSpec
from conftest import SESSION_MODULES, local_modules
from helpers import render_csv_reference
from strategies import ROUNDED_BOUNDARY, direction, unit

PLANAR_PROBLEM = {"r0": [0.8, 0.0, 0.0], "s0": [0.0, 0.6, 0.0], "pi0": 0.5}
PLANAR = ClassificationProblem(*PLANAR_PROBLEM.values())
# s0 so short that d0 lies along r0 to rounding (r0 pure, in the limit
# s0 -> 0 both risks are (2 + 2 pi0)/(4 pi0) = 17/14)
TINY_S0_PROBLEM = {"r0": [0.6, 0.8, 0.0], "s0": [0.0, 0.0, 1e-13], "pi0": 0.7}


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


NO_FILE = object()  # a config path that names no file


def _run(tmp_path, command, config, *flags) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of main on [command, --config PATH, *flags],
    run with tmp_path as the working directory.  config is a JSON value or
    raw bytes written to PATH, NO_FILE (PATH names no file) or None (no
    --config option); a command of None is left out.  argparse's SystemExit
    becomes the exit code."""
    argv = [] if command is None else [command]
    if config is not None:
        path = tmp_path / ("missing.json" if config is NO_FILE else "config.json")
        if config is not NO_FILE:
            path.write_bytes(config if isinstance(config, bytes) else json.dumps(config).encode())
        argv += ["--config", str(path)]
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, *flags])
    except SystemExit as exc:
        code = exc.code
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def run_to_rows(tmp_path, command, cfg, *extra):
    code, out, err = _run(tmp_path, command, cfg, *extra)
    assert (code, err) == (0, "")
    return list(csv.DictReader(io.StringIO(out)))


def metric_value(rows, metric, **match):
    got = [
        r for r in rows
        if r["metric"] == metric and all(r[k] == v for k, v in match.items())
    ]
    assert got, f"no row with metric={metric} and {match}"
    assert len(got) == 1
    return got[0]


def _problem(**change) -> dict:
    return {"problem": {**PLANAR_PROBLEM, **change}}


def _without(cfg: dict, key: str) -> dict:
    return {k: v for k, v in cfg.items() if k != key}


HUGE = 10**400  # a JSON integer too large for a float
REPORT = {"problem": PLANAR_PROBLEM}
# a config both simulators run
SIM = {**REPORT, "strategy": "optimal_joint", "n_list": [10], "trials": 10, "seed": 1}
USAGE = _build_parser().format_usage() + "qclass: error: "
REQUIRED = USAGE + "the following arguments are required: "
BALL = "error: {} must lie in the Bloch ball: Bloch vector norm {} exceeds 1\n"
STRATEGY = "error: config field 'strategy' must be string or list of strings, got {}\n"
N_LIST = "error: n_list must be a nonempty, strictly ascending list of integers, got {}\n"
GRID = "error: sweep grid '{}' must be a nonempty list of finite numbers\n"
SWEEP = {"r0_len": [0.9], "s0_len": [0.3], "angle": [0.0], "pi0": [0.5]}

# (id, command, config, flags, exit code, stderr).  A stderr that ends in a
# line break is the whole text; one that does not is a prefix, for a text
# that goes on with an OS error or a temporary path.
FAILING_RUNS = [
    ("usage-empty", None, None, (), 2, REQUIRED + "command, --config\n"),
    ("usage-no-config", "report", None, (), 2, REQUIRED + "--config\n"),
    ("usage-no-command", None, NO_FILE, (), 2, REQUIRED + "command\n"),
    ("usage-unknown-command", "nope", NO_FILE, (), 2,
     USAGE + "argument command: invalid choice: 'nope' (choose from "
     + ", ".join(map(repr, cli._COMMANDS)) + ")\n"),
    ("config-missing", "report", NO_FILE, (), 2, "error: cannot read config: "),
    ("config-int-literal-too-long", "report",
     b'{"problem": {"r0": [1' + b"0" * 5000 + b', 0, 0], "s0": [0, 0.6, 0], "pi0": 0.5}}', (),
     2, "error: cannot read config: Exceeds the limit (4300 digits) for integer string "
        "conversion: value has 5001 digits; use sys.set_int_max_str_digits() to increase "
        "the limit\n"),
    ("config-not-utf8", "report", b'{"problem": "\xff"}', (), 2,
     "error: cannot read config: 'utf-8' codec can't decode byte 0xff in position 13: "
     "invalid start byte\n"),
    ("config-not-an-object", "report", [1, 2], (), 2, "error: config must be a JSON object\n"),
    ("format", "report", {**REPORT, "format": "xml"}, (), 2,
     "error: format must be 'csv' or 'json', got 'xml'\n"),
    *[(f"out-{name}", "report", {**REPORT, "out": out}, (), 2,
       f"error: config field 'out' must be a nonempty path, got {out!r}\n")
      for name, out in [("int", 123), ("bool", True), ("empty", ""), ("null", None),
                        ("list", ["x.csv"])]],
    # an output path relative to _run's working directory, a temporary one
    *[(f"unwritable-{target}-{where}", "report", cfg, flags, 2,
       "error: cannot write output: " + text)
      for target, path, text in [("missing-dir", "nonexistent/x.csv", ""), ("directory", ".", ""),
                                 ("nul", "x\0.csv", "embedded null byte\n")]
      for where, cfg, flags in [("flag", REPORT, ("--out", path)),
                                ("config", {**REPORT, "out": path}, ())]],
    ("report-r0-outside-ball", "report", _problem(r0=[2.0, 0, 0]), (), 2, BALL.format("r0", 2.0)),
    ("report-s0-outside-ball", "report", _problem(s0=[0, 0.6, 0.9]), (), 2,
     BALL.format("s0", 1.0816653826391966)),
    # finite entries whose squares overflow
    ("report-s0-norm-overflows", "report", _problem(s0=[1e308, 1e308, 0]), (), 2,
     BALL.format("s0", math.inf)),
    ("report-pi0-one", "report", _problem(pi0=1.0), (), 2,
     "error: pi0 must lie strictly in (0, 1), got 1.0\n"),
    ("report-pi0-string", "report", _problem(pi0="0.5"), (), 2,
     "error: config field 'pi0' must be a finite number, got '0.5'\n"),
    ("report-d0-overflow", "report",
     {"problem": {"r0": [1e-310, 0, 0], "s0": [0, 1e-310, 0], "pi0": 0.5}}, (), 3,
     "numerical error: a risk constant is not finite (|d0| = 7.0710678118656e-311 too small)\n"),
    ("gaussian-sim-r0-too-large-for-float", "gaussian-sim", {**SIM, **_problem(r0=[HUGE, 0, 0])},
     (), 2, f"error: config field 'r0' must be a list of 3 finite numbers, got [{HUGE}, 0, 0]\n"),
    ("gaussian-sim-pi0-too-large-for-float", "gaussian-sim", {**SIM, **_problem(pi0=HUGE)}, (), 2,
     f"error: config field 'pi0' must be a finite number, got {HUGE}\n"),
    ("gaussian-sim-zero-length-r0", "gaussian-sim", {**SIM, **_problem(r0=[0, 0, 0])}, (), 2,
     "error: state Bloch vectors must be nonzero to define a frame\n"),
    ("gaussian-sim-trivial", "gaussian-sim",
     {**SIM, "problem": {"r0": [0, 0, 0.1], "s0": [0, 0, 0.5], "pi0": 0.9}}, (), 2,
     "error: configuration is trivial_guess_rho; the local frame needs the nontrivial regime\n"),
    # within rounding of |d0| = |pi0 - pi1|
    ("gaussian-sim-rounded-boundary", "gaussian-sim",
     {**SIM, "problem": dict(zip(("r0", "s0", "pi0"), ROUNDED_BOUNDARY))}, (), 2,
     "error: configuration is degenerate; the local frame needs the nontrivial regime\n"),
    # trials past the float range fail the overflow guard by an exact int
    # and float comparison, not by converting trials to a float
    ("gaussian-sim-trials-too-large-for-float", "gaussian-sim", {**SIM, "trials": HUGE}, (), 3,
     f"numerical error: strategy optimal_joint: the loss summary overflows over {HUGE} "
     "trials (|d0| = 0.5)\n"),
    ("gaussian-sim-no-seed", "gaussian-sim", _without(SIM, "seed"), (), 2,
     "error: missing required config field 'seed' (an integer)\n"),
    ("gaussian-sim-no-trials", "gaussian-sim", _without(SIM, "trials"), (), 2,
     "error: missing required config field 'trials' (an integer >= 1)\n"),
    ("strategy-missing", "gaussian-sim", _without(SIM, "strategy"), (), 2,
     "error: missing required config field 'strategy' (string or list of strings)\n"),
    ("strategy-number", "gaussian-sim", {**SIM, "strategy": 7}, (), 2, STRATEGY.format(7)),
    ("strategy-object", "gaussian-sim", {**SIM, "strategy": {"a": 1}}, (), 2,
     STRATEGY.format({"a": 1})),
    ("strategy-empty", "gaussian-sim", {**SIM, "strategy": []}, (), 2,
     "error: 'strategy' must be a string or nonempty list, got []\n"),
    ("strategy-unknown", "gaussian-sim", {**SIM, "strategy": ["optimal_joint", "nope"]}, (), 2,
     "error: unknown strategy 'nope'; valid: optimal_joint, heterodyne_plugin, "
     "optimal_joint_unknown_priors\n"),
    *[(f"{command}-zero-trials", command, {**SIM, "trials": 0}, (), 2,
       "error: trials must be >= 1, got 0\n") for command in ("gaussian-sim", "qubit-sim")],
    *[(f"{command}-workers-{name}", command, cfg, flags, 2,
       f"error: workers must be a positive integer, got {shown}\n")
      for command in ("gaussian-sim", "qubit-sim")
      for name, cfg, flags, shown in [("config-0", {**SIM, "workers": 0}, (), "0"),
                                      ("config-true", {**SIM, "workers": True}, (), "True"),
                                      ("config-string", {**SIM, "workers": "2"}, (), "'2'"),
                                      ("flag-0", SIM, ("--workers", "0"), "0")]],
    *[(f"{command}-negative-seed-{name}", command, cfg, flags, 2,
       f"error: seed must be a non-negative integer, got {seed}\n")
      for command in ("gaussian-sim", "qubit-sim")
      for name, cfg, flags, seed in [("flag", SIM, ("--seed", "-5"), -5),
                                     ("config", {**SIM, "seed": -3}, (), -3)]],
    ("qubit-sim-label-mode", "qubit-sim", {**SIM, "label_mode": "both"}, (), 2,
     "error: label_mode must be 'random' or 'fixed', got 'both'\n"),
    ("qubit-sim-known-priors-int", "qubit-sim", {**SIM, "known_priors": 1}, (), 2,
     "error: known_priors must be a boolean, got 1\n"),
    ("qubit-sim-known-priors-string", "qubit-sim", {**SIM, "known_priors": "true"}, (), 2,
     "error: known_priors must be a boolean, got 'true'\n"),
    *[(f"qubit-sim-n-list-{name}", "qubit-sim", {**SIM, "n_list": n_list}, (), 2,
       N_LIST.format(n_list))
      for name, n_list in [("descending", [400, 200]), ("empty", []), ("repeated", [100, 100]),
                           ("float", [10.0]), ("bool", [True])]],
    ("qubit-sim-n-zero", "qubit-sim", {**SIM, "n_list": [0]}, (), 2,
     "error: n must be a positive integer, got 0\n"),
    ("sweep-empty-grid", "sweep", {"sweep": {**SWEEP, "r0_len": []}}, (), 2,
     GRID.format("r0_len")),
    ("sweep-angle-too-large-for-float", "sweep", {"sweep": {**SWEEP, "angle": [HUGE]}}, (), 2,
     GRID.format("angle")),
]


@pytest.mark.parametrize("command, config, flags, code, stderr",
                         [row[1:] for row in FAILING_RUNS], ids=[row[0] for row in FAILING_RUNS])
def test_failing_run(tmp_path, command, config, flags, code, stderr):
    got_code, out, err = _run(tmp_path, command, config, *flags)
    assert (got_code, out) == (code, "")
    assert (err if stderr.endswith("\n") else err[:len(stderr)]) == stderr


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

    def test_rounded_boundary_report_emits_verdict_only(self, tmp_path):
        """Within rounding of |d0| = |pi0 - pi1| no 1/n constant exists."""
        cfg = {"problem": dict(zip(("r0", "s0", "pi0"), ROUNDED_BOUNDARY))}
        rows = run_to_rows(tmp_path, "report", cfg)
        assert [(r["metric"], r["value"]) for r in rows] == [
            ("verdict", "degenerate"), ("helstrom_risk", "0.25")]

    def test_antipodal_gap(self, tmp_path):
        cfg = {"problem": {"r0": [0, 0, 1.0], "s0": [0, 0, -1.0], "pi0": 0.5}}
        rows = run_to_rows(tmp_path, "report", cfg)
        assert float(metric_value(rows, "gap")["value"]) == pytest.approx(0.5, abs=1e-9)

    def test_tiny_s0_report(self, tmp_path):
        rows = run_to_rows(tmp_path, "report", {"problem": TINY_S0_PROBLEM})
        assert metric_value(rows, "verdict")["value"] == "nontrivial"
        assert len(rows) == 9 and all(math.isfinite(float(r["value"])) for r in rows[1:])
        for metric in ("optimal_risk", "plugin_risk"):
            assert float(metric_value(rows, metric)["value"]) == pytest.approx(17 / 14, abs=1e-9)

class TestNumericalFailure:
    # runs the CLI with _check_frame fed a frame whose cos(phi1) is off by
    # 1e-6, so the frame identities fail on purpose
    BROKEN_CHECK = (
        "import sys\n"
        "import qclass.cli, qclass.local_geometry as lg\n"
        "check = lg._check_frame\n"
        "def broken(frame, pi0):\n"
        "    return check(frame._replace(cos_phi1=frame.cos_phi1 + 1e-6), pi0)\n"
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


# lengths of a near-pure state: just inside 1, 1, and around the ball's
# tolerance 1 + ATOL, on both sides of it
_EDGE_LENGTHS = (1.0 - 2.0**-53, 1.0, 1.0 + 2.0**-52, 1.0 + ATOL / 2, 1.0 + ATOL,
                 1.0 + ATOL * (1.0 + 2.0**-40), 1.0 + 2.0 * ATOL)
# lengths whose squares underflow, down to subnormal components; below
# about 3e-309 a nontrivial |d0| makes the 1/|d0| risks overflow
_TINY_LENGTHS = (5e-324, 1e-320, 1e-315, 1e-310, 1e-309, 2.2250738585072014e-308, 1e-160)


def _scaled(v, length) -> list:
    return (length * unit(v)).tolist()


_BLOCH = st.one_of(
    st.builds(_scaled, direction, st.sampled_from(_TINY_LENGTHS)),
    st.tuples(*3 * [st.sampled_from([0.0, 5e-324, -1e-310, 1e-160])]).map(list),
    st.builds(_scaled, direction, st.sampled_from(_EDGE_LENGTHS)),
    st.tuples(*3 * [st.floats(-1.0, 1.0)]).map(list),
    # finite components whose squares overflow, and zeros
    st.tuples(*3 * [st.floats(1e200, 1e308) | st.floats(-1e308, -1e200) | st.just(0.0)]).map(list),
)
_PAIR = st.one_of(
    st.tuples(_BLOCH, _BLOCH),
    # two states of one tiny length
    st.builds(lambda v, w, a: (_scaled(v, a), _scaled(w, a)),
              direction, direction, st.sampled_from(_TINY_LENGTHS)),
    # parallel or antiparallel, at the same or half the length
    st.builds(lambda r, a: (r, [a * x for x in r]), _BLOCH, st.sampled_from([1.0, -1.0, -0.5])),
)
_STRATEGIES = ["optimal_joint", "heterodyne_plugin", "optimal_joint_unknown_priors"]
# 1, 2 and 3 leave axes without copies, 1024 and 1025 sit on either side of
# the random-label alias limit, 10**9 near the fixed-label table cap, and
# 10**12 + 1 is one above MAX_N
_N = st.sampled_from([1, 2, 3, 30, 1024, 1025, 10**4, 10**9, 10**12, 10**12 + 1])


@st.composite
def _fuzz_case(draw):
    """(command, config, format) over the edges of every field the three
    numerical commands read."""
    command = draw(st.sampled_from(["report", "gaussian-sim", "qubit-sim"]))
    r0, s0 = draw(_PAIR)
    # equal priors, which let a tiny |d0| be nontrivial, drawn often
    pi0 = draw(st.sampled_from([0.0, 5e-324, 1.0 - 1e-16, 1.0]) | st.just(0.5)
               | st.floats(0.0, 1.0))
    cfg = {"problem": {"r0": r0, "s0": s0, "pi0": pi0}}
    if command != "report":
        cfg.update(trials=draw(st.integers(1, 3)), seed=draw(st.integers(0, 2**32)))
    if command == "gaussian-sim":
        cfg["strategy"] = draw(st.sampled_from(_STRATEGIES) | st.just(_STRATEGIES))
    if command == "qubit-sim":
        n_list = draw(st.sets(_N | st.integers(1, 10**12), min_size=1, max_size=3))
        cfg.update(n_list=sorted(n_list), label_mode=draw(st.sampled_from(["random", "fixed"])),
                   known_priors=draw(st.booleans()))
    return command, cfg, draw(st.sampled_from(["csv", "json"]))


def _numbers(text: str, fmt: str) -> list[float]:
    """Every cell of a CSV or JSON output that reads as a float; JSON's
    NaN, Infinity and -Infinity fail the parse."""
    if fmt == "json":
        def refuse(constant):
            raise AssertionError(f"JSON output holds {constant}")
        cells = [v for row in json.loads(text, parse_constant=refuse) for v in row.values()]
    else:
        cells = [v for row in csv.DictReader(io.StringIO(text)) for v in row.values()]
    numbers = []
    for cell in cells:
        if isinstance(cell, str):
            try:  # a CSV "inf" or "nan" reads as a float too
                numbers.append(float(cell))
            except ValueError:
                pass
        elif isinstance(cell, (int, float)) and not isinstance(cell, bool):
            numbers.append(float(cell))
    return numbers


class TestExitCodeFuzz:
    """The exit-code contract over edge configs: every run of report,
    gaussian-sim and qubit-sim exits 0 with finite numbers, or 2 or 3 with
    a message and no traceback.  The example count is the active Hypothesis
    profile's, at least 300 (tests/conftest.py registers one of 3,000)."""

    @pytest.fixture(scope="class")
    def fuzz_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz")

    @settings(max_examples=max(300, settings.default.max_examples), deadline=None,
              derandomize=True, database=None)
    @given(case=_fuzz_case())
    @example(case=("report", {"problem": TINY_S0_PROBLEM}, "csv"))
    def test_exit_code_contract(self, fuzz_dir, case):
        command, cfg, fmt = case
        code, out, err = _run(fuzz_dir, command, cfg, "--format", fmt)
        assert "Traceback" not in err
        if code == 0:
            numbers = _numbers(out, fmt)
            assert numbers and all(math.isfinite(x) for x in numbers), out
        else:
            assert code in (2, 3), (code, err)
            assert out == ""
            assert err.startswith(("error: ", "numerical error: "))


def test_session_loads_every_local_module():
    """Hypothesis draws examples from the literals of every loaded local
    module outside the test directories (tests/conftest.py), so the fuzz
    above draws the same cases in any run only if no test loads such a
    module that conftest.py has not loaded at session start."""
    assert local_modules() == SESSION_MODULES
    assert {"qclass", "qclass.cli", "workloads"} <= SESSION_MODULES


class TestConfigValidation:
    @pytest.mark.parametrize("command, cfg", [
        ("report", REPORT),
        ("sweep", {"sweep": {"r0_len": [0.9], "s0_len": [0.3], "angle": [0.0, 2.0],
                             "pi0": [0.4]}}),
    ], ids=["report", "sweep"])
    @pytest.mark.parametrize("where, workers", [
        ("config", 0), ("config", True), ("config", "2"), ("flag", "0")])
    def test_unread_workers_is_ignored(self, tmp_path, command, cfg, where, workers):
        """report and sweep never read workers: whatever its value, in the
        config or as a flag, they print the bytes of a workers 1 run."""
        want = _run(tmp_path, command, cfg, "--workers", "1")
        if where == "flag":
            got = _run(tmp_path, command, cfg, "--workers", workers)
        else:
            got = _run(tmp_path, command, {**cfg, "workers": workers})
        assert want == (0, want[1], "") and want[1]
        assert got == want


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

    def test_cli_import_loads_no_record_or_csv_module(self):
        """The records are named tuples and CSV rows are joined by hand, so
        beyond the standard modules the CLI itself imports, importing it
        loads none of dataclasses, inspect, csv or typing.  Under python -S,
        so no site hook loads them first; the baseline is taken after the
        CLI's own imports, whatever those load on this Python."""
        env = dict(os.environ, PYTHONPATH=str(Path(qclass.__file__).parents[1]))
        code = ("import argparse, functools, itertools, json, math, sys\n"
                "before = set(sys.modules)\n"
                "import qclass.cli\n"
                "print(sorted((set(sys.modules) - before)"
                " & {'dataclasses', 'inspect', 'csv', 'typing'}))\n")
        proc = subprocess.run([sys.executable, "-S", "-c", code],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


class TestParserReuse:
    """The argument parser is built once per process; calls stay independent."""

    @staticmethod
    def call(tmp_path, command, config, *flags):
        """(exit code, stdout, stderr, bytes written to out.txt or None)."""
        out = tmp_path / "out.txt"
        result = _run(tmp_path, command, config, *flags)
        written = out.read_bytes() if out.exists() else None
        out.unlink(missing_ok=True)
        return (*result, written)

    GAUSSIAN = {**REPORT, "trials": 200, "seed": 1, "strategy": "optimal_joint"}

    @pytest.mark.parametrize("first, second", [
        (("report", REPORT, "--format", "json"), ("report", REPORT)),
        (("gaussian-sim", GAUSSIAN, "--seed", "5"), ("gaussian-sim", GAUSSIAN)),
        (("report", REPORT, "--out", "out.txt"), ("report", REPORT)),
        (("nope", None), ("report", REPORT)),
    ], ids=["format-then-default", "seed-then-config-seed", "out-then-stdout",
            "argparse-error-then-report"])
    def test_each_call_matches_the_call_alone(self, tmp_path, first, second):
        alone = []
        for call in (first, second):
            _build_parser.cache_clear()
            alone.append(self.call(tmp_path, *call))
        in_sequence = [self.call(tmp_path, *call) for call in (first, second)]
        assert in_sequence == alone
        assert alone[0][0] == (2 if first[0] == "nope" else 0)
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


class TestOneParser:
    """One parser holds the command and every option once."""

    def test_each_option_is_added_once(self):
        actions = _build_parser()._actions
        assert [a.dest for a in actions] == [
            "help", "command", "config", "out", "format", "seed", "workers"]
        assert list(actions[1].choices) == list(cli._COMMANDS)

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_every_command_takes_every_option(self, command):
        args = _build_parser().parse_args(
            ["--config", "c.json", command, "--out", "o", "--format", "json",
             "--seed", "3", "--workers", "2"])
        assert vars(args) == {"command": command, "config": "c.json", "out": "o",
                              "format": "json", "seed": 3, "workers": 2}

class TestRowTypes:
    """Every value a row holds is None, bool, int, float or str: the types
    that _fmt and json.dumps print.  Checked on the rows every command hands
    to the renderer, for both renderers."""

    ROW_TYPES = (type(None), bool, int, float, str)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command, cfg", [
        ("report", {"problem": PLANAR_PROBLEM}),
        ("report", {"problem": {"r0": [0, 0, 0.1], "s0": [0, 0, 0.5], "pi0": 0.9}}),
        ("gaussian-sim", {"problem": PLANAR_PROBLEM, "trials": 100, "seed": 1,
                          "strategy": ["optimal_joint", "heterodyne_plugin",
                                       "optimal_joint_unknown_priors"]}),
        ("qubit-sim", {"problem": PLANAR_PROBLEM, "n_list": [50, 500], "trials": 100,
                       "seed": 1}),
        ("qubit-sim", {"problem": {"r0": [0, 0, 0.1], "s0": [0, 0, 0.5], "pi0": 0.9},
                       "n_list": [500], "trials": 100, "seed": 1,
                       "label_mode": "fixed", "known_priors": True}),
        ("sweep", {"sweep": {"r0_len": [1.0], "s0_len": [1.0, 0.3],
                             "angle": [0.0, 2.0], "pi0": [0.5]}}),
    ], ids=["report", "report-trivial", "gaussian-sim", "qubit-sim", "qubit-sim-trivial",
            "sweep"])
    def test_row_values_have_row_types(self, tmp_path, monkeypatch, fmt, command, cfg):
        seen = []
        render = getattr(cli, f"render_{fmt}")
        monkeypatch.setattr(cli, f"render_{fmt}", lambda rows: seen.extend(rows) or render(rows))
        out = tmp_path / "out.txt"
        argv = [command, "--config", write_config(tmp_path, cfg), "--format", fmt,
                "--out", str(out)]
        assert main(argv) == 0
        assert seen and out.stat().st_size > 0
        for row in seen:
            for value in (*row.params.values(), row.metric, row.value, row.stderr, row.n):
                assert type(value) in self.ROW_TYPES, (row.metric, type(value))


class TestCsvRenderer:
    """render_csv joins each row's cells with commas; csv.writer
    (render_csv_reference) must give the same bytes on the rows of every
    command, which holds while no cell needs quoting."""

    CASES = {
        "report": ("report", {"problem": PLANAR_PROBLEM}),
        "report-trivial": (
            "report", {"problem": {"r0": [0, 0, 0.1], "s0": [0, 0, 0.5], "pi0": 0.9}}),
        "report-degenerate": (
            "report", {"problem": {"r0": [0, 0, 0.5], "s0": [0, 0, 0.5], "pi0": 0.5}}),
        "sweep": ("sweep", {"sweep": {"r0_len": [0.9, 1.0], "s0_len": [0.3, 1.0],
                                      "angle": [0.0, 2.0, math.pi], "pi0": [0.4, 0.5]}}),
        "gaussian-sim": ("gaussian-sim", {
            "problem": PLANAR_PROBLEM, "trials": 100, "seed": 1,
            "strategy": ["optimal_joint", "heterodyne_plugin", "optimal_joint_unknown_priors"]}),
        **{f"qubit-sim-{mode}-{'known' if known else 'unknown'}": ("qubit-sim", {
            "problem": PLANAR_PROBLEM, "n_list": [50, 500], "trials": 100, "seed": 1,
            "label_mode": mode, "known_priors": known})
           for mode in ("random", "fixed") for known in (False, True)},
    }

    @pytest.fixture(scope="class")
    def case_rows(self):
        """The rows each case hands to the renderer."""
        out = {}
        for case, (command, cfg) in self.CASES.items():
            args = _build_parser().parse_args([command, "--config", "unread.json"])
            out[case] = cli._COMMANDS[command](cfg, args)
        return out

    @pytest.mark.parametrize("case", CASES)
    def test_joined_rows_match_csv_writer(self, case_rows, case):
        rows = case_rows[case]
        assert rows
        assert cli.render_csv(rows) == render_csv_reference(rows)

    def test_report_cases_cover_every_verdict_kind(self, case_rows):
        verdicts = {case_rows[case][0].value for case in ("report", "report-trivial",
                                                          "report-degenerate")}
        assert verdicts == {"nontrivial", "trivial_guess_rho", "degenerate"}

    def test_no_fixed_name_needs_quoting(self, case_rows):
        """No string a row can hold (metric names, param.* keys and every
        enum value a cell prints) holds a comma, a quote or a line break."""
        names = {*RiskReport._fields,
                 *(kind.value for enum in (TrivialityVerdict, StrategyKind, LabelMode)
                   for kind in enum)}
        for rows in case_rows.values():
            for row in rows:
                names.update(row.params)
                names.update(v for v in (*row.params.values(), row.metric, row.value)
                             if isinstance(v, str))
        assert {"verdict", "rescaled_risk_mc", "param.pi0", "param.label_mode"} <= names
        assert [name for name in names if set(name) & set(',"\r\n')] == []


class TestFloatReportPath:
    """A report is computed in plain floats, from Bloch vectors alone."""

    # runs under python -S, where numpy cannot be imported: (command,
    # config, format, exit code there).  Closed-form runs are compared with
    # the same run in process; the simulators need numpy.
    STDLIB_RUNS = {
        "gaussian-sim-needs-numpy": (
            "gaussian-sim", {"problem": PLANAR_PROBLEM, "strategy": "optimal_joint",
                             "trials": 10, "seed": 1}, "csv", 2),
        "qubit-sim-needs-numpy": (
            "qubit-sim", {"problem": PLANAR_PROBLEM, "n_list": [10], "trials": 10,
                          "seed": 1}, "csv", 2),
        "report-csv": ("report", {"problem": PLANAR_PROBLEM}, "csv", 0),
        "report-json": ("report", {"problem": PLANAR_PROBLEM}, "json", 0),
        "report-near-antiparallel": (
            "report", {"problem": TestNumericalFailure.NEAR_ANTIPARALLEL}, "csv", 0),
        # exactly antiparallel: the coordinate-axis fallback of the frame
        "report-antiparallel": (
            "report", {"problem": {"r0": [0, 0, 0.9], "s0": [0, 0, -0.3], "pi0": 0.4}},
            "csv", 0),
        "report-trivial": (
            "report", {"problem": {"r0": [0, 0, 0.1], "s0": [0, 0, 0.5], "pi0": 0.9}},
            "json", 0),
        "sweep-csv": ("sweep", {"sweep": {"r0_len": [0.9, 1.0], "s0_len": [0.3, 1.0],
                                          "angle": [0.0, 0.7, math.pi], "pi0": [0.4, 0.5]}},
                      "csv", 0),
        "sweep-json": ("sweep", {"sweep": {"r0_len": [0.9], "s0_len": [0.3],
                                           "angle": [0.0, math.pi / 2], "pi0": [0.4]}},
                       "json", 0),
        "report-outside-ball": (
            "report", {"problem": {"r0": [0.8, 0.7, 0.0], "s0": [0, 0.6, 0], "pi0": 0.5}},
            "csv", 2),
        # |r0| = 1e-160, whose sum of squares is subnormal: the norm is
        # scaled, so r0/|r0| is a unit vector
        "report-tiny-state": (
            "report", {"problem": {"r0": [1e-160, 0, 0], "s0": [0, -0.5, 0], "pi0": 0.5}},
            "csv", 0),
        # both states of norm 1e-160: the sum of squares of d0 is subnormal,
        # so |d0| is rescaled, and d0/|d0| is a unit vector
        "report-tiny-d0-underflow": (
            "report", {"problem": {"r0": [1e-160, 0, 0], "s0": [0, -1e-160, 0], "pi0": 0.5}},
            "csv", 0),
        # both states of norm 1e-310, so |d0| = 7.07e-311: the risks
        # overflow, which is a numerical failure, not an inf in the output
        "report-d0-overflow": (
            "report", {"problem": {"r0": [1e-310, 0, 0], "s0": [0, 1e-310, 0], "pi0": 0.5}},
            "json", 3),
    }

    def test_tiny_d0_report_is_finite(self, tmp_path):
        cfg = self.STDLIB_RUNS["report-tiny-d0-underflow"][1]
        rows = run_to_rows(tmp_path, "report", cfg)
        assert metric_value(rows, "verdict")["value"] == "nontrivial"
        assert all(math.isfinite(float(r["value"])) for r in rows if r["metric"] != "verdict")

    @pytest.mark.parametrize("case", sorted(STDLIB_RUNS))
    def test_report_and_sweep_run_without_numpy(self, tmp_path, capsys, case):
        """report and sweep need only the standard library: under python -S
        (no site-packages, so no numpy) they print the same bytes and exit
        with the same code as in process.  gaussian-sim and qubit-sim exit 2
        there with one line that names numpy, where in process they run."""
        command, cfg, fmt, code = self.STDLIB_RUNS[case]
        argv = [command, "--config", write_config(tmp_path, cfg), "--format", fmt]
        needs_numpy = command in ("gaussian-sim", "qubit-sim")
        capsys.readouterr()
        assert main(argv) == (0 if needs_numpy else code)
        in_process = b"" if needs_numpy else capsys.readouterr().out.encode()
        env = dict(os.environ, PYTHONPATH=str(Path(qclass.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-S", "-m", "qclass.cli", *argv],
                              capture_output=True, env=env, timeout=120)
        assert proc.returncode == code, proc.stderr
        assert proc.stdout == in_process
        assert b"Traceback" not in proc.stderr
        assert (proc.stdout == b"") == (code != 0)
        if needs_numpy:
            assert proc.stderr == f"error: {command} needs numpy\n".encode()

    def test_other_missing_module_still_raises(self, tmp_path, monkeypatch):
        """Only a missing numpy becomes exit 2; any other missing module is
        a fault of the install, not of the config, and propagates."""
        def needs_other(cfg, args):
            raise ModuleNotFoundError("No module named 'scipy'", name="scipy")

        monkeypatch.setitem(cli._COMMANDS, "gaussian-sim", needs_other)
        cfg = {"problem": PLANAR_PROBLEM, "strategy": "optimal_joint", "trials": 10, "seed": 1}
        with pytest.raises(ModuleNotFoundError) as info:
            main(["gaussian-sim", "--config", write_config(tmp_path, cfg)])
        assert info.value.name == "scipy"

    def test_cli_import_loads_no_numpy(self):
        """numpy is importable here, yet the package root and the CLI leave it
        unloaded; the simulators import it when a simulation runs."""
        env = dict(os.environ, PYTHONPATH=str(Path(qclass.__file__).parents[1]))
        code = ("import qclass, qclass.cli, sys; print(sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'numpy'))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

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

    def test_tiny_d0_overflow_exit_3(self, tmp_path, monkeypatch):
        """A |d0| so small that 1/(4|d0|) makes the loss overflow fails
        before any draw, naming the strategy and |d0|."""
        def no_draw(*args):
            raise AssertionError("a chunk generator was built")

        monkeypatch.setattr(montecarlo, "chunk_rng", no_draw)
        cfg = {"problem": {"r0": [1e-160, 0, 0], "s0": [0, -1e-160, 0], "pi0": 0.5},
               "strategy": ["optimal_joint", "heterodyne_plugin"], "trials": 1000, "seed": 1}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = _run(tmp_path, "gaussian-sim", cfg)
        assert result == (3, "", "numerical error: strategy optimal_joint: the loss overflows "
                                 "(|d0| = 7.071067811865476e-161 too small)\n")

    @pytest.mark.parametrize("local", [
        {"u": [1e16] * 3, "v": [1e16] * 3},
        {"u": [1e300] * 3, "v": [1e300] * 3},
        {"delta": 1e300},
        {"u": [float("nan")] * 3, "v": [0, float("nan"), 0], "delta": float("nan")},
    ], ids=["u-v-1e16", "u-v-1e300", "delta-1e300", "nan"])
    def test_local_parameters_change_no_value(self, tmp_path, local):
        """The loss does not depend on the local parameters u, v, delta, so
        gaussian-sim ignores them: a config that carries them, at any value,
        prints the bytes of one without them, in both formats."""
        cfg = {"problem": PLANAR_PROBLEM,
               "strategy": ["optimal_joint", "heterodyne_plugin",
                            "optimal_joint_unknown_priors"],
               "trials": 10_000, "seed": 1}

        for fmt in ("csv", "json"):
            without = _run(tmp_path, "gaussian-sim", cfg, "--format", fmt)
            assert without[0] == 0
            assert _run(tmp_path, "gaussian-sim", {**cfg, **local}, "--format", fmt) == without
            assert "param.u_" not in without[1] and "param.v_" not in without[1]

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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_strategies_share_their_draws(self, tmp_path, monkeypatch, fmt):
        """Three strategies in one config print the rows of three
        one-strategy configs with the same seed, in order: each row's
        value does not depend on the other strategies of its call."""
        monkeypatch.setattr(montecarlo, "CHUNK_SIZE", 97)
        strategies = ["optimal_joint_unknown_priors", "optimal_joint", "heterodyne_plugin"]
        cfg = {"problem": {"r0": [0.5, 0.2, -0.3], "s0": [-0.1, 0.6, 0.2], "pi0": 0.4},
               "trials": 1000, "seed": 17, "format": fmt}

        def printed(strategy):
            code, out, err = _run(tmp_path, "gaussian-sim", {**cfg, "strategy": strategy})
            assert (code, err) == (0, "")
            return out

        together = printed(strategies)
        alone = [printed([s]) for s in strategies]
        if fmt == "csv":
            header, *rows = together.splitlines(keepends=True)
            singles = [text.splitlines(keepends=True) for text in alone]
            assert all(lines[0] == header and len(lines) == 2 for lines in singles)
            assert rows == [lines[1] for lines in singles]
        else:
            assert json.loads(together) == [row for text in alone for row in json.loads(text)]

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

    @pytest.mark.parametrize("mode, known_priors", [("random", False), ("fixed", True)])
    def test_each_n_runs_at_its_own_seed(self, tmp_path, mode, known_priors):
        """n_list[i] runs at seed (seed, i): its rows hold the result of
        run_experiment for that n at that seed, every printed digit."""
        cfg = {"problem": PLANAR_PROBLEM, "n_list": [60, 200, 3000], "trials": 300,
               "seed": 19, "label_mode": mode, "known_priors": known_priors}
        rows = run_to_rows(tmp_path, "qubit-sim", cfg)
        for i, n in enumerate(cfg["n_list"]):
            spec = TrainingSetSpec(n, PLANAR, LabelMode(mode), known_priors)
            res = qubit_experiment.run_experiment(spec, 300, (19, i))
            excess = metric_value(rows, "rescaled_excess_mc", n=str(n))
            assert float(excess["value"]) == res.mean_rescaled_excess
            assert float(excess["stderr"]) == res.stderr
            assert float(metric_value(rows, "fraction_exact", n=str(n))["value"]) == \
                res.fraction_exact

    @pytest.mark.parametrize("n_list", [[2**62], [10**30], [100, 10**12 + 1]],
                             ids=["2**62", "10**30", "just-over-limit"])
    def test_n_above_limit_exits_2(self, tmp_path, monkeypatch, n_list):
        """Above 10**12 the excess risk is lost in rounding: a bad config,
        not a silently wrong result or a numerical failure.  Every n is
        checked before the first one runs."""
        runs = []
        monkeypatch.setattr(qubit_experiment, "run_experiment",
                            lambda *args, **kwargs: runs.append(args))
        cfg = {"problem": PLANAR_PROBLEM, "n_list": n_list, "trials": 10, "seed": 1,
               "label_mode": "fixed", "known_priors": True}
        assert _run(tmp_path, "qubit-sim", cfg) == (
            2, "", "error: n must be at most 10**12 (the excess risk falls to rounding error "
                   f"above it), got {n_list[-1]}\n")
        assert runs == []


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

    @pytest.mark.parametrize("key, grid, message", [
        ("pi0", [0.5, 1.0], "pi0 must lie strictly in (0, 1), got 1.0"),
        ("pi0", [0.5, 0.0], "pi0 must lie strictly in (0, 1), got 0.0"),
        ("r0_len", [0.9, 1.5], "sweep Bloch lengths must lie in (0, 1]"),
        ("s0_len", [0.3, 0.0], "sweep Bloch lengths must lie in (0, 1]"),
    ], ids=["pi0-one", "pi0-zero", "r0-len-above-one", "s0-len-zero"])
    def test_bad_grid_value_exits_2_before_any_row(self, tmp_path, monkeypatch, key, grid,
                                                   message):
        """Every grid point's problem is built, and so checked, before the
        first report is computed, not when the loop reaches it."""
        calls = []
        monkeypatch.setattr(cli, "_report_rows", lambda *args: calls.append(args) or [])
        cfg = {"sweep": {"r0_len": [0.9], "s0_len": [0.3], "angle": [0.0, 1.0],
                         "pi0": [0.5], key: grid}}
        assert _run(tmp_path, "sweep", cfg) == (2, "", f"error: {message}\n")
        assert calls == []


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

    # every sampler and both label modes, in 64-trial chunks on two CPUs, so
    # that workers 2 starts a pool of two threads; random labels draw from
    # alias tables at n = 60 and 500 and binomials at 1500, fixed labels
    # from alias tables at every n here
    @pytest.mark.parametrize("n", [60, 500, 1500])
    @pytest.mark.parametrize("mode", ["random", "fixed"])
    def test_qubit_sim_byte_identical(self, tmp_path, monkeypatch, n, mode):
        monkeypatch.setattr(montecarlo, "CHUNK_SIZE", 64)
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
        cfg = {"problem": PLANAR_PROBLEM, "n_list": [n], "trials": 200, "seed": 13,
               "label_mode": mode}
        cfg_path = write_config(tmp_path, cfg)
        blobs = []
        for i, workers in enumerate(("1", "2")):
            out = tmp_path / f"q{i}.csv"
            assert main(["qubit-sim", "--config", cfg_path, "--out", str(out),
                         "--workers", workers]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("mode", ["random", "fixed"])
    def test_qubit_sim_bytes_do_not_depend_on_cached_tables(self, tmp_path, monkeypatch,
                                                            capsys, mode):
        """The run plans kept for the process change no output byte:
        cold and warm caches, 1 and 2 workers, and a fresh process agree
        after other runs in this one.  A cold run follows runs at more
        other keys than the cache keeps, so each of its plans is built
        again.  Two 65,536-trial chunks; fixed labels draw from alias
        tables at every n here, random labels up to n = 1024 and by a
        cached binomial plan above."""
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
        cfg = {"problem": self.PINNED_PROBLEM, "n_list": [30, 900, 20000],
               "trials": 70_000, "seed": 17, "label_mode": mode}
        argv = ["qubit-sim", "--config", write_config(tmp_path, cfg)]
        outs = []
        for workers in ("1", "2"):
            for caches in ("cold", "warm"):
                if caches == "cold":
                    for n in range(31, 32 + qubit_experiment._PLANS_KEPT):
                        spec = TrainingSetSpec(n, PLANAR, LabelMode(mode))
                        qubit_experiment.run_experiment(spec, 10, 1)
                capsys.readouterr()
                assert main([*argv, "--workers", workers]) == 0
                outs.append(capsys.readouterr().out)
        other = {"problem": PLANAR_PROBLEM, "n_list": [31, 901], "trials": 500, "seed": 1,
                 "label_mode": mode}
        assert main(["qubit-sim", "--config", write_config(tmp_path, other, "other.json")]) == 0
        env = dict(os.environ, PYTHONPATH=str(Path(qclass.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "qclass.cli", *argv],
                              capture_output=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout.decode())
        capsys.readouterr()
        assert main(argv) == 0
        outs.append(capsys.readouterr().out)
        assert len(set(outs)) == 1

    # sha256 of the CSV output; a change of the RNG stream or of the
    # arithmetic behind any printed value changes these on purpose only
    PINNED_PROBLEM = {"r0": [0.5, 0.2, -0.3], "s0": [-0.1, 0.6, 0.2], "pi0": 0.4}
    PINNED = {
        # random labels up to _RANDOM_ALIAS_MAX_N draw each class size and
        # each count as one uniform looked up in an alias table (re-pinned
        # when that draw replaced the histograms: a new stream)
        "qubit-sim": (
            {"n_list": [60, 200], "trials": 300, "seed": 13},
            64,
            "504b60242f771bf0918c40f12ec88679cc5558f5268e0a79d67286eceea836b2",
        ),
        # fixed labels draw every count from an alias table, one uniform
        # per count, at every n the tables fit (up to n ~ 1e9): both fixed
        # pins were re-pinned when that draw replaced the windowed
        # histograms (n = 60) and the per-trial binomials (n = 10000)
        "qubit-sim-fixed": (
            {"n_list": [60, 10000], "trials": 300, "seed": 13,
             "label_mode": "fixed", "known_priors": True},
            64,
            "7bcb8723eae5821ef9f537f0eb773c91f783a0f6330a54ef99255e7327905a72",
        ),
        # per-trial binomials for random labels above _RANDOM_ALIAS_MAX_N;
        # the digest predates the histogram and alias draws
        "qubit-sim-large-n": (
            {"n_list": [3000], "trials": 300, "seed": 13},
            64,
            "3ab896cd0ae2ec1f1e1a6419c711dd60073df1fe1425ad9d225ca15b883e8587",
        ),
        "qubit-sim-large-n-fixed": (
            {"n_list": [10000], "trials": 300, "seed": 13,
             "label_mode": "fixed", "known_priors": True},
            64,
            "9261f78cb190d626847fbe128cb305b3cf90f54c27bcf75f8d873c38ce0d926e",
        ),
        # fixed labels with the prior estimated as n0/n, one float for every
        # trial of a chunk; at these n it is not pi0 (24/61, 4000/10001)
        "qubit-sim-fixed-estimated-priors": (
            {"n_list": [61, 10001], "trials": 300, "seed": 13, "label_mode": "fixed"},
            64,
            "87cbdc310b9706ced73dffdd2bafc6b1f15f5f5c78f89960b7721bfa169530c5",
        ),
        # two standard normals per trial, drawn from the exact residual law
        # (re-pinned when that law came from one measurement rule: one cell
        # moved by 3.7e-16 relative; and when the six u, v echo columns
        # went, every other cell unchanged)
        "gaussian-sim": (
            {"strategy": ["optimal_joint", "heterodyne_plugin",
                          "optimal_joint_unknown_priors"],
             "trials": 5000, "seed": 7},
            1024,
            "cc46a8265cb54f4f5fe1cbff6049c2a8c9d1a671e1380f2ddd93fc41ece287d5",
        ),
    }

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_pinned_stream(self, tmp_path, monkeypatch, case):
        """Small multi-chunk runs reproduce their recorded output bytes."""
        extra, chunk, digest = self.PINNED[case]
        monkeypatch.setattr(montecarlo, "CHUNK_SIZE", chunk)
        cfg_path = write_config(tmp_path, {"problem": self.PINNED_PROBLEM, **extra})
        out = tmp_path / "pinned.csv"
        command = "gaussian-sim" if case.startswith("gaussian") else "qubit-sim"
        assert main([command, "--config", cfg_path, "--out", str(out)]) == 0
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
        # re-pinned for one cell: prior_correction at angle pi went from
        # 4.1659993962829358e-34 to 4.1659993962829367e-34, from 2.1 to 1.1 ulp
        # below the 50-digit value 4.16599939628293761e-34
        "sweep-csv": (
            "sweep", {"sweep": SWEEP_GRID}, "csv",
            "d1472c25f0c7b9bf9c233237f08933e21e40f623887f1a8aa72648615f4bf050",
        ),
        "sweep-json": (
            "sweep", {"sweep": SWEEP_GRID}, "json",
            "ffefa529d157620adaf5ab1c2abbd891461b7e3b7510eae06deba138628d46f7",
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
