"""Command-line driver: closed-form reports and Monte Carlo runs.

Subcommands
-----------
report        closed-form risk constants for one configuration
gaussian-sim  Monte Carlo risks in the limit Gaussian training-set model
qubit-sim     finite-n qubit-level plug-in experiments
sweep         closed-form report over a parameter grid

The configuration is a JSON file (see README).  ``seed`` and ``trials``
have no defaults and must be explicit wherever sampling happens.  Output
is CSV (default) or JSON rows with a fixed schema: ``param.*`` columns
echo the configuration (sorted by name), then ``metric``, ``value``,
``stderr``, ``n``.  Floats are printed with 17 significant digits, so a
rerun with the same config and seed is byte-identical regardless of
``--workers``.  No quantity is computed here; every value comes from a
library call.  Exit codes: 0 ok, 2 invalid configuration, 3 runtime
numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .asymptotics import (
    optimal_minimax_risk,
    plugin_risk,
    prior_correction,
    risk_report,
)
from .gaussian_model import StrategyKind, monte_carlo_risk
from .helstrom import (
    ClassificationProblem,
    TrivialityVerdict,
    helstrom_risk,
    triviality_check,
)
from .local_geometry import build_frame
from .qubit_experiment import LabelMode, rescaled_risk_curve


class ConfigError(ValueError):
    """Configuration failed validation; the message names the precondition."""


@dataclass(frozen=True)
class ResultRow:
    params: dict
    metric: str
    value: object
    stderr: float | None = None
    n: int | None = None


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def _require(cfg: dict, key: str, kind, what: str):
    if key not in cfg:
        raise ConfigError(f"missing required config field '{key}' ({what})")
    value = cfg[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool) or (
            kind is float and not math.isfinite(value)):
        raise ConfigError(f"config field '{key}' must be {what}, got {value!r}")
    return value


def _parse_vec3(cfg: dict, key: str) -> np.ndarray:
    raw = _require(cfg, key, list, "a list of 3 finite numbers")
    if len(raw) != 3 or not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                                and math.isfinite(x) for x in raw):
        raise ConfigError(f"config field '{key}' must be a list of 3 finite numbers, got {raw!r}")
    return np.array(raw, dtype=float)


def _parse_problem(cfg: dict) -> tuple[np.ndarray, np.ndarray, float]:
    problem = _require(cfg, "problem", dict, "an object with r0, s0, pi0")
    r0 = _parse_vec3(problem, "r0")
    s0 = _parse_vec3(problem, "s0")
    pi0 = _require(problem, "pi0", float, "a finite number")
    if not 0.0 < pi0 < 1.0:
        raise ConfigError(f"pi0 must lie strictly in (0, 1), got {pi0}")
    for name, vec in (("r0", r0), ("s0", s0)):
        if float(np.linalg.norm(vec)) > 1.0 + 1e-12:
            raise ConfigError(f"{name} must lie in the Bloch ball, norm is "
                              f"{float(np.linalg.norm(vec))}")
    return r0, s0, pi0


def _problem_params(r0, s0, pi0) -> dict:
    return {
        "param.r0_x": float(r0[0]), "param.r0_y": float(r0[1]), "param.r0_z": float(r0[2]),
        "param.s0_x": float(s0[0]), "param.s0_y": float(s0[1]), "param.s0_z": float(s0[2]),
        "param.pi0": float(pi0),
    }


def _report_rows(r0, s0, pi0, params: dict) -> list[ResultRow]:
    verdict = triviality_check(r0, s0, pi0)
    problem = ClassificationProblem.from_bloch(r0, s0, pi0)
    rows = [
        ResultRow(params, "verdict", verdict.value),
        ResultRow(params, "helstrom_risk", helstrom_risk(problem)),
    ]
    if verdict is TrivialityVerdict.NONTRIVIAL:
        frame = build_frame(r0, s0, pi0)
        rep = risk_report(frame, pi0)
        rows += [
            ResultRow(params, "classical_term", rep.classical_term),
            ResultRow(params, "quantum_term", rep.quantum_term),
            ResultRow(params, "commutator_c", rep.commutator_c),
            ResultRow(params, "optimal_risk", rep.optimal_risk),
            ResultRow(params, "plugin_risk", rep.plugin_risk),
            ResultRow(params, "gap", rep.gap),
            ResultRow(params, "prior_correction", rep.prior_correction),
        ]
    return rows


def cmd_report(cfg: dict, args) -> list[ResultRow]:
    r0, s0, pi0 = _parse_problem(cfg)
    return _report_rows(r0, s0, pi0, _problem_params(r0, s0, pi0))


def _parse_strategies(cfg: dict) -> list[StrategyKind]:
    raw = cfg.get("strategy")
    if raw is None:
        raise ConfigError("missing required config field 'strategy' "
                          "(string or list of strings)")
    names = [raw] if isinstance(raw, str) else raw
    if not isinstance(names, list) or not names:
        raise ConfigError(f"'strategy' must be a string or nonempty list, got {raw!r}")
    out = []
    for name in names:
        try:
            out.append(StrategyKind(name))
        except ValueError:
            valid = ", ".join(k.value for k in StrategyKind)
            raise ConfigError(f"unknown strategy {name!r}; valid: {valid}") from None
    return out


def _parse_seed(cfg: dict, args) -> int:
    if args.seed is not None:
        return args.seed
    return _require(cfg, "seed", int, "an integer")


def cmd_gaussian_sim(cfg: dict, args) -> list[ResultRow]:
    r0, s0, pi0 = _parse_problem(cfg)
    if float(np.linalg.norm(r0)) == 0.0 or float(np.linalg.norm(s0)) == 0.0:
        raise ConfigError("gaussian-sim requires nonzero r0 and s0 "
                          "(thermal mode variance diverges)")
    verdict = triviality_check(r0, s0, pi0)
    if verdict is not TrivialityVerdict.NONTRIVIAL:
        raise ConfigError(f"gaussian-sim requires a nontrivial configuration, "
                          f"got {verdict.value}")
    strategies = _parse_strategies(cfg)
    trials = _require(cfg, "trials", int, "an integer >= 1")
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    seed = _parse_seed(cfg, args)
    u = _parse_vec3(cfg, "u") if "u" in cfg else np.zeros(3)
    v = _parse_vec3(cfg, "v") if "v" in cfg else np.zeros(3)
    delta = _require(cfg, "delta", float, "a finite number") if "delta" in cfg else 0.0

    frame = build_frame(r0, s0, pi0)
    closed_form = {
        StrategyKind.OPTIMAL_JOINT: optimal_minimax_risk(frame, pi0),
        StrategyKind.HETERODYNE_PLUGIN: plugin_risk(frame, pi0),
        StrategyKind.OPTIMAL_JOINT_UNKNOWN_PRIORS:
            optimal_minimax_risk(frame, pi0) + prior_correction(frame, pi0),
    }
    base = _problem_params(r0, s0, pi0)
    base.update({
        "param.trials": trials, "param.seed": seed,
        "param.u_x": float(u[0]), "param.u_y": float(u[1]), "param.u_z": float(u[2]),
        "param.v_x": float(v[0]), "param.v_y": float(v[1]), "param.v_z": float(v[2]),
    })
    rows = []
    for strategy in strategies:
        res = monte_carlo_risk(
            strategy, frame, pi0, u, v, trials, seed,
            delta=delta, workers=args.workers,
        )
        params = dict(base)
        params["param.strategy"] = strategy.value
        params["param.closed_form"] = closed_form[strategy]
        rows.append(ResultRow(params, "rescaled_risk_mc",
                              res.mean_rescaled_excess, stderr=res.stderr))
    return rows


def cmd_qubit_sim(cfg: dict, args) -> list[ResultRow]:
    r0, s0, pi0 = _parse_problem(cfg)
    n_list = _require(cfg, "n_list", list, "a nonempty ascending list of integers")
    if not n_list or not all(isinstance(n, int) and not isinstance(n, bool) and n >= 1
                             for n in n_list):
        raise ConfigError(f"n_list must contain positive integers, got {n_list!r}")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ConfigError(f"n_list must be strictly ascending, got {n_list!r}")
    trials = _require(cfg, "trials", int, "an integer >= 1")
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    seed = _parse_seed(cfg, args)
    mode_name = cfg.get("label_mode", "random")
    try:
        mode = LabelMode(mode_name)
    except ValueError:
        raise ConfigError(f"label_mode must be 'random' or 'fixed', got {mode_name!r}") from None
    known_priors = cfg.get("known_priors", False)
    if not isinstance(known_priors, bool):
        raise ConfigError(f"known_priors must be a boolean, got {known_priors!r}")

    problem = ClassificationProblem.from_bloch(r0, s0, pi0)
    results = rescaled_risk_curve(
        problem, n_list, trials, seed,
        label_mode=mode, known_priors=known_priors, workers=args.workers,
    )
    params = _problem_params(r0, s0, pi0)
    params.update({
        "param.trials": trials, "param.seed": seed,
        "param.label_mode": mode.value, "param.known_priors": known_priors,
    })
    rows = []
    for res in results:
        rows.append(ResultRow(params, "rescaled_excess_mc",
                              res.mean_rescaled_excess, stderr=res.stderr, n=res.n))
        rows.append(ResultRow(params, "fraction_exact", res.fraction_exact, n=res.n))
    return rows


def cmd_sweep(cfg: dict, args) -> list[ResultRow]:
    sweep = _require(cfg, "sweep", dict, "an object with grid lists")
    grids = {}
    for key in ("r0_len", "s0_len", "angle", "pi0"):
        raw = sweep.get(key)
        if not isinstance(raw, list) or not raw or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in raw
        ):
            raise ConfigError(f"sweep grid '{key}' must be a nonempty list of numbers")
        grids[key] = [float(x) for x in raw]
    rows = []
    for r_len, s_len, angle, pi0 in itertools.product(
        grids["r0_len"], grids["s0_len"], grids["angle"], grids["pi0"]
    ):
        if not 0.0 < pi0 < 1.0:
            raise ConfigError(f"sweep pi0 values must lie strictly in (0, 1), got {pi0}")
        if not 0.0 < r_len <= 1.0 or not 0.0 < s_len <= 1.0:
            raise ConfigError("sweep Bloch lengths must lie in (0, 1]")
        r0 = np.array([0.0, 0.0, r_len])
        s0 = s_len * np.array([math.sin(angle), 0.0, math.cos(angle)])
        params = _problem_params(r0, s0, pi0)
        params.update({
            "param.r0_len": r_len, "param.s0_len": s_len, "param.angle": angle,
        })
        rows.extend(_report_rows(r0, s0, pi0, params))
    return rows


def render_csv(rows: list[ResultRow]) -> str:
    param_keys = sorted({k for row in rows for k in row.params})
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(param_keys + ["metric", "value", "stderr", "n"])
    for row in rows:
        cells = [_fmt(row.params.get(k)) for k in param_keys]
        cells += [row.metric, _fmt(row.value), _fmt(row.stderr), _fmt(row.n)]
        writer.writerow(cells)
    return buf.getvalue()


def render_json(rows: list[ResultRow]) -> str:
    param_keys = sorted({k for row in rows for k in row.params})
    out = []
    for row in rows:
        obj = {k: row.params.get(k) for k in param_keys}
        obj.update({"metric": row.metric, "value": row.value,
                    "stderr": row.stderr, "n": row.n})
        out.append(obj)
    return json.dumps(out, indent=2) + "\n"


_COMMANDS = {
    "report": cmd_report,
    "gaussian-sim": cmd_gaussian_sim,
    "qubit-sim": cmd_qubit_sim,
    "sweep": cmd_sweep,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qclass",
        description="Optimal classification of two unknown qubit states: "
                    "closed-form risk constants and Monte Carlo experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default=None,
                       help="output format (default: config 'format' or csv)")
        p.add_argument("--seed", type=int, default=None,
                       help="overrides the config seed")
        p.add_argument("--workers", type=int, default=None,
                       help="worker threads for trial chunks (result-invariant)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    if not isinstance(cfg, dict):
        print("error: config must be a JSON object", file=sys.stderr)
        return 2

    if args.workers is None:
        args.workers = cfg.get("workers", 1)
    if (not isinstance(args.workers, int) or isinstance(args.workers, bool)
            or args.workers < 1):
        print(f"error: workers must be a positive integer, got {args.workers!r}",
              file=sys.stderr)
        return 2
    fmt = args.format or cfg.get("format", "csv")
    if fmt not in ("csv", "json"):
        print(f"error: format must be 'csv' or 'json', got {fmt!r}", file=sys.stderr)
        return 2
    out_path = args.out or cfg.get("out")

    try:
        rows = _COMMANDS[args.command](cfg, args)
    except ValueError as exc:
        # ConfigError, or a module precondition violated by config values
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3

    text = render_csv(rows) if fmt == "csv" else render_json(rows)
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
