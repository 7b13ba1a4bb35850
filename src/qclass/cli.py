"""Command-line driver: closed-form reports and Monte Carlo runs.

Commands
--------
report        closed-form risk constants for one configuration
gaussian-sim  Monte Carlo risks in the limit Gaussian training-set model
qubit-sim     finite-n qubit-level plug-in experiments
sweep         closed-form report over a parameter grid

The configuration is a JSON file (see README); fields a command does not
read are ignored.  ``seed`` and ``trials`` have no defaults and must be
explicit wherever sampling happens; ``qubit-sim`` runs ``n_list[i]`` at
seed ``(seed, i)``.  Output is CSV (default) or JSON rows
with a fixed schema: ``param.*`` columns echo the configuration (sorted
by name), then ``metric``, ``value``, ``stderr``, ``n``.  Floats are
printed with 17 significant digits, so a rerun with the same config and
seed is byte-identical regardless of ``--workers``.  A CSV row is its cells
joined by commas: each is a number, a bool, empty or a fixed name (metric,
key or enum value), and none holds a comma, quote or line break.  No quantity is
computed here; every value comes from a library call.  Exit codes: 0
ok, 2 invalid configuration or a simulator run without numpy
(``report`` and ``sweep`` need only the standard library), 3 runtime
numerical failure (such as a risk constant that overflows).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from collections import namedtuple

from .asymptotics import (
    optimal_minimax_risk,
    plugin_risk,
    prior_correction,
    risk_report,
)
from .helstrom import (
    ClassificationProblem,
    TrivialityVerdict,
    helstrom_risk,
    triviality_check,
)
from .local_geometry import build_frame
from .qubit_core import BlochVector, InvalidStateError


class ConfigError(ValueError):
    """Configuration failed validation; the message names the precondition."""


class ResultRow(namedtuple("ResultRow", "params metric value stderr n",
                            defaults=(None, None))):
    """params (the ``param.*`` dict shared by one config's rows), metric
    (str), value (None, bool, int, float or str), stderr and n (or None)."""

    __slots__ = ()


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    # a row holds None, bool, int, float (numpy.float64 is one) or str
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _finite_number(x) -> bool:
    """A JSON number, not a bool, that converts to a finite float."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an integer too large for a float
        return False


def _require(cfg: dict, key: str, kind, what: str):
    if key not in cfg:
        raise ConfigError(f"missing required config field '{key}' ({what})")
    value = cfg[key]
    if kind is float:
        ok = _finite_number(value)
    else:
        ok = isinstance(value, kind) and not isinstance(value, bool)
    if not ok:
        raise ConfigError(f"config field '{key}' must be {what}, got {value!r}")
    return float(value) if kind is float else value


def _parse_vec3(cfg: dict, key: str) -> tuple[float, float, float]:
    raw = _require(cfg, key, list, "a list of 3 finite numbers")
    if len(raw) != 3 or not all(_finite_number(x) for x in raw):
        raise ConfigError(f"config field '{key}' must be a list of 3 finite numbers, got {raw!r}")
    return tuple(map(float, raw))


def _state(name: str, v: tuple) -> BlochVector:
    try:
        return BlochVector(*v)
    except InvalidStateError as exc:
        raise ConfigError(f"{name} must lie in the Bloch ball: {exc}") from None


def _parse_problem(cfg: dict) -> ClassificationProblem:
    problem = _require(cfg, "problem", dict, "an object with r0, s0, pi0")
    r0 = _parse_vec3(problem, "r0")
    s0 = _parse_vec3(problem, "s0")
    pi0 = _require(problem, "pi0", float, "a finite number")
    return ClassificationProblem(_state("r0", r0), _state("s0", s0), pi0)


def _problem_params(problem: ClassificationProblem) -> dict:
    (rx, ry, rz), (sx, sy, sz), pi0 = problem
    return {
        "param.r0_x": rx, "param.r0_y": ry, "param.r0_z": rz,
        "param.s0_x": sx, "param.s0_y": sy, "param.s0_z": sz,
        "param.pi0": pi0,
    }


def _report_rows(problem: ClassificationProblem, params: dict) -> list[ResultRow]:
    verdict = triviality_check(*problem)
    rows = [
        ResultRow(params, "verdict", verdict.value),
        ResultRow(params, "helstrom_risk", helstrom_risk(problem)),
    ]
    if verdict is TrivialityVerdict.NONTRIVIAL:
        rep = risk_report(build_frame(*problem), problem.pi0)
        # the RiskReport fields, in their declared order
        rows += [ResultRow(params, name, value) for name, value in rep._asdict().items()]
    return rows


def cmd_report(cfg: dict, args) -> list[ResultRow]:
    problem = _parse_problem(cfg)
    return _report_rows(problem, _problem_params(problem))


def _parse_strategies(cfg: dict) -> list:
    from .gaussian_model import StrategyKind
    raw = _require(cfg, "strategy", (str, list), "string or list of strings")
    names = [raw] if isinstance(raw, str) else raw
    if not names:
        raise ConfigError(f"'strategy' must be a string or nonempty list, got {raw!r}")
    out = []
    for name in names:
        try:
            out.append(StrategyKind(name))
        except ValueError:
            valid = ", ".join(k.value for k in StrategyKind)
            raise ConfigError(f"unknown strategy {name!r}; valid: {valid}") from None
    return out


def _parse_sampling(cfg: dict, args) -> tuple[int, int]:
    """Seed and workers, which only the simulators read; flags beat config."""
    seed = args.seed if args.seed is not None else _require(cfg, "seed", int, "an integer")
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
    workers = cfg.get("workers", 1) if args.workers is None else args.workers
    if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
        raise ConfigError(f"workers must be a positive integer, got {workers!r}")
    return seed, workers


def cmd_gaussian_sim(cfg: dict, args) -> list[ResultRow]:
    from .gaussian_model import StrategyKind, monte_carlo_risks
    problem = _parse_problem(cfg)
    pi0 = problem.pi0
    frame = build_frame(*problem)  # rejects zero-length and trivial problems
    strategies = _parse_strategies(cfg)
    trials = _require(cfg, "trials", int, "an integer >= 1")
    seed, workers = _parse_sampling(cfg, args)

    closed_form = {
        StrategyKind.OPTIMAL_JOINT: optimal_minimax_risk(frame, pi0),
        StrategyKind.HETERODYNE_PLUGIN: plugin_risk(frame, pi0),
        StrategyKind.OPTIMAL_JOINT_UNKNOWN_PRIORS:
            optimal_minimax_risk(frame, pi0) + prior_correction(frame, pi0),
    }
    base = _problem_params(problem)
    base.update({"param.trials": trials, "param.seed": seed})
    results = monte_carlo_risks(strategies, frame, pi0, trials, seed, workers=workers)
    rows = []
    for strategy, res in zip(strategies, results):
        params = dict(base)
        params["param.strategy"] = strategy.value
        params["param.closed_form"] = closed_form[strategy]
        rows.append(ResultRow(params, "rescaled_risk_mc",
                              res.mean_rescaled_excess, stderr=res.stderr))
    return rows


def cmd_qubit_sim(cfg: dict, args) -> list[ResultRow]:
    from .qubit_experiment import LabelMode, TrainingSetSpec, run_experiment
    problem = _parse_problem(cfg)
    what = "a nonempty, strictly ascending list of integers"
    n_list = _require(cfg, "n_list", list, what)
    if (not n_list or not all(isinstance(n, int) and not isinstance(n, bool) for n in n_list)
            or any(b <= a for a, b in zip(n_list, n_list[1:]))):
        raise ConfigError(f"n_list must be {what}, got {n_list!r}")
    trials = _require(cfg, "trials", int, "an integer >= 1")
    seed, workers = _parse_sampling(cfg, args)
    mode_name = cfg.get("label_mode", "random")
    try:
        mode = LabelMode(mode_name)
    except ValueError:
        raise ConfigError(f"label_mode must be 'random' or 'fixed', got {mode_name!r}") from None
    known_priors = cfg.get("known_priors", False)
    if not isinstance(known_priors, bool):
        raise ConfigError(f"known_priors must be a boolean, got {known_priors!r}")

    # every n is checked before the first one runs
    specs = [TrainingSetSpec(n, problem, mode, known_priors) for n in n_list]
    params = _problem_params(problem)
    params.update({
        "param.trials": trials, "param.seed": seed,
        "param.label_mode": mode.value, "param.known_priors": known_priors,
    })
    rows = []
    for i, spec in enumerate(specs):
        res = run_experiment(spec, trials, (seed, i), workers)
        rows.append(ResultRow(params, "rescaled_excess_mc",
                              res.mean_rescaled_excess, stderr=res.stderr, n=res.n))
        rows.append(ResultRow(params, "fraction_exact", res.fraction_exact, n=res.n))
    return rows


def cmd_sweep(cfg: dict, args) -> list[ResultRow]:
    sweep = _require(cfg, "sweep", dict, "an object with grid lists")
    grids = {}
    for key in ("r0_len", "s0_len", "angle", "pi0"):
        raw = sweep.get(key)
        if not isinstance(raw, list) or not raw or not all(_finite_number(x) for x in raw):
            raise ConfigError(f"sweep grid '{key}' must be a nonempty list of finite numbers")
        grids[key] = [float(x) for x in raw]
    if not all(0.0 < x <= 1.0 for x in grids["r0_len"] + grids["s0_len"]):
        raise ConfigError("sweep Bloch lengths must lie in (0, 1]")
    # every grid point's problem is built before the first row is computed
    points = []
    for r_len, s_len, angle, pi0 in itertools.product(
        grids["r0_len"], grids["s0_len"], grids["angle"], grids["pi0"]
    ):
        problem = ClassificationProblem(
            (0.0, 0.0, r_len), (s_len * math.sin(angle), 0.0, s_len * math.cos(angle)), pi0)
        params = _problem_params(problem)
        params.update({
            "param.r0_len": r_len, "param.s0_len": s_len, "param.angle": angle,
        })
        points.append((problem, params))
    rows = []
    for problem, params in points:
        rows.extend(_report_rows(problem, params))
    return rows


def render_csv(rows: list[ResultRow]) -> str:
    param_keys = sorted({k for row in rows for k in row.params})
    lines = [",".join(param_keys + ["metric", "value", "stderr", "n"])]
    params = None
    for row in rows:
        if row.params is not params:  # rows of one config share its dict
            params = row.params
            prefix = "".join([_fmt(params.get(k)) + "," for k in param_keys])
        lines.append(f"{prefix}{row.metric},{_fmt(row.value)},{_fmt(row.stderr)},{_fmt(row.n)}")
    return "\n".join(lines) + "\n"


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


def _parse_run_options(cfg: dict, args) -> tuple[str, str | None]:
    """Format and output path; flags beat config."""
    fmt = args.format or cfg.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format must be 'csv' or 'json', got {fmt!r}")
    if "out" in cfg and not (isinstance(cfg["out"], str) and cfg["out"]):
        raise ConfigError(f"config field 'out' must be a nonempty path, got {cfg['out']!r}")
    return fmt, args.out or cfg.get("out")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built on the first call and reused: parse_args leaves the parser as it
    # was and returns a fresh Namespace, so no state passes between calls.
    parser = argparse.ArgumentParser(
        prog="qclass",
        description="Optimal classification of two unknown qubit states: "
                    "closed-form risk constants and Monte Carlo experiments.",
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default=None,
                        help="output format (default: config 'format' or csv)")
    parser.add_argument("--seed", type=int, default=None,
                        help="overrides the config seed (simulators only)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker threads for trial chunks (result-invariant)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON, UTF-8 or int literal
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    if not isinstance(cfg, dict):
        print("error: config must be a JSON object", file=sys.stderr)
        return 2

    try:
        fmt, out_path = _parse_run_options(cfg, args)
        rows = _COMMANDS[args.command](cfg, args)
    except ValueError as exc:
        # ConfigError, or a module precondition violated by config values
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except ModuleNotFoundError as exc:
        if exc.name != "numpy":
            raise
        print(f"error: {args.command} needs numpy", file=sys.stderr)
        return 2

    text = render_csv(rows) if fmt == "csv" else render_json(rows)
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
