"""Benchmark child process: one workload run through ``qclass.cli.main``.

Started by run.py in a fresh interpreter with ``src`` on PYTHONPATH.  The
child pins itself to one CPU, so the program and the speed sampler
(bench/speed.py) always share a core.  Protocol on stdout: the line
``ready`` as soon as ``qclass.cli`` is imported, then ``kernel <seconds>``
(the median reference-kernel time while it imported), then one JSON line with
the raw measurements.  The program's own output is captured in memory and
checked after the timed region:

* every call's output must repeat byte for byte on later passes, and a
  small gaussian-sim and multi-chunk qubit-sim must give the same bytes
  with one and two workers (chunk size lowered for the check only);
* per-workload correctness gates (see ``gate``).  A gate on a statistical
  quantity that fails counts the call as failed; a gate on an exact
  quantity that fails marks the run incorrect.

After the timed region every run also makes the near-parallel `report`
calls of ``workloads.near_parallel`` once, untimed, and records which of
them raise: that is the known local-frame defect, kept out of the timed
stream so that the workload's own calls never fail.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path


def _parse_args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--ready-only", action="store_true")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--workdir")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    all_cpus = _pin_one_cpu()
    import speed

    # the machine speed while qclass.cli imports scales the set-up time
    with speed.Sampler() as sampler:
        t0 = time.perf_counter()
        import qclass.cli
        import_s = time.perf_counter() - t0
        print("ready", flush=True)
    kernel_s = statistics.median(sampler.kernel_s) if sampler.kernel_s else speed.kernel_median()
    print(f"kernel {kernel_s!r}", flush=True)
    if args.ready_only:
        return 0
    args.all_cpus = all_cpus
    result = run_workload(args, qclass.cli, import_s)
    print(json.dumps(result), flush=True)
    return 0


def _pin_one_cpu():
    """Pin this process to its highest allowed CPU; returns the old CPU set."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    return cpus


# ---------------------------------------------------------------- calls

def _argv(call, path: Path, workers: int | None = None) -> list[str]:
    return [call.command, "--config", str(path), "--workers", str(workers or call.workers)]


def _write_configs(calls, directory: Path, prefix: str) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, call in enumerate(calls):
        path = directory / f"{prefix}{i:04d}.json"
        path.write_text(json.dumps(call.config))
        paths.append(path)
    return paths


def invoke(cli, argv):
    """Run cli.main like the console script; returns (rc, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an uncaught exception is a failed call
            where = traceback.extract_tb(exc.__traceback__)[-1]
            error = f"{type(exc).__name__} at {Path(where.filename).name}:{where.lineno}"
            rc = 1
    if rc != 0 and error is None:
        lines = err.getvalue().strip().splitlines()
        error = f"exit {rc}: {lines[-1] if lines else ''}"
    return rc, out.getvalue(), error


# ---------------------------------------------------------------- gates

def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _finite(x: str) -> bool:
    try:
        return math.isfinite(float(x))
    except ValueError:
        return False


def _tomography_oracle(root: Path):
    """Delta-method constant from tests/helpers.py (or the library, if moved)."""
    sys.path.insert(0, str(root / "tests"))
    try:
        from helpers import tomography_constant
    except ImportError:
        from qclass import tomography_constant
    finally:
        sys.path.pop(0)
    return tomography_constant


def _expected_report(problem: dict) -> dict:
    from qclass import (ClassificationProblem, TrivialityVerdict, build_frame,
                        helstrom_risk, risk_report, triviality_check)

    r0, s0, pi0 = problem["r0"], problem["s0"], problem["pi0"]
    verdict = triviality_check(r0, s0, pi0)
    rows = {"verdict": verdict.value,
            "helstrom_risk": helstrom_risk(ClassificationProblem.from_bloch(r0, s0, pi0))}
    if verdict is TrivialityVerdict.NONTRIVIAL:
        rep = risk_report(build_frame(r0, s0, pi0), pi0)
        for name in ("classical_term", "quantum_term", "commutator_c", "optimal_risk",
                     "plugin_risk", "gap", "prior_correction"):
            rows[name] = getattr(rep, name)
    return rows


def gate(call, text: str, oracle) -> tuple[str, str]:
    """('ok' | 'failed' | 'wrong', detail) for one successful call's output."""
    try:
        rows = _rows(text)
    except csv.Error as exc:
        return "wrong", f"unparsable CSV: {exc}"
    cfg = call.config
    if call.command == "report":
        try:
            expected = _expected_report(cfg["problem"])
        except Exception as exc:  # recomputation failed where the CLI succeeded
            return "wrong", f"library recomputation raised {type(exc).__name__}"
        got = {row["metric"]: row["value"] for row in rows}
        for metric, value in expected.items():
            if metric not in got:
                return "wrong", f"report lacks row {metric}"
            same = got[metric] == value if isinstance(value, str) else (
                _finite(got[metric]) and float(got[metric]) == value)
            if not same:
                return "wrong", f"{metric}: CLI {got[metric]} != library {value!r}"
        return "ok", ""
    if call.command == "gaussian-sim":
        if len(rows) != len(cfg["strategy"]):
            return "wrong", f"{len(rows)} rows for {len(cfg['strategy'])} strategies"
        for row in rows:
            if not all(_finite(row[k]) for k in ("value", "stderr", "param.closed_form")):
                return "wrong", "non-finite gaussian-sim value"
            z = (float(row["value"]) - float(row["param.closed_form"])) / float(row["stderr"])
            if abs(z) > 4.0:
                return "failed", f"{row['param.strategy']} z-score {z:.2f} beyond 4"
        return "ok", ""
    # qubit-sim
    if len(rows) != 2 * len(cfg["n_list"]):
        return "wrong", f"{len(rows)} rows for {len(cfg['n_list'])} sizes"
    for row in rows:
        if not _finite(row["value"]):
            return "wrong", f"non-finite {row['metric']}"
        if row["metric"] == "fraction_exact" and not 0.0 <= float(row["value"]) <= 1.0:
            return "wrong", "fraction_exact outside [0, 1]"
    if cfg["label_mode"] == "fixed" and cfg["known_priors"]:
        n_max = str(max(cfg["n_list"]))
        largest = [r for r in rows if r["metric"] == "rescaled_excess_mc" and r["n"] == n_max]
        if len(largest) != 1:
            return "wrong", f"{len(largest)} rescaled_excess_mc rows at n={n_max}"
        row, p = largest[0], cfg["problem"]
        c = oracle(p["r0"], p["s0"], p["pi0"])
        rel = abs(float(row["value"]) - c) / c
        if rel > 0.10:
            return "failed", f"n={n_max} estimate {float(row['value']):.4f} is {rel:.1%} off oracle {c:.4f}"
    return "ok", ""


# ---------------------------------------------------------------- runs

def timed_passes(cli, calls, paths, seconds: float) -> dict:
    """Repeat whole passes over `calls` for about `seconds`.

    Passes stop when one more would end farther from `seconds` than
    stopping now, so a workload of long calls always makes the same number.

    The log holds each call's wall seconds and the same scaled to the
    reference machine speed (bench/speed.py).
    """
    import speed

    first = [None] * len(calls)
    spans = []  # (call index, start, end, rc, error)
    mismatches = 0
    passes = 0
    with speed.Sampler() as sampler:
        start = time.perf_counter()
        elapsed = 0.0
        while passes == 0 or elapsed + 0.5 * elapsed / passes < seconds:
            for i, (call, path) in enumerate(zip(calls, paths)):
                argv = _argv(call, path)
                t0 = time.perf_counter()
                rc, out, error = invoke(cli, argv)
                t1 = time.perf_counter()
                spans.append((i, t0, t1, rc, error))
                if first[i] is None:
                    first[i] = (rc, out, error)
                elif first[i] != (rc, out, error):
                    mismatches += 1
            passes += 1
            elapsed = time.perf_counter() - start
    log = [(i, t1 - t0, (t1 - t0) * sampler.factor(t0, t1), rc, error)
           for i, t0, t1, rc, error in spans]
    return {"first": first, "log": log, "mismatches": mismatches, "passes": passes,
            "speed_samples": len(sampler.kernel_s),
            "kernel_s_median": statistics.median(sampler.kernel_s)}


def summarize_run(calls, timed, oracle) -> dict:
    verdicts = []
    for call, (rc, out, error) in zip(calls, timed["first"]):
        verdicts.append(("failed", error) if rc != 0 else gate(call, out, oracle))
    durations, wall, units, failures, wrong = [], [], [], {}, []
    for i, dt_wall, dt, rc, error in timed["log"]:
        status, detail = ("failed", error) if rc != 0 else verdicts[i]
        if status == "ok":
            durations.append(dt)
            wall.append(dt_wall)
            units.append(calls[i].units())
        else:
            key = f"{calls[i].tag}: {detail}"
            failures[key] = failures.get(key, 0) + 1
            if status == "wrong":
                wrong.append(detail)
    return {
        "attempted": len(timed["log"]),
        "failed": sum(failures.values()),
        "failures": failures,
        "wrong": sorted(set(wrong)),
        "durations": durations,
        "wall_durations": wall,
        "units": units,
        "speed_samples": timed["speed_samples"],
        "kernel_s_median": timed["kernel_s_median"],
        "passes": timed["passes"],
        "calls_per_pass": len(calls),
        "output_mismatches": timed["mismatches"],
    }


def determinism_check(cli, seed: int, directory: Path) -> dict:
    """Same seed twice and one vs two workers give identical bytes."""
    import workloads
    from qclass import montecarlo

    calls = workloads.determinism_calls(seed)
    paths = _write_configs(calls, directory, "det")
    saved = getattr(montecarlo, "CHUNK_SIZE", None)
    chunk = {"gaussian-sim": 1024, "qubit-sim": 64}
    problems = []
    try:
        for call, path in zip(calls, paths):
            if saved is not None:
                montecarlo.CHUNK_SIZE = chunk[call.command]
            blobs = [invoke(cli, _argv(call, path, w)) for w in (1, 1, 2)]
            if blobs[0][0] != 0:
                problems.append(f"{call.command}: {blobs[0][2]}")
            elif len(set(blobs)) != 1:
                problems.append(f"{call.command}: output differs between runs or workers")
    finally:
        if saved is not None:
            montecarlo.CHUNK_SIZE = saved
    return {"ok": not problems, "problems": problems}


def defect_probe(cli, seed: int, directory: Path, oracle) -> dict:
    """One untimed pass over the near-parallel reports; which of them fail."""
    import workloads

    calls = workloads.near_parallel(seed)
    paths = _write_configs(calls, directory, "near")
    failures, wrong = {}, []
    for call, path in zip(calls, paths):
        rc, out, error = invoke(cli, _argv(call, path))
        if rc != 0:
            key = f"{call.tag}: {error}"
            failures[key] = failures.get(key, 0) + 1
            continue
        status, detail = gate(call, out, oracle)
        if status != "ok":
            wrong.append(f"{call.tag}: {detail}")
    return {"calls": len(calls), "failed": sum(failures.values()), "failures": failures,
            "wrong": sorted(set(wrong))}


def workers2_speedup(cli, call, path: Path) -> float:
    """Median time with one worker over median time with two, same call."""
    times = {1: [], 2: []}
    start = time.perf_counter()
    while not times[1] or time.perf_counter() - start < 4.0:
        for w in (1, 2):
            t0 = time.perf_counter()
            invoke(cli, _argv(call, path, w))
            times[w].append(time.perf_counter() - t0)
    return statistics.median(times[1]) / statistics.median(times[2])


def chunk_overhead_us(seed: int) -> float:
    """Cost per chunk of run_chunked with a chunk function that does nothing."""
    import numpy as np
    from qclass import montecarlo

    chunk = getattr(montecarlo, "CHUNK_SIZE", 65_536)
    per_chunk = []
    for rep in range(5):
        t0 = time.perf_counter()
        montecarlo.run_chunked(8 * chunk, (seed, rep), lambda rng, size: np.zeros(size))
        per_chunk.append((time.perf_counter() - t0) / 8 * 1e6)
    return statistics.median(per_chunk)


def traced_layers(cli, calls, paths, seconds):
    import tracer as tracing

    tr = tracing.Tracer()
    tracing.install(tr)
    try:
        timed = timed_passes(cli, calls, paths, seconds)
    finally:
        tr.uninstall()
    return timed, tracing.layer_metrics(tr)


def run_workload(args, cli, import_s: float) -> dict:
    import numpy as np
    import scipy
    import qclass
    import workloads
    from qclass import montecarlo

    root = Path(__file__).resolve().parent.parent
    workdir = Path(args.workdir)
    calls = workloads.WORKLOADS[args.workload](args.seed)
    paths = _write_configs(calls, workdir, "cfg")
    oracle = _tomography_oracle(root)

    layers = None
    if args.trace:
        timed, layers = traced_layers(cli, calls, paths, args.seconds)
    else:
        timed = timed_passes(cli, calls, paths, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    summary = summarize_run(calls, timed, oracle)

    if args.trace:
        sims = [(c, p) for c, p in zip(calls, paths) if c.command != "report"]
        missing = [k for k, v in layers.items() if v is None]
        probe_calls = workloads.probe(args.seed)
        probe_paths = _write_configs(probe_calls, workdir / "probe", "probe")
        if missing:
            # one pass of the probe calls
            _, probe_layers = traced_layers(cli, probe_calls, probe_paths, 0.0)
            for key in missing:
                layers[key] = probe_layers[key]
        if not sims:
            sims = [(c, p) for c, p in zip(probe_calls, probe_paths)
                    if c.command == "gaussian-sim"]
        layers["montecarlo.chunk_overhead_us"] = chunk_overhead_us(args.seed)
        if args.all_cpus is not None:
            # the pool's gain needs every CPU; no metric after this is a time
            os.sched_setaffinity(0, args.all_cpus)
        layers["montecarlo.workers2_speedup"] = workers2_speedup(cli, *sims[0])
        layers["cli.import_s"] = import_s
        if summary["durations"]:
            layers["trace.work_per_s"] = sum(summary["units"]) / sum(summary["durations"])
        summary["probe_filled"] = missing

    defect = defect_probe(cli, args.seed, workdir / "near_parallel", oracle)
    summary["wrong"] = sorted(set(summary["wrong"]) | set(defect["wrong"]))
    if args.trace:
        layers["local_geometry.near_parallel_ok_frac"] = 1.0 - defect["failed"] / defect["calls"]
    det = determinism_check(cli, args.seed, workdir / "determinism")
    summary.update({
        "defect_probe": defect,
        "peak_rss_mb": peak_rss_mb,
        "determinism": det,
        "chunk_size": getattr(montecarlo, "CHUNK_SIZE", None),
        "versions": {"qclass": getattr(qclass, "__version__", None),
                     "numpy": np.__version__, "scipy": scipy.__version__},
        "layers": layers,
    })
    return summary


if __name__ == "__main__":
    sys.exit(main())
