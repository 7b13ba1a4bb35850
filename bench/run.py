"""qclass benchmark: one workload, end-to-end or traced, printed as JSON.

Usage, from the root of a checkout:

    python3 bench/run.py --workload closed_form --seed 1 --seconds 10 --trace 0

Each run starts one fresh child process (bench/child.py) that imports
``qclass.cli`` from ``src`` and runs the workload's calls through
``qclass.cli.main`` for about ``--seconds``, repeating whole passes.
Before it, eight more children only import ``qclass.cli`` so that set-up
time is a median.  Times are reported at a reference machine speed
(bench/speed.py), because the speed of a shared host drifts while it runs;
the raw wall times are printed next to them.  With ``--trace 0`` the last
stdout line carries the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` the child wraps the public functions of every qclass module
(bench/tracer.py) and the line carries the per-layer metrics instead.  The lines before it print every metric by
name and unit, the failure breakdown, the determinism verdict and the
machine.  The full record is also written to ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 8
# the whole run, set-up probes included, must end within 180 s
DEADLINE_S = 170.0
WORKLOADS = ("qubit_small_n", "qubit_large_n", "gaussian_limit", "closed_form")
ALIASES = {  # what a metric measures: (on closed_form, on the simulation workloads)
    "work_per_s": ("configs_per_s", "trials_per_s"),
    "call_ms_p50": ("report_ms_p50", "command_ms_p50"),
    "call_ms_p90": ("report_ms_p90", "command_ms_p90"),
}


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(extra: list[str], deadline: float):
    """Start bench/child.py.

    Returns the seconds until it printed 'ready', the reference-kernel time
    it measured meanwhile, and the rest of its stdout.
    """
    cmd = [sys.executable, str(ROOT / "bench" / "child.py"), *extra]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        try:
            first = proc.stdout.readline()
            ready_s = time.perf_counter() - t0
            # read before communicate(), which skips what readline() buffered
            kernel_line = proc.stdout.readline()
            out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError("child did not finish before the deadline") from None
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"child failed (exit {proc.returncode}):\n{first}{err[-4000:]}")
    word, _, kernel_s = kernel_line.strip().partition(" ")
    if word != "kernel":
        raise BenchError(f"child printed {kernel_line!r} where the kernel time belongs")
    return ready_s, float(kernel_s), out


def _percentile(sorted_values: list[float], q: float) -> float:
    """Inclusive-method percentile (q in [0, 1]) of presorted values."""
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (pos - lo) * (sorted_values[hi] - sorted_values[lo])


def _machine(seed: int, child: dict) -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qclass").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": child["versions"]["numpy"],
        "scipy": child["versions"]["scipy"],
        "qclass": child["versions"]["qclass"],
        "chunk_size": child["chunk_size"],
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload_seed": seed,
    }


def end_to_end(child: dict, setup: list[tuple[float, float]],
               durations_key: str = "durations") -> dict:
    """Work and latency of the calls that succeeded and passed their gate.

    `setup` holds each child's (seconds to ready, kernel seconds) pair.
    By default every time is at the reference machine speed; with
    durations_key="wall_durations" the times are the raw wall times.
    """
    durations = sorted(child[durations_key])
    if not durations:
        raise BenchError("no call succeeded, so no timing exists")
    scaled = durations_key == "durations"
    return {
        "work_per_s": sum(child["units"]) / sum(durations),
        "call_ms_p50": 1e3 * _percentile(durations, 0.50),
        "call_ms_p90": 1e3 * _percentile(durations, 0.90),
        "setup_s": statistics.median(
            ready * (speed.REFERENCE_KERNEL_S / kernel if scaled else 1.0)
            for ready, kernel in setup),
        "peak_rss_mb": child["peak_rss_mb"],
    }


def _report(args, spec_metrics, values, child, machine, setup) -> None:
    print(f"# qclass benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    n = len(child["durations"])
    wall = {} if args.trace else end_to_end(child, setup, "wall_durations")
    if wall:
        print(f"  {'metric':<48} {'at ref. speed':>16} {'unit':<6} {'raw wall':>12}")
    for m in spec_metrics:
        alias = ALIASES.get(m["name"], ("", ""))[args.workload != "closed_form"]
        raw = f"{wall[m['name']]:>12.6g}" if m["name"] in wall else ""
        print(f"  {m['name']:<48} {values[m['name']]:>16.6g} {m['unit']:<6} {raw} {alias}")
    print(f"  speed: median reference kernel {1e6 * child['kernel_s_median']:.1f} us over "
          f"{child['speed_samples']} samples in the timed region (reference "
          f"{1e6 * speed.REFERENCE_KERNEL_S:.1f} us)")
    if not args.trace:
        q = next((q for q in (0.999, 0.99, 0.9, 0.5) if n * (1 - q) >= 10), None)
        durations = sorted(child["durations"])
        tail_text = (f"p{100 * q:g} = {1e3 * _percentile(durations, q):.6g} ms" if q
                     else "none (fewer than 20 samples)")
        print(f"  latency samples: {n} successful calls; highest percentile with at least "
              f"ten samples beyond it: {tail_text}")
        print(f"  setup samples (wall s / kernel us): "
              f"{', '.join(f'{r:.4f}/{1e6 * k:.0f}' for r, k in setup)}")
    else:
        filled = child["probe_filled"]
        print(f"  metrics taken from the probe calls (layer idle on this workload): "
              f"{', '.join(filled) or 'none'}")
    failed_frac = child["failed"] / child["attempted"]
    print(f"  failed_frac {failed_frac:.6g} ({child['failed']} of {child['attempted']} calls; "
          f"{child['calls_per_pass']} calls per pass, {child['passes']} passes)")
    for what, count in sorted(child["failures"].items()):
        print(f"    {count:>6} x {what}")
    defect = child["defect_probe"]
    print(f"  near-parallel probe (untimed, not counted above): {defect['failed']} of "
          f"{defect['calls']} report calls failed")
    for what, count in sorted(defect["failures"].items()):
        print(f"    {count:>6} x {what}")
    det = child["determinism"]
    print(f"  determinism: {'ok' if det['ok'] and not child['output_mismatches'] else 'FAILED'} "
          f"({child['output_mismatches']} repeated calls differed; {det['problems'] or 'workers 1 == 2'})")
    print(f"  exact-output gate: {'ok' if not child['wrong'] else child['wrong']}")
    print(f"# machine {json.dumps(machine, sort_keys=True)}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "qclass" / "cli.py").is_file():
        print(f"error: no qclass sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spec_metrics = spec["per_layer" if args.trace else "end_to_end"]

    deadline = time.monotonic() + DEADLINE_S
    workdir = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setup = [_spawn(["--ready-only"], deadline)[:2] for _ in range(SETUP_PROBES)]
        ready_s, kernel_s, out = _spawn(["--workload", args.workload, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace),
                               "--workdir", str(workdir)], deadline)
        setup.append((ready_s, kernel_s))
        child = json.loads(out.strip().splitlines()[-1])
        computed = child["layers"] if args.trace else end_to_end(child, setup)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    # a per-layer metric whose layer ran neither in the workload nor in the
    # probe calls reads 0
    values = {m["name"]: float(computed.get(m["name"]) or 0.0) for m in spec_metrics}
    machine = _machine(args.seed, child)
    correct = (child["determinism"]["ok"] and not child["output_mismatches"]
               and not child["wrong"])
    _report(args, spec_metrics, values, child, machine, setup)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine, "setup": setup,
              "metrics": values, "child": {k: v for k, v in child.items()
                                           if k not in ("durations", "wall_durations", "units")}}
    (workdir / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    result = {
        "correct": correct,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in spec_metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
