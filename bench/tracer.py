"""Span tracer for the traced benchmark run.

The benchmark records spans from its own files: ``install`` replaces the
public functions of the qclass modules (in every qclass module namespace
that imported them) with wrappers that time each call.  Spans are kept in
memory, aggregated by name: call count, total time, the part of that time
covered by child spans on the same thread (so self time = total - child),
and how many calls raised.  Named counters (outcomes drawn, normal
variates, chunks) are recorded at the same boundaries.  ``uninstall``
restores the original functions.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

import numpy as np

_COUNTED_DRAWS = ("normal", "standard_normal", "random", "binomial")


class CountingGenerator:
    """Forwards to a numpy Generator and counts the variates it returns."""

    def __init__(self, gen, tracer: "Tracer") -> None:
        self._gen = gen
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(self._gen, name)
        if name not in _COUNTED_DRAWS:
            return attr

        def counted(*args, **kwargs):
            out = attr(*args, **kwargs)
            self._tracer.add(f"draws.{name}", int(np.size(out)))
            return out

        return counted


class Tracer:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.spans: dict[str, list[int]] = {}  # name -> [calls, total_ns, child_ns, raised]
        self.counts: dict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    def add(self, counter: str, amount: int) -> None:
        with self._lock:
            self.counts[counter] += amount

    def get(self, counter: str) -> int:
        with self._lock:
            return self.counts.get(counter, 0)

    def wrap(self, name, fn, on_return=None):
        """Wrapper of fn recording span `name` (a string or a function of the args)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            child = [0]
            stack.append(child)
            t0 = time.perf_counter_ns()
            raised = 1
            try:
                result = fn(*args, **kwargs)
                raised = 0
            finally:
                dt = time.perf_counter_ns() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                key = name(args, kwargs) if callable(name) else name
                with tracer._lock:
                    s = tracer.spans.setdefault(key, [0, 0, 0, 0])
                    s[0] += 1
                    s[1] += dt
                    s[2] += child[0]
                    s[3] += raised
            if on_return is not None:
                result = on_return(args, kwargs, result)
            return result

        return wrapper

    def replace(self, original, wrapper) -> None:
        """Point every qclass module attribute bound to `original` at `wrapper`."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "qclass" or mod_name.startswith("qclass.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def stat(self, name: str) -> tuple[int, int, int, int]:
        return tuple(self.spans.get(name, (0, 0, 0, 0)))


def _strategy_name(args, kwargs) -> str:
    strategy = args[0] if args else kwargs.get("strategy")
    return f"gaussian_model.monte_carlo_risk.{getattr(strategy, 'value', strategy)}"


# (module, attribute, span name, counter hook)
def _targets(tracer: Tracer):
    def count(counter, amount):
        def hook(args, kwargs, result):
            tracer.add(counter, amount(args, kwargs, result))
            return result
        return hook

    def counting_rng(args, kwargs, result):
        tracer.add("chunks", 1)
        return CountingGenerator(result, tracer)

    return [
        ("qclass.cli", "main", "cli.main", None),
        ("qclass.cli", "render_csv", "cli.render_csv",
         count("csv_rows", lambda a, k, r: len(a[0]))),
        ("qclass.helstrom", "triviality_check", "helstrom.triviality_check", None),
        ("qclass.helstrom", "helstrom_risk", "helstrom.helstrom_risk", None),
        ("qclass.helstrom", "excess_risk", "helstrom.excess_risk", None),
        ("qclass.local_geometry", "build_frame", "local_geometry.build_frame", None),
        ("qclass.asymptotics", "risk_report", "asymptotics.risk_report", None),
        ("qclass.qubit_core", "sample_pauli", "qubit_core.sample_pauli",
         count("outcomes", lambda a, k, r: int(np.size(r)))),
        ("qclass.qubit_experiment", "plugin_strategy_run",
         "qubit_experiment.plugin_strategy_run", None),
        ("qclass.qubit_experiment", "tomographic_estimate",
         "qubit_experiment.tomographic_estimate", None),
        ("qclass.qubit_experiment", "sample_labels", "qubit_experiment.sample_labels", None),
        ("qclass.montecarlo", "run_chunked", "montecarlo.run_chunked", None),
        ("qclass.montecarlo", "summarize", "montecarlo.summarize",
         count("summarized_values", lambda a, k, r: int(np.size(a[0])))),
        ("qclass.montecarlo", "chunk_rng", "montecarlo.chunk_rng", counting_rng),
    ]


def install(tracer: Tracer) -> None:
    """Wrap the public functions the per-layer metrics read.

    A function a later version of qclass no longer has is skipped; the
    metrics that read it then report no samples.
    """
    import importlib

    for mod_name, attr, span, hook in _targets(tracer):
        mod = importlib.import_module(mod_name)
        original = getattr(mod, attr, None)
        if callable(original):
            tracer.replace(original, tracer.wrap(span, original, hook))

    gm = importlib.import_module("qclass.gaussian_model")
    mc_risk = getattr(gm, "monte_carlo_risk", None)
    if callable(mc_risk):
        # calls run one at a time on the main thread and join their chunk
        # workers before returning, so the counter difference is this call's
        def traced(*args, **kwargs):
            strategy = args[0] if args else kwargs.get("strategy")
            key = getattr(strategy, "value", strategy)
            trials = args[5] if len(args) > 5 else kwargs.get("trials", 0)
            before = tracer.get("draws.normal")
            result = inner(*args, **kwargs)
            tracer.add(f"normals.{key}", tracer.get("draws.normal") - before)
            tracer.add(f"trials.{key}", int(trials))
            return result

        inner = tracer.wrap(_strategy_name, mc_risk)
        tracer.replace(mc_risk, functools.wraps(mc_risk)(traced))

    helstrom = importlib.import_module("qclass.helstrom")
    cls = getattr(helstrom, "ClassificationProblem", None)
    raw = getattr(cls, "__dict__", {}).get("from_bloch")
    if isinstance(raw, classmethod):
        tracer._undo.append((cls, "from_bloch", raw))
        cls.from_bloch = classmethod(tracer.wrap("helstrom.from_bloch", raw.__func__))


def layer_metrics(tr: Tracer) -> dict[str, float | None]:
    """Per-layer metrics derived from the recorded spans and counters.

    A metric whose layer recorded no calls is None.
    """

    def ratio(num, den, scale=1.0):
        return num / den / scale if den else None

    def per_call_us(name):
        calls, total, _, _ = tr.stat(name)
        return ratio(total, calls, 1e3)

    m: dict[str, float | None] = {}
    trials, trial_ns, _, _ = tr.stat("qubit_experiment.plugin_strategy_run")
    tomo_ns = tr.stat("qubit_experiment.tomographic_estimate")[1]
    labels_ns = tr.stat("qubit_experiment.sample_labels")[1]
    excess_ns = tr.stat("helstrom.excess_risk")[1]
    pauli_ns = tr.stat("qubit_core.sample_pauli")[1]
    outcomes = tr.get("outcomes")
    m["qubit_core.sample_pauli_ns_per_outcome"] = ratio(pauli_ns, outcomes)
    m["qubit_core.outcomes_per_trial"] = ratio(outcomes, trials)
    m["qubit_experiment.trial_us"] = ratio(trial_ns, trials, 1e3)
    m["qubit_experiment.tomography_us"] = ratio(tomo_ns, trials, 1e3)
    m["qubit_experiment.tomography_share"] = ratio(tomo_ns, trial_ns) if trials else None
    m["qubit_experiment.sample_labels_us"] = per_call_us("qubit_experiment.sample_labels")
    # derived: trial time not spent in the timed public stages
    m["qubit_experiment.projector_glue_us"] = ratio(
        trial_ns - labels_ns - tomo_ns - excess_ns, trials, 1e3)
    m["helstrom.excess_risk_us"] = per_call_us("helstrom.excess_risk")

    for strategy in ("optimal_joint", "heterodyne_plugin", "optimal_joint_unknown_priors"):
        n_trials = tr.get(f"trials.{strategy}")
        total = tr.stat(f"gaussian_model.monte_carlo_risk.{strategy}")[1]
        normals = ratio(tr.get(f"normals.{strategy}"), n_trials)
        m[f"gaussian_model.ns_per_trial.{strategy}"] = ratio(total, n_trials)
        m[f"gaussian_model.normals_per_trial.{strategy}"] = normals
        # computed: each float64 variate written by the generator and read
        # back once, plus the per-trial loss written
        m[f"gaussian_model.bytes_per_trial.{strategy}"] = (
            None if normals is None else 16.0 * normals + 8.0)

    m["montecarlo.chunks"] = ratio(tr.get("chunks"), tr.stat("montecarlo.run_chunked")[0])
    m["montecarlo.summarize_ns_per_value"] = ratio(
        tr.stat("montecarlo.summarize")[1], tr.get("summarized_values"))

    m["helstrom.from_bloch_us"] = per_call_us("helstrom.from_bloch")
    m["helstrom.triviality_check_us"] = per_call_us("helstrom.triviality_check")
    m["helstrom.helstrom_risk_us"] = per_call_us("helstrom.helstrom_risk")
    m["local_geometry.build_frame_us"] = per_call_us("local_geometry.build_frame")
    m["asymptotics.risk_report_us"] = per_call_us("asymptotics.risk_report")

    main_calls, main_ns, main_child_ns, _ = tr.stat("cli.main")
    render_ns = tr.stat("cli.render_csv")[1]
    # self time of main plus rendering: argparse, config parsing, CSV output
    m["cli.main_overhead_us"] = ratio(main_ns - main_child_ns + render_ns, main_calls, 1e3)
    m["cli.render_csv_us_per_row"] = ratio(render_ns, tr.get("csv_rows"), 1e3)
    return m
