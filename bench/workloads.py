"""Seeded workload generator for the qclass benchmark.

Each workload is a list of CLI calls (command, JSON config, ``--workers``)
that make up one *pass*.  A timed run repeats whole passes, so every
count the benchmark reports (failures, gate verdicts) is the same for a
given seed however many passes fit in the run.  The seed is a benchmark
argument; the program only ever sees the generated configs.

Workloads and why they were chosen:

qubit_small_n   qubit-sim at n=100 with random labels and unknown priors,
                73,728 trials (two chunks of the 65,536-trial chunk size),
                one worker.  The cost is per-trial Python dispatch, so this
                shows chunk vectorisation.  Two worker threads made the wall
                time swing by up to 30% between runs on a shared host, so
                what the GIL does to the pool is the traced
                workers2_speedup.
qubit_large_n   qubit-sim at n in {1e4, 1e5} with fixed labels and known
                priors, one chunk, one worker.  The cost is linear in n
                because every +/-1 outcome is drawn, so this shows
                sufficient-statistic sampling; it bypasses the pool and
                runs the other label/prior branch.
gaussian_limit  gaussian-sim, all three strategies, eight chunks each, one
                worker.  Bulk numpy normal draws; bypasses qubit_core and
                qubit_experiment.  Two workers would show the pool's gain,
                but on a shared two-core host the wall time of two parallel
                threads swung 30-47% between runs (one thread: 10-20%), so
                the pool's effect here is the traced workers2_speedup.
closed_form     a stream of `report` configurations: generic pairs,
                naturally trivial draws, exactly parallel and antiparallel
                pairs.  No Monte Carlo, and no call fails.

``near_parallel`` is not a workload: it is the slice of pairs at angles
1e-6, 1e-9 and 1e-12 from (anti)parallel that exposes the local-frame
construction failure.  Every run makes those calls once, untimed, and
reports how many fail, so the defect shows without failing timed calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

ANCHOR = {"r0": [0.8, 0.0, 0.0], "s0": [0.0, 0.6, 0.0], "pi0": 0.5}
GAUSSIAN_STRATEGIES = ["optimal_joint", "heterodyne_plugin", "optimal_joint_unknown_priors"]

# qubit-sim trial counts, fixed here so the inputs do not follow later
# changes of the program's chunk size (65,536 at the time of writing).
SMALL_N_TRIALS = 73_728
LARGE_N_TRIALS = 2_000
GAUSSIAN_TRIALS = 8 * 65_536
GAUSSIAN_CONFIGS = 4

# closed_form pass: slice name -> number of configurations out of 600
CLOSED_FORM_SLICES = {
    "generic": 300,
    "trivial": 120,
    "parallel": 90,
    "antiparallel": 90,
}
# near-parallel probe: slice name -> angle from (anti)parallel, 50 pairs each
NEAR_PARALLEL_ANGLES = {
    "near_parallel_1e-06": 1e-6,
    "near_parallel_1e-09": 1e-9,
    "near_parallel_1e-12": 1e-12,
}
NEAR_PARALLEL_PER_ANGLE = 50
# distance from the triviality boundary |d| = |pi0 - pi1| for every draw
MARGIN = 0.01

WORKLOAD_IDS = {"qubit_small_n": 1, "qubit_large_n": 2, "gaussian_limit": 3, "closed_form": 4,
                "near_parallel": 5}


@dataclass(frozen=True)
class Call:
    """One `qclass <command> --config ... --workers ...` invocation."""

    command: str
    config: dict
    workers: int = 1
    tag: str = field(default="", compare=False)

    def units(self) -> int:
        """Work items the call completes: trials for simulations, else 1."""
        if self.command == "qubit-sim":
            return self.config["trials"] * len(self.config["n_list"])
        if self.command == "gaussian-sim":
            return self.config["trials"] * len(self.config["strategy"])
        return 1


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOAD_IDS[workload], seed])


def _config_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _unit(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _d_norm(r: np.ndarray, s: np.ndarray, pi0: float) -> float:
    return float(np.linalg.norm(pi0 * r - (1.0 - pi0) * s))


def is_nontrivial(r, s, pi0: float, margin: float = MARGIN) -> bool:
    return _d_norm(np.asarray(r), np.asarray(s), pi0) > abs(2.0 * pi0 - 1.0) + margin


def is_trivial(r, s, pi0: float, margin: float = MARGIN) -> bool:
    return _d_norm(np.asarray(r), np.asarray(s), pi0) < abs(2.0 * pi0 - 1.0) - margin


def angle_between(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return math.atan2(float(np.linalg.norm(np.cross(a, b))), float(a @ b))


def _problem(r, s, pi0) -> dict:
    return {"r0": [float(x) for x in r], "s0": [float(x) for x in s], "pi0": float(pi0)}


def _draw_generic(rng):
    while True:
        r = _unit(rng) * rng.uniform(0.05, 0.95)
        s = _unit(rng) * rng.uniform(0.05, 0.95)
        pi0 = rng.uniform(0.1, 0.9)
        if is_nontrivial(r, s, pi0) and 0.01 < angle_between(r, s) < math.pi - 0.01:
            return r, s, pi0


def _draw_trivial(rng):
    while True:
        r = _unit(rng) * rng.uniform(0.05, 0.95)
        s = _unit(rng) * rng.uniform(0.05, 0.95)
        pi0 = rng.uniform(0.1, 0.9)
        if is_trivial(r, s, pi0):
            return r, s, pi0


def _draw_aligned(rng, sign: float, angle: float = 0.0):
    """Nontrivial pair whose directions differ from (anti)parallel by `angle`."""
    while True:
        u = _unit(rng)
        w = np.cross(u, _unit(rng))
        w /= np.linalg.norm(w)
        s_dir = u if angle == 0.0 else math.cos(angle) * u + math.sin(angle) * w
        r = rng.uniform(0.05, 0.95) * u
        s = sign * rng.uniform(0.05, 0.95) * s_dir
        pi0 = rng.uniform(0.1, 0.9)
        if is_nontrivial(r, s, pi0):
            return r, s, pi0


def closed_form(seed: int) -> list[Call]:
    rng = _rng("closed_form", seed)
    calls = []
    for tag, count in CLOSED_FORM_SLICES.items():
        for _ in range(count):
            if tag == "generic":
                r, s, pi0 = _draw_generic(rng)
            elif tag == "trivial":
                r, s, pi0 = _draw_trivial(rng)
            elif tag == "parallel":
                r, s, pi0 = _draw_aligned(rng, 1.0)
            else:
                r, s, pi0 = _draw_aligned(rng, -1.0)
            calls.append(Call("report", {"problem": _problem(r, s, pi0)}, tag=tag))
    order = rng.permutation(len(calls))
    return [calls[i] for i in order]


def near_parallel(seed: int) -> list[Call]:
    """`report` calls on pairs just off (anti)parallel: the frame-defect probe."""
    rng = _rng("near_parallel", seed)
    calls = []
    for tag, angle in NEAR_PARALLEL_ANGLES.items():
        for i in range(NEAR_PARALLEL_PER_ANGLE):
            # half same-direction, half opposite-direction pairs
            sign = 1.0 if i % 2 == 0 else -1.0
            r, s, pi0 = _draw_aligned(rng, sign, angle)
            calls.append(Call("report", {"problem": _problem(r, s, pi0)}, tag=tag))
    return calls


def qubit_small_n(seed: int) -> list[Call]:
    rng = _rng("qubit_small_n", seed)
    cfg = {
        "problem": ANCHOR, "n_list": [100], "trials": SMALL_N_TRIALS,
        "seed": _config_seed(rng), "label_mode": "random", "known_priors": False,
    }
    return [Call("qubit-sim", cfg, workers=1, tag="small_n")]


def qubit_large_n(seed: int) -> list[Call]:
    rng = _rng("qubit_large_n", seed)
    cfg = {
        "problem": ANCHOR, "n_list": [10_000, 100_000], "trials": LARGE_N_TRIALS,
        "seed": _config_seed(rng), "label_mode": "fixed", "known_priors": True,
    }
    return [Call("qubit-sim", cfg, workers=1, tag="large_n")]


def gaussian_limit(seed: int) -> list[Call]:
    rng = _rng("gaussian_limit", seed)
    calls = []
    for _ in range(GAUSSIAN_CONFIGS):
        r, s, pi0 = _draw_generic(rng)
        cfg = {
            "problem": _problem(r, s, pi0),
            "strategy": GAUSSIAN_STRATEGIES,
            "trials": GAUSSIAN_TRIALS,
            "seed": _config_seed(rng),
            "u": [float(x) for x in rng.uniform(-1.0, 1.0, 3)],
            "v": [float(x) for x in rng.uniform(-1.0, 1.0, 3)],
            "delta": float(rng.uniform(-1.0, 1.0)),
        }
        calls.append(Call("gaussian-sim", cfg, workers=1, tag="gaussian"))
    return calls


WORKLOADS = {
    "qubit_small_n": qubit_small_n,
    "qubit_large_n": qubit_large_n,
    "gaussian_limit": gaussian_limit,
    "closed_form": closed_form,
}


def probe(seed: int) -> list[Call]:
    """Small calls reaching every module, for layers a workload never runs.

    The traced run takes a layer's per-layer metrics from this probe only
    when the workload itself made no call into that layer.
    """
    rng = np.random.default_rng([99, seed])
    small = dict(qubit_small_n(seed)[0].config, trials=400, seed=_config_seed(rng))
    large = dict(qubit_large_n(seed)[0].config, n_list=[10_000], trials=40,
                 seed=_config_seed(rng))
    gauss = {"problem": ANCHOR, "strategy": GAUSSIAN_STRATEGIES,
             "trials": GAUSSIAN_TRIALS, "seed": _config_seed(rng)}
    return closed_form(seed)[:60] + [
        Call("qubit-sim", small, workers=1, tag="probe"),
        Call("qubit-sim", large, workers=1, tag="probe"),
        Call("gaussian-sim", gauss, workers=2, tag="probe"),
    ]


def determinism_calls(seed: int) -> list[Call]:
    """Small runs for the byte-identity check (run with a lowered chunk size)."""
    rng = np.random.default_rng([98, seed])
    gauss = {"problem": ANCHOR, "strategy": GAUSSIAN_STRATEGIES,
             "trials": 5_000, "seed": _config_seed(rng)}
    qubit = {"problem": ANCHOR, "n_list": [60, 100], "trials": 300,
             "seed": _config_seed(rng), "label_mode": "random", "known_priors": False}
    return [Call("gaussian-sim", gauss, tag="determinism"),
            Call("qubit-sim", qubit, tag="determinism")]
