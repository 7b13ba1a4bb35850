"""Machine-speed reference for the benchmark's wall-time metrics.

The benchmark runs on shared hosts whose speed drifts by 20-50% within
seconds (other tenants on the same physical cores), which no amount of
repetition inside one run averages away.  A fixed pure-Python kernel,
timed next to the program, slows down with it: scaling every wall time by
``REFERENCE_KERNEL_S / kernel time measured at that moment`` reports it at
a fixed reference speed.  On the host the constant was measured on
(2 vCPUs of an "Intel(R) Xeon(R) Processor" at 2.0 GHz, in a calm period)
scaled and raw times agree; the benchmark prints both.

``Sampler`` times the kernel on a background thread every ``PERIOD_S``
while the workload runs, with the thread's CPU clock, so time spent
waiting for the GIL is not counted.  The benchmark's child pins itself to
one CPU, so the samples measure the core the program runs on.
``Sampler.factor`` then gives each timed call the median kernel time of
the samples taken around it.  The kernel's data fit in the L1 cache, so
the program's own memory traffic barely changes its time: a kernel with a
working set of a few MB ran 40% slower next to gaussian-sim than when
alone, and would have hidden part of any change in the program's memory
use.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time

# median kernel time (thread CPU seconds) on the reference host
REFERENCE_KERNEL_S = 2.3e-4
PERIOD_S = 0.01
# samples within this many seconds of a call's start and end set its speed
WINDOW_S = 0.25
MIN_SAMPLES = 5


def kernel() -> float:
    """Thread CPU seconds of one fixed pure-Python workload."""
    t0 = time.thread_time()
    acc = 0
    table = {}
    for i in range(1500):
        acc += i * i
        table[i & 63] = acc
    return time.thread_time() - t0


def kernel_median(repeats: int = 25) -> float:
    """Median kernel time of `repeats` runs on the calling thread."""
    return statistics.median(kernel() for _ in range(repeats))


class Sampler:
    """Background thread recording (wall time, kernel seconds) samples."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.kernel_s: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-sampler", daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            mid = time.perf_counter()
            self.kernel_s.append(kernel())
            self.times.append(mid)

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self, start: float, end: float) -> float:
        """Reference-speed factor for a call that ran from `start` to `end`."""
        if not self.times:
            raise RuntimeError("the speed sampler recorded no samples")
        window = WINDOW_S
        while True:
            lo = bisect.bisect_left(self.times, start - window)
            hi = bisect.bisect_right(self.times, end + window)
            if hi - lo >= MIN_SAMPLES or hi - lo == len(self.times):
                return REFERENCE_KERNEL_S / statistics.median(self.kernel_s[lo:hi])
            window *= 2.0
