"""Core-speed probe: scales a benchmark child's times to a fixed speed.

The host this benchmark runs on is shared, and the speed at which it runs
a single-threaded Python process drifts by up to 1.6x over seconds to
minutes (a fixed pure-Python loop, timed back to back for 90 s, took
between 40 and 68 ms per second-long window).  User CPU time moves with
wall time, so the drift is in the core's speed, not in scheduling, and a
median over a 40 s run cannot average it away.

`SpeedProbe` samples that speed inside the child, at the same moments
the workload runs: every INTERVAL_S of wall time a SIGALRM handler runs
a fixed loop of pure integer bytecode (no data, so the workload's memory
use cannot change its time) and records how long it took.  For an
interval [a, b] of the child,

    scaled(a, b) = (b - a - time spent in probes) * mean(REF_S / probe time)

that is, the interval's own work in the seconds it would take at the
speed at which one probe takes REF_S.  The mean of REF_S / d is the mean
speed over the interval, because the probes are spread evenly over wall
time; a probe stretched by an interrupt weighs little in it.

REF_S is a fixed constant (about the probe's time on an idle core of the
x86-64 machine the benchmark was written on), so a scaled time reads as
the wall time of that machine at its fast state.  The probe costs about
1% of the child's time; it runs in every child, traced ones included.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.025
PROBE_ITERS = 2500
REF_S = 0.00025
MIN_SAMPLES = 4  # fewer inside an interval: use every sample of the child


class SpeedProbe:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (monotonic start, duration)

    def _tick(self, signum, frame):
        start = time.monotonic()
        t0 = time.perf_counter()
        acc = 0
        for i in range(PROBE_ITERS):
            acc = (acc * 31 + i) % 1_000_003
        self.samples.append((start, time.perf_counter() - t0))

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def scaled(self, a: float, b: float) -> float:
        """The work of the monotonic interval [a, b], in reference seconds."""
        inside = [d for s, d in self.samples if a <= s < b]
        probes = inside if len(inside) >= MIN_SAMPLES else [d for _, d in self.samples]
        if not probes:
            raise RuntimeError("the speed probe took no samples")
        work = (b - a) - sum(inside)
        return work * statistics.fmean(REF_S / d for d in probes)

    def summary(self) -> dict:
        ds = [d for _, d in self.samples]
        return {"samples": len(ds), "median_s": statistics.median(ds) if ds else None}
