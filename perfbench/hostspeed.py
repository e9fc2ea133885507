"""Host-speed normalisation of wall times.

On a shared host the speed of one CPU can change by a factor of two within
seconds, because other tenants load the same cores.  Raw wall time then
cannot resolve a 25% regression.  The benchmark therefore times a fixed
pure-Python reference loop (exact-rational arithmetic, like ywalk) right
before and right after every operation, and every INTERVAL_S while the
operation runs, inside the process that runs it; all on one CPU.  Every
sample is the same estimator, ``reference_s()``, run with the garbage
collector off, so a sample neither starts nor absorbs a collection of the
operation's heap.  The time spent in samples taken during an operation is
taken out of its wall time.  The benchmark reports

    scaled seconds = (wall seconds - sampling seconds)
                     * mean(REFERENCE_S / reference seconds)

i.e. the time the operation would take on a host that runs the reference
loop in REFERENCE_S.  Raw wall times are printed next to the scaled ones.
"""

from __future__ import annotations

import atexit
import gc
import json
import os
import signal
from fractions import Fraction
from time import perf_counter, perf_counter_ns

# The reference loop's duration on the 2-core x86-64 host the benchmark was
# defined on, near the middle of its range there; any constant would do.
REFERENCE_S = 0.0025
LOOP_STEPS = 400
# Untimed steps before each sample, so that a sample taken inside an
# operation, with the caches full of ywalk's data, starts about as warm as
# one taken between operations.
WARMUP_STEPS = 40
# A sample every 50 ms while an operation runs: about 5% of its time.  The
# host's speed changes within a second, and an operation's factor is only
# as good as the number of samples spread over it.
INTERVAL_S = 0.05

# Nanoseconds this process has spent in samples taken while a Sampler runs.
_sampling_ns = 0


def _loop(steps: int = LOOP_STEPS) -> int:
    s = 0
    for k in range(1, steps + 1):
        q = Fraction(k, 3) * Fraction(2, k + 1) + Fraction(1, 7)
        s += q.numerator % 5
    return s


def reference_s() -> float:
    """One sample: seconds the reference loop takes now, with the
    collector off."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        _loop(WARMUP_STEPS)
        start = perf_counter()
        _loop()
        return perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def clock_ns() -> int:
    """perf_counter_ns() less the time this process has spent in samples
    taken during operations: the clock operations and spans are timed by."""
    return perf_counter_ns() - _sampling_ns


def factor(samples) -> float:
    """Scale for a wall time from samples spread evenly over it: the mean
    of the speeds they saw, which is the host's mean speed over that time."""
    return sum(REFERENCE_S / r for r in samples) / len(samples)


class Sampler:
    """Times a block: reference timings before, during (by SIGALRM) and
    after it, and ``seconds``, its wall time less the timings during it."""

    def __init__(self):
        self.samples: list[float] = []
        self.seconds = 0.0
        self._start = 0

    def _tick(self, signum, frame):
        global _sampling_ns
        start = perf_counter_ns()
        self.samples.append(reference_s())
        _sampling_ns += perf_counter_ns() - start

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def __enter__(self):
        self.samples = [reference_s()]
        self._start = clock_ns()
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()
        self.seconds = (clock_ns() - self._start) / 1e9
        self.samples.append(reference_s())

    @property
    def factor(self) -> float:
        return factor(self.samples)


def sample_into(fd: int):
    """Sample for the rest of this process (a CLI query; the parent takes
    the timings before and after it).  At exit, write to fd, as JSON, the
    seconds the samples took and the timings."""
    sampler = Sampler()
    sampler.start()

    def report():
        sampler.stop()
        os.write(fd, json.dumps([_sampling_ns / 1e9, sampler.samples]).encode())

    atexit.register(report)


def pin_to_one_cpu():
    """Run this process, and the processes it starts, on one CPU, so that
    a reference timing and the operation it scales share a core."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
