"""Time in reference seconds, corrected for the machine's current speed.

On a shared host the same pure-Python work can take anywhere from 1x
to 2.2x its quiet time, in spells that last from seconds to minutes, so
raw wall times of one seed differ by more than any useful bound.  The
benchmark therefore times a fixed reference kernel (exact Fraction
arithmetic, the same kind of work the package does) before, after and,
for in-process jobs, every 0.25 s during each job.  A job's reference
time is its raw time scaled by NOMINAL_S over the mean kernel time
around it: the time it would have taken at the speed where the kernel
takes NOMINAL_S.  Raw times are reported next to it.
"""

from __future__ import annotations

import bisect
import os
import signal
import time
from fractions import Fraction

# the kernel's time on a quiet 2-core x86-64 host under CPython 3.11
NOMINAL_S = 0.0060
SAMPLE_EVERY_S = 0.25


def kernel() -> Fraction:
    s = Fraction(0)
    for i in range(1, 2500):
        s += Fraction(i % 7 + 1, i % 97 + 1)
    return s


def pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU, so the kernel's
    speed is measured where the jobs run."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})


class SpeedClock:
    """Kernel timings over the life of one process."""

    def __init__(self):
        self.times: list[float] = []  # start of each sample
        self.durations: list[float] = []
        self.busy_s = 0.0  # time spent sampling inside timed jobs
        self.on_sample = None  # hook(start, end) for the tracer
        self.deadline: float | None = None

    def sample(self) -> None:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.times.append(start)
        self.durations.append(end - start)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.sample()
        end = time.perf_counter()
        self.busy_s += end - start
        if self.on_sample is not None:
            self.on_sample(start, end)
        if self.deadline is not None and end > self.deadline:
            self.deadline = None
            raise JobTimeout()

    def start_ticks(self, deadline: float | None = None) -> None:
        """Sample every SAMPLE_EVERY_S from a timer until stop_ticks();
        raise JobTimeout from the timer once ``deadline`` has passed."""
        self.deadline = deadline
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop_ticks(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.deadline = None

    def slowdown(self, start: float, end: float) -> float:
        """Mean kernel time over [start, end] and the nearest sample on
        each side, as a multiple of NOMINAL_S."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        window = self.durations[max(lo - 1, 0) : min(hi + 1, len(self.times))]
        if not window:
            return 1.0
        return sum(window) / len(window) / NOMINAL_S

    def median_slowdown(self) -> float:
        d = sorted(self.durations)
        return d[len(d) // 2] / NOMINAL_S if d else 1.0


class JobTimeout(BaseException):
    """Raised inside an in-process job that ran past its deadline."""
