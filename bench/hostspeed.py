"""Host-speed correction of measured times.

On a shared host the speed of one core drifts by up to 1.7x, in spells from
seconds to minutes, on every core alike (CPU steal stays near 0 and CPU
time drifts with wall time, so the core itself runs slower).  Every
job time moves with it, so runs of the same code taken minutes apart
disagree by more than any useful bound.  The client therefore times a fixed
pure-Python kernel between jobs and rescales each job's time by how long the
kernel took around it:

    corrected = measured * REF_KERNEL_S / (median kernel time within
                                           WINDOW_S / 2 of the job's start)

so a corrected time reads as the time on a host where the kernel takes
REF_KERNEL_S.  It falls exactly as the measured time does when finsym gets
faster, since the kernel does not run finsym.  The uncorrected figures are
printed alongside.
"""

from __future__ import annotations

import bisect
import statistics
import time

REF_KERNEL_S = 0.002   # the kernel's time on a calm core of the baseline machine
INTERVAL_S = 0.05      # at most one kernel sample this often (~4% of the run)
WINDOW_S = 4.0         # kernel samples within half of this of a job set its factor

_clock = time.perf_counter


def kernel() -> int:
    """Fixed interpreter-bound work, about 2 ms."""
    acc = 0
    for i in range(30000):
        acc += i * i % 7
    return acc


class Meter:
    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.times: list[float] = []
        self.samples: list[float] = []
        self._next = 0.0

    def sample(self) -> None:
        """Time the kernel once, unless it ran less than ``interval`` ago."""
        start = _clock()
        if start < self._next:
            return
        kernel()
        end = _clock()
        self.times.append(start)
        self.samples.append(end - start)
        self._next = end + self.interval

    def local(self, at: float) -> float:
        """Median kernel time within WINDOW_S / 2 of ``at`` (the nearest
        sample when none is that close)."""
        lo = bisect.bisect_left(self.times, at - WINDOW_S / 2)
        hi = bisect.bisect_right(self.times, at + WINDOW_S / 2)
        if hi == lo:
            lo = max(0, min(lo, len(self.times) - 1))
            hi = lo + 1
        return statistics.median(self.samples[lo:hi])

    def correct(self, starts, durations) -> list[float]:
        return [d * REF_KERNEL_S / self.local(s) for s, d in zip(starts, durations)]
