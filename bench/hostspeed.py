"""Host speed, sampled while a run is timed, and times scaled by it.

The benchmark shares a machine with other tenants, who change the speed
of its cores by up to 1.6x for minutes at a time: a plain CPU loop that
takes 13 ms in one minute takes 20 ms in the next.  That swing is larger
than any bound a timing could be held to, and longer runs do not average
it away.  So while a run is timed, a SIGALRM timer interrupts the program
every INTERVAL_S of wall time and times one call of `reference_loop`, a
fixed pure-Python loop of the kind of work the package does (integer bit
operations, dict updates, small calls).  A timed interval is then
reported twice: as measured, minus the loop calls that fell inside it, and
scaled to a host on which the loop takes REFERENCE_S.  The scale is the
host's mean speed, 1 / loop time averaged over the samples taken from
WINDOW_S before the interval to WINDOW_S after it; the window smooths the
noise of single 1 ms samples and still follows the host's swings, which
last seconds.  Over ten runs per workload on a 2-vCPU share of a Xeon
host, scaling cut the spread between runs (interquartile range over
median) of the 13 s construct job from 0.066 to 0.022 and of set-up times
from up to 0.26 to under 0.09; in a busier hour the times as measured
spread by up to 0.39.

The loop is the benchmark's own code: a change to the package cannot move
it, so a scaled time still moves with every change to the package.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.025
WINDOW_S = 0.5
REFERENCE_S = 0.001


def reference_loop() -> int:
    acc = 0
    counts: dict[int, int] = {}
    for i in range(800):
        m = (i * 2654435761) & 0xFFFFFFFF
        acc ^= m >> (i & 7)
        counts[i & 63] = counts.get(i & 63, 0) + (m & 1)
        acc += bin(m).count("1")
    return acc


class Sampler:
    """`with Sampler() as s:` samples the reference loop until exit; then
    `s.scale(start, end)` gives (seconds as measured, seconds scaled) for
    an interval timed inside the block."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        reference_loop()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self, start: float, end: float) -> tuple[float, float]:
        # The handler runs between two bytecodes of the timed code, so a
        # sample that starts inside the interval also ends inside it.
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        measured = (end - start) - sum(self.durations[lo:hi])
        around = self.durations[bisect.bisect_left(self.starts, start - WINDOW_S):
                                bisect.bisect_left(self.starts, end + WINDOW_S)]
        if not around:
            raise RuntimeError("no host-speed sample was taken around a timed interval")
        return measured, measured * REFERENCE_S * statistics.fmean(1 / d for d in around)

    def median_loop_s(self) -> float:
        return statistics.median(self.durations) if self.durations else 0.0
