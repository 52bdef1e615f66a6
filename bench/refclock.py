"""Times in reference seconds: wall time scaled by the machine's speed.

The speed of a shared virtual machine drifts by about 25% over seconds to
minutes, and a process's CPU time drifts with it when the guest kernel
accounts no steal time.  So the benchmark times, next to the work, a fixed
pure-Python reference loop (``Fraction`` arithmetic and dict updates, like
jfkernel's inner loops), and reports every time scaled by it: work that took
``t`` seconds while the loop took ``r`` seconds counts as ``t * NOMINAL_S / r``
reference seconds.  ``NOMINAL_S`` is a fixed constant, so a change that makes
jfkernel slower or faster moves the scaled time as much as the wall time,
while a phase in which the machine runs everything slower moves neither.

Inside a job list, :class:`RefClock` times the loop on an interval timer
(``SIGALRM``), so long jobs are sampled throughout; the loop's own time is
taken out of the job's time.  Everything stays in one thread.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

# The reference loop's time at the speed that reference seconds are counted
# in: its median on a 2-vCPU Intel Xeon KVM guest, Python 3.11.
NOMINAL_S = 0.00125
INTERVAL_S = 0.05


def reference_loop():
    d = {}
    for i in range(1, 150):
        a = Fraction(i, i + 1) * Fraction(3, 7) + Fraction(1, i)
        d[i % 17] = d.get(i % 17, 0) + a
    return d


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


def scale_around(fn):
    """Run ``fn()`` between three reference timings before and three after;
    returns its wall time in seconds and in reference seconds."""
    refs = [time_reference() for _ in range(3)]
    t0 = time.perf_counter()
    fn()
    wall = time.perf_counter() - t0
    refs += [time_reference() for _ in range(3)]
    return wall, wall * NOMINAL_S / statistics.median(refs)


class RefClock:
    """Samples the reference loop every ``interval`` seconds while running.

    :meth:`now` is a clock that stands still while the loop runs, and
    :meth:`ref_seconds` turns a stretch of it into reference seconds using
    the samples taken during the stretch and the nearest one on each side.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.paused = 0.0
        self._old_handler = None

    def _sample(self, *_):
        t0 = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.durations.append(t1 - t0)
        self.paused += t1 - t0

    def start(self):
        reference_loop()  # warm, so the first sample is not an outlier
        self._sample()
        self._old_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        self._sample()

    def now(self):
        """A mark: (perf_counter, loop time so far)."""
        return time.perf_counter(), self.paused

    def ref_seconds(self, mark0, mark1):
        """Wall and reference seconds of the work between two marks."""
        (t0, p0), (t1, p1) = mark0, mark1
        wall = (t1 - t0) - (p1 - p0)
        lo = max(bisect.bisect_left(self.starts, t0) - 1, 0)
        hi = bisect.bisect_right(self.starts, t1) + 1
        r = statistics.fmean(self.durations[lo:hi])
        return wall, wall * NOMINAL_S / r
