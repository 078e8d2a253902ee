"""Machine-speed probe for the timed regions of a benchmark phase.

The benchmark shares a few cores of a host whose speed drifts, in wall and
CPU time alike, by up to 1.6x over tens of seconds: whole runs, not single
invocations, land in slow spells. So while a phase runs, an interval timer
interrupts it every INTERVAL_S to time three small fixed pure-Python
kernels (the benchmark's own code, never the package's, so no change to
the program moves them): integer arithmetic, a dict build and sort, and a
DP over the subsets of 11 elements, much as the package spends its time.
A probe's reading is the geometric mean of the three kernels' median times.
A timed span is then reported two ways:

- ``busy``: the probe's own seconds inside the span, which the caller
  subtracts to get the span's measured time;
- ``scale``: REF_READING_S over the mean reading of the probes around the
  span, which turns measured seconds into seconds at the reference speed,
  at which a reading is REF_READING_S.

On a 2-vCPU cloud VM (Xeon, 2.1 GHz), over 2 to 3 minutes of repeated
fixed inputs, the workloads' measured time followed the reading with a
slope of 0.9 to 1.1 (log-log) and a correlation of 0.87 to 0.95.
"""

from __future__ import annotations

import math
import random
import signal
import time
from array import array
from bisect import bisect_left, bisect_right

INTERVAL_S = 0.25
REPEATS = 3  # runs of each kernel per probe; their median is its time
REF_READING_S = 1.2e-3

_KEYS = list(range(4096))
random.Random(0).shuffle(_KEYS)


def _arithmetic() -> int:
    s = 0
    for i in range(20_000):
        s += i * i % 7
    return s


def _table() -> int:
    d = {}
    for x in _KEYS:
        d[x] = (x * 2654435761) & 0xFFFF
    return sum(sorted(d.values())[::64])


def _subsets() -> int:
    f = [0] * 2048
    for m in range(1, 2048):
        f[m] = max(f[m ^ (m & -m)], f[m >> 1]) + (m.bit_count() & 1)
    return f[-1]


KERNELS = (_arithmetic, _table, _subsets)


class Probe:
    """Context manager: probes on entry, every INTERVAL_S, and on exit."""

    def __init__(self):
        self.start = array("d")
        self.end = array("d")
        self.reading_s = array("d")
        self._previous = None

    def fire(self, signum=None, frame=None) -> float:
        """Take a reading now; records and returns it."""
        t0 = time.perf_counter()
        log_sum = 0.0
        for kernel in KERNELS:
            times = []
            for _ in range(REPEATS):
                a = time.perf_counter()
                kernel()
                times.append(time.perf_counter() - a)
            log_sum += math.log(sorted(times)[REPEATS // 2])
        reading = math.exp(log_sum / len(KERNELS))
        self.start.append(t0)
        self.reading_s.append(reading)
        self.end.append(time.perf_counter())
        return reading

    def __enter__(self):
        self.fire()
        self._previous = signal.signal(signal.SIGALRM, self.fire)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.fire()

    def busy(self, t0: float, t1: float) -> float:
        """Probe seconds inside [t0, t1]."""
        lo = bisect_right(self.end, t0)
        hi = bisect_left(self.start, t1)
        return sum(min(self.end[i], t1) - max(self.start[i], t0) for i in range(lo, hi))

    def scale(self, t0: float, t1: float) -> float:
        """Reference reading over the mean reading of the probes that
        started within INTERVAL_S of [t0, t1] (at least the nearest one)."""
        lo = bisect_left(self.start, t0 - INTERVAL_S)
        hi = bisect_right(self.start, t1 + INTERVAL_S)
        if lo == hi:
            lo = min(lo, len(self.start) - 1)
            hi = lo + 1
        near = self.reading_s[lo:hi]
        return REF_READING_S * len(near) / sum(near)

    def reading_ms(self) -> float:
        """Median reading of all probes, in ms: how fast the machine ran."""
        ordered = sorted(self.reading_s)
        return 1000 * ordered[len(ordered) // 2] if ordered else 0.0
