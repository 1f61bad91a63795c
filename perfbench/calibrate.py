"""How fast the host runs Python at each moment of a run.

The benchmark's host is a share of a machine whose speed for the same code
changes by up to 1.5x, for seconds or minutes at a time, with its other
tenants' load.  `Speed` times a fixed computation of the benchmark's own,
`reference()`, between cases, and each timed interval is scaled by
REFERENCE_MS over the median of the samples taken within WINDOW_S of it:
the result is the interval's length at the speed at which `reference()`
takes REFERENCE_MS.  `reference()` calls no code of `sutor`, so a change to
`sutor` moves the cases' times and not the scale.
"""
from __future__ import annotations

import bisect
import os
import statistics
import time
from fractions import Fraction
from typing import List

# about the median time of reference() on the host the benchmark was sized
# on (Python 3.11.7, 2 vCPUs of an Intel Xeon); fixed, like the corpora
REFERENCE_MS = 1.2
SAMPLE_EVERY_S = 0.05
WINDOW_S = 0.25

_P = {(i % 5 - 2, i % 3 - 1, i // 5): (-1) ** i * (i + 1) for i in range(24)}
_Q = {(i % 4 - 1, -(i % 3), i % 2): i + 2 for i in range(20)}


def reference():
    """Fixed work in the style of the pipeline: a product of two Laurent
    polynomials in three variables as {exponent tuple: int} dicts, and a
    sum of fractions."""
    out = {}
    for _ in range(2):
        for e1, c1 in _P.items():
            for e2, c2 in _Q.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
    acc = Fraction(0)
    for i in range(1, 150):
        acc += Fraction(i % 13 + 1, i)
    return len(out), acc


def _time_reference() -> float:
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


def pin_to_fastest_cpu() -> int:
    """Pin the calling thread, and the threads it starts later, to the CPU
    that runs reference() fastest now; returns that CPU."""
    speed = []
    for cpu in sorted(os.sched_getaffinity(0)):
        os.sched_setaffinity(0, {cpu})
        speed.append((statistics.median(_time_reference() for _ in range(7)), cpu))
    cpu = min(speed)[1]
    os.sched_setaffinity(0, {cpu})
    return cpu


class Speed:
    """Reference samples of one run, as (end time, seconds)."""

    def __init__(self):
        self.at: List[float] = []
        self.took: List[float] = []

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            dt = _time_reference()
            self.at.append(time.perf_counter())
            self.took.append(dt)

    def tick(self) -> None:
        """Sample when SAMPLE_EVERY_S have passed since the last sample."""
        if not self.at or time.perf_counter() - self.at[-1] >= SAMPLE_EVERY_S:
            self.sample()

    @property
    def reference_ms(self) -> float:
        """Median reference time of the whole run, unscaled."""
        return statistics.median(self.took) * 1e3

    @property
    def scale(self) -> float:
        """Factor from this run's times to times at the reference speed,
        from every sample of the run."""
        return REFERENCE_MS / self.reference_ms

    def scaled(self, start: float, seconds: float) -> float:
        """The interval [start, start + seconds] at the reference speed,
        from the samples taken within WINDOW_S of it."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, start + seconds + WINDOW_S)
        near = self.took[lo:hi] or self.took
        return seconds * REFERENCE_MS / (statistics.median(near) * 1e3)
