"""Machine-speed probe interleaved with the work, and the clock it gives.

The benchmark runs on a shared machine whose speed wanders: the same
pure-Python job takes 1.6 times as long in one minute as in another, with
CPU time close to wall time throughout.  No median over one run removes
that, so raw times from two runs minutes apart cannot be compared within
a 25% bound.

A worker therefore starts a ``Probe`` first thing: an interval timer
interrupts it every ``PERIOD_S`` of wall time and runs a calibration
slice, fixed pure-Python code that shares nothing with the library.
``Probe.clock()`` then gives the *reference clock*.  It runs on the CPU
time of the worker and of the child processes it has waited for
(``cpu_clock``), so time the worker spends descheduled by other tenants
does not count.  Each stretch of that CPU time between two slices is
scaled by ``REF_SLICE_S`` over the median slice time around it
(``WINDOW`` slices either side, about 1.6 s), and the slices themselves
count zero.  A time then reads what it would on a dedicated CPU on which
one slice takes ``REF_SLICE_S``.

Every time the benchmark reports is read on this clock, except the raw
wall time and the slice time, which are reported as they are.
"""

from __future__ import annotations

import resource
import signal
import time
from bisect import bisect_right

PERIOD_S = 0.02
# One slice took 0.40-0.45 ms of CPU time on the 2-vCPU machine the
# benchmark was defined on, in its fastest minutes.  Any fixed value would
# do, since only ratios of runs are compared.
REF_SLICE_S = 0.0004
WINDOW = 40


def cpu_clock() -> float:
    """CPU seconds of this process and of the children it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def calibration_slice() -> None:
    """Integer arithmetic, then dict, list and call work.

    Over 200 s on the shared machine, in 5 s blocks of `canonical_form`
    calls and of `synthesize` plus `round_trip_report` calls, the work's
    slowdown went as the arithmetic half's to the power 1.3-1.4 and as
    the other half's to the power 0.8-0.85; against both halves together
    the power was 1.03-1.08 and the correlation 0.98.
    """
    acc = 0
    for i in range(2000):
        acc = (acc * 31 + i) % 1_000_003
    counts: dict = {}
    kept = []
    for i in range(500):
        k = _low_byte(i * 7)
        counts[k] = counts.get(k, 0) + 1
        if i & 3 == 0:
            kept.append((k, i))
    kept.sort()


def _low_byte(x: int) -> int:
    return x & 255


def median(values):
    values = sorted(values)
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2


class Probe:
    """Calibration slices on a timer: entered and left on ``cpu_clock``,
    and the slice's own CPU time."""

    def __init__(self):
        self.entered: list[float] = []
        self.left: list[float] = []
        self.slices: list[float] = []

    def _tick(self, signum=None, frame=None) -> None:
        entered = cpu_clock()
        start = time.process_time()
        calibration_slice()
        self.slices.append(time.process_time() - start)
        self.entered.append(entered)
        self.left.append(cpu_clock())

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.slices:
            self._tick()

    def clock(self) -> "Clock":
        return Clock(self)


class Clock:
    """Reference time at any ``cpu_clock`` reading of the probed process,
    piecewise linear through the slice boundaries."""

    def __init__(self, probe: Probe):
        n = len(probe.slices)
        self.factors = [
            REF_SLICE_S / median(probe.slices[max(0, k - WINDOW) : k + WINDOW + 1]) for k in range(n)
        ]
        self.xs: list[float] = []
        self.ys: list[float] = []
        at = 0.0
        for k in range(n):
            if k:
                at += (probe.entered[k] - probe.left[k - 1]) * self.factors[k - 1]
            self.xs += [probe.entered[k], probe.left[k]]
            self.ys += [at, at]
        self.slice_s = median(probe.slices)

    def __call__(self, t: float) -> float:
        xs, ys = self.xs, self.ys
        i = bisect_right(xs, t) - 1
        if i < 0:
            return ys[0] - (xs[0] - t) * self.factors[0]
        if i == len(xs) - 1:
            return ys[-1] + (t - xs[-1]) * self.factors[-1]
        if xs[i + 1] == xs[i]:
            return ys[i]
        return ys[i] + (t - xs[i]) * (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i])

    def span(self, start: float, end: float) -> float:
        return self(end) - self(start)

    def factor_at(self, t: float) -> float:
        """Scale from CPU time to reference time around ``t``."""
        k = min(max((bisect_right(self.xs, t) - 1) // 2, 0), len(self.factors) - 1)
        return self.factors[k]

    @property
    def factor(self) -> float:
        """Median scale from CPU time to reference time."""
        return median(self.factors)
