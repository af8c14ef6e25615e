"""Tracking the host's CPU speed while a workload runs.

The measuring host is a VM on a shared machine, and the speed of its vCPUs
swings by up to 2x from one second to the next as neighbours load the same
cores. A run of 30 s catches a different mix of fast and slow seconds every
time, which moves a plain wall-time median by a quarter from run to run.

``SpeedProbe`` samples the speed in the thread that runs the workload: a
timer signal every ``INTERVAL_S`` interrupts the workload between two
bytecodes and times a fixed reference loop of ``Fraction`` additions, the
same kind of work the library does. ``nominal`` then turns the wall time of
an attempt into the time it would have taken at a fixed nominal speed: the
wall time, less the reference loops that ran inside it, times
``NOMINAL_REF_S`` and the mean of 1 / reference time around the attempt. The
signal starts no thread and no process. The probe takes one more sample
as it starts and one as it ends, so a short span still has samples around it.
"""

from __future__ import annotations

import bisect
import importlib
import signal
import statistics
import sys
import time
from fractions import Fraction

INTERVAL_S = 0.02
# reference samples this far either side of an attempt count towards its speed,
# so that a 5 ms attempt still sees about five samples
WINDOW_S = 0.05
REF_TERMS = 80
# the reference loop's time on an idle core of the 2-vCPU measuring VM
# (Python 3.11); a scaled time is the time the attempt takes at that speed
NOMINAL_REF_S = 2.0e-4


def _reference() -> Fraction:
    total = Fraction(0)
    for k in range(1, REF_TERMS + 1):
        total += Fraction(1, k % 97 + 1)
    return total


class SpeedProbe:
    """Context manager sampling the reference loop on a timer signal."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._previous = None
        self._busy = False

    def _sample(self, signum, frame) -> None:
        # a signal that lands inside a sample is dropped, so samples never nest
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        _reference()
        self.starts.append(start)
        self.ends.append(time.perf_counter())
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample(None, None)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def nominal(self, start: float, end: float) -> float:
        """The time from ``start`` to ``end``, less the reference loops that
        ran inside it, at the nominal speed."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        work = end - start - sum(self.ends[i] - self.starts[i] for i in range(lo, hi))
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_left(self.starts, end + WINDOW_S)
        # samples come at even intervals, so the mean of 1/ref over them is
        # the mean speed over the span, by which its work scales
        speed = statistics.fmean(1 / (self.ends[i] - self.starts[i]) for i in range(lo, hi))
        return work * NOMINAL_REF_S * speed


def time_import(module: str) -> tuple[float, float]:
    """(nominal, wall) seconds to import ``module``, which must be new to
    this process."""
    with SpeedProbe() as probe:
        start = time.perf_counter()
        importlib.import_module(module)
        end = time.perf_counter()
    return probe.nominal(start, end), end - start


if __name__ == "__main__":
    # python3 speed.py MODULE: time one import in a fresh process; numpy
    # comes first, as its import time is not the imported module's to change
    import numpy  # noqa: F401
    print(*time_import(sys.argv[1]))
