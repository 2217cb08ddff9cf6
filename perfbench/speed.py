"""Machine-speed probe: seconds of work measured at a fixed reference speed.

On a shared host the same single-threaded work can take twice as long from
one minute to the next, in CPU time as well as in wall time, because the core
itself slows down. A timer signal interrupts the run every PERIOD seconds and
times a fixed kernel of interpreter and small-array work, like the workload's.
An interval of wall time then converts to reference seconds: its length, less
the probes that interrupted it, times the mean of KERNEL_REF_S / kernel_s over
every probe within WINDOW seconds of it. A single probe scatters by a factor of
two, so short intervals borrow probes from their neighbourhood. Both the wall
and the reference figures are printed per unit.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter

import numpy as np

PERIOD = 0.01
WINDOW = 0.1
# the kernel's typical duration on the 2.1 GHz development machine; only sets the scale
KERNEL_REF_S = 0.00013
_X = np.arange(16, dtype=np.float64)


def _kernel() -> float:
    acc = 0.0
    for i in range(25):
        v = _X * (i + 1)
        acc += float(v.max() - v.min()) + (i % 7) * 0.5
    return acc


class SpeedProbe:
    """Samples the kernel's duration every PERIOD seconds while the context is open."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        _kernel()
        t1 = perf_counter()
        self.times.append(t0)
        self.durations.append(t1 - t0)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def reference_seconds(self, t0: float, t1: float) -> float:
        """Work done in wall interval [t0, t1], in seconds at the reference speed."""
        if not self.times:
            return t1 - t0
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        busy = (t1 - t0) - sum(self.durations[lo:hi])
        # single probes scatter widely, so the speed comes from every probe within WINDOW of the interval
        near = self.durations[bisect.bisect_left(self.times, t0 - WINDOW):bisect.bisect_right(self.times, t1 + WINDOW)]
        if not near:
            near = [self.durations[min(lo, len(self.durations) - 1)]]
        return busy * sum(KERNEL_REF_S / d for d in near) / len(near)
