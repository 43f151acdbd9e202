"""Scaling measured times to a nominal machine speed.

The cores this benchmark runs on may be shared: the same code can run up to
twice as slowly for seconds at a time, in wall and in CPU time alike.  So
while ops are measured, an interval timer interrupts the process every
``PERIOD_S`` and times a short fixed kernel of the kind of work the
workloads do (numpy over a 1025-point array and an interpreted loop).  An
op's time, less the time spent in the kernel, is multiplied by
``NOMINAL_S`` over the mean kernel time measured during the op (and at the
readings just before and after it).  Set-up time is scaled the same way by a
``reading`` taken right after set-up.  The kernel does not call
``gaugeint``, so a change to the program moves the scaled time and a busy
neighbour does not.

Scaled times are seconds at the machine speed where the kernel takes
``NOMINAL_S``; the unscaled times are printed beside them.  The timer is a
signal handled on the main thread: no thread or process is started.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

NOMINAL_S = 1.5e-4  # kernel time on an idle core of the reference machine
PERIOD_S = 0.01

_X = np.linspace(0.25, 1.25, 1025)


def _kernel() -> float:
    acc = 0.0
    for i in range(4):
        pos = _X + i
        y = np.sin(1.0 / pos)
        acc += float(np.count_nonzero(np.abs(np.diff(y) - y[:-1] * np.diff(pos)) <= 0.5))
    for i in range(600):
        acc += (i * 0.5) % 7.0
    return acc


def reading(runs: int = 5) -> float:
    """Median kernel time of ``runs`` back-to-back runs."""
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class SpeedSampler:
    """Context manager that takes a kernel reading every ``PERIOD_S``."""

    def __init__(self):
        self.times: list[float] = []  # end of each reading
        self.kernel: list[float] = []  # duration of each reading
        self.busy = 0.0  # total time spent in readings
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        self.times.append(t1)
        self.kernel.append(t1 - t0)
        self.busy += t1 - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        while not self.times:  # every op needs a reading before it
            _kernel()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self, t0: float, t1: float) -> float:
        """Factor turning a time measured over [t0, t1] into nominal seconds."""
        i = bisect.bisect_left(self.times, t0)
        j = bisect.bisect_right(self.times, t1)
        return NOMINAL_S / statistics.fmean(self.kernel[max(0, i - 1): j + 1])

    def summary(self) -> str:
        med = statistics.median(self.kernel)
        return (f"{len(self.kernel)} kernel readings, median {med * 1e3:.4f} ms "
                f"(nominal {NOMINAL_S * 1e3:g} ms): machine at {NOMINAL_S / med:.2f}x "
                "nominal speed")
