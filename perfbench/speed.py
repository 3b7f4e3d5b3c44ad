"""CPU-speed probe: a fixed piece of interpreter work, timed while the program runs.

On a shared host the CPU speed a process gets moves by 10-40% within
seconds, so two timings of the same work disagree by as much.  Timing
``probe`` every ``PERIOD_S`` on the thread that runs the program samples the
speed it was getting at that moment, and ``scale`` turns a wall time into
the time the same work takes at the speed at which ``probe`` takes
``REFERENCE_S``.  The probe touches nothing of the program, so a faster
program lowers the scaled time just as it lowers the wall time.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.05
REFERENCE_S = 2.5e-4  # seconds per probe at the reference speed (sets the unit)
MIN_PROBES = 5


def probe() -> int:
    """A fixed amount of pure-Python work; the result is discarded."""
    total = 0
    for i in range(3000):
        total += i * i % 7
    return total


def time_probe() -> float:
    start = time.perf_counter()
    probe()
    return time.perf_counter() - start


def scale(times) -> float:
    """Factor from wall seconds to seconds at the reference speed."""
    return REFERENCE_S / statistics.median(times)


class SpeedProbe:
    """Time ``probe`` on every SIGALRM while the ``with`` block runs.

    The handler runs between bytecodes of the main thread, so a long C call
    defers it.  At least ``MIN_PROBES`` are taken; if the block gave fewer,
    the rest are timed right after it.
    """

    def __init__(self):
        self.times = []

    def _tick(self, signum, frame):
        self.times.append(time_probe())

    def __enter__(self):
        for _ in range(10):
            probe()  # warm up before the first timed probe
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        while len(self.times) < MIN_PROBES:
            self.times.append(time_probe())
        return False
