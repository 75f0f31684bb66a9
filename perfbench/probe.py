"""A speed probe: how fast the host runs Python right now.

On a shared host the same op takes anywhere from 1x to 1.9x its usual
time: the machine switches between a usual and a fast speed about once a
second, and the share of fast stretches changes from minute to minute, so
wall times of two runs of the same code differ by more than any bound a
benchmark can keep.  The probe runs a fixed pure-Python kernel (Fractions,
small dicts and lists, int arithmetic: the mix the package's hot paths
use) every ``PERIOD`` seconds from a SIGALRM handler, in the same thread as
the ops, and records how long it took.  Each sample is the faster of two
runs of the kernel, so a sample that the scheduler cut into is not taken
for a slow machine.

A sample's speed is ``KERNEL_S`` over its kernel time.  An op's scaled time
is its wall time, less the probe's own time, times the mean speed of the
samples taken while it ran and of the ``LOOKBACK`` samples before it: the
ticks are evenly spaced in time, so that mean is the time-weighted speed
of the machine over the op.  A scaled time is thus the wall time the op
would have taken with the kernel at ``KERNEL_S``.  It still moves with the
program, since nothing of the program runs in the kernel.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

PERIOD = 0.05
LOOKBACK = 3  # samples before an op that count towards its scale
# Kernel seconds at the usual speed of the 2-core Xeon host the baseline
# was taken on; it only sets the scale of the scaled times.
KERNEL_S = 0.0010


def kernel():
    acc = Fraction(0)
    table = {}
    n = 1
    for i in range(1, 180):
        acc += Fraction(i % 7 + 1, i % 11 + 2)
        n = (n * (i % 5 + 2) + i) % 1000003
        table[i, n % 13] = [i, n] * 2
    return acc, sorted(table.values())


def kernel_time():
    """Seconds of the faster of two kernel runs, with the cyclic GC held
    off so that a collection of the op's heap is not charged to it."""
    enabled = gc.isenabled()
    gc.disable()
    best = None
    for _ in range(2):
        start = time.perf_counter()
        kernel()
        took = time.perf_counter() - start
        best = took if best is None else min(best, took)
    if enabled:
        gc.enable()
    return best


def speed():
    """The machine's speed now, as ``KERNEL_S`` over a kernel time."""
    return KERNEL_S / kernel_time()


class SpeedProbe:
    """Samples ``kernel_time`` every ``PERIOD`` seconds while started."""

    def __init__(self):
        self.took = []  # kernel seconds of each sample
        self.spent = 0.0  # seconds spent in the handler, to take off op times

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.took.append(kernel_time())
        self.spent += time.perf_counter() - start

    def start(self):
        self._tick(None, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self):
        """State before an op, for :meth:`scaled`."""
        return len(self.took), self.spent, time.perf_counter()

    def scaled(self, mark):
        """(wall seconds, scaled seconds) of the op that began at ``mark``."""
        end = time.perf_counter()
        first, spent, start = mark
        wall = end - start - (self.spent - spent)
        seen = self.took[max(first - LOOKBACK, 0):]
        return wall, wall * statistics.fmean(KERNEL_S / k for k in seen)
