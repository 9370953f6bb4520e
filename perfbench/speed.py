"""Timings at a fixed reference speed, for hosts whose speed drifts.

On a shared host the same pure-Python loop can run at speeds up to 2x apart,
switching within a second at times and holding for a whole run at others
(no steal time shows inside the guest, so CPU time drifts as much as wall
time).  A raw timing then mostly measures the neighbours.

``SpeedMeter`` measures the speed of the thread it runs in with a fixed
calibration kernel: a burst of kernel runs just before each timed call, and
one kernel run on every ``SIGALRM`` of an interval timer while the call
runs, so a long call is sampled evenly over its whole length.  A timing is
converted to reference seconds as

    ref = (raw - time spent in the sampler) * mean(REF_KERNEL_S / kernel time)

i.e. the work the call did, counted in the seconds it would have taken on a
host that runs the kernel in ``REF_KERNEL_S``.  The kernel uses only the
standard library and never calls gynibell, so no change to the library can
move it.
"""

from __future__ import annotations

import contextlib
import signal
from fractions import Fraction
from time import perf_counter

#: Kernel time that defines reference speed: a round figure inside the
#: 0.13-0.26 ms the kernel took on the 2-vCPU Xeon host the benchmark was
#: tuned on, as that host's speed drifted.
REF_KERNEL_S = 2.0e-4
#: Interval of the sampling timer.
INTERVAL_S = 0.02
#: Kernel runs made just before each timed call.
BURST = 8


def kernel():
    """Fraction arithmetic and dict updates, the mix the library runs on."""
    s = Fraction(0)
    for i in range(1, 40):
        s += Fraction(i % 5 + 1, i)
    d = {}
    for i in range(300):
        d[i & 63] = d.get(i & 63, 0) + i
    return s


class SpeedMeter:
    def __init__(self):
        self.samples: list[float] = []  # kernel seconds, in the order taken
        self.overhead = 0.0             # seconds spent in the timer handler

    def _on_alarm(self, _signum, _frame):
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.samples.append(t1 - t0)
        self.overhead += perf_counter() - t0

    def burst(self, n: int = BURST) -> int:
        """Take ``n`` samples now; return the index of the first."""
        first = len(self.samples)
        for _ in range(n):
            t0 = perf_counter()
            kernel()
            self.samples.append(perf_counter() - t0)
        return first

    @contextlib.contextmanager
    def sampling(self):
        """Sample on a timer while the block runs (main thread only)."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, first: int) -> float:
        """Reference seconds per second of work, over samples[first:]."""
        taken = self.samples[first:]
        return REF_KERNEL_S * sum(1.0 / c for c in taken) / len(taken)

    def start(self):
        """Begin timing a call: a burst of samples, then the clock."""
        return self.burst(), self.overhead, perf_counter()

    def stop(self, token) -> tuple[float, float]:
        """(raw seconds, reference seconds) since ``start``; raw excludes
        the sampler's own time."""
        first, overhead, t0 = token
        raw = perf_counter() - t0 - (self.overhead - overhead)
        return raw, raw * self.factor(first)
