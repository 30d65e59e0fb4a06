"""Host speed: a fixed pure-Python loop timed next to every measured interval.

On a shared virtual machine the speed of identical work drifts: by 10-30 %
from one half-minute to the next, and by a factor of two when the host
changes state for minutes at a time.  The CPU time of a single-threaded
process tracks its wall time, so the drift is in the speed of the CPU, not
in scheduling, and no statistic taken over a run's own wall times removes
it.  The benchmark therefore times this loop for a tenth of each interval's
length just after it, and reports the interval in *reference seconds*:
its wall time times ``LOOP_REF_S`` over the median loop time measured just
before and just after it.  The loop does not touch envopt, so a change to
envopt moves only the wall time; the scale moves with the host.
"""

from __future__ import annotations

import statistics
import time

# Iterations of the loop, and the loop's wall time at the reference speed,
# which is about the usual speed of a 2-vCPU Xeon virtual machine.
LOOP_N = 250_000
LOOP_REF_S = 0.02
DUTY = 0.1
MIN_SAMPLES = 4


def loop_s():
    """Wall time of one pass of the loop."""
    t0 = time.perf_counter()
    s = 0
    for i in range(LOOP_N):
        s += (i * 7919) % 13
    return time.perf_counter() - t0


class Calibrated:
    """Times callables and scales each time by the host's speed around it."""

    def __init__(self):
        self.last = None
        self.loops = []

    def _block(self, seconds):
        times = []
        while len(times) < MIN_SAMPLES or sum(times) < seconds:
            times.append(loop_s())
        self.loops.extend(times)
        return times

    def time(self, fn):
        """``(fn(), wall seconds, scale)``: a time measured while ``fn``
        ran, times the scale, is in reference seconds."""
        if self.last is None:
            self.last = self._block(0.0)
        t0 = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - t0
        after = self._block(DUTY * wall)
        loop = statistics.median(self.last + after)
        self.last = after
        return out, wall, LOOP_REF_S / loop

    def speed(self):
        """The host's speed over all loops timed, relative to the reference."""
        return LOOP_REF_S / statistics.median(self.loops)
