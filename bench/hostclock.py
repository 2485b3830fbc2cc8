"""Host-speed sampling, so that op times can be scaled to one reference speed.

On a shared host, other tenants loading the same physical core make the
same pure-Python code run up to 1.8x slower, in states that last from a
fraction of a second to minutes.  Wall times of identical passes then
spread by 20% and more between runs, which hides any change smaller than
that.  To take the host out of the numbers, a SIGALRM timer interrupts the
benchmark twenty times a second and runs a fixed calibration loop of Fraction
arithmetic (the library's own kind of work, but no library code).  An op's
time is its wall time minus the time spent in the loop, scaled by
REFERENCE_S over the median loop time sampled around the op: the time the
op would have taken on a host where the loop runs in REFERENCE_S.

The scale cancels only what slows the loop and the library alike; the
unscaled wall and CPU times are reported beside the scaled ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.05
# Samples this far either side of an op count towards its scale, so that an
# op shorter than the interval still has a sample on each side.
MARGIN_S = 0.15
# The calibration loop's time on an unloaded core of the reference host
# (Intel Xeon vCPU at 2.0 GHz, CPython 3.11); it only sets the unit.
REFERENCE_S = 0.00055


def calibration_loop() -> Fraction:
    acc = Fraction(0)
    for i in range(1, 120):
        acc += Fraction(i % 7 - 3, i % 5 + 1) * Fraction(3, i % 4 + 1)
    return acc


class HostClock:
    """A context manager that samples the calibration loop while active."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.loops: list[float] = []
        self.spent = 0.0  # seconds spent inside the sampler so far

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        calibration_loop()
        end = time.perf_counter()
        self.starts.append(start)
        self.loops.append(end - start)
        self.spent += end - start

    def __enter__(self) -> "HostClock":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[float, float]:
        return time.perf_counter(), self.spent

    def interval(self, since: tuple[float, float]) -> tuple[float, float, float]:
        """(start, end, seconds) since the mark, not counting sampler time."""
        start, spent = since
        end = time.perf_counter()
        return start, end, end - start - (self.spent - spent)

    def scaled(self, interval: tuple[float, float, float]) -> float:
        """An interval's seconds at the reference speed.  Call it once the
        samples after the interval have been taken."""
        start, end, seconds = interval
        lo = bisect.bisect_left(self.starts, start - MARGIN_S)
        hi = bisect.bisect_right(self.starts, end + MARGIN_S)
        if lo == hi:  # no sample this close: use the nearest ones
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.loops))
        if lo == hi:  # nothing sampled at all: sample once now
            self._sample(None, None)
            lo, hi = 0, 1
        return seconds * REFERENCE_S / statistics.median(self.loops[lo:hi])

    def summary(self) -> dict:
        return {
            "samples": len(self.loops),
            "loop_ms_median": statistics.median(self.loops) * 1e3 if self.loops else None,
            "loop_ms_min": min(self.loops) * 1e3 if self.loops else None,
            "reference_ms": REFERENCE_S * 1e3,
        }
