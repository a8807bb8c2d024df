"""Machine speed along a run, sampled by a fixed pure-Python reference loop.

On a shared machine the same deterministic certificate takes anywhere from
0.35 to 0.6 s, in phases lasting seconds to minutes, while other tenants
load the CPU.  The reference loop slows down with it.  Over 10-second windows
the certificate time moved +-13 % and its ratio to the reference time +-6 %.
So the benchmark reports each time as

    wall seconds * REFERENCE_S / (mean reference time around the call)

that is, wall seconds at the speed at which one reference() call takes
REFERENCE_S.  The loop lives here, not in the program, so no change to the
program can move it.  Raw wall seconds are kept in the result file.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

# Median time of one reference() call on the 2-core machine the bounds were
# set on; it only fixes the scale of the reported seconds.
REFERENCE_S = 0.0135
PERIOD_S = 0.5  # sampling period while armed
MARGIN_S = 1.5  # samples this close to a call count for it


def reference() -> None:
    """A fixed mix of the interpreter work holocert does: rational and
    complex arithmetic, tuple keys and dict updates."""
    acc, x = Fraction(0), Fraction(3, 7)
    terms: dict = {}
    z = 0.3 + 0.4j
    for i in range(1, 801):
        acc += x * Fraction(i, i + 3)
        x = (x * x + 1) / (x + 2) if i % 6 else Fraction(3, 7)
        key = (i % 7, i % 5, i % 3)
        terms[key] = terms.get(key, 0) + i
        z = z * (0.9 + 0.1j) + 1.0 / (1.0 + abs(z))


class SpeedTrack:
    """Reference-loop samples taken at fixed edges and, while armed, every
    PERIOD_S seconds from a timer signal."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (time, seconds per reference())
        self.paused_s = 0.0  # total time spent sampling
        self._busy = False

    def sample(self) -> float:
        if self._busy:
            return 0.0
        self._busy = True
        t0 = perf_counter()
        reference()
        t1 = perf_counter()
        self._busy = False
        self.samples.append((0.5 * (t0 + t1), t1 - t0))
        self.paused_s += t1 - t0
        return t1 - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def timed(self, fn, *args):
        """Run fn(*args) after one sample; return (result, wall seconds, start, end).

        Sampling time that falls inside the call is taken out of its wall time.
        """
        self.sample()
        paused, t0 = self.paused_s, perf_counter()
        result = fn(*args)
        t1 = perf_counter()
        return result, t1 - t0 - (self.paused_s - paused), t0, t1

    def normalize(self, wall: float, t0: float, t1: float) -> float:
        """``wall`` seconds spent over [t0, t1], at reference speed.

        The mean, not the median, of the samples: a call's wall time takes in
        every short slow spell, and over eight steep certificates the mean
        tracked them three times as closely.
        """
        refs = [r for t, r in self.samples if t0 - MARGIN_S <= t <= t1 + MARGIN_S]
        return wall * REFERENCE_S / statistics.fmean(refs)
