"""Speed-normalised time, for a machine whose speed drifts.

The benchmark runs on a few cores of a shared host, and their speed moves
between a fast and a slow state on a scale of seconds: a fixed loop of
pure Python takes up to 1.8 times as long in one as in the other.  Plain
seconds then measure the host as much as the program, and ten runs of the
same code spread by a quarter or more.

So the benchmark times a fixed reference loop, which never calls the
library, between tasks at least every PERIOD seconds.  A stretch of work
that took t seconds is reported as t * REFERENCE_S / r, where r is the
median reference time within WINDOW seconds of it (and of at least
SIDE samples before and after it): the time it would
take on a machine where the reference loop takes REFERENCE_S.  The
library's own speed shows in full; only the host's drift divides out.
"""

from __future__ import annotations

import gc
import random
import statistics
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

PERIOD = 0.05       # seconds of work between two reference samples
WINDOW = 0.1        # seconds either side of a stretch whose samples count,
SIDE = 2            # ... and at least this many samples on either side
REFERENCE_S = 0.001  # a normalised second: one with a 1 ms reference loop


def reference() -> list:
    """Fixed pure-Python work like the library's: Gauss-Jordan elimination
    of a 6 x 7 integer matrix over Fraction."""
    rng = random.Random(7)
    rows, cols = 6, 7
    m = [[Fraction(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(rows)]
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return m


class Clock:
    """Reference samples of one process, and the scale they give."""

    def __init__(self):
        self.at: list[float] = []     # midpoint of each sample
        self.took: list[float] = []   # its duration

    def tick(self, force: bool = False):
        """Time the reference loop if PERIOD has passed since the last time
        (or if `force`).  Call it between stretches of work, never inside
        one."""
        now = perf_counter()
        if force or not self.at or now - self.at[-1] >= PERIOD:
            # a collection of the library's heap is not the host's speed
            collecting = gc.isenabled()
            gc.disable()
            start = perf_counter()
            reference()
            end = perf_counter()
            if collecting:
                gc.enable()
            self.at.append((start + end) / 2)
            self.took.append(end - start)

    def seconds(self, start: float, end: float) -> float:
        """Normalised length of the stretch of work [start, end].  Call it
        once the samples after the stretch are taken."""
        lo = min(bisect_left(self.at, start - WINDOW),
                 bisect_left(self.at, start) - SIDE)
        hi = max(bisect_right(self.at, end + WINDOW),
                 bisect_right(self.at, end) + SIDE)
        lo, hi = max(lo, 0), min(hi, len(self.at))
        return (end - start) * REFERENCE_S / statistics.median(self.took[lo:hi])
