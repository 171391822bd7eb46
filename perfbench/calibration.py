"""A fixed pure-Python loop that tracks the host's speed during a run.

The host's speed drifts: a fixed loop, timed repeatedly, ranges over about
±20% within minutes, and CPU time tracks wall time, so the drift cannot be
timed away.  Each run therefore times this loop alongside what it measures
and reports times in *reference seconds*: one reference second is the time
of ``LOOPS_PER_REF_S`` loops at the mean loop time measured alongside.  The
loop does the same kind of work as the library (exact rational elimination
and integer loops) and never calls it, so library changes cannot move it.
"""

from __future__ import annotations

import time
from fractions import Fraction

# a timed run times one loop between items every INTERVAL_S seconds
INTERVAL_S = 0.25
LOOPS_PER_REF_S = 1000


def _loop() -> Fraction:
    n = 7
    a = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + 2 * j) % 5) for j in range(n)]
         for i in range(n)]
    for i in range(n):
        a[i][i] += 13
    for c in range(n):
        inverse = 1 / a[c][c]
        for r in range(c + 1, n):
            factor = a[r][c] * inverse
            if factor:
                a[r] = [x - factor * y for x, y in zip(a[r], a[c])]
    conv = [0] * 200
    for i in range(1, 101):
        for j in range(0, 100, 3):
            conv[i + j] += i * (j + 1)
    return a[-1][-1] + conv[150]


def time_loop() -> float:
    """Seconds taken by one calibration loop."""
    start = time.perf_counter()
    _loop()
    return time.perf_counter() - start


def reference_seconds(seconds: float, loop_times: list[float]) -> float:
    """Convert wall seconds into reference seconds, given loop times measured alongside."""
    return seconds / (sum(loop_times) / len(loop_times) * LOOPS_PER_REF_S)
