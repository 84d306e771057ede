"""Timing scaled to a fixed reference speed of the machine.

On a shared machine the speed of a core drifts by tens of percent over
seconds to minutes while other tenants' load changes; CPU time drifts with
wall time, and steal time stays at zero, so neither can correct for it.
``SpeedClock`` times a fixed pure-Python loop (benchmark code, never the
library) every ``EVERY_S`` seconds, and scales each measured duration by
``NOMINAL_S / loop time``: a duration taken while the machine runs the loop
at its nominal speed is reported unchanged, one taken while the machine is
30% slower is reported 30% shorter.  Raw times are reported beside the
scaled ones.
"""

from __future__ import annotations

import time

# Loop time on an idle core of the 2-core machine the benchmark was sized on
# (Python 3.11); it only fixes the unit, comparisons are unaffected.
NOMINAL_S = 0.00085
EVERY_S = 0.1


def reference_loop() -> int:
    """Fixed small-integer, tuple, list and dict work, like the library's own."""
    acc = 0
    seen = {}
    for r in range(18):
        X = [[(i * 7 + j * 3 + r) % 5 - 2 for j in range(6)] for i in range(6)]
        Y = [[(i + j * r) % 3 - 1 for j in range(6)] for i in range(6)]
        Z = [[sum(X[i][m] * Y[m][j] for m in range(6)) for j in range(6)] for i in range(6)]
        key = tuple(tuple(row) for row in Z)
        seen[key] = seen.get(key, 0) + 1
        acc += Z[5][0] + len(seen)
    return acc


def loop_seconds() -> float:
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        reference_loop()
        best = min(best, time.perf_counter() - t0)
    return best


class SpeedClock:
    def __init__(self):
        self.factors: list[float] = []
        self._sample()

    def _sample(self) -> None:
        self.factor = NOMINAL_S / loop_seconds()
        self.factors.append(self.factor)
        self._next = time.perf_counter() + EVERY_S

    def tick(self) -> None:
        """Re-measure the speed when EVERY_S has passed since the last time."""
        if time.perf_counter() >= self._next:
            self._sample()
