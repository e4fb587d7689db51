"""Host-speed probe: a fixed reference computation timed between reports.

The benchmark shares its machine's cores with other tenants.  On the 2-core
reference VM the speed of one and the same report drifts by up to 1.5x over
seconds to minutes, and every kind of CPU work (interpreter loops, big-int
arithmetic, numpy sorts, string formatting) slows down together.  Wall times
of a 15-40 s run therefore spread by 20-30% from run to run, whatever the
code does.

`Probe` times a small fixed computation that does not touch corrlab, between
reports, at least every EVERY_S seconds.  A report's *scaled* time is its
wall time times NOMINAL_S / (probe time around the report): the time the
report would take on a host whose probe takes NOMINAL_S.  A change to corrlab
changes the report times and not the probe, so it moves the scaled times by
the same share as the wall times.  The probe runs with the garbage collector
off, so objects that corrlab leaves on the heap do not slow it down.
"""

from __future__ import annotations

import gc
import statistics
import time
from bisect import bisect_left, bisect_right
from collections import defaultdict
from fractions import Fraction

# Probe time on the reference machine in its fast state (median about 11 ms
# there); scaled times are seconds on a host whose probe takes this long.
NOMINAL_S = 0.010
# Probe samples this close to a report (before its start or after its end)
# make up its host speed; the speed changes over seconds, a single 10 ms
# sample jitters by 20% and now and then takes twice as long.
WINDOW_S = 1.0
# Least time between two samples taken between reports.
EVERY_S = 0.25
_ROUND_WEIGHTS = {(1, 1): 3, (1, -1): 1, (-1, 1): 1, (-1, -1): 3}


def _convolve() -> list[Fraction]:
    """Exact pmf of 16 summed rounds, as corrlab's exact mode computes one."""
    acc = {(0, 0): 1}
    for _ in range(16):
        nxt: dict[tuple[int, int], int] = defaultdict(int)
        for (a, b), w in acc.items():
            for (x, y), rw in _ROUND_WEIGHTS.items():
                nxt[(a + x, b + y)] += w * rw
        acc = dict(nxt)
    return [Fraction(w, 8**16) for w in acc.values()]


def _rows(n: int = 2500) -> str:
    return "\n".join(f"{i},{i % 7},{-1 if i & 1 else 1},{i * 0.125}" for i in range(n))


class Probe:
    def __init__(self):
        import numpy as np  # after harness.bootstrap has pinned the thread pools

        self.np = np
        self.values = np.random.default_rng(0).integers(0, 4096, 100_000)
        self.times: list[float] = []  # when each sample ended (perf_counter)
        self.durations: list[float] = []
        for _ in range(3):  # untimed: first calls fill caches
            self._work()

    def _work(self) -> None:
        _convolve()
        for _ in range(2):
            keys, counts = self.np.unique(self.values, return_counts=True)
            self.np.cumsum(counts[self.np.argsort(keys)])
        _rows()

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self._work()
            t1 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.times.append(t1)
        self.durations.append(t1 - t0)

    def maybe_sample(self) -> None:
        """Sample unless the last sample ended less than EVERY_S ago."""
        if not self.times or time.perf_counter() - self.times[-1] >= EVERY_S:
            self.sample()

    def around(self, start: float, end: float) -> float:
        """Median probe time of the samples within WINDOW_S of [start, end].

        The last sample before start and the first after end always count,
        however far away they are.
        """
        i = bisect_right(self.times, start) - 1
        j = bisect_left(self.times, end)
        if i < 0 or j == len(self.times):
            raise RuntimeError("no probe sample on both sides of a timed interval")
        lo = min(i, bisect_left(self.times, start - WINDOW_S))
        hi = max(j + 1, bisect_right(self.times, end + WINDOW_S))
        return statistics.median(self.durations[lo:hi])

    def scale(self, start: float, end: float) -> float:
        """(end - start) scaled to a host whose probe takes NOMINAL_S."""
        return (end - start) * NOMINAL_S / self.around(start, end)

    def median_s(self, since: int = 0) -> float:
        """Median probe time of the samples from index since on."""
        return statistics.median(self.durations[since:])
