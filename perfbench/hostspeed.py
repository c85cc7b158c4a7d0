"""Host speed, measured with a fixed computation that does not use hyperdes.

The machines this benchmark runs on are shared: the same verdict takes
anywhere from 1x to 1.6x its best time, in phases that last seconds to
minutes, and a whole 30 s run can fall inside a slow phase.  To keep the
figures comparable between runs, a probe times a fixed reference
computation (a subset construction over a fixed automaton, built from
frozensets, tuples and dicts, as the verifier's own work is) about every
PROBE_EVERY_S seconds, and each time the benchmark measures is scaled by
REFERENCE_S / (the median of the probes nearest to it).  The figures are
then in seconds of a host on which the reference takes REFERENCE_S.
Probe time is never part of a measured time.
"""

from __future__ import annotations

import bisect
import random
import statistics
from time import perf_counter

REFERENCE_S = 0.002
PROBE_EVERY_S = 0.1
NEAREST = 5

_rng = random.Random(20261017)
_STATES, _SYMBOLS = 20, 3
_NFA = {(x, a): tuple(_rng.sample(range(_STATES), 3))
        for x in range(_STATES) for a in range(_SYMBOLS)}


def reference():
    """Reachable subsets of the fixed automaton; always the same number."""
    root = frozenset([0])
    seen = {root}
    stack = [root]
    edges = {}
    while stack:
        d = stack.pop()
        for a in range(_SYMBOLS):
            t = frozenset(y for x in d for y in _NFA[(x, a)])
            edges[(d, a)] = t
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return len(seen)


class HostSpeed:
    def __init__(self):
        self.at = []        # midpoints of the probes
        self.took = []      # their durations
        self._next = 0.0

    def probe(self):
        """Time the reference once; returns the seconds it took."""
        start = perf_counter()
        reference()
        end = perf_counter()
        self.at.append((start + end) / 2)
        self.took.append(end - start)
        self._next = end + PROBE_EVERY_S
        return end - start

    def maybe_probe(self):
        """Probe if PROBE_EVERY_S has passed since the last one; returns the
        seconds spent probing."""
        return self.probe() if perf_counter() >= self._next else 0.0

    def scale(self, when):
        """Factor that brings a time measured at `when` to reference speed."""
        i = bisect.bisect_left(self.at, when)
        lo = max(0, min(i - NEAREST // 2, len(self.at) - NEAREST))
        return REFERENCE_S / statistics.median(self.took[lo:lo + NEAREST])

    def scale_between(self, start, end):
        """Factor for a stretch of time: the median of its probes."""
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_right(self.at, end)
        if hi - lo < NEAREST:
            return self.scale((start + end) / 2)
        return REFERENCE_S / statistics.median(self.took[lo:hi])
