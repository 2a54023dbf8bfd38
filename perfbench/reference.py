"""Host-speed reference: reported times are scaled to a fixed speed.

The host this benchmark was defined on (2 shared vCPUs, Intel Xeon) drifts
in speed by 20-40 % over tens of seconds, whatever runs on it, so raw wall
times of two runs of the same code differ by more than any useful bound.
A fixed pure-Python probe, shaped like the toolkit's own work (tuples,
stack reduction, dicts, breadth-first search), is timed between
operations; its median over a run measures the host's speed during that
run.  Every time metric is then reported in *reference seconds*::

    reported = wall seconds * REFERENCE_S / median probe seconds

The probe is benchmark code, so a change to ``gogtools`` cannot move it,
and it runs with the cyclic garbage collector paused so that the size of
the toolkit's heap in the same process cannot move it either.  Raw wall
times stay in the result file next to the scaled ones.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

# Median probe time on the defining host; scaled times are close to the
# wall times a quiet run there would give.
REFERENCE_S = 0.025
PROBE_EVERY_S = 0.2


def probe():
    """Seconds one fixed probe takes right now."""
    rng = random.Random(5)
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        seen = {}
        for _ in range(300):
            word = [(rng.randrange(2), rng.randrange(1, 4)) for _ in range(60)]
            stack = []
            for s in word:
                if stack and stack[-1][0] == s[0]:
                    x = (stack.pop()[1] + s[1]) % 4
                    if x:
                        stack.append((s[0], x))
                else:
                    stack.append(s)
            key = tuple(stack)
            seen[key] = seen.get(key, 0) + 1
        adj = {i: [(i * 7 + 1) % 3000, (i * 13 + 5) % 3000, (i + 1) % 3000]
               for i in range(3000)}
        dist = {0: 0}
        frontier = [0]
        while frontier:
            nxt = []
            for x in frontier:
                for y in adj[x]:
                    if y not in dist:
                        dist[y] = dist[x] + 1
                        nxt.append(y)
            frontier = nxt
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Speed:
    """Probe samples of one phase of a run."""

    def __init__(self):
        self.samples = []
        self._last = None

    def tick(self):
        """Probe now unless the last probe is under PROBE_EVERY_S old."""
        now = time.perf_counter()
        if self._last is None or now - self._last >= PROBE_EVERY_S:
            self.samples.append(probe())
            self._last = time.perf_counter()

    def factor(self):
        """Multiplier from wall seconds to reference seconds."""
        return REFERENCE_S / statistics.median(self.samples)
