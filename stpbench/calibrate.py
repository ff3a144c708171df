"""Machine-speed calibration for the benchmark's timed end-to-end metrics.

The benchmark runs on shared machines whose speed drifts by a quarter or
more within minutes, so wall times of the same solves differ between runs
made a few minutes apart.  To cancel that drift, the benchmark times a fixed
kernel right before and right after every timed step and scales the step's
wall time by ``REFERENCE_S / k``, where ``k`` is the mean of those two kernel
times.  A scaled second is a wall second on a machine on which the kernel
takes ``REFERENCE_S``.

The kernel is pure-Python Dijkstra with ``heapq`` on a seeded random graph,
the kind of work the solver spends most of its time on.  It does not use
``stpsolve``: a change to the solver moves the scaled times exactly as much
as it moves the wall times.
"""

from __future__ import annotations

import heapq
import random
import statistics
import time

# Kernel time that a scaled second is relative to: about the kernel's time on
# a 2-core x86-64 machine at 2.1 GHz under Python 3.11.
REFERENCE_S = 0.1
VERTICES = 3000
EDGES = 12000
SOURCES = tuple(range(10))


def timed(step) -> float:
    """Wall seconds that ``step()`` takes."""
    start = time.perf_counter()
    step()
    return time.perf_counter() - start


class SpeedMeter:
    """The kernel, and wall times scaled by it."""

    def __init__(self):
        rng = random.Random(0)
        self.adjacency: list[list[tuple[int, int]]] = [[] for _ in range(VERTICES)]
        for _ in range(EDGES):
            u, v, cost = rng.randrange(VERTICES), rng.randrange(VERTICES), rng.randint(1, 100)
            self.adjacency[u].append((v, cost))
            self.adjacency[v].append((u, cost))

    def sample(self) -> float:
        """Wall seconds of one run of the kernel."""
        start = time.perf_counter()
        for source in SOURCES:
            dist = {source: 0}
            heap = [(0, source)]
            while heap:
                d, u = heapq.heappop(heap)
                if d > dist[u]:
                    continue
                for v, cost in self.adjacency[u]:
                    if d + cost < dist.get(v, d + cost + 1):
                        dist[v] = d + cost
                        heapq.heappush(heap, (d + cost, v))
        return time.perf_counter() - start

    def scaled(self, measures) -> list[float]:
        """Scaled seconds of steps run one after the other.

        Each ``measure()`` in ``measures`` runs one step and returns the wall
        seconds it measured.  A kernel sample precedes the first step and
        follows every step; each step is scaled by the mean of the two
        samples on its sides.
        """
        times = []
        before = self.sample()
        for measure in measures:
            wall = measure()
            after = self.sample()
            times.append(wall * REFERENCE_S / statistics.fmean((before, after)))
            before = after
        return times
