"""Seeded instance families and the workloads built from them.

Every generator takes a ``random.Random`` and returns an
``stpsolve.Instance``; the benchmark serialises it with ``write_instance`` so
the solver only ever sees ``.stp`` text.  Nothing is downloaded.  The
families imitate SteinLib series (Koch, Martin & Voss, 2001):

* unit-cost grids, terminals spread one per block of the grid;
* hypercubes with unit costs or costs of 100 to 110 (the ``hc..u`` and
  ``hc..p`` series), terminals kept apart;
* ``i080``-style incidence-weighted random graphs, whose edge costs come
  from a range picked by how many endpoints are terminals.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from stpsolve import Instance, Network

# Incidence-weight cost ranges indexed by the number of terminal endpoints.
# The ranges are wide and overlap little, so most edges are longer than a
# detour and the exclusion tests can delete them.
INCIDENCE_COST_RANGES = ((1, 100), (100, 1000), (1000, 2000))


def _blocks(size: int, parts: int) -> list[range]:
    """Split ``range(size)`` into ``parts`` contiguous, near-equal bands."""
    cuts = [round(i * size / parts) for i in range(parts + 1)]
    return [range(cuts[i], cuts[i + 1]) for i in range(parts)]


def unit_grid(
    rng: random.Random, width: int, height: int, rows: int, cols: int, jitter: int
) -> Instance:
    """``width`` x ``height`` unit-cost grid with ``rows * cols`` terminals,
    one near the centre of each block of a rows x cols partition, moved by
    up to ``jitter`` cells along each axis."""
    edges = []
    for r in range(height):
        for c in range(width):
            v = r * width + c
            if c + 1 < width:
                edges.append((v, v + 1, 1))
            if r + 1 < height:
                edges.append((v, v + width, 1))
    terminals = {
        _near_centre(rng, band_r, jitter) * width + _near_centre(rng, band_c, jitter)
        for band_r in _blocks(height, rows)
        for band_c in _blocks(width, cols)
    }
    return Instance(Network(width * height, edges), frozenset(terminals))


def _near_centre(rng: random.Random, band: range, jitter: int) -> int:
    centre = band[len(band) // 2]
    return min(max(centre + rng.randint(-jitter, jitter), band[0]), band[-1])


def hypercube(
    rng: random.Random, dim: int, terminals: int, low: int, high: int, gap: int
) -> Instance:
    """``dim``-dimensional hypercube with edge costs drawn from
    ``[low, high]`` (1 to 1 gives the SteinLib ``hc..u`` series, 100 to 110
    the perturbed ``hc..p`` series) and ``terminals`` random terminals that
    pairwise differ in at least ``gap`` coordinates."""
    n = 1 << dim
    edges = [
        (v, v ^ (1 << b), rng.randint(low, high))
        for v in range(n)
        for b in range(dim)
        if not v >> b & 1
    ]
    while True:
        chosen: list[int] = []
        for v in rng.sample(range(n), n):
            if all((v ^ z).bit_count() >= gap for z in chosen):
                chosen.append(v)
                if len(chosen) == terminals:
                    return Instance(Network(n, edges), frozenset(chosen))


def incidence_graph(
    rng: random.Random, vertices: int, edges: int, terminals: int
) -> Instance:
    """Connected random graph (random spanning tree plus random chords) with
    ``i080``-style incidence weights from ``INCIDENCE_COST_RANGES``."""
    terms = frozenset(rng.sample(range(vertices), terminals))
    order = list(range(vertices))
    rng.shuffle(order)
    pairs = set()
    for i in range(1, vertices):
        u, v = order[i], order[rng.randrange(i)]
        pairs.add((min(u, v), max(u, v)))
    while len(pairs) < edges:
        u, v = rng.sample(range(vertices), 2)
        pairs.add((min(u, v), max(u, v)))
    weighted = []
    for u, v in sorted(pairs):
        lo, hi = INCIDENCE_COST_RANGES[(u in terms) + (v in terms)]
        weighted.append((u, v, rng.randint(lo, hi)))
    return Instance(Network(vertices, weighted), terms)


@dataclass(frozen=True)
class Shape:
    """One instance template: a family and its size arguments."""

    family: str
    args: tuple[int, ...]

    def build(self, rng: random.Random) -> Instance:
        return FAMILIES[self.family](rng, *self.args)


FAMILIES = {
    "grid": unit_grid,
    "hypercube": hypercube,
    "incidence": incidence_graph,
}


def instances(shapes: tuple[Shape, ...], seed: int) -> list[Instance]:
    """The workload's instances for ``seed``: one per shape, in order.

    Each instance draws from its own generator, seeded from the workload seed
    and its position, so editing one shape leaves the others unchanged.
    """
    return [
        shape.build(random.Random(f"{seed}:{i}")) for i, shape in enumerate(shapes)
    ]


# Each tuple lists one workload's instances; BENCHMARK.json and README.md
# say why the workload exists.  One pass over a workload takes 7 to 15
# seconds on a 2-core x86-64 machine at 2.1 GHz.  Each workload has one
# shape that holds more than half of its instances and lies in the middle
# of its run times (``wide-cost`` has only one), so that the median
# per-instance time comes from one shape whatever the seed.
WORKLOADS: dict[str, tuple[Shape, ...]] = {
    "unit-grid": 8 * (Shape("grid", (12, 12, 4, 4, 1)),)
    + 24 * (Shape("grid", (14, 14, 3, 4, 1)),),
    "wide-cost": 36 * (Shape("incidence", (120, 600, 8)),),
    "many-terminals": 8 * (Shape("hypercube", (6, 8, 1, 1, 3)),)
    + 16 * (Shape("hypercube", (6, 8, 100, 110, 3)),)
    + 4 * (Shape("hypercube", (7, 10, 1, 1, 3)),),
}
