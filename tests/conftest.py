"""Shared fixtures, random instance generation (including small shapes of
the benchmark families) and brute-force oracles.

The oracle here is deliberately independent of the library's algorithms:
Steiner trees by edge-subset enumeration.
"""

import itertools
import random

import pytest

from stpsolve import Instance, Network, dreyfus_wagner, select_root
from stpsolve.reductions import _Working

# Fixture vertex ids, used throughout the tests.
# path:    v1=0, v2=1, v3=2
# star:    s=0, t1=1, t2=2, t3=3
# diamond: t1=0, t2=1, x=2, y=3
# k4:      a=0, b=1, c=2, d=3
# ntdk:    t1=0, t2=1, t3=2, s=3


def make_path():
    return Instance(Network(3, [(0, 1, 2), (1, 2, 3)]), frozenset({0, 2}))


def make_star():
    return Instance(
        Network(4, [(0, 1, 2), (0, 2, 3), (0, 3, 4)]), frozenset({1, 2, 3})
    )


def make_diamond():
    return Instance(
        Network(4, [(0, 2, 1), (2, 1, 1), (0, 3, 3), (3, 1, 3)]), frozenset({0, 1})
    )


def make_k4():
    return Instance(
        Network(
            4,
            [(0, 1, 1), (0, 2, 12), (0, 3, 16), (1, 2, 11), (1, 3, 15), (2, 3, 16)],
        ),
        frozenset({0, 1, 2, 3}),
    )


def make_ntdk():
    return Instance(
        Network(
            4,
            [(0, 1, 4), (1, 2, 4), (0, 2, 4), (3, 0, 3), (3, 1, 3), (3, 2, 3)],
        ),
        frozenset({0, 1, 2}),
    )


@pytest.fixture
def fix_path():
    return make_path()


@pytest.fixture
def fix_star():
    return make_star()


@pytest.fixture
def fix_diamond():
    return make_diamond()


@pytest.fixture
def fix_k4():
    return make_k4()


@pytest.fixture
def fix_ntdk():
    return make_ntdk()


def neighbors(network, x):
    """(neighbor, edge cost, edge id) for each edge at ``x``, read from the
    network's ``out`` list, so sorted by neighbor."""
    return [(y, network.arc_cost[a], a >> 1) for y, a in network.out[x]]


def edge_between(network, u, v):
    """Id of the edge {u, v}, or None."""
    return next((a >> 1 for y, a in network.out[u] if y == v), None)


def random_instance(rng, min_n=4, max_n=14, min_t=2, max_t=6, max_cost=20):
    """Connected random instance: a random spanning tree plus extra edges."""
    n = rng.randint(min_n, max_n)
    edges = []
    for v in range(1, n):
        edges.append((v, rng.randrange(v), rng.randint(1, max_cost)))
    for _ in range(rng.randint(0, n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((u, v, rng.randint(1, max_cost)))
    t = rng.randint(min_t, min(max_t, n))
    terms = sorted(rng.sample(range(n), t))
    return Instance(Network(n, edges), frozenset(terms))


def random_grid(
    rng, min_side=4, max_side=9, costs=(1, 2), max_chords=0, min_t=3, max_t=8
):
    """A w x h grid with edge costs drawn from ``costs`` and up to
    ``max_chords`` random chords; with few distinct costs, equal-length
    paths and tied edges are common."""
    width, height = rng.randint(min_side, max_side), rng.randint(min_side, max_side)
    n = width * height
    edges = []
    for v in range(n):
        if v % width + 1 < width:
            edges.append((v, v + 1, rng.choice(costs)))
        if v + width < n:
            edges.append((v, v + width, rng.choice(costs)))
    for _ in range(rng.randint(0, max_chords) if max_chords else 0):
        u, v = rng.sample(range(n), 2)
        edges.append((u, v, rng.choice(costs)))
    terms = rng.sample(range(n), rng.randint(min_t, min(max_t, n)))
    return Instance(Network(n, edges), frozenset(terms))


def unit_grid_8x8():
    """Unit-cost 8x8 grid with six terminals drawn by ``random.Random(0)``."""
    n = 64
    edges = [(v, v + 1, 1) for v in range(n) if v % 8 + 1 < 8]
    edges += [(v, v + 8, 1) for v in range(n - 8)]
    terminals = frozenset(random.Random(0).sample(range(n), 6))
    return Instance(Network(n, edges), terminals)


# Cost ranges of the incidence-weighted family, indexed by the number of
# terminal endpoints of an edge.
INCIDENCE_COSTS = ((1, 100), (100, 1000), (1000, 2000))


def unit_grid(rng, width, height, rows, cols):
    """Unit-cost grid with one terminal in each block of a rows x cols
    partition."""
    n = width * height
    edges = []
    for v in range(n):
        if v % width + 1 < width:
            edges.append((v, v + 1, 1))
        if v + width < n:
            edges.append((v, v + width, 1))
    terms = frozenset(
        rng.randrange(r * height // rows, (r + 1) * height // rows) * width
        + rng.randrange(c * width // cols, (c + 1) * width // cols)
        for r in range(rows)
        for c in range(cols)
    )
    return Instance(Network(n, edges), terms)


def hypercube(rng, dim, terminals, low, high, gap):
    """Hypercube with costs in [low, high] and terminals that pairwise
    differ in at least ``gap`` coordinates."""
    n = 1 << dim
    edges = [
        (v, v ^ (1 << b), rng.randint(low, high))
        for v in range(n)
        for b in range(dim)
        if not v >> b & 1
    ]
    while True:
        chosen = []
        for v in rng.sample(range(n), n):
            if all((v ^ z).bit_count() >= gap for z in chosen):
                chosen.append(v)
                if len(chosen) == terminals:
                    return Instance(Network(n, edges), frozenset(chosen))


def incidence_graph(rng, vertices, edge_count, terminals):
    """A random spanning tree plus random chords, with edge costs drawn from
    the range picked by how many endpoints are terminals."""
    terms = frozenset(rng.sample(range(vertices), terminals))
    order = list(range(vertices))
    rng.shuffle(order)
    pairs = set()
    for i in range(1, vertices):
        u, v = order[i], order[rng.randrange(i)]
        pairs.add((min(u, v), max(u, v)))
    while len(pairs) < edge_count:
        u, v = rng.sample(range(vertices), 2)
        pairs.add((min(u, v), max(u, v)))
    edges = []
    for u, v in sorted(pairs):
        low, high = INCIDENCE_COSTS[(u in terms) + (v in terms)]
        edges.append((u, v, rng.randint(low, high)))
    return Instance(Network(vertices, edges), terms)


# Small shapes of the three benchmark families, at most 10 terminals; the
# corpus adds one grid with 12.
SHAPES = [
    (unit_grid, (10, 10, 3, 3)),
    (unit_grid, (8, 8, 2, 4)),
    (hypercube, (6, 8, 1, 1, 3)),
    (hypercube, (6, 8, 100, 110, 3)),
    (hypercube, (5, 10, 1, 1, 1)),
    (incidence_graph, (60, 300, 8)),
    (incidence_graph, (50, 150, 10)),
]


def family_corpus(seeds):
    corpus = [
        build(random.Random(f"{seed}:{i}"), *args)
        for seed in range(seeds)
        for i, (build, args) in enumerate(SHAPES)
    ]
    return corpus + [unit_grid(random.Random(12), 4, 6, 3, 4)]


MAIN_CORPUS_SEED = 20260808
SMALL_CORPUS_SEED = 90301
REDUCTION_CORPUS_SEED = 424242
NEGATIVE_CONTROL_SEED = 555


@pytest.fixture(scope="session")
def main_corpus():
    """500 instances, 4-14 vertices, 2-6 terminals, costs 1-20."""
    rng = random.Random(MAIN_CORPUS_SEED)
    return [random_instance(rng) for _ in range(500)]


@pytest.fixture(scope="session")
def main_corpus_optima(main_corpus):
    return [dreyfus_wagner(inst, min(inst.terminals))[0] for inst in main_corpus]


@pytest.fixture(scope="session")
def small_corpus():
    """100 instances, at most 10 vertices and 5 terminals."""
    rng = random.Random(SMALL_CORPUS_SEED)
    return [
        random_instance(rng, min_n=4, max_n=10, min_t=2, max_t=5)
        for _ in range(100)
    ]


@pytest.fixture(scope="session")
def reduction_corpus():
    """200 instances for the reduction safety gates."""
    rng = random.Random(REDUCTION_CORPUS_SEED)
    return [random_instance(rng) for _ in range(200)]


@pytest.fixture(scope="session")
def reduction_grids():
    """100 grids with tied costs for the reduction safety gates: unlike the
    random instances, some keep enough terminals and slack after the simple
    reductions for the default pipeline's elimination rounds to delete."""
    rng = random.Random(REDUCTION_CORPUS_SEED)
    return [random_grid(rng) for _ in range(100)]


def simplified(inst):
    """The simple reductions run to their fixpoint on ``inst``, finalized
    as a solve finalizes its reductions."""
    w = _Working(inst)
    changed = w.simple_fixpoint()
    return w.finalize({"simple": {"changed": changed}}, changed)


def eliminate_at(inst, bound):
    """Dual-ascent elimination of ``inst`` at the upper bound ``bound``, by
    the run ``select_root`` picks on the snapshot, through the reduction
    state a solve runs."""
    w = _Working(inst)
    snapshot, order, _ = w.snapshot()
    changed = w._eliminate(snapshot, order, select_root(snapshot), bound)
    return w.finalize({"dual_ascent_bounds": {"changed": changed}}, changed)


def brute_force_smt(instance):
    """Minimum Steiner tree cost by edge-subset enumeration (tiny graphs)."""
    net, terms = instance.network, instance.terminals
    if len(terms) == 1:
        return 0
    m, n = len(net.edges), net.vertex_count
    best = None
    for k in range(len(terms) - 1, n):
        for combo in itertools.combinations(range(m), k):
            verts = set()
            cost = 0
            for e in combo:
                u, v, c = net.edges[e]
                verts.add(u)
                verts.add(v)
                cost += c
            if best is not None and cost >= best:
                continue
            if not terms <= verts or len(verts) != k + 1:
                continue
            adj = {}
            for e in combo:
                u, v, _ = net.edges[e]
                adj.setdefault(u, []).append(v)
                adj.setdefault(v, []).append(u)
            start = next(iter(verts))
            seen = {start}
            stack = [start]
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            if seen == verts:
                best = cost
    return best
