"""The default reduction schedule: simple reductions plus rounds of
dual-ascent elimination.  Default solves agree with the Dreyfus-Wagner
oracle and with solves that skip preprocessing.  The stats keep a counter
for each of the five other operation names of the schema, and those
counters read 0."""

import random

from stpsolve import (
    Instance,
    Network,
    SolveConfig,
    dreyfus_wagner,
    dual_ascent_elimination,
    solve,
    unreduce,
    validate_tree,
)
from stpsolve.reductions import REDUCTION_OPS
from conftest import random_grid, random_instance

DEFAULT_OPS = ("simple", "dual_ascent_bounds")

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


def random_corpus(seed, count):
    rng = random.Random(seed)
    half = count // 2
    corpus = [random_instance(rng, 6, 24, 3, 7) for _ in range(half)]
    return corpus + [random_grid(rng, max_t=7) for _ in range(count - half)]


def check_default_solve(inst):
    """Assert that the default solve is optimal with both bounds on the
    optimum, that a solve without preprocessing costs the same and reports
    every operation at 0, that only the default schedule's operations
    changed anything, and that dual-ascent elimination at the optimum keeps
    an optimal tree.  Returns the solve's per-operation counters and
    whether it searched."""
    expected = dreyfus_wagner(inst, min(inst.terminals))[0]
    pre = dual_ascent_elimination(inst, expected)
    reduced = pre.reduced
    if len(reduced.terminals) > 1:
        kept = solve(reduced, SolveConfig(preprocess=False))
        assert kept.cost + pre.offset == expected
        assert validate_tree(inst, unreduce(kept.tree, pre.log)) == expected
    result = solve(inst)
    assert result.status == "optimal"
    assert validate_tree(inst, result.tree) == result.cost == expected
    assert result.stats["lower_bound"] == result.stats["upper_bound"] == expected
    plain = solve(inst, SolveConfig(preprocess=False))
    assert validate_tree(inst, plain.tree) == plain.cost == expected
    assert plain.stats["preprocessing"]["ops"] == {
        op: {"changed": 0} for op in REDUCTION_OPS
    }
    ops = result.stats["preprocessing"]["ops"]
    assert set(ops) == set(REDUCTION_OPS)
    for op in REDUCTION_OPS:
        if op not in DEFAULT_OPS:
            assert ops[op]["changed"] == 0, op
    return ops, result.search is not None


def test_the_operation_tuple_names_every_counter():
    assert REDUCTION_OPS == (
        "simple",
        "long_edges",
        "steiner_distance",
        "ntdk",
        "dual_ascent_bounds",
        "short_links",
        "nearest_vertex",
    )


def test_random_instances_match_the_oracle():
    eliminated = searched = 0
    for inst in random_corpus(311, 300):
        ops, search = check_default_solve(inst)
        eliminated += ops["dual_ascent_bounds"]["changed"] > 0
        searched += search
    assert eliminated >= 10
    assert searched >= 5


def test_bench_family_shapes_match_the_oracle():
    eliminated = searched = 0
    for inst in family_corpus(2):
        ops, search = check_default_solve(inst)
        eliminated += ops["dual_ascent_bounds"]["changed"] > 0
        searched += search
    assert eliminated >= 3
    assert searched >= 5
