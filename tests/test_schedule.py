"""The default reduction schedule: simple reductions plus rounds of
dual-ascent elimination.  Default solves agree with the Dreyfus-Wagner
oracle and with solves that skip preprocessing.  The stats keep a counter
for each of the five other operation names of the schema, and those
counters read 0."""

import random

from stpsolve import (
    SolveConfig,
    dreyfus_wagner,
    solve,
    unreduce,
    validate_tree,
)
from stpsolve.reductions import REDUCTION_OPS
from conftest import eliminate_at, family_corpus, random_grid, random_instance

DEFAULT_OPS = ("simple", "dual_ascent_bounds")


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
    pre = eliminate_at(inst, expected)
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
    for inst in family_corpus(3):
        ops, search = check_default_solve(inst)
        eliminated += ops["dual_ascent_bounds"]["changed"] > 0
        searched += search
    assert eliminated >= 3
    assert searched >= 5
