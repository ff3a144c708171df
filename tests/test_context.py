"""The solve context: the root is chosen once, the incumbent is carried
across reduction rounds, matching bounds end the solve, and a timeout
returns the incumbent with both bounds."""

import random
import time

import pytest

import stpsolve.bounds
import stpsolve.reductions
import stpsolve.solver
from stpsolve import (
    Instance,
    InternalError,
    Network,
    SolveConfig,
    SolveContext,
    dreyfus_wagner,
    solve,
    validate_tree,
)
from stpsolve.graph import SolveTimeout
from stpsolve.reductions import _EXCLUSIONS, _INCLUSIONS, _Working
from conftest import random_grid, random_instance

OPS = ("simple",) + _EXCLUSIONS + _INCLUSIONS


def unit_grid(width, height, terminals, max_cost, seed):
    """Grid with costs ``rng.randint(1, max_cost)``, edges added right then
    down in row-major order, then ``rng.sample`` terminals."""
    rng = random.Random(seed)
    n = width * height
    edges = []
    for v in range(n):
        if v % width + 1 < width:
            edges.append((v, v + 1, rng.randint(1, max_cost)))
        if v + width < n:
            edges.append((v, v + width, rng.randint(1, max_cost)))
    return Instance(Network(n, edges), frozenset(rng.sample(range(n), terminals)))


def proof_corpus(seed, count):
    rng = random.Random(seed)
    half = count // 2
    corpus = [random_instance(rng, 6, 24, 3, 7) for _ in range(half)]
    return corpus + [random_grid(rng, max_t=7) for _ in range(count - half)]


def optimum(inst):
    return dreyfus_wagner(inst, min(inst.terminals))[0]


def is_proof(result):
    """Optimal without a search on a reduced graph with terminals to join."""
    return (
        result.status == "optimal"
        and result.search is None
        and len(result.preprocess.reduced.terminals) > 1
    )


class TestProofPath:
    def test_costs_match_the_oracle(self):
        proofs = 0
        for inst in proof_corpus(301, 320):
            expected = optimum(inst)
            result = solve(inst)
            assert result.status == "optimal"
            assert validate_tree(inst, result.tree) == result.cost == expected
            assert result.stats["lower_bound"] == expected
            assert result.stats["upper_bound"] == expected
            ops = result.preprocess.stats
            assert set(ops) == set(OPS)
            assert all(ops[op]["changed"] >= 0 for op in OPS)
            if is_proof(result):
                proofs += 1
                assert result.stats["heuristic"] is None
                assert result.stats["root"] in result.preprocess.reduced.terminals
        assert proofs >= 130

    def test_proof_with_a_wrong_bound_raises(self, monkeypatch):
        proven = next(
            inst for inst in proof_corpus(303, 40) if is_proof(solve(inst))
        )
        real = stpsolve.solver.run_pipeline

        def lying(instance, config, context):
            pre = real(instance, config, context)
            context.lower_bound = context.upper_bound = context.upper_bound - 1
            return pre

        monkeypatch.setattr(stpsolve.solver, "run_pipeline", lying)
        with pytest.raises(InternalError, match="proven tree"):
            solve(proven)

    def test_offer_keeps_a_tree_inside_a_cyclic_expansion(self):
        # Two expanded edges that share provenance can close a cycle; the
        # context keeps their minimum spanning tree, leaf-pruned.
        net = Network(4, [(0, 1, 2), (0, 2, 5), (1, 2, 2), (2, 3, 1)])
        inst = Instance(net, frozenset({0, 2}))
        ctx = SolveContext()
        ctx.offer(inst, range(4))
        assert ctx.incumbent == {0, 2}
        assert validate_tree(inst, ctx.tree(inst)) == ctx.upper_bound == 4
        ctx.offer(inst, [1])
        assert ctx.upper_bound == 4  # not cheaper: the incumbent stays


class TestCarriedIncumbent:
    def test_later_rounds_see_the_incumbent_on_their_snapshot(self):
        carried = 0
        for seed in range(40):
            inst = unit_grid(12, 12, 10, 1, seed)
            ctx = SolveContext()
            w = _Working(inst, ctx)
            w.simple_fixpoint()
            w.dual_ascent_elimination()
            if ctx.proven or len(w.terminals) <= 1:
                continue
            w.simple_fixpoint()
            w.restrict_to_terminal_component()
            snapshot, order = w.snapshot()
            tree = w.incumbent_on(snapshot, order)
            if tree is None:
                continue
            carried += 1
            assert validate_tree(snapshot, tree) == tree.cost
            assert tree.edges  # the snapshot still has terminals to join
        assert carried >= 15


class TestTimeouts:
    def test_grid_timeout_returns_an_incumbent_within_the_limit(self):
        inst = unit_grid(40, 40, 20, 1, 9)
        limit = 0.2
        start = time.perf_counter()
        result = solve(inst, SolveConfig(time_limit=limit))
        elapsed = time.perf_counter() - start
        assert result.status == "timeout"
        assert validate_tree(inst, result.tree) == result.cost
        assert result.stats["lower_bound"] <= result.stats["upper_bound"]
        assert result.stats["upper_bound"] == result.cost
        assert elapsed <= limit + max(0.25, 0.1 * limit)

    def test_search_honours_the_limit(self):
        # Without preprocessing the limit falls in root selection or in the
        # search, whose expansions may each build heuristic tables.
        inst = unit_grid(40, 40, 20, 1, 9)
        limit = 0.2
        start = time.perf_counter()
        result = solve(inst, SolveConfig(preprocess=False, time_limit=limit))
        elapsed = time.perf_counter() - start
        assert validate_tree(inst, result.tree) == result.cost
        assert elapsed <= limit + max(0.25, 0.1 * limit)

    def test_search_counters_survive_a_timeout(self):
        inst = unit_grid(15, 15, 10, 1, 9)
        result = solve(
            inst,
            SolveConfig(
                preprocess=False, pruning=False, heuristic="zero", time_limit=0.3
            ),
        )
        assert result.status == "timeout"
        assert result.search.expansions > 0
        assert result.stats["search"] == result.search.as_dict()
        assert validate_tree(inst, result.tree) == result.cost

    def test_bounds_bracket_the_optimum_wherever_time_runs_out(self, monkeypatch):
        # Time runs out at the k-th deadline check, for every k up to the
        # number of checks a solve makes.
        calls = []

        def check(deadline):
            calls.append(deadline)
            if len(calls) == stop_at:
                raise SolveTimeout()

        for module in (stpsolve.solver, stpsolve.reductions, stpsolve.bounds):
            monkeypatch.setattr(module, "check_deadline", check)
        timeouts = bounded = 0
        for inst in proof_corpus(307, 40):
            expected = optimum(inst)
            stop_at = 1
            while True:
                calls.clear()
                result = solve(inst, SolveConfig(time_limit=60.0))
                if result.status == "optimal":
                    assert result.cost == expected
                    break
                timeouts += 1
                stats = result.stats
                assert stats["lower_bound"] <= expected <= stats["upper_bound"]
                assert stats["upper_bound"] == result.cost
                assert validate_tree(inst, result.tree) == result.cost
                bounded += stats["lower_bound"] > 0
                stop_at += 1
        assert timeouts >= 300
        assert bounded >= 30
