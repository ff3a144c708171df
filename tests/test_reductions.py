import random

import pytest

from stpsolve import (
    InputError,
    Instance,
    InternalError,
    Network,
    SolveContext,
    SteinerTree,
    contract_edge,
    dreyfus_wagner,
    dual_ascent,
    dual_ascent_elimination,
    run_pipeline,
    select_root,
    simple_reductions,
    unreduce,
    upper_bound_pipeline,
    validate_tree,
)
from stpsolve.bounds import best_root_run
from stpsolve.reductions import PipelineConfig, _Working
from conftest import random_instance, unit_grid_8x8


def reduced_optimum(pre):
    if len(pre.reduced.terminals) <= 1:
        return 0
    return dreyfus_wagner(pre.reduced, min(pre.reduced.terminals))[0]


class TestContractEdge:
    def test_path_first_edge(self, fix_path):
        pre = contract_edge(fix_path, (0, 1))
        assert pre.offset == 2
        assert pre.reduced.network.vertex_count == 2
        assert len(pre.reduced.terminals) == 2  # survivor inherits terminal status

    def test_terminal_terminal_merges(self, fix_k4):
        pre = contract_edge(fix_k4, (0, 1))
        assert len(pre.reduced.terminals) == 3
        assert pre.offset == 1

    def test_collision_keeps_cheaper_parallel(self):
        net = Network(3, [(0, 1, 1), (1, 2, 5), (0, 2, 2)])
        inst = Instance(net, frozenset({0, 2}))
        pre = contract_edge(inst, (0, 1))
        # merging 0 into 1 leaves a single {merged, 2} edge of cost 2
        assert pre.reduced.network.edges == ((0, 1, 2),)

    def test_missing_edge_rejected(self, fix_path):
        with pytest.raises(InputError):
            contract_edge(fix_path, (0, 2))


class TestSimpleReductions:
    def test_diamond_solved_outright(self, fix_diamond):
        pre = simple_reductions(fix_diamond)
        assert len(pre.reduced.terminals) == 1
        assert pre.offset == 2

    def test_path_fully_contracted(self, fix_path):
        pre = simple_reductions(fix_path)
        assert pre.offset == 5
        assert pre.reduced.network.vertex_count == 1

    def test_star_contracts_through_center(self, fix_star):
        pre = simple_reductions(fix_star)
        assert pre.offset == 9
        assert len(pre.reduced.terminals) == 1


class TestDualAscentElimination:
    def test_tight_bound_keeps_star(self, fix_star):
        pre = dual_ascent_elimination(fix_star, 9)
        assert pre.changed == 0
        assert pre.reduced.network.vertex_count == 4

    def test_infinite_bound_removes_nothing(self):
        rng = random.Random(67)
        for _ in range(10):
            inst = random_instance(rng)
            pre = dual_ascent_elimination(inst, inst.network.total_cost)
            assert pre.changed == 0

    def test_preserves_optimum_with_real_bound(self):
        rng = random.Random(71)
        for _ in range(20):
            inst = random_instance(rng)
            opt = dreyfus_wagner(inst, min(inst.terminals))[0]
            upper = upper_bound_pipeline(inst, select_root(inst)).cost
            pre = dual_ascent_elimination(inst, upper)
            assert reduced_optimum(pre) + pre.offset == opt


    def test_root_run_kept_only_for_the_unchanged_graph(self):
        # The context keeps a round's root run only while the working graph
        # is the one it ran on; the root is chosen once, in the first round.
        rng = random.Random(113)
        for _ in range(10):
            inst = random_instance(rng)
            ctx = SolveContext()
            w = _Working(inst, ctx)
            w.dual_ascent_elimination(inst.network.total_cost)
            pre = w.finalize({}, 0)
            root = pre.vertex_image[ctx.root]
            assert root == best_root_run(pre.reduced).root
            want = dual_ascent(pre.reduced, root)
            assert ctx.run.lower_bound == want.lower_bound
            assert ctx.run.reduced_cost == want.reduced_cost
            assert ctx.run.root_component == want.root_component
            assert ctx.run == want
            w.dual_ascent_elimination(inst.network.total_cost)  # a later round
            assert w.finalize({}, 0).vertex_image[ctx.root] == root
            assert ctx.run == want
            u, v = next(
                (u, v) for u in sorted(w.alive) for v in sorted(w.alive)
                if u != v and v not in w.adj[u]
            )
            w.add_or_min_edge(u, v, 1, ())
            w.finalize({}, 1)
            assert ctx.run is None
            assert ctx.root is not None


class TestPipeline:
    def test_diamond_fully_solved(self, fix_diamond):
        pre = run_pipeline(fix_diamond)
        assert len(pre.reduced.terminals) == 1
        assert pre.offset == 2

    def test_fixpoint_is_identity(self):
        rng = random.Random(79)
        config = PipelineConfig(threshold_ratio=0.0)
        for _ in range(10):
            inst = random_instance(rng)
            first = run_pipeline(inst, config)
            if len(first.reduced.terminals) <= 1:
                continue
            second = run_pipeline(first.reduced, config)
            assert second.changed == 0
            assert not second.log.records
            assert second.reduced.network.edges == first.reduced.network.edges
            assert second.reduced.terminals == first.reduced.terminals

    def test_monotone_shrinkage_per_operation(self, reduction_corpus):
        for inst in reduction_corpus[:60]:
            pre = simple_reductions(inst)
            assert pre.reduced.network.vertex_count <= inst.network.vertex_count
            assert pre.reduced.network.edge_count <= inst.network.edge_count

    def test_changes_always_logged(self, reduction_corpus):
        for inst in reduction_corpus[:40]:
            pre = run_pipeline(inst)
            if pre.changed:
                assert pre.log.records

    @pytest.mark.parametrize(
        "ratio", [float("nan"), float("inf"), float("-inf"), -1, -0.01, 1.5, 2]
    )
    def test_bad_threshold_ratio_is_an_input_error(self, ratio):
        # The 8x8 grid reaches the elimination rounds, whose threshold test
        # is where NaN and infinity used to escape as ValueError and
        # OverflowError.
        inst = unit_grid_8x8()
        with pytest.raises(InputError):
            run_pipeline(inst, PipelineConfig(threshold_ratio=ratio))


class TestUnreduce:
    def test_diamond_empty_tree_expands_to_cheap_path(self, fix_diamond):
        pre = run_pipeline(fix_diamond)
        trivial = SteinerTree(frozenset(), min(pre.reduced.terminals), 0)
        tree = unreduce(trivial, pre.log)
        assert validate_tree(fix_diamond, tree) == 2
        picked = {fix_diamond.network.edges[e][:2] for e in tree.edges}
        assert picked == {(0, 2), (1, 2)}

    def test_bypass_edge_expands_to_two_edge_path(self):
        # a-b-c with b a degree-2 non-terminal; solving after reduction must
        # bring back both original edges
        net = Network(3, [(0, 1, 4), (1, 2, 5)])
        inst = Instance(net, frozenset({0, 2}))
        pre = simple_reductions(inst)
        trivial = SteinerTree(frozenset(), min(pre.reduced.terminals), 0)
        tree = unreduce(trivial, pre.log)
        assert validate_tree(inst, tree) == 9
        assert len(tree.edges) == 2

    def test_missing_provenance_raises(self, fix_diamond):
        pre = run_pipeline(fix_diamond)
        bogus = SteinerTree(frozenset({57}), min(pre.reduced.terminals), 0)
        with pytest.raises(InternalError):
            unreduce(bogus, pre.log)

    def test_end_to_end_cost_accounting(self):
        rng = random.Random(83)
        for _ in range(25):
            inst = random_instance(rng)
            opt = dreyfus_wagner(inst, min(inst.terminals))[0]
            pre = run_pipeline(inst)
            if len(pre.reduced.terminals) <= 1:
                reduced_tree = SteinerTree(
                    frozenset(), min(pre.reduced.terminals), 0
                )
            else:
                _, reduced_tree = dreyfus_wagner(
                    pre.reduced, min(pre.reduced.terminals)
                )
            tree = unreduce(reduced_tree, pre.log)
            assert validate_tree(inst, tree) == opt
