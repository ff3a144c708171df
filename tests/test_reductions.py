import random

import pytest

from stpsolve import (
    InputError,
    Instance,
    InternalError,
    Network,
    SolveContext,
    SteinerTree,
    dreyfus_wagner,
    dual_ascent,
    run_pipeline,
    select_root,
    solve,
    spread_rsph,
    unreduce,
    upper_bound_pipeline,
    validate_tree,
)
from stpsolve.reductions import _Working
from conftest import (
    eliminate_at,
    family_corpus,
    hypercube,
    make_k4,
    random_grid,
    random_instance,
    simplified,
)


def reduced_optimum(pre):
    if len(pre.reduced.terminals) <= 1:
        return 0
    return dreyfus_wagner(pre.reduced, min(pre.reduced.terminals))[0]


def contracted(inst, a, b):
    """``inst`` with the edge {a, b} contracted, finalized."""
    w = _Working(inst)
    w.contract_edge_pair(a, b)
    return w.finalize({}, 1)


class TestContractEdge:
    def test_path_first_edge(self, fix_path):
        pre = contracted(fix_path, 0, 1)
        assert pre.offset == 2
        assert pre.reduced.network.vertex_count == 2
        assert len(pre.reduced.terminals) == 2  # survivor inherits terminal status

    def test_terminal_terminal_merges(self, fix_k4):
        pre = contracted(fix_k4, 0, 1)
        assert len(pre.reduced.terminals) == 3
        assert pre.offset == 1

    def test_collision_keeps_cheaper_parallel(self):
        net = Network(3, [(0, 1, 1), (1, 2, 5), (0, 2, 2)])
        inst = Instance(net, frozenset({0, 2}))
        pre = contracted(inst, 0, 1)
        # merging 0 into 1 leaves a single {merged, 2} edge of cost 2
        assert pre.reduced.network.edges == ((0, 1, 2),)

    def test_the_non_terminal_end_or_else_the_smaller_id_survives(self, fix_path):
        # The survivor keeps its working id and becomes a terminal; the
        # absorbed end is gone and maps to it.
        line = Instance(Network(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)]), {0, 3})
        cases = [
            (fix_path, 0, 1, 1),  # terminal 0, non-terminal 1
            (fix_path, 1, 0, 1),
            (make_k4(), 1, 0, 0),  # two terminals
            (line, 2, 1, 1),  # two non-terminals
        ]
        for inst, a, b, want in cases:
            w = _Working(inst)
            assert w.contract_edge_pair(a, b) == want
            assert w.survivor(a) == w.survivor(b) == want
            assert want in w.terminals
            assert w.alive == set(range(inst.network.vertex_count)) - {a + b - want}

    def test_missing_edge_rejected(self, fix_path):
        with pytest.raises(InputError):
            _Working(fix_path).contract_edge_pair(0, 2)


class TestSimpleReductions:
    def test_diamond_solved_outright(self, fix_diamond):
        pre = simplified(fix_diamond)
        assert len(pre.reduced.terminals) == 1
        assert pre.offset == 2

    def test_path_fully_contracted(self, fix_path):
        pre = simplified(fix_path)
        assert pre.offset == 5
        assert pre.reduced.network.vertex_count == 1

    def test_star_contracts_through_center(self, fix_star):
        pre = simplified(fix_star)
        assert pre.offset == 9
        assert len(pre.reduced.terminals) == 1


class TestDualAscentElimination:
    def test_tight_bound_keeps_star(self, fix_star):
        pre = eliminate_at(fix_star, 9)
        assert pre.changed == 0
        assert pre.reduced.network.vertex_count == 4

    def test_infinite_bound_removes_nothing(self):
        rng = random.Random(67)
        for _ in range(10):
            inst = random_instance(rng)
            pre = eliminate_at(inst, inst.network.total_cost)
            assert pre.changed == 0

    def test_preserves_optimum_with_real_bound(self):
        rng = random.Random(71)
        for _ in range(20):
            inst = random_instance(rng)
            opt = dreyfus_wagner(inst, min(inst.terminals))[0]
            run = select_root(inst)
            upper = upper_bound_pipeline(inst, run.root, run, (spread_rsph(inst),))
            pre = eliminate_at(inst, upper.cost)
            assert reduced_optimum(pre) + pre.offset == opt

    def test_the_picking_round_keeps_the_select_root_run(self):
        # The first round, or the hunting round after it, picks the root
        # with the run ``select_root`` makes on that round's snapshot; a
        # later round runs from the same root.
        rng = random.Random(113)
        corpus = [
            random_grid(rng, 5, 8, costs=(1,), min_t=4, max_t=8) for _ in range(60)
        ]
        corpus += [  # spread terminals on near-unit costs leave bounds apart
            hypercube(rng, 6, 8, 100, 110, 3) for _ in range(10)
        ]
        picked = later = 0
        for inst in corpus:
            ctx = SolveContext()
            w = _Working(inst, ctx)
            w.simple_fixpoint()
            while ctx.root is None and len(w.terminals) > 1:
                snapshot, order, _ = w.snapshot()
                w.dual_ascent_elimination()
                w.simple_fixpoint()
            if ctx.root is None:
                continue
            picked += 1
            best = select_root(snapshot)
            assert ctx.root == order[best.root]
            assert w.run == best
            root = w.survivor(ctx.root)
            if ctx.proven or len(w.terminals) <= 1:
                continue
            later += 1
            snapshot, order, _ = w.snapshot()
            w.dual_ascent_elimination()  # a later round
            assert w.survivor(ctx.root) == root
            assert w.run == dual_ascent(snapshot, order.index(root))
        assert picked >= 60
        assert later >= 10


class TestPipeline:
    def test_diamond_fully_solved(self, fix_diamond):
        pre = run_pipeline(fix_diamond)
        assert len(pre.reduced.terminals) == 1
        assert pre.offset == 2

    def test_fixpoint_is_identity(self):
        rng = random.Random(79)
        for _ in range(10):
            inst = random_instance(rng)
            first = run_pipeline(inst)
            if len(first.reduced.terminals) <= 1:
                continue
            second = run_pipeline(first.reduced)
            assert second.changed == 0
            assert second.reduced.network.edges == first.reduced.network.edges
            assert second.reduced.terminals == first.reduced.terminals

    def test_monotone_shrinkage_per_operation(self, reduction_corpus):
        for inst in reduction_corpus[:60]:
            pre = simplified(inst)
            assert pre.reduced.network.vertex_count <= inst.network.vertex_count
            assert pre.reduced.network.edge_count <= inst.network.edge_count

    def test_changes_always_logged(self, reduction_corpus):
        # Every reduction removes a vertex or an edge, so the pipeline counts
        # changes exactly when the graph shrank.  Run again on its own
        # output, it mostly has nothing left to change.
        def size(inst):
            return inst.network.vertex_count + inst.network.edge_count

        unchanged = 0
        for inst in reduction_corpus[:40]:
            pre = run_pipeline(inst)
            again = run_pipeline(pre.reduced)
            assert bool(pre.changed) == (size(pre.reduced) < size(inst))
            assert bool(again.changed) == (size(again.reduced) < size(pre.reduced))
            unchanged += not again.changed
        assert unchanged >= 20


_snapshot = _Working.snapshot


def rebuilt_snapshot(w, deadline=None):
    """What ``w.snapshot()`` gives when it rebuilds the graph whatever its
    state.  ``pristine`` is kept, since it also picks the DP budget."""
    pristine, w.pristine, w._built = w.pristine, False, None
    try:
        return _snapshot(w, deadline)
    finally:
        w.pristine = pristine


def shape(inst):
    net = inst.network
    return net.vertex_count, net.edges, net.out, inst.terminals


class TestSnapshotReuse:
    """While no primitive has changed the working graph, ``snapshot`` hands
    back the input instance instead of building the same graph again."""

    def test_an_untouched_graph_is_the_input_equal_to_a_rebuild(self):
        rng = random.Random(347)
        corpus = [random_instance(rng) for _ in range(40)]
        for inst in corpus + [random_grid(rng) for _ in range(20)] + family_corpus(3):
            reused, order, prov = _Working(inst).snapshot()
            assert reused is inst
            assert order == list(range(inst.network.vertex_count))
            assert prov == [(eid,) for eid in range(inst.network.edge_count)]
            rebuilt, rebuilt_order, rebuilt_prov = rebuilt_snapshot(_Working(inst))
            assert rebuilt is not inst
            assert shape(rebuilt) == shape(reused)
            assert (rebuilt_order, rebuilt_prov) == (order, prov)

    @pytest.mark.parametrize(
        "change",
        [
            lambda w: w.remove_edge(2, 3),
            lambda w: w.remove_vertex(3),
            lambda w: w.add_or_min_edge(1, 3, 2, (4,)),
            lambda w: w.contract_edge_pair(0, 1),
        ],
        ids=["remove_edge", "remove_vertex", "add_or_min_edge", "contract_edge_pair"],
    )
    def test_each_primitive_makes_the_next_snapshot_a_rebuild(self, fix_ntdk, change):
        w = _Working(fix_ntdk)
        change(w)
        rebuilt = w.snapshot()[0]
        assert rebuilt is not fix_ntdk
        assert shape(rebuilt) != shape(fix_ntdk)

    def test_an_edge_that_does_not_replace_one_changes_nothing(self, fix_ntdk):
        w = _Working(fix_ntdk)
        assert not w.add_or_min_edge(0, 1, 4, ())  # the edge {0, 1} costs 4
        assert w.snapshot()[0] is fix_ntdk

    def test_solves_equal_those_that_rebuild_every_graph(self, monkeypatch):
        def outcome(result):
            stats = {k: v for k, v in result.stats.items() if k != "wall_time"}
            if stats["search"] is not None:
                stats["search"] = dict(stats["search"], wall_time=None)
            return result.cost, result.tree.edges, stats

        corpus = family_corpus(3)
        reused = [outcome(solve(inst)) for inst in corpus]
        monkeypatch.setattr(_Working, "snapshot", rebuilt_snapshot)
        assert [outcome(solve(inst)) for inst in corpus] == reused


class TestTrustedSnapshot:
    """A rebuilt snapshot skips the dedup, the per-edge checks and the
    connectivity check, since its edges come sorted, unique, with positive
    integer costs, and connected: the graph equals the checked build."""

    def test_the_trusted_build_equals_the_checked_one(self, monkeypatch):
        snapshots = []

        def recorded(w, deadline=None):
            snap = _snapshot(w, deadline)
            if snap[0] is not w.instance:
                snapshots.append(snap[0])
            return snap

        rng = random.Random(353)
        for inst in [random_instance(rng) for _ in range(60)] + family_corpus(2):
            w = _Working(inst)
            w.simple_fixpoint()
            for _ in range(rng.randint(1, 4)):  # each keeps the graph connected
                live = sorted(w.alive)
                if len(live) < 3:
                    break
                a, b = rng.sample(live, 2)
                w.add_or_min_edge(a, b, rng.randint(1, 30), ())
                w.contract_edge_pair(a, rng.choice(sorted(w.adj[a])))
            recorded(w)
        monkeypatch.setattr(_Working, "snapshot", recorded)
        for inst in [random_grid(rng) for _ in range(30)] + family_corpus(2):
            solve(inst)
        assert len(snapshots) >= 150
        for inst in snapshots:
            net = inst.network
            checked = Instance(Network(net.vertex_count, net.edges), inst.terminals)
            assert vars(net) == vars(checked.network)
            assert type(inst.terminals) is frozenset
            assert inst.terminals == checked.terminals


class TestProvenance:
    def test_provenance_accounts_for_every_original_edge_once(self):
        # Each reduced edge costs the original edges it stands for, the
        # forced paths cost the offset, and no original edge stands in two
        # places.
        rng = random.Random(331)
        corpus = [random_instance(rng, 6, 24, 3, 7) for _ in range(187)]
        corpus += [random_grid(rng, max_t=7) for _ in range(187)]
        for inst in corpus + family_corpus(3):
            pre = run_pipeline(inst)
            cost = inst.network.cost_of
            expansion = pre.log.edge_expansion
            edges = pre.reduced.network.edges
            assert sorted(expansion) == list(range(len(edges)))
            for eid, (_, _, c) in enumerate(edges):
                assert c == sum(map(cost, expansion[eid]))
            assert pre.offset == sum(map(cost, (e for p in pre.log.forced for e in p)))
            used = [e for p in (*expansion.values(), *pre.log.forced) for e in p]
            assert len(used) == len(set(used))


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
        pre = simplified(inst)
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
