import random
from itertools import combinations

import pytest

from stpsolve import (
    BottleneckOracle,
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
    long_edge_test,
    nearest_vertex_test,
    ntdk_test,
    run_pipeline,
    select_root,
    short_links_test,
    simple_reductions,
    steiner_distance_test,
    unreduce,
    upper_bound_pipeline,
    validate_tree,
)
from stpsolve.bounds import best_root_run
from stpsolve.graph import mst_over_points
from stpsolve.reductions import PipelineConfig, _Working
from conftest import random_grid, random_instance, unit_grid_8x8


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


class TestLongEdges:
    def test_k4_drops_edges_above_terminal_mst(self, fix_k4):
        pre = long_edge_test(fix_k4)
        assert pre.changed == 2
        costs = sorted(c for _, _, c in pre.reduced.network.edges)
        assert costs == [1, 11, 12, 15]
        assert reduced_optimum(pre) + pre.offset == 27

    def test_no_change_when_all_edges_short(self, fix_path):
        assert long_edge_test(fix_path).changed == 0

    def test_single_terminal_skipped(self):
        inst = Instance(Network(2, [(0, 1, 99)]), frozenset({0}))
        assert long_edge_test(inst).changed == 0


class TestSteinerDistance:
    def test_k4_removes_dominated_edge(self, fix_k4):
        pre = steiner_distance_test(fix_k4)
        removed = {
            (u, v)
            for u, v, _ in fix_k4.network.edges
            if pre.vertex_image[u] is not None
            and pre.vertex_image[v] is not None
            and pre.reduced.network.edge_between(
                pre.vertex_image[u], pre.vertex_image[v]
            )
            is None
        }
        assert (0, 3) in removed  # the direct a-d edge exceeds the relay value
        assert reduced_optimum(pre) + pre.offset == 27

    def test_path_untouched(self, fix_path):
        assert steiner_distance_test(fix_path).changed == 0

    def test_accepts_prebuilt_oracle(self, fix_k4):
        oracle = BottleneckOracle(fix_k4.network, fix_k4.terminals)
        assert steiner_distance_test(fix_k4, oracle).changed >= 1


class TestNtdk:
    def test_center_replacement_preserves_optimum(self, fix_ntdk):
        before = dreyfus_wagner(fix_ntdk, 0)[0]
        assert before == 8
        pre = ntdk_test(fix_ntdk)
        assert pre.changed == 1
        assert pre.reduced.network.vertex_count == 3
        assert reduced_optimum(pre) + pre.offset == before

    def test_star_center_not_applicable(self, fix_star):
        # incident sum 9 is below the relay spanning cost 11
        assert ntdk_test(fix_star).changed == 0

    def test_expensive_neighbor_blocks(self):
        # relay spanning cost 5 + 102 exceeds the incident sum 105, so the
        # degree-3 center with one far terminal neighbor must survive
        net = Network(4, [(3, 0, 2), (3, 1, 3), (3, 2, 100)])
        inst = Instance(net, frozenset({0, 1, 2}))
        assert ntdk_test(inst).changed == 0



def restarting_ntdk(w, max_degree=4, nearest_k=3):
    """Reference NTDk: a fresh snapshot and oracle after every replacement,
    then a new scan from the smallest vertex id."""
    replaced = 0
    while len(w.terminals) > 1:
        w.restrict_to_terminal_component()
        inst, order = w.snapshot()
        pos = {v: i for i, v in enumerate(order)}
        oracle = BottleneckOracle(inst.network, inst.terminals, nearest_k)
        fired = False
        for u in sorted(w.alive):
            if u in w.terminals:
                continue
            deg = w.degree(u)
            if deg < 3 or deg > max_degree:
                continue
            nbrs = sorted(w.adj[u].items())
            costs = [c for _, (c, _) in nbrs]
            ids = [v for v, _ in nbrs]
            ok = True
            for size in range(3, deg + 1):
                for combo in combinations(range(deg), size):
                    pts = [pos[ids[i]] for i in combo]
                    mst_cost, _ = mst_over_points(
                        len(pts), lambda i, j: oracle.query(pts[i], pts[j])
                    )
                    if sum(costs[i] for i in combo) < mst_cost:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                continue
            fresh_pairs = sum(
                1
                for i, j in combinations(range(deg), 2)
                if ids[j] not in w.adj[ids[i]]
            )
            if fresh_pairs > deg:
                continue
            pairs = [
                (ids[i], ids[j], costs[i] + costs[j], nbrs[i][1][1] + nbrs[j][1][1])
                for i, j in combinations(range(deg), 2)
            ]
            w.remove_vertex(u)
            for x, y, c, prov in pairs:
                w.add_or_min_edge(x, y, c, prov)
            replaced += 1
            fired = True
            break
        if not fired:
            break
    return replaced


def restarting_ntdk_test(instance):
    w = _Working(instance)
    changed = restarting_ntdk(w)
    return w.finalize({"ntdk": {"changed": changed}}, changed)


def random_cost_grid(rng):
    """A w x h grid (6..12 per side) with costs from {1, 2, 5, 20}, up to
    four random chords and 3..10 terminals."""
    return random_grid(rng, 6, 12, (1, 2, 5, 20), max_chords=4, min_t=3, max_t=10)


class TestNtdkWorklist:
    """The single-oracle worklist makes the same replacements, in the same
    order, as the restarting scan."""

    def assert_same(self, instances, min_multi):
        multi = 0
        for inst in instances:
            want = restarting_ntdk_test(inst)
            got = ntdk_test(inst)
            assert got.changed == want.changed
            assert got.reduced.network.edges == want.reduced.network.edges
            assert got.reduced.terminals == want.reduced.terminals
            assert got.log.records == want.log.records
            multi += want.changed >= 2
        assert multi >= min_multi  # the corpus exercises re-queueing

    def test_random_instances(self):
        rng = random.Random(89)
        self.assert_same([random_instance(rng) for _ in range(400)], 100)

    def test_random_cost_grids(self):
        rng = random.Random(97)
        self.assert_same([random_cost_grid(rng) for _ in range(60)], 55)

    def test_passed_oracle_serves_the_whole_call(self):
        rng = random.Random(101)
        for _ in range(100):
            inst = random_instance(rng)
            oracle = BottleneckOracle(inst.network, inst.terminals)
            got = ntdk_test(inst, oracle=oracle)
            want = ntdk_test(inst)
            assert got.changed == want.changed
            assert got.reduced.network.edges == want.reduced.network.edges
            assert got.log.records == want.log.records


def rebuilding_steiner_distance(w, nearest_k=3):
    """Reference Steiner-distance test: a fresh snapshot and oracle after
    every tie removal, then a new scan from the first edge."""
    if len(w.terminals) <= 1:
        return 0
    removed = 0
    w.restrict_to_terminal_component()
    inst, order = w.snapshot()
    pos = {v: i for i, v in enumerate(order)}
    oracle = BottleneckOracle(inst.network, inst.terminals, nearest_k)
    doomed = [
        (u, v) for u, v, c in w.edge_list() if c > oracle.query(pos[u], pos[v])
    ]
    for u, v in doomed:
        w.remove_edge(u, v)
    removed += len(doomed)
    for _ in range(16):
        if len(w.terminals) <= 1:
            break
        w.restrict_to_terminal_component()
        inst, order = w.snapshot()
        pos = {v: i for i, v in enumerate(order)}
        fresh = BottleneckOracle(inst.network, inst.terminals, nearest_k)
        sentinel = inst.network.total_cost
        fired = False
        for u, v, c in w.edge_list():
            alt = fresh.query(pos[u], pos[v], exclude_direct_edge=True)
            if alt >= sentinel:
                continue
            if c >= alt:
                w.remove_edge(u, v)
                removed += 1
                fired = True
                break
        if not fired:
            break
    return removed


class TestSteinerDistanceOracleReuse:
    """Keeping the oracle across distance-preserving tie removals makes the
    same removals, in the same order, as rebuilding it after each one."""

    def assert_same(self, instances, min_multi):
        multi = 0
        for inst in instances:
            w = _Working(inst)
            changed = rebuilding_steiner_distance(w)
            want = w.finalize({}, changed)
            got = steiner_distance_test(inst)
            assert got.changed == want.changed
            assert got.reduced.network.edges == want.reduced.network.edges
            assert got.reduced.terminals == want.reduced.terminals
            assert got.log.records == want.log.records
            multi += want.changed >= 2
        assert multi >= min_multi  # the corpus exercises repeated removals

    def test_random_instances(self):
        rng = random.Random(149)
        self.assert_same([random_instance(rng) for _ in range(600)], 250)

    def test_grids_with_tied_costs(self):
        rng = random.Random(151)
        self.assert_same([random_grid(rng, max_side=7) for _ in range(600)], 500)


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

class TestShortLinks:
    def test_two_parallel_paths_contract_the_cheap_link(self):
        # terminals joined by one cheap and one expensive disjoint path
        net = Network(
            6,
            [(0, 2, 1), (2, 3, 1), (3, 1, 1), (0, 4, 5), (4, 5, 5), (5, 1, 5)],
        )
        inst = Instance(net, frozenset({0, 1}))
        before = dreyfus_wagner(inst, 0)[0]
        pre = short_links_test(inst)
        assert pre.changed == 1
        assert reduced_optimum(pre) + pre.offset == before

    def test_single_link_region_skipped(self, fix_path):
        assert short_links_test(fix_path).changed == 0

    def test_preserves_optimum_on_random_instances(self):
        rng = random.Random(73)
        for _ in range(25):
            inst = random_instance(rng)
            opt = dreyfus_wagner(inst, min(inst.terminals))[0]
            pre = short_links_test(inst)
            assert reduced_optimum(pre) + pre.offset == opt


class TestNearestVertex:
    def test_cheap_edge_near_other_terminal(self):
        net = Network(4, [(0, 1, 1), (1, 2, 1), (0, 3, 5)])
        inst = Instance(net, frozenset({0, 2}))
        pre = nearest_vertex_test(inst)
        assert pre.changed == 1
        assert reduced_optimum(pre) + pre.offset == 2

    def test_degree_one_terminals_skipped(self, fix_star):
        assert nearest_vertex_test(fix_star).changed == 0

    def test_cheap_second_edge_blocks(self):
        net = Network(4, [(0, 1, 4), (1, 2, 4), (0, 3, 4), (3, 2, 4)])
        inst = Instance(net, frozenset({0, 2}))
        assert nearest_vertex_test(inst).changed == 0

    def test_pendant_neighbor_never_contracted(self):
        # the cheap neighbor of terminal 4 is the dead end 5: rerouting
        # through the terminal itself must not count as a reconnection
        net = Network(
            8,
            [
                (0, 1, 1), (0, 7, 1), (1, 2, 14), (1, 6, 12), (1, 7, 3),
                (2, 3, 20), (3, 4, 15), (3, 6, 18), (3, 7, 11), (4, 5, 1),
                (4, 6, 7),
            ],
        )
        inst = Instance(net, frozenset({4, 6, 7}))
        opt = dreyfus_wagner(inst, 4)[0]
        assert opt == 21
        pre = nearest_vertex_test(inst)
        assert reduced_optimum(pre) + pre.offset == opt


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
        ops = [
            simple_reductions,
            long_edge_test,
            steiner_distance_test,
            ntdk_test,
            short_links_test,
            nearest_vertex_test,
        ]
        for inst in reduction_corpus[:60]:
            for op in ops:
                pre = op(inst)
                assert (
                    pre.reduced.network.vertex_count <= inst.network.vertex_count
                )
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
