import heapq
import itertools
import random
import signal
import time

import pytest

import stpsolve.bounds
from stpsolve import (
    InputError,
    Instance,
    Network,
    da_heuristic,
    dreyfus_wagner,
    ds_star,
    dual_ascent,
    local_search,
    one_tree_heuristic,
    rsph,
    select_root,
    shortest_path_distances,
    solve,
    spread_rsph,
    upper_bound_pipeline,
    validate_tree,
    zero_heuristic,
)
from stpsolve import SteinerTree
from stpsolve.graph import SolveTimeout
from stpsolve.bounds import (
    DP_BUDGET,
    ExactSubsetHeuristic,
    _prune_leaves,
    _spread,
    _tree_adjacency,
    auto_heuristic,
    improving_root_runs,
)
from conftest import (
    SHAPES,
    edge_between,
    family_corpus,
    hypercube,
    neighbors,
    random_grid,
    random_instance,
    unit_grid,
    unit_grid_8x8,
)


def csmt(instance, terminals):
    sub = Instance(instance.network, frozenset(terminals))
    return dreyfus_wagner(sub, min(terminals))[0]


class TestDualAscent:
    def test_path_rooted_at_far_end(self, fix_path):
        assert dual_ascent(fix_path, 2).lower_bound == 5

    def test_star_is_tight(self, fix_star):
        run = dual_ascent(fix_star, 3)
        assert run.lower_bound == 9
        assert run.root_component == frozenset({0, 1, 2, 3})

    def test_single_terminal_subset(self, fix_path):
        run = dual_ascent(fix_path, 2, terminal_subset={2})
        assert run.lower_bound == 0
        assert run.root_component == frozenset({2})

    def test_root_outside_subset_rejected(self, fix_path):
        with pytest.raises(InputError):
            dual_ascent(fix_path, 0, terminal_subset={2})

    def test_a_passed_deadline_stops_the_run(self):
        rng = random.Random(47)
        for _ in range(10):
            inst = random_instance(rng)
            root = min(inst.terminals)
            with pytest.raises(SolveTimeout):
                dual_ascent(inst, root, deadline=time.monotonic() - 1)
            later = time.monotonic() + 60
            assert dual_ascent(inst, root, deadline=later) == dual_ascent(inst, root)

    def test_reduced_costs_bounded_and_terminals_reached(self):
        rng = random.Random(41)
        for _ in range(25):
            inst = random_instance(rng)
            root = min(inst.terminals)
            run = dual_ascent(inst, root)
            assert len(run.reduced_cost) == 2 * inst.network.edge_count
            for eid, (u, v, c) in enumerate(inst.network.edges):
                assert 0 <= run.reduced_cost[2 * eid] <= c  # arc u->v
                assert 0 <= run.reduced_cost[2 * eid + 1] <= c  # arc v->u
            assert inst.terminals <= run.root_component
            assert run.lower_bound <= dreyfus_wagner(inst, root)[0]

    def test_lower_bounds_subsets_too(self):
        rng = random.Random(43)
        for _ in range(10):
            inst = random_instance(rng, max_n=10, max_t=5)
            terms = sorted(inst.terminals)
            root = terms[0]
            for size in range(1, len(terms)):
                subset = frozenset(terms[: size + 1])
                run = dual_ascent(inst, root, subset)
                assert run.lower_bound <= csmt(inst, subset)


def reference_dual_ascent(instance, root, subset):
    """Dual ascent that rebuilds the active cut from scratch at every step.

    The oracle for the incremental kernel: same lazy queue keyed by
    (frontier size, terminal), arc costs keyed by (tail, head).  Returns
    (lower bound, reduced costs, root component).
    """
    net = instance.network
    reduced = {}
    for u, v, c in net.edges:
        reduced[(u, v)] = reduced[(v, u)] = c

    def closure(start, backwards):
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y, _, _ in neighbors(net, x):
                arc = (y, x) if backwards else (x, y)
                if y not in seen and reduced[arc] == 0:
                    seen.add(y)
                    stack.append(y)
        return seen

    lower = 0
    active = set(subset) - {root}
    queue = [(len(net.out[z]), z) for z in sorted(active)]
    heapq.heapify(queue)
    while queue:
        _, z = heapq.heappop(queue)
        cut = closure(z, backwards=True)
        if root in cut or any(x in cut and x != z for x in active):
            active.discard(z)
            continue
        arcs = [
            (y, x) for x in cut for y, _, _ in neighbors(net, x) if y not in cut
        ]
        if queue and len(arcs) > queue[0][0]:
            heapq.heappush(queue, (len(arcs), z))
            continue
        step = min(reduced[a] for a in arcs)
        lower += step
        for a in arcs:
            reduced[a] -= step
        heapq.heappush(queue, (len(arcs), z))
    return lower, reduced, closure(root, backwards=False)


def hypercube_instance(dim, terminal_count, rng):
    n = 1 << dim
    edges = [
        (u, u ^ (1 << b), rng.randint(1, 3))
        for u in range(n)
        for b in range(dim)
        if u < u ^ (1 << b)
    ]
    return Instance(Network(n, edges), frozenset(rng.sample(range(n), terminal_count)))


def unit_grid_instance(side, terminal_count, rng):
    edges = []
    for r in range(side):
        for c in range(side):
            v = r * side + c
            if c + 1 < side:
                edges.append((v, v + 1, 1))
            if r + 1 < side:
                edges.append((v, v + side, 1))
    terms = rng.sample(range(side * side), terminal_count)
    return Instance(Network(side * side, edges), frozenset(terms))


class TestIncrementalDualAscent:
    """The incremental kernel agrees with the from-scratch reference on the
    bound, every reduced arc cost and the root component."""

    @pytest.fixture(autouse=True)
    def time_limit(self):
        """A kernel that stops making progress fails instead of hanging."""

        def expire(signum, frame):
            raise TimeoutError("dual ascent ran for more than 60 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(60)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    def assert_matches_reference(self, inst, root, subset):
        run = dual_ascent(inst, root, subset)
        lower, reduced, component = reference_dual_ascent(inst, root, subset)
        assert run.lower_bound == lower
        assert min(run.reduced_cost) >= 0
        for eid, (u, v, _) in enumerate(inst.network.edges):
            assert run.reduced_cost[2 * eid] == reduced[(u, v)]
            assert run.reduced_cost[2 * eid + 1] == reduced[(v, u)]
        assert run.root_component == component

    def subsets_with(self, rng, terms, root, count):
        others = [z for z in terms if z != root]
        yield frozenset(terms)
        for _ in range(count):
            yield frozenset(rng.sample(others, rng.randint(0, len(others)))) | {root}

    def test_random_instances_every_root(self):
        rng = random.Random(67)
        for _ in range(200):
            inst = random_instance(rng, max_t=7)
            terms = sorted(inst.terminals)
            for root in terms:
                for subset in self.subsets_with(rng, terms, root, 2):
                    self.assert_matches_reference(inst, root, subset)

    def test_hypercube(self):
        rng = random.Random(71)
        inst = hypercube_instance(6, 10, rng)
        terms = sorted(inst.terminals)
        for root in terms:
            for subset in self.subsets_with(rng, terms, root, 1):
                self.assert_matches_reference(inst, root, subset)

    def test_unit_grid(self):
        rng = random.Random(73)
        inst = unit_grid_instance(14, 12, rng)
        terms = sorted(inst.terminals)
        for root in terms:
            for subset in self.subsets_with(rng, terms, root, 1):
                self.assert_matches_reference(inst, root, subset)


class TestDualAscentHeuristic:
    def test_path_value_is_exact(self, fix_path):
        h = da_heuristic(fix_path, 2)
        assert h.eval(0, {2}) == 5

    def test_root_singleton_is_zero(self, fix_star):
        for root in (1, 2, 3):
            assert da_heuristic(fix_star, root).eval(root, {root}) == 0

    def test_query_must_contain_root(self, fix_star):
        with pytest.raises(InputError):
            da_heuristic(fix_star, 1).eval(0, {2, 3})


def subset_members(h, key):
    """The terminals of an ``ExactSubsetHeuristic`` table key: the non-root
    terminals of its low bits, the root for the top bit."""
    members = set(h.index.members(key & h.index.full_mask))
    return members | {h.root} if key > h.index.full_mask else members


class TestExactSubsetHeuristic:
    def test_subset_tables_are_exact_on_random_instances(self):
        rng = random.Random(83)
        for _ in range(40):
            inst = random_instance(rng, max_n=10, max_t=5)
            h = ExactSubsetHeuristic(inst, min(inst.terminals))
            for key in range(1, 2 * h.index.full_mask + 2):
                row = h._subset(key)
                terminals = subset_members(h, key)
                for v in range(inst.network.vertex_count):
                    assert row[v] == csmt(inst, terminals | {v})

    def test_subset_tables_are_exact_on_hypercubes(self):
        rng = random.Random(89)
        cubes = [
            inst
            for inst, (build, _) in zip(family_corpus(1), SHAPES)
            if build is hypercube
        ]
        assert len(cubes) == 3
        for inst in cubes:
            h = ExactSubsetHeuristic(inst, min(inst.terminals))
            bits = range(len(h.index.order) + 1)
            for size in (1, 2, 3, 4, 5, 6):
                key = sum(1 << b for b in rng.sample(bits, size))
                row = h._subset(key)
                terminals = subset_members(h, key)
                for v in rng.sample(range(inst.network.vertex_count), 3):
                    assert row[v] == csmt(inst, terminals | {v})

    def test_switch_after_one_eighth_of_the_masks(self):
        # Ten terminals on a 7-cube: the whole subset DP is past the budget.
        # Masks of at most one terminal get exact tables from the first
        # query.  The others switch after 64 dual-ascent tables (1/8 of the
        # 512 complement masks), and only for masks of at most 5 terminals.
        inst = hypercube(random.Random(5), 7, 10, 100, 110, 3)
        h = ExactSubsetHeuristic(inst, min(inst.terminals))
        assert 3 ** len(inst.terminals) * inst.network.vertex_count > DP_BUDGET
        da = da_heuristic(inst, h.root)
        root_bit = h.index.full_mask + 1
        for mask in (0, 1, 2, 256):
            for u in range(inst.network.vertex_count):
                assert h.eval_mask(u, mask) == h._subset(mask | root_bit)[u]
            assert h.exact(mask)
        assert h._da_tables == 0
        larger = [m for m in range(h.index.full_mask + 1) if m.bit_count() >= 2]
        for mask in larger[:64]:
            assert h.eval_mask(h.root, mask) == da.eval_mask(h.root, mask)
            assert not h.exact(mask)
        assert h._da_tables == 64
        small = next(m for m in larger[64:] if m.bit_count() <= 5)
        for u in range(inst.network.vertex_count):
            assert h.eval_mask(u, small) == h._subset(small | root_bit)[u]
        assert h.exact(small) and h._da_tables == 64
        big = next(m for m in larger[64:] if m.bit_count() > 5)
        assert h.eval_mask(h.root, big) == da.eval_mask(h.root, big)
        assert not h.exact(big) and h._da_tables == 65

    def test_grids_that_never_switch_search_as_dual_ascent(self):
        # On grids past the DP budget, a search that never reaches the
        # switch keeps for every mask of two or more terminals the
        # dual-ascent table da builds, and finds da's cost.  The grids are
        # the corpus's unit grids; family_corpus(0) is its 12-terminal grid.
        unswitched = 0
        grids = [
            inst
            for inst, (build, _) in zip(family_corpus(3), 3 * SHAPES)
            if build is unit_grid
        ] + family_corpus(0)
        for inst in grids:
            if 3 ** len(inst.terminals) * inst.network.vertex_count <= DP_BUDGET:
                continue
            root = min(inst.terminals)
            exact, da = auto_heuristic(inst, root), da_heuristic(inst, root)
            cost, tree, _ = ds_star(inst, root, exact)
            larger = [m for m in exact._cache if m.bit_count() >= 2]
            if any(exact.exact(m) for m in larger):
                continue
            unswitched += 1
            assert ds_star(inst, root, da)[0] == cost == validate_tree(inst, tree)
            for mask in larger:
                assert exact._cache[mask] == da._tables(mask)
        assert unswitched >= 4

    def test_weighted_hypercubes_switch_and_expand_less(self):
        for seed in range(3):
            inst = hypercube(random.Random(seed), 6, 8, 100, 110, 3)
            root = min(inst.terminals)
            exact = auto_heuristic(inst, root)
            cost, _, stats = ds_star(inst, root, exact)
            da_cost, _, da_stats = ds_star(inst, root, da_heuristic(inst, root))
            assert exact._subsets
            assert cost == da_cost
            assert stats.expansions < da_stats.expansions

    def test_two_solves_report_identical_stats(self):
        inst = hypercube(random.Random(3), 6, 8, 100, 110, 3)
        first, second = solve(inst), solve(inst)
        assert first.stats["heuristic"] == "da+dw"
        assert first.tree == second.tree
        for result in (first, second):
            del result.stats["wall_time"], result.stats["search"]["wall_time"]
        assert first.stats == second.stats


@pytest.mark.parametrize(
    "factory", [auto_heuristic, da_heuristic, one_tree_heuristic, zero_heuristic]
)
def test_heuristics_need_a_terminal_root(fix_star, factory):
    with pytest.raises(InputError):
        factory(fix_star, 0)
    h = factory(fix_star, 2)
    assert (h.instance, h.root, h.index.order) == (fix_star, 2, (1, 3))


class TestOneTreeHeuristic:
    def test_k4_triple(self, fix_k4):
        h = one_tree_heuristic(fix_k4, 0)
        value = h.eval(2, {0, 1, 3})
        assert value == 20
        assert value <= 27

    def test_path_singleton(self, fix_path):
        h = one_tree_heuristic(fix_path, 2)
        assert h.eval(0, {2}) == 5

    def test_root_identity(self, fix_k4):
        assert one_tree_heuristic(fix_k4, 1).eval(1, {1}) == 0

    def test_rows_are_built_on_first_use_within_the_deadline(self, monkeypatch):
        # The solve sets the deadline after building the heuristic, so the
        # rows wait for the first query, which checks it before each row.
        rows = 0
        real = stpsolve.bounds.shortest_path_distances

        def row(network, source):
            nonlocal rows
            rows += 1
            return real(network, source)

        monkeypatch.setattr(stpsolve.bounds, "shortest_path_distances", row)
        inst = unit_grid_8x8()
        root = min(inst.terminals)
        h = one_tree_heuristic(inst, root)
        assert rows == 0
        h.deadline = time.monotonic() - 1
        with pytest.raises(SolveTimeout):
            h.eval_mask(root, h.index.full_mask)
        assert rows == 0
        h.deadline = None
        expected = one_tree_heuristic(inst, root).eval_mask(root, h.index.full_mask)
        assert h.eval_mask(root, h.index.full_mask) == expected
        assert rows == 2 * len(inst.terminals)

    def test_rows_agree_with_shortest_paths(self, fix_k4):
        h = one_tree_heuristic(fix_k4, 0)
        for z in sorted(fix_k4.terminals):
            assert h.rows[z] == shortest_path_distances(fix_k4.network, z)


class TestZeroHeuristic:
    def test_always_zero(self, fix_star):
        h = zero_heuristic(fix_star, 1)
        for u in range(4):
            for subset in ({1}, {1, 2}, {1, 2, 3}):
                assert h.eval(u, subset) == 0


class TestAdmissibility:
    def test_heuristics_never_exceed_sub_instance_optimum(self):
        rng = random.Random(47)
        for _ in range(12):
            inst = random_instance(rng, min_n=4, max_n=9, max_t=4, max_cost=15)
            root = min(inst.terminals)
            others = sorted(inst.terminals - {root})
            hs = [
                da_heuristic(inst, root),
                one_tree_heuristic(inst, root),
                ExactSubsetHeuristic(inst, root),
            ]
            for size in range(len(others) + 1):
                for combo in itertools.combinations(others, size):
                    subset = frozenset(combo) | {root}
                    for u in range(inst.network.vertex_count):
                        bound = csmt(inst, subset | {u})
                        for h in hs:
                            assert h.eval(u, subset) <= bound


class TestRsph:
    def test_star(self, fix_star):
        tree = rsph(fix_star, None, 1)
        assert tree.cost == 9 and len(tree.edges) == 3

    def test_path(self, fix_path):
        assert rsph(fix_path, None, 0).cost == 5

    def test_k4_attachment_order(self, fix_k4):
        tree = rsph(fix_k4, None, 0)
        picked = {fix_k4.network.edges[e][:2] for e in tree.edges}
        assert picked == {(0, 1), (1, 2), (1, 3)} and tree.cost == 27

    def test_restriction_must_cover_terminals(self, fix_star):
        with pytest.raises(InputError):
            rsph(fix_star, within={0, 1}, start=1)

    def test_always_feasible_and_above_optimum(self):
        rng = random.Random(53)
        for _ in range(20):
            inst = random_instance(rng)
            opt = dreyfus_wagner(inst, min(inst.terminals))[0]
            tree = rsph(inst, None, min(inst.terminals))
            assert validate_tree(inst, tree) == tree.cost
            assert tree.cost >= opt


class TestLocalSearch:
    def test_diamond_path_exchange(self, fix_diamond):
        net = fix_diamond.network
        bad_edges = {edge_between(net, 0, 3), edge_between(net, 3, 1)}
        from stpsolve import SteinerTree

        bad = SteinerTree.from_edges(net, bad_edges, 0)
        improved = local_search(fix_diamond, bad)
        assert improved.cost == 2

    def test_optimal_input_unchanged(self, fix_star):
        _, tree = dreyfus_wagner(fix_star, 1)
        assert local_search(fix_star, tree).cost == tree.cost

    def test_never_increases_and_stays_feasible(self):
        rng = random.Random(59)
        for _ in range(20):
            inst = random_instance(rng)
            opt = dreyfus_wagner(inst, min(inst.terminals))[0]
            start = rsph(inst, None, max(inst.terminals))
            out = local_search(inst, start)
            assert validate_tree(inst, out) == out.cost
            assert opt <= out.cost <= start.cost


def hunting_upper_bound(inst, run):
    """The pipeline as the hunting round calls it: with the root run ``run``
    and the spread RSPH start."""
    return upper_bound_pipeline(inst, run.root, run, (spread_rsph(inst),))


class TestUpperBoundPipeline:
    def test_fixture_optima(self, fix_star, fix_k4):
        assert hunting_upper_bound(fix_star, dual_ascent(fix_star, 1)).cost == 9
        assert hunting_upper_bound(fix_k4, dual_ascent(fix_k4, 0)).cost == 27

    def test_feasible_and_above_optimum(self):
        rng = random.Random(61)
        for _ in range(15):
            inst = random_instance(rng)
            root = min(inst.terminals)
            tree = hunting_upper_bound(inst, dual_ascent(inst, root))
            assert validate_tree(inst, tree) == tree.cost
            assert tree.cost >= dreyfus_wagner(inst, root)[0]

    def test_reused_run_gives_the_same_tree(self):
        rng = random.Random(62)
        for _ in range(10):
            inst = random_instance(rng)
            run = select_root(inst)
            fresh = dual_ascent(inst, run.root)
            assert hunting_upper_bound(inst, run) == hunting_upper_bound(inst, fresh)


class TestLocalSearchSkip:
    def test_skipped_only_when_the_best_start_meets_the_lower_bound(
        self, monkeypatch
    ):
        import stpsolve.bounds as bounds

        calls = []
        real = bounds.local_search
        monkeypatch.setattr(
            bounds, "local_search", lambda *a: calls.append(a) or real(*a)
        )
        rng = random.Random(64)
        skipped = 0
        for _ in range(100):
            inst = random_grid(rng)
            run = select_root(inst)
            calls.clear()
            tree = hunting_upper_bound(inst, run)
            if not calls:
                skipped += 1
                assert tree.cost == run.lower_bound
            else:
                (_, start, _), = calls
                assert start.cost > run.lower_bound
        assert skipped >= 80


def last_improving_run(inst, stop_at=None):
    *_, run = improving_root_runs(inst, stop_at)
    return run


class TestBestRootRunStop:
    """The last of ``improving_root_runs(stop_at=...)`` is the full loop's
    run whenever ``stop_at`` is at least the best bound, and the runs stop
    early when they can."""

    def test_stop_at_or_above_the_best_bound_changes_nothing(self, monkeypatch):
        import stpsolve.bounds as bounds

        calls = []
        real = bounds.dual_ascent
        monkeypatch.setattr(
            bounds, "dual_ascent", lambda *a, **k: calls.append(a) or real(*a, **k)
        )
        rng = random.Random(65)
        corpus = [random_instance(rng, 6, 20, 3, 8) for _ in range(150)]
        corpus += [random_grid(rng) for _ in range(150)]
        saved = 0
        for inst in corpus:
            calls.clear()
            full = last_improving_run(inst)
            full_runs = len(calls)
            upper = hunting_upper_bound(inst, full).cost
            for stop_at in {full.lower_bound, full.lower_bound + 1, upper}:
                calls.clear()
                assert last_improving_run(inst, stop_at) == full
                if stop_at == full.lower_bound:
                    saved += len(calls) < full_runs
            early = last_improving_run(inst, full.lower_bound - 1)
            assert early.lower_bound >= full.lower_bound - 1
        assert saved >= 50


def test_spread_keeps_both_ends_and_a_cap_of_one_keeps_the_first():
    items = list(range(10, 20))
    assert _spread(items, 50) == items
    assert _spread(items, 3) == [10, 14, 19]
    assert _spread(items, 2) == [10, 19]
    assert _spread(items, 1) == [10]
    assert _spread([7], 1) == [7]


class TestSelectRoot:
    def test_best_run_is_the_selected_roots_run(self):
        rng = random.Random(63)
        for _ in range(10):
            inst = random_instance(rng)
            run = select_root(inst)
            assert run == dual_ascent(inst, run.root)
            for r in _spread(sorted(inst.terminals), 50):
                bound = dual_ascent(inst, r).lower_bound
                assert bound < run.lower_bound or (
                    bound == run.lower_bound and r >= run.root
                )

    def test_single_terminal(self):
        from stpsolve import Network

        inst = Instance(Network(2, [(0, 1, 3)]), frozenset({1}))
        assert select_root(inst).root == 1

    def test_path_tie_breaks_to_smaller_id(self, fix_path):
        assert select_root(fix_path).root == 0

    def test_symmetric_star(self):
        from stpsolve import Network

        net = Network(4, [(0, 1, 5), (0, 2, 5), (0, 3, 5)])
        inst = Instance(net, frozenset({1, 2, 3}))
        assert select_root(inst).root == 1


# Reference upper-bound layer: the restarting RSPH, the sorting leaf pruner
# and key-path exchange by a full Dijkstra, kept as they were before the
# incremental versions replaced them.


def reference_prune_leaves(network, edges, keep):
    edges = set(edges)
    incident = {}
    for eid in edges:
        u, v, _ = network.edges[eid]
        incident.setdefault(u, set()).add(eid)
        incident.setdefault(v, set()).add(eid)
    while True:
        leaf = None
        for v in sorted(incident):
            if v not in keep and len(incident[v]) == 1:
                leaf = v
                break
        if leaf is None:
            return edges
        eid = incident[leaf].pop()
        del incident[leaf]
        edges.remove(eid)
        u, v, _ = network.edges[eid]
        other = v if u == leaf else u
        incident[other].discard(eid)
        if not incident[other] and other not in keep:
            del incident[other]


def reference_rsph(instance, within, start):
    """A Dijkstra from the whole tree for every attachment."""
    net = instance.network
    terms = instance.terminals
    allowed = None if within is None else frozenset(within)
    tree_vertices = {start}
    tree_edges = set()
    remaining = set(terms) - {start}
    while remaining:
        dist = {v: 0 for v in tree_vertices}
        pred = {}
        heap = [(0, v) for v in sorted(tree_vertices)]
        heapq.heapify(heap)
        reached = None
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            if u in remaining:
                reached = u
                break
            for v, cost, eid in neighbors(net, u):
                if allowed is not None and v not in allowed:
                    continue
                nd = d + cost
                if v not in dist or nd < dist[v]:
                    dist[v] = nd
                    pred[v] = (u, eid)
                    heapq.heappush(heap, (nd, v))
        x = reached
        while x not in tree_vertices:
            u, eid = pred[x]
            tree_vertices.add(x)
            tree_edges.add(eid)
            x = u
        remaining -= tree_vertices
    tree_edges = reference_prune_leaves(net, tree_edges, terms)
    return SteinerTree.from_edges(net, tree_edges, start)


def reference_local_search(instance, tree):
    net = instance.network
    terms = instance.terminals
    best = set(tree.edges)
    if not best:
        return tree

    def adjacency_of(edges):
        adj = {}
        for eid in edges:
            u, v, _ = net.edges[eid]
            adj.setdefault(u, []).append((v, eid))
            adj.setdefault(v, []).append((u, eid))
        return adj

    def vertices_of(edges):
        return {x for eid in edges for x in net.edges[eid][:2]}

    def key_paths(edges):
        adj = adjacency_of(edges)
        key = {v for v in adj if v in terms or len(adj[v]) >= 3}
        paths = []
        seen = set()
        for a in sorted(key):
            for nbr, eid in sorted(adj[a]):
                if eid in seen:
                    continue
                path = [eid]
                cur = nbr
                while cur not in key:
                    n, e = [(n, e) for n, e in sorted(adj[cur]) if e != path[-1]][0]
                    path.append(e)
                    cur = n
                seen.update(path)
                paths.append((a, cur, tuple(path)))
        return paths

    improved = True
    while improved:
        improved = False
        for a, b, path in key_paths(best):
            path_cost = sum(net.cost_of(e) for e in path)
            kept = best - set(path)
            adj_kept = adjacency_of(kept)
            comp_a = {a}
            stack = [a]
            while stack:
                x = stack.pop()
                for y, _ in adj_kept.get(x, ()):
                    if y not in comp_a:
                        comp_a.add(y)
                        stack.append(y)
            comp_b = (vertices_of(kept) | {b}) - comp_a
            dist = {v: 0 for v in comp_a}
            pred = {}
            heap = [(0, v) for v in sorted(comp_a)]
            heapq.heapify(heap)
            hit = None
            while heap:
                d, u = heapq.heappop(heap)
                if d > dist[u]:
                    continue
                if u in comp_b:
                    hit = u
                    break
                for w, cost, eid in neighbors(net, u):
                    nd = d + cost
                    if w not in dist or nd < dist[w]:
                        dist[w] = nd
                        pred[w] = (u, eid)
                        heapq.heappush(heap, (nd, w))
            if hit is None or dist[hit] >= path_cost:
                continue
            new_path = set()
            x = hit
            while x not in comp_a:
                u, eid = pred[x]
                new_path.add(eid)
                x = u
            best = kept | new_path
            improved = True
            break
    return SteinerTree.from_edges(net, best, tree.root)


def reference_pipeline(instance, run):
    terms = sorted(instance.terminals)
    candidates = [reference_rsph(instance, None, s) for s in _spread(terms, 16)]
    candidates.append(reference_rsph(instance, run.root_component, run.root))
    best = candidates[0]
    for cand in candidates[1:]:
        if cand.cost < best.cost:
            best = cand
    return reference_local_search(instance, best)


class TestIncrementalUpperBounds:
    """The incremental RSPH, the worklist leaf pruner and key-path exchange
    by a stopped ``lower_distances`` return exactly the reference trees."""

    def assert_same_trees(self, inst):
        run = select_root(inst)
        starts = [(None, s) for s in sorted(inst.terminals)]
        starts.append((run.root_component, run.root))
        for within, start in starts:
            got = rsph(inst, within, start)
            want = reference_rsph(inst, within, start)
            assert got.edges == want.edges
            assert all(  # so leaf pruning has nothing to delete
                x in inst.terminals
                for x, nbrs in _tree_adjacency(inst.network, got.edges).items()
                if len(nbrs) == 1
            )
            assert local_search(inst, got).edges == reference_local_search(
                inst, want
            ).edges
        spread = [rsph(inst, None, s) for s in _spread(sorted(inst.terminals), 16)]
        cheapest = min(spread, key=lambda t: t.cost)  # the earliest of the cheapest
        assert spread_rsph(inst).edges == cheapest.edges
        for tree in spread:  # a start stops once it costs the bound
            assert rsph(inst, None, tree.root, tree.cost) is None
            assert rsph(inst, None, tree.root, tree.cost + 1) == tree
        want = reference_pipeline(inst, run)
        assert hunting_upper_bound(inst, run).edges == want.edges

    def test_random_instances(self):
        rng = random.Random(131)
        for _ in range(400):
            self.assert_same_trees(random_instance(rng))

    def test_grids_with_tied_costs(self):
        rng = random.Random(137)
        for _ in range(60):
            self.assert_same_trees(random_grid(rng))

    def test_bench_family_shapes(self):
        for inst in family_corpus(2):
            self.assert_same_trees(inst)

    def test_prune_leaves_on_random_trees(self):
        rng = random.Random(139)
        for _ in range(300):
            n = rng.randint(2, 30)
            net = Network(n, [(v, rng.randrange(v), rng.randint(1, 5)) for v in range(1, n)])
            edges = set(rng.sample(range(n - 1), rng.randint(0, n - 1)))
            keep = frozenset(rng.sample(range(n), rng.randint(0, min(n, 6))))
            assert _prune_leaves(net, edges, keep) == reference_prune_leaves(
                net, edges, keep
            )

