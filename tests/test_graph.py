import heapq
import itertools
import random

import pytest

from stpsolve import (
    InputError,
    Instance,
    Network,
    NotATree,
    SteinerTree,
    TerminalMissing,
    UnknownEdge,
    dreyfus_wagner,
    shortest_path_distances,
    validate_tree,
)
from stpsolve.bounds import dual_ascent
from stpsolve.graph import (
    lower_distances,
    mst_over_points,
    shortest_path_edges,
    tight_path,
)
from conftest import (
    edge_between,
    family_corpus,
    neighbors,
    random_grid,
    random_instance,
)


class TestNetwork:
    def test_parallel_edges_keep_minimum(self):
        net = Network(2, [(0, 1, 5), (0, 1, 3), (1, 0, 7)])
        assert net.edges == ((0, 1, 3),)
        assert net.total_cost == 3

    def test_self_loop_rejected(self):
        with pytest.raises(InputError):
            Network(2, [(0, 0, 1)])

    def test_non_positive_cost_rejected(self):
        with pytest.raises(InputError):
            Network(2, [(0, 1, 0)])
        with pytest.raises(InputError):
            Network(2, [(0, 1, -4)])

    def test_total_cost_overflow_rejected(self):
        with pytest.raises(InputError):
            Network(3, [(0, 1, 1 << 62), (1, 2, 1 << 62)])

    def test_arc_layout_invariants(self):
        # Edges come shuffled, in both orientations and with parallel
        # copies; ``out`` must still list each vertex's arcs by strictly
        # increasing neighbor, the order the solver's tie-breaks follow.
        rng = random.Random(19)
        for _ in range(300):
            n = rng.randint(1, 12)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            cheapest = {}
            given = []
            for u, v in rng.sample(pairs, rng.randint(0, len(pairs))):
                for _ in range(rng.randint(1, 3)):
                    cost = rng.randint(1, 9)
                    cheapest[(u, v)] = min(cost, cheapest.get((u, v), cost))
                    given.append((u, v, cost) if rng.random() < 0.5 else (v, u, cost))
            rng.shuffle(given)
            net = Network(n, given)
            want = tuple((u, v, c) for (u, v), c in sorted(cheapest.items()))
            assert net.edges == want
            assert sum(len(arcs) for arcs in net.out) == 2 * net.edge_count
            every_arc = sorted(a for arcs in net.out for _, a in arcs)
            assert every_arc == list(range(2 * net.edge_count))
            for x in range(n):
                ys = [y for y, _ in net.out[x]]
                assert all(y < z for y, z in zip(ys, ys[1:]))
                for y, a in net.out[x]:
                    assert net.tail[a] == x and net.tail[a ^ 1] == y
                    cost = net.edges[a >> 1][2]
                    assert net.arc_cost[a] == net.arc_cost[a ^ 1] == cost

    def test_instance_requires_connected_network(self):
        net = Network(4, [(0, 1, 1), (2, 3, 1)])
        with pytest.raises(InputError):
            Instance(net, frozenset({0, 2}))


class TestShortestPaths:
    def test_path_graph(self, fix_path):
        assert shortest_path_distances(fix_path.network, 0) == [0, 2, 5]

    def test_k4_from_a(self, fix_k4):
        assert shortest_path_distances(fix_k4.network, 0) == [0, 1, 12, 16]

    def test_star_from_t1(self, fix_star):
        assert shortest_path_distances(fix_star.network, 1) == [2, 0, 5, 6]

    def test_invalid_source(self, fix_path):
        with pytest.raises(InputError):
            shortest_path_distances(fix_path.network, 9)

    def test_triangle_inequality_on_random_graphs(self):
        rng = random.Random(7)
        for _ in range(20):
            inst = random_instance(rng, max_n=10)
            net = inst.network
            rows = [shortest_path_distances(net, s) for s in range(net.vertex_count)]
            for u, v, w in itertools.combinations(range(net.vertex_count), 3):
                assert rows[u][w] <= rows[u][v] + rows[v][w]


def reference_directed_distances(network, arc_costs, sources, reverse=False):
    """Copy of the former ``bounds.directed_distances``: multi-source
    Dijkstra over arc costs; ``reverse`` follows every arc backwards."""
    flip = 1 if reverse else 0
    out = network.out
    inf = network.total_cost + 1
    dist = [inf] * network.vertex_count
    heap = []
    for s in sorted(set(sources)):
        dist[s] = 0
        heap.append((0, s))
    heapq.heapify(heap)
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, a in out[u]:
            nd = d + arc_costs[a ^ flip]
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def reference_offset_distances(network, arc_costs, offsets):
    """Multi-source Dijkstra over arc costs in which source ``s`` starts at
    ``offsets[s]``: each distance is the least offset plus path cost."""
    dist = [network.total_cost + 1] * network.vertex_count
    for s, offset in offsets.items():
        dist[s] = offset
    heap = [(d, v) for v, d in offsets.items()]
    heapq.heapify(heap)
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, a in network.out[u]:
            nd = d + arc_costs[a]
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def reference_banned_dijkstra(network, source, banned=None):
    """Copy of the former ``_Working.dijkstra`` on a network: distances of
    the vertices reached from ``source`` without entering ``banned``."""
    dist = {source: 0}
    heap = [(0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, c, _ in neighbors(network, u):
            if v == banned:
                continue
            nd = d + c
            if v not in dist or nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def reference_settlers(network, sources):
    """Copy of the former key-path search in ``local_search``: for every
    vertex reached from ``sources``, the (vertex, edge) that settled it."""
    dist = {v: 0 for v in sources}
    pred = {}
    heap = [(0, v) for v in sorted(sources)]
    heapq.heapify(heap)
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for w, cost, eid in neighbors(network, u):
            nd = d + cost
            if w not in dist or nd < dist[w]:
                dist[w] = nd
                pred[w] = (u, eid)
                heapq.heappush(heap, (nd, w))
    return pred


def kernel_corpus():
    """150 random instances and 150 grids with many equal-length paths,
    each with a few sources and random arc costs between 0 and the edge
    cost, as dual ascent leaves them."""
    rng = random.Random(8)
    cases = []
    for i in range(300):
        if i % 2:
            inst = random_instance(rng, min_n=3, max_n=16, max_cost=rng.choice([3, 20]))
        else:
            inst = random_grid(rng, 2, 7, costs=rng.choice([(1,), (1, 2)]), max_chords=3)
        net = inst.network
        arc_costs = [rng.randint(0, c) for c in net.arc_cost]
        sources = rng.sample(range(net.vertex_count), rng.randint(1, 3))
        cases.append((net, arc_costs, sources, rng))
    return cases


class TestLowerDistances:
    def fresh(self, net):
        return [net.total_cost + 1] * net.vertex_count

    def test_multi_source_with_arc_costs(self):
        for net, arc_costs, sources, _ in kernel_corpus():
            dist = self.fresh(net)
            assert lower_distances(net, dist, sources, arc_costs) is None
            assert dist == reference_directed_distances(net, arc_costs, sources)
            dist = self.fresh(net)
            lower_distances(net, dist, sources)
            assert dist == reference_directed_distances(net, net.arc_cost, sources)

    def test_two_lowerings_equal_one_multi_source_run(self):
        for net, arc_costs, sources, rng in kernel_corpus():
            more = rng.sample(range(net.vertex_count), rng.randint(1, 3))
            dist = self.fresh(net)
            lower_distances(net, dist, sources, arc_costs)
            lower_distances(net, dist, more, arc_costs)
            once = self.fresh(net)
            lower_distances(net, once, sources + more, arc_costs)
            assert dist == once

    def test_seeded_start_equals_sources_with_offsets(self):
        # Each vertex starts at its own entry: a multi-source run in which
        # every vertex is a source that begins at its entry instead of 0.
        for net, arc_costs, sources, rng in kernel_corpus():
            dist = self.fresh(net)
            for s in sources:
                dist[s] = rng.randint(0, 10)
            offsets = dict(enumerate(dist))
            assert lower_distances(net, dist, None, arc_costs) is None
            assert dist == reference_offset_distances(net, arc_costs, offsets)

    def test_stop_returns_the_first_settled_stop_vertex(self):
        hits = 0
        for net, arc_costs, sources, rng in kernel_corpus():
            positive = [max(c, 1) for c in arc_costs]  # zero arcs break the order
            full = reference_directed_distances(net, positive, sources)
            size = rng.randint(1, min(4, net.vertex_count))
            stop = set(rng.sample(range(net.vertex_count), size))
            dist = self.fresh(net)
            got = lower_distances(net, dist, sources, positive, stop=stop)
            want = min((full[v], v) for v in stop)[1]
            assert got == want
            assert dist[got] == full[got]
            hits += got not in sources
        assert hits >= 150

    def test_stop_misses_an_unreachable_vertex(self):
        net = Network(4, [(0, 1, 1), (2, 3, 1)])
        dist = self.fresh(net)
        assert lower_distances(net, dist, [0], stop={3}) is None
        assert dist == [0, 1, 3, 3]

    def test_barrier_is_never_entered(self):
        for net, _, sources, rng in kernel_corpus():
            if net.vertex_count < 2:
                continue
            source = sources[0]
            banned = rng.choice([v for v in range(net.vertex_count) if v != source])
            dist = self.fresh(net)
            dist[banned] = -1
            lower_distances(net, dist, [source])
            reach = reference_banned_dijkstra(net, source, banned)
            assert dist[banned] == -1
            for v in range(net.vertex_count):
                if v != banned:
                    assert dist[v] == reach.get(v, net.total_cost + 1)

    def test_reversed_arc_costs_give_distances_to_the_sources(self):
        for net, arc_costs, sources, _ in kernel_corpus():
            reversed_costs = [arc_costs[a ^ 1] for a in range(len(arc_costs))]
            dist = self.fresh(net)
            lower_distances(net, dist, sources, reversed_costs)
            want = reference_directed_distances(net, arc_costs, sources, reverse=True)
            assert dist == want

    def test_tight_path_steps_to_the_settling_vertex(self):
        for net, _, sources, _ in kernel_corpus():
            dist = self.fresh(net)
            lower_distances(net, dist, sources)
            pred = reference_settlers(net, sources)
            for x in range(net.vertex_count):
                want = []
                y = x
                while y in pred:
                    u, eid = pred[y]
                    want.append((y, eid))
                    y = u
                assert tight_path(net, dist, x) == want

    def test_barrier_holds_in_a_seeded_start(self):
        net = Network(3, [(0, 1, 5), (1, 2, 5)])
        dist = [0, -1, 99]
        assert lower_distances(net, dist, None) is None
        assert dist == [0, -1, 99]
        for net, arc_costs, sources, rng in kernel_corpus():
            if net.vertex_count < 2:
                continue
            banned = rng.choice([v for v in range(net.vertex_count) if v != sources[0]])
            dist = self.fresh(net)
            for s in sources:
                dist[s] = rng.randint(0, 10)
            dist[banned] = -1
            offsets = {v: d for v, d in enumerate(dist) if v != banned}
            # Arcs at the banned vertex cost more than any path around it.
            walled = [
                10 * net.total_cost if banned in (net.tail[a], net.tail[a ^ 1]) else c
                for a, c in enumerate(arc_costs)
            ]
            want = reference_offset_distances(net, walled, offsets)
            lower_distances(net, dist, None, arc_costs)
            assert dist[banned] == -1
            assert all(dist[v] == want[v] for v in offsets)

    def test_zero_cost_chains_and_cycles(self):
        # Zero arcs append to the bucket being scanned, here against id order.
        n = 12
        chain = [(v, v + 1, 1) for v in range(n - 1)] + [(0, n - 1, 1), (3, 8, 2)]
        net = Network(n, chain)
        for zero_share in (1.0, 0.8, 0.5):
            rng = random.Random(f"zero {zero_share}")
            for _ in range(20):
                arc_costs = [0 if rng.random() < zero_share else c for c in net.arc_cost]
                sources = rng.sample(range(n), rng.randint(1, 2))
                dist = self.fresh(net)
                assert lower_distances(net, dist, sources, arc_costs) is None
                assert dist == reference_directed_distances(net, arc_costs, sources)
                dist = self.fresh(net)
                for v in rng.sample(range(n), 3):
                    dist[v] = rng.randint(0, 3)
                offsets = dict(enumerate(dist))
                lower_distances(net, dist, None, arc_costs)
                assert dist == reference_offset_distances(net, arc_costs, offsets)

    def test_seeded_start_with_many_equal_entries(self):
        for net, arc_costs, sources, rng in kernel_corpus():
            shared = rng.randint(0, 5)
            dist = [
                shared if rng.random() < 0.7 else rng.randint(0, 9)
                for _ in range(net.vertex_count)
            ]
            offsets = dict(enumerate(dist))
            lower_distances(net, dist, None, arc_costs)
            assert dist == reference_offset_distances(net, arc_costs, offsets)

    def test_duplicate_sources(self):
        for net, arc_costs, sources, rng in kernel_corpus():
            repeated = sources * 3 + sources[:1]
            rng.shuffle(repeated)
            dist = self.fresh(net)
            assert lower_distances(net, dist, repeated, arc_costs) is None
            assert dist == reference_directed_distances(net, arc_costs, sources)
            full = reference_directed_distances(net, net.arc_cost, sources)
            stop = set(rng.sample(range(net.vertex_count), min(2, net.vertex_count)))
            dist = self.fresh(net)
            got = lower_distances(net, dist, repeated, stop=stop)
            assert got == min((full[v], v) for v in stop)[1]

    def test_stop_returns_the_smallest_tied_id_whatever_the_entry_order(self):
        # 0 settles 1 (at 1) before 2 (at 2); 1 queues 9 at 3 before 2
        # queues 5 at 3, so the bucket of 3 fills as [9, 5].
        net = Network(10, [(0, 1, 1), (0, 2, 2), (1, 9, 2), (2, 5, 1)])
        dist = self.fresh(net)
        assert lower_distances(net, dist, [0], stop={5, 9}) == 5
        assert dist[5] == dist[9] == 3
        # Tied stop vertices on unit grids, reached along many paths.
        rng = random.Random(31)
        for _ in range(60):
            net = random_grid(rng, 3, 7, costs=(1, 2), max_chords=3).network
            source = rng.randrange(net.vertex_count)
            full = reference_directed_distances(net, net.arc_cost, [source])
            level = rng.choice(sorted(set(full) - {0}))
            stop = {v for v, d in enumerate(full) if d == level}
            dist = self.fresh(net)
            assert lower_distances(net, dist, [source], stop=stop) == min(stop)


class TestReducedCostKernel:
    """``lower_distances`` on the reduced costs dual ascent leaves on the
    bench-family shapes: mostly zero arcs, many equal distances."""

    def test_matches_the_heap_references(self):
        runs = 0
        for inst in family_corpus(2):
            root = min(inst.terminals)
            arc_costs = dual_ascent(inst, root).reduced_cost
            net = inst.network
            fresh = [net.total_cost + 1] * net.vertex_count
            rows = {}
            for t in sorted(inst.terminals):
                dist = list(fresh)
                lower_distances(net, dist, (t,), arc_costs)
                assert dist == reference_directed_distances(net, arc_costs, [t])
                rows[t] = dist
            terms = sorted(inst.terminals)
            for a, b in zip(terms, terms[1:]):
                # Seeded as an exact subset table starts: a sum of two rows.
                dist = [x + y for x, y in zip(rows[a], rows[b])]
                offsets = dict(enumerate(dist))
                lower_distances(net, dist, None, arc_costs)
                assert dist == reference_offset_distances(net, arc_costs, offsets)
                runs += 1
        assert runs >= 100


class TestShortestPathEdges:
    def test_path_graph(self, fix_path):
        assert shortest_path_edges(fix_path.network, 0, 2) == [0, 1]
        assert shortest_path_edges(fix_path.network, 2, 0) == [1, 0]
        assert shortest_path_edges(fix_path.network, 1, 1) == []

    @pytest.mark.parametrize("source, target", [(3, 0), (-1, 0), (0, 3), (0, -1)])
    def test_endpoint_out_of_range(self, fix_path, source, target):
        with pytest.raises(InputError):
            shortest_path_edges(fix_path.network, source, target)

    def test_no_path(self):
        with pytest.raises(InputError):
            shortest_path_edges(Network(4, [(0, 1, 1), (2, 3, 1)]), 0, 3)

    def test_paths_are_shortest(self):
        for net, _, sources, rng in kernel_corpus():
            source, target = sources[0], rng.randrange(net.vertex_count)
            path = shortest_path_edges(net, source, target)
            at = source
            for eid in path:
                u, v, _ = net.edges[eid]
                at = v if at == u else u if at == v else None
            assert at == target
            cost = sum(net.cost_of(e) for e in path)
            assert cost == shortest_path_distances(net, source)[target]

    def test_dreyfus_wagner_trees_validate_at_their_cost(self):
        rng = random.Random(60)
        for i in range(60):
            if i % 2:
                inst = random_instance(rng, max_n=12, max_t=5)
            else:
                inst = random_grid(rng, 3, 5, costs=(1,), max_t=5)
            cost, tree = dreyfus_wagner(inst)
            assert validate_tree(inst, tree) == cost == tree.cost


def distance_costs(network, subset):
    """Shortest-path distance of every pair of ``subset``, keyed by the
    pair's positions in sorted order."""
    members = sorted(subset)
    rows = [shortest_path_distances(network, u) for u in members]
    return {
        (i, j): rows[i][members[j]]
        for i, j in itertools.combinations(range(len(members)), 2)
    }


def graph_mst(network):
    """``mst_over_points`` over the network's vertices; a missing edge
    costs more than all edges together."""
    missing = network.total_cost + 1

    def cost(i, j):
        eid = edge_between(network, i, j)
        return missing if eid is None else network.cost_of(eid)

    return mst_over_points(network.vertex_count, cost)


class TestDistanceNetwork:
    def test_star_terminals(self, fix_star):
        costs = distance_costs(fix_star.network, {1, 2, 3})
        assert sorted(costs.values()) == [5, 6, 7]

    def test_path_pair(self, fix_path):
        assert distance_costs(fix_path.network, {0, 2}) == {(0, 1): 5}

    def test_k4_triple(self, fix_k4):
        # positions follow sorted member order: 0->a, 1->b, 2->d
        costs = distance_costs(fix_k4.network, {0, 1, 3})
        assert costs == {(0, 1): 1, (0, 2): 16, (1, 2): 15}

    def test_empty_subset_rejected(self, fix_path):
        # nothing to span without points; a vertex outside the network is
        # rejected
        assert distance_costs(fix_path.network, set()) == {}
        assert mst_over_points(0, None) == (0, [])
        with pytest.raises(InputError):
            shortest_path_distances(fix_path.network, -1)

    def test_idempotent_on_metric_graphs(self):
        rng = random.Random(11)
        for _ in range(10):
            inst = random_instance(rng, max_n=9)
            subset = sorted(inst.terminals)
            once = distance_costs(inst.network, subset)
            closure = Network(len(subset), [(i, j, c) for (i, j), c in once.items()])
            twice = distance_costs(closure, range(len(subset)))
            assert once == twice


class TestMinimumSpanningTree:
    def test_path(self, fix_path):
        cost, edges = graph_mst(fix_path.network)
        assert cost == 5 and len(edges) == 2

    def test_star_distance_network(self, fix_star):
        costs = distance_costs(fix_star.network, {1, 2, 3})
        cost, _ = mst_over_points(3, lambda i, j: costs[min(i, j), max(i, j)])
        assert cost == 11

    def test_k4(self, fix_k4):
        cost, edges = graph_mst(fix_k4.network)
        assert cost == 27
        picked = {(min(i, j), max(i, j)) for i, j, _ in edges}
        assert picked == {(0, 1), (1, 2), (1, 3)}

    def test_disconnected_rejected(self):
        # no spanning tree of a disconnected network avoids a missing edge
        net = Network(3, [(0, 1, 1)])
        cost, _ = graph_mst(net)
        assert cost > net.total_cost

    def test_matches_brute_force_on_small_graphs(self):
        rng = random.Random(13)
        for _ in range(25):
            inst = random_instance(rng, min_n=3, max_n=6, max_cost=9)
            net = inst.network
            cost, _ = graph_mst(net)
            n = net.vertex_count
            best = None
            for combo in itertools.combinations(range(len(net.edges)), n - 1):
                parent = list(range(n))

                def find(x):
                    while parent[x] != x:
                        parent[x] = parent[parent[x]]
                        x = parent[x]
                    return x

                merged = 0
                for e in combo:
                    u, v, _ = net.edges[e]
                    ru, rv = find(u), find(v)
                    if ru != rv:
                        parent[ru] = rv
                        merged += 1
                if merged == n - 1:
                    total = sum(net.edges[e][2] for e in combo)
                    if best is None or total < best:
                        best = total
            assert cost == best


class TestValidateTree:
    def test_path_tree(self, fix_path):
        tree = SteinerTree.from_edges(fix_path.network, {0, 1}, 0)
        assert validate_tree(fix_path, tree) == 5

    def test_terminal_missing(self, fix_star):
        net = fix_star.network
        edges = {edge_between(net, 0, 1), edge_between(net, 0, 2)}
        tree = SteinerTree.from_edges(net, edges, 1)
        with pytest.raises(TerminalMissing):
            validate_tree(fix_star, tree)

    def test_cycle_rejected(self, fix_diamond):
        net = fix_diamond.network
        tree = SteinerTree.from_edges(net, range(4), 0)
        with pytest.raises(NotATree):
            validate_tree(fix_diamond, tree)

    def test_unknown_edge(self, fix_path):
        tree = SteinerTree(frozenset({99}), 0, 1)
        with pytest.raises(UnknownEdge):
            validate_tree(fix_path, tree)

    def test_single_terminal_empty_tree(self):
        inst = Instance(Network(2, [(0, 1, 4)]), frozenset({1}))
        tree = SteinerTree(frozenset(), 1, 0)
        assert validate_tree(inst, tree) == 0
