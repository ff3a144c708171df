import itertools
import random

import pytest

from stpsolve import (
    BottleneckOracle,
    InputError,
    Instance,
    Network,
    NotATree,
    SteinerTree,
    TerminalMissing,
    UnknownEdge,
    shortest_path_distances,
    validate_tree,
    voronoi_partition,
)
from stpsolve.graph import mst_over_points
from conftest import brute_force_bottleneck, random_instance


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

    def test_instance_requires_connected_network(self):
        net = Network(4, [(0, 1, 1), (2, 3, 1)])
        with pytest.raises(InputError):
            Instance(net, frozenset({0, 2}))

    def test_root_must_be_terminal(self, fix_path):
        with pytest.raises(InputError):
            Instance(fix_path.network, fix_path.terminals, root=1)


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
        eid = network.edge_between(i, j)
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


class TestVoronoi:
    def test_star_center(self, fix_star):
        vor = voronoi_partition(fix_star.network, {1, 2, 3})
        assert vor.base[0] == 1 and vor.dist[0] == 2

    def test_diamond_tie_breaks_to_smaller_terminal(self, fix_diamond):
        vor = voronoi_partition(fix_diamond.network, {0, 1})
        assert vor.base[2] == 0 and vor.dist[2] == 1

    def test_k4_two_terminals(self, fix_k4):
        vor = voronoi_partition(fix_k4.network, {0, 3})
        assert vor.base[1] == 0 and vor.base[2] == 0

    def test_invariant_against_per_terminal_runs(self):
        rng = random.Random(17)
        for _ in range(15):
            inst = random_instance(rng, max_n=12)
            terms = sorted(inst.terminals)
            vor = voronoi_partition(inst.network, terms)
            rows = {z: shortest_path_distances(inst.network, z) for z in terms}
            for u in range(inst.network.vertex_count):
                best = min((rows[z][u], z) for z in terms)
                assert (vor.dist[u], vor.base[u]) == best


class TestBottleneck:
    def test_path_endpoints(self, fix_path):
        oracle = BottleneckOracle(fix_path.network, fix_path.terminals)
        assert oracle.query(0, 2) == 5

    def test_k4_splits_at_terminal(self, fix_k4):
        oracle = BottleneckOracle(fix_k4.network, fix_k4.terminals)
        assert oracle.query(0, 3) == 15

    def test_diamond(self, fix_diamond):
        oracle = BottleneckOracle(fix_diamond.network, fix_diamond.terminals)
        assert oracle.query(0, 1) == 2

    def test_over_approximates_reference_on_small_graphs(self):
        rng = random.Random(19)
        for _ in range(25):
            inst = random_instance(rng, min_n=4, max_n=8, max_cost=12)
            oracle = BottleneckOracle(inst.network, inst.terminals)
            n = inst.network.vertex_count
            for u in range(n):
                for v in range(u + 1, n):
                    approx = oracle.query(u, v)
                    exact = brute_force_bottleneck(inst, u, v)
                    assert approx >= exact, (u, v, approx, exact)

    def test_restricted_variant_over_approximates(self):
        rng = random.Random(23)
        for _ in range(25):
            inst = random_instance(rng, min_n=4, max_n=8, max_cost=12)
            oracle = BottleneckOracle(inst.network, inst.terminals)
            for eid, (u, v, _) in enumerate(inst.network.edges):
                approx = oracle.query(u, v, exclude_direct_edge=True)
                exact = brute_force_bottleneck(inst, u, v, banned_edge=eid)
                assert approx >= exact, (u, v, approx, exact)


class TestValidateTree:
    def test_path_tree(self, fix_path):
        tree = SteinerTree.from_edges(fix_path.network, {0, 1}, 0)
        assert validate_tree(fix_path, tree) == 5

    def test_terminal_missing(self, fix_star):
        net = fix_star.network
        edges = {net.edge_between(0, 1), net.edge_between(0, 2)}
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
