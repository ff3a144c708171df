"""Immutable weighted graphs and the shared algorithms built on them.

Vertices are dense 0-based integers.  Edge costs are positive integers, and
the sum of all edge costs doubles as the "unreachable" sentinel so that every
quantity computed here stays a plain int.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Container, Iterable, Optional, Sequence

# Instances whose total edge cost exceeds this are rejected at load time so
# that all arithmetic (including doubled bounds) fits comfortably in 64 bits.
MAX_TOTAL_COST = 1 << 62


class StpError(Exception):
    """Base class for errors raised by this package."""


class InputError(StpError):
    """Malformed arguments: unknown vertices, bad roots, empty subsets."""


class NotATree(StpError):
    """Edge set is cyclic or disconnected."""


class TerminalMissing(StpError):
    """A tree does not cover every terminal."""


class UnknownEdge(StpError):
    """A tree references an edge id the network does not have."""


class InternalError(StpError):
    """Invariant violation inside the solver; indicates a bug."""


class SolveTimeout(Exception):
    """Raised internally when a cooperative deadline passes.  ``search``
    carries the search counters and ``lower_bound`` its proven bound, if
    any, when it fired inside the search."""

    def __init__(self, search=None, lower_bound: Optional[int] = None):
        super().__init__()
        self.search = search
        self.lower_bound = lower_bound


def check_deadline(deadline: Optional[float]):
    """Raise ``SolveTimeout`` once ``time.monotonic()`` is past ``deadline``."""
    if deadline is not None and time.monotonic() > deadline:
        raise SolveTimeout()


class Network:
    """Undirected connected-or-not graph with positive integer edge costs.

    Parallel edge inserts keep the minimum cost; self loops are rejected.
    ``edges`` holds each edge once as (u, v, cost) with u < v, sorted.  Edge
    ``eid`` gives arc u->v the id ``2 * eid`` and arc v->u the id
    ``2 * eid + 1``, so the reverse of arc ``a`` is ``a ^ 1`` and its edge is
    ``a >> 1``.  ``tail[a]`` and ``arc_cost[a]`` describe arc ``a``, and
    ``out[x]`` lists (neighbor y, id of arc x->y) sorted by neighbor.
    Networks are immutable after construction and safe to share between
    concurrent solves.
    """

    __hash__ = object.__hash__

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int, int]]):
        if vertex_count <= 0:
            raise InputError("network needs at least one vertex")
        best: dict[tuple[int, int], int] = {}
        for u, v, cost in edges:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise InputError(f"edge endpoint out of range: ({u}, {v})")
            if u == v:
                raise InputError(f"self loop at vertex {u}")
            if not isinstance(cost, int) or isinstance(cost, bool) or cost < 1:
                raise InputError(f"edge cost must be a positive integer, got {cost!r}")
            key = (u, v) if u < v else (v, u)
            old = best.get(key)
            if old is None or cost < old:
                best[key] = cost

        self.vertex_count = vertex_count
        self.edges: tuple[tuple[int, int, int], ...] = tuple(
            (u, v, best[(u, v)]) for (u, v) in sorted(best)
        )
        # Filled in sorted edge order, out[x] needs no sort: a neighbor
        # below x comes from an edge (u, x), before every edge (x, v).
        tail, arc_cost, out = [], [], [[] for _ in range(vertex_count)]
        for eid, (u, v, cost) in enumerate(self.edges):
            tail += (u, v)
            arc_cost += (cost, cost)
            out[u].append((v, 2 * eid))
            out[v].append((u, 2 * eid + 1))
        self.tail = tuple(tail)
        self.arc_cost = tuple(arc_cost)
        self.out = tuple(map(tuple, out))
        self.total_cost = sum(c for _, _, c in self.edges)
        if self.total_cost > MAX_TOTAL_COST:
            raise InputError("total edge cost exceeds the supported range")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def cost_of(self, eid: int) -> int:
        return self.edges[eid][2]

    def is_connected(self) -> bool:
        seen = [True] + [False] * (self.vertex_count - 1)
        stack = [0]
        while stack:
            for v, _ in self.out[stack.pop()]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        return all(seen)


@dataclass(frozen=True)
class Instance:
    """A network plus the terminals that a Steiner tree must connect."""

    network: Network
    terminals: frozenset[int]

    def __post_init__(self):
        net = self.network
        object.__setattr__(self, "terminals", frozenset(self.terminals))
        if not self.terminals:
            raise InputError("terminal set must be non-empty")
        for z in self.terminals:
            if not 0 <= z < net.vertex_count:
                raise InputError(f"terminal {z} is not a vertex")
        if not net.is_connected():
            raise InputError("instance network must be connected")


@dataclass(frozen=True)
class SteinerTree:
    """An edge set forming a tree that spans the terminals of its instance."""

    edges: frozenset[int]
    root: int
    cost: int

    @classmethod
    def from_edges(cls, network: Network, edge_ids: Iterable[int], root: int) -> "SteinerTree":
        ids = frozenset(edge_ids)
        return cls(ids, root, sum(network.cost_of(e) for e in ids))


def lower_distances(
    network: Network,
    dist: list[int],
    sources: Optional[Iterable[int]],
    arc_costs: Optional[Sequence[int]] = None,
    stop: Container[int] = (),
) -> Optional[int]:
    """Dijkstra that lowers the caller's ``dist`` list in place.

    Every source is set to 0 and arcs are followed along the network's
    ``out`` lists; ``arc_costs`` is indexed by arc id and defaults to
    ``arc_cost``.  An entry only ever goes down, so a kept ``dist`` is lowered
    by a second call, and an entry pre-set to -1 is never entered.  With
    ``sources`` None the start is seeded: every vertex with an entry of 0 or
    more starts at it, as if each were a source with that offset.  The
    first vertex of ``stop`` settled ends the run and is returned, else None;
    with positive costs, a ``stop`` run settles in (distance, id) order.

    The queue is Dial's: a list of vertices per tentative distance and a
    heap of the distinct distances, so a relaxation to a queued distance is
    one append.  Reduced costs are mostly 0 or small: few are distinct.
    """
    out = network.out
    if arc_costs is None:
        arc_costs = network.arc_cost
    buckets: dict[int, list[int]] = {}
    if sources is None:
        for v, d in enumerate(dist):
            if d >= 0:
                buckets.setdefault(d, []).append(v)
    else:
        starts = buckets[0] = list(sources)
        for s in starts:
            dist[s] = 0
    heap = list(buckets)
    heapq.heapify(heap)
    while heap:
        d = heapq.heappop(heap)
        bucket = buckets[d]
        if stop:
            bucket.sort()
        # A zero-cost arc appends to this very bucket; the loop sees it.  A
        # vertex is queued only on a strict decrease, so this ends.
        for u in bucket:
            if dist[u] < d:
                continue
            if u in stop:
                return u
            for v, a in out[u]:
                nd = d + arc_costs[a]
                if nd < dist[v]:
                    dist[v] = nd
                    if nd in buckets:
                        buckets[nd].append(v)
                    else:
                        buckets[nd] = [v]
                        heapq.heappush(heap, nd)
        del buckets[d]
    return None


def tight_path(network: Network, dist: Sequence[int], x: int) -> list[tuple[int, int]]:
    """Walk from ``x`` back to a vertex at distance 0 under edge costs.

    Each step goes to the tight neighbor (``dist[y] + cost == dist[x]``)
    with the smallest (distance, id): the vertex that settles ``x`` when
    vertices settle in (distance, id) order.  Returns the steps as (vertex,
    edge id) pairs, ``x`` first; the final vertex at distance 0 is not listed.
    """
    steps = []
    while dist[x]:
        _, y, a = min(
            (dist[y], y, a)
            for y, a in network.out[x]
            if dist[y] + network.arc_cost[a] == dist[x]
        )
        steps.append((x, a >> 1))
        x = y
    return steps


def shortest_path_distances(network: Network, source: int) -> list[int]:
    """Single-source shortest path distances.

    Unreachable vertices carry ``network.total_cost``, which can only happen
    on intermediate reduced graphs.
    """
    if not 0 <= source < network.vertex_count:
        raise InputError(f"invalid source vertex {source}")
    dist = [network.total_cost] * network.vertex_count
    lower_distances(network, dist, (source,))
    return dist


def shortest_path_edges(network: Network, source: int, target: int) -> list[int]:
    """Edge ids of one shortest source-target path, in order from the
    source; each vertex steps back to its tight neighbor with the smallest
    (distance, id)."""
    for v in (source, target):
        if not 0 <= v < network.vertex_count:
            raise InputError(f"invalid path endpoint {v}")
    dist = [network.total_cost + 1] * network.vertex_count
    if lower_distances(network, dist, (source,), stop=(target,)) is None:
        raise InputError(f"no path from {source} to {target}")
    return [eid for _, eid in reversed(tight_path(network, dist, target))]


def distance_matrix(network: Network) -> tuple[list[int], ...]:
    """All-pairs distances, memoized on the network."""
    cached = getattr(network, "_distance_matrix", None)
    if cached is None:
        cached = tuple(
            shortest_path_distances(network, s) for s in range(network.vertex_count)
        )
        network._distance_matrix = cached
    return cached


def mst_over_points(count: int, dist) -> tuple[int, list[tuple[int, int, int]]]:
    """Prim MST over ``count`` points with ``dist(i, j)`` costs.

    Returns (total cost, edges as (i, j, cost)).  Deterministic: ties prefer
    the smaller point index.
    """
    if count <= 1:
        return 0, []
    in_tree = [False] * count
    best_cost = [None] * count
    best_from = [0] * count
    in_tree[0] = True
    for j in range(1, count):
        best_cost[j] = dist(0, j)
    total = 0
    edges = []
    for _ in range(count - 1):
        pick = None
        for j in range(count):
            if not in_tree[j] and (pick is None or best_cost[j] < best_cost[pick]):
                pick = j
        in_tree[pick] = True
        total += best_cost[pick]
        edges.append((best_from[pick], pick, best_cost[pick]))
        for j in range(count):
            if not in_tree[j]:
                d = dist(pick, j)
                if d < best_cost[j]:
                    best_cost[j] = d
                    best_from[j] = pick
    return total, edges


def validate_tree(instance: Instance, tree: SteinerTree) -> int:
    """Check a tree against its instance and return its recomputed cost."""
    net = instance.network
    if tree.root not in instance.terminals:
        raise InputError("tree root must be a terminal")
    vertices = {tree.root}
    adj: dict[int, list[int]] = {tree.root: []}
    cost = 0
    for eid in tree.edges:
        if not isinstance(eid, int) or not 0 <= eid < len(net.edges):
            raise UnknownEdge(f"edge id {eid!r} not in network")
        u, v, c = net.edges[eid]
        cost += c
        for x in (u, v):
            if x not in adj:
                adj[x] = []
                vertices.add(x)
        adj[u].append(v)
        adj[v].append(u)
    if len(tree.edges) != len(vertices) - 1:
        raise NotATree("edge count does not match a tree on the touched vertices")
    # Connectivity from the root.
    seen = {tree.root}
    stack = [tree.root]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    if seen != vertices:
        raise NotATree("edge set is disconnected")
    for z in instance.terminals:
        if z not in vertices:
            raise TerminalMissing(f"terminal {z} not covered")
    if cost != tree.cost:
        raise InternalError("cached tree cost disagrees with its edges")
    return cost
