"""Lower and upper bound machinery.

Lower bounds: a dual-ascent construction on the bidirected arc graph and a
1-tree bound; both are exposed through the guiding-heuristic contract used by
the exact search (admissible: never above the true sub-instance optimum).
Upper bounds: the repeated shortest path heuristic plus local search.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from functools import cached_property
from operator import add
from typing import Iterable, Iterator, Optional, Sequence

from .graph import (
    InputError,
    Instance,
    Network,
    SolveTimeout,
    SteinerTree,
    check_deadline,
    lower_distances,
    mst_over_points,
    shortest_path_distances,
    tight_path,
)

class TerminalIndex:
    """Frozen ordering of the non-root terminals backing the subset bitmasks."""

    def __init__(self, terminals: Iterable[int], root: int):
        self.order: tuple[int, ...] = tuple(sorted(set(terminals) - {root}))
        self.bit = {z: 1 << i for i, z in enumerate(self.order)}
        self.full_mask = (1 << len(self.order)) - 1

    def mask_of(self, vertices: Iterable[int]) -> int:
        mask = 0
        for z in vertices:
            try:
                mask |= self.bit[z]
            except KeyError:
                raise InputError(f"{z} is not a non-root terminal") from None
        return mask

    def members(self, mask: int) -> tuple[int, ...]:
        out = []
        while mask:
            low = mask & -mask
            out.append(self.order[low.bit_length() - 1])
            mask ^= low
        return tuple(out)


@dataclass(frozen=True)
class DualAscentResult:
    """Outcome of one dual-ascent run.

    ``reduced_cost[a]`` is the remaining cost of arc ``a`` of the network:
    arc u->v of edge ``eid`` has id ``2 * eid + (u > v)``.  ``root_component``
    is the set of vertices the root reaches along zero-reduced-cost arcs,
    which contains every terminal of the subset at termination.
    """

    lower_bound: int
    reduced_cost: list[int]
    root_component: frozenset[int]
    root: int


def dual_ascent(
    instance: Instance,
    root: int,
    terminal_subset: Optional[Iterable[int]] = None,
    deadline: Optional[float] = None,
) -> DualAscentResult:
    """Greedy feasible dual of the directed cut relaxation (Wong, 1984).

    Each active terminal keeps its cut (the vertices reaching it along
    zero-reduced-cost arcs) and the arcs entering it.  A step pays the
    cheapest entering arc and lowers every entering arc by that amount.
    Terminals go smallest frontier first through a lazy queue: a popped
    terminal grows its cut through entering arcs that reached zero, and is
    pushed back when its frontier grew past the current minimum.  The sum of
    payments is a lower bound on the cost of any tree spanning the subset.
    A set ``deadline`` is checked at every pop; a run past it raises
    ``SolveTimeout`` and leaves nothing behind.
    """
    net = instance.network
    subset = (
        instance.terminals
        if terminal_subset is None
        else frozenset(terminal_subset)
    )
    if root not in subset:
        raise InputError("dual ascent root must belong to the terminal subset")
    if not subset <= instance.terminals:
        raise InputError("terminal subset must consist of instance terminals")

    tail, out = net.tail, net.out
    reduced = list(net.arc_cost)
    lower = 0
    active = set(subset) - {root}
    cuts = {z: {z} for z in active}
    # Frontier arcs enter the cut from outside; no arc is listed twice.
    fronts = {z: [a ^ 1 for _, a in out[z]] for z in active}
    queue = [(len(fronts[z]), z) for z in sorted(active)]
    heapq.heapify(queue)

    while queue:
        if deadline is not None and time.monotonic() > deadline:
            raise SolveTimeout()
        _, z = heapq.heappop(queue)
        cut, front = cuts[z], fronts[z]
        grown = {tail[a] for a in front if not reduced[a]}
        if grown:
            cut |= grown
            stack = list(grown)
            while stack:
                x = stack.pop()
                for y, a in out[x]:
                    if y not in cut:
                        if reduced[a ^ 1]:
                            front.append(a ^ 1)
                        else:
                            cut.add(y)
                            stack.append(y)
            front = fronts[z] = [a for a in front if tail[a] not in cut]
            # Only a grown cut can have reached the root or another terminal.
            if root in cut or any(x in cut and x != z for x in active):
                active.discard(z)
                del cuts[z], fronts[z]
                continue
        if queue and len(front) > queue[0][0]:
            heapq.heappush(queue, (len(front), z))
            continue
        step = min(map(reduced.__getitem__, front))
        lower += step
        for a in front:
            reduced[a] -= step
        heapq.heappush(queue, (len(front), z))

    component = {root}
    stack = [root]
    while stack:
        x = stack.pop()
        for y, a in out[x]:
            if y not in component and not reduced[a]:
                component.add(y)
                stack.append(y)
    return DualAscentResult(lower, reduced, frozenset(component), root)


class SteinerHeuristic:
    """Guiding function: a lower bound on the cost of connecting a vertex
    with a terminal subset that always contains the search root.  The search
    keeps no copy of the values, so a heuristic caches what it builds per
    subset mask.  ``exact(mask)``, asked after ``eval_mask``, says that the
    values are costs; ``completion(u, mask)`` then gives the edge ids of a
    tree that spans u, the root and ``mask`` at that cost or less."""

    name = "base"
    deadline: Optional[float] = None  # checked while tables are built

    def __init__(self, instance: Instance, root: int):
        if root not in instance.terminals:
            raise InputError("root must be a terminal")
        self.instance = instance
        self.root = root
        self.index = TerminalIndex(instance.terminals, root)

    def eval_mask(self, u: int, mask: int) -> int:
        raise NotImplementedError

    def exact(self, mask: int) -> bool:
        return False

    def completion(self, u: int, mask: int) -> Iterable[int]:
        raise NotImplementedError

    def eval(self, u: int, terminal_subset: Iterable[int]) -> int:
        subset = set(terminal_subset)
        if self.root not in subset:
            raise InputError("queried subset must contain the root")
        return self.eval_mask(u, self.index.mask_of(subset - {self.root}))


class ZeroHeuristic(SteinerHeuristic):
    name = "zero"

    def eval_mask(self, u: int, mask: int) -> int:
        return 0


class DualAscentHeuristic(SteinerHeuristic):
    """One dual-ascent run per queried terminal subset, cached.

    The value for (u, J) is the subset's dual-ascent bound plus the shortest
    root-to-u distance under the subset's reduced arc costs: any tree
    spanning J together with u pays at least that much.  Admissible but not
    consistent; exact for the empty J (the root-to-u distance).  A set
    ``deadline`` is checked before every table build and inside its
    dual-ascent run.
    """

    name = "da"

    def __init__(self, instance: Instance, root: int):
        super().__init__(instance, root)
        self._cache: dict[int, tuple[int, list[int]]] = {}

    def _tables(self, mask: int) -> tuple[int, list[int]]:
        entry = self._cache.get(mask)
        if entry is None:
            if self.deadline is not None:
                check_deadline(self.deadline)
            subset = frozenset(self.index.members(mask)) | {self.root}
            run = dual_ascent(self.instance, self.root, subset, deadline=self.deadline)
            net = self.instance.network
            rows = [net.total_cost + 1] * net.vertex_count
            lower_distances(net, rows, (self.root,), run.reduced_cost)
            entry = (run.lower_bound, rows)
            self._cache[mask] = entry
        return entry

    def eval_mask(self, u: int, mask: int) -> int:
        lower, rows = self._tables(mask)
        return lower + rows[u]

    def exact(self, mask: int) -> bool:
        return not mask

    def completion(self, u: int, mask: int) -> Iterable[int]:
        _, rows = self._tables(mask)
        return [eid for _, eid in tight_path(self.instance.network, rows, u)]


# The whole subset DP takes about 3^k * n steps (k terminals, root included,
# n vertices); within DP_BUDGET every mask gets an exact table.  A graph that
# no reduction changed gets UNTOUCHED_DP_FACTOR times the budget: where no
# degree or bound test bites, the bounds stay far apart and a search builds
# most of the tables anyway (510-943 expansions and 100-275 dual-ascent
# tables on the unit 7-cubes with 10 terminals, 3^10 * 128 < 2^23).  On
# reduced grids of that size the search beats the DP.
DP_BUDGET = 1 << 20
UNTOUCHED_DP_FACTOR = 8


def fits_dp_budget(instance: Instance, untouched: bool = False) -> bool:
    """Whether the whole subset DP over ``instance`` fits ``DP_BUDGET``, or
    ``UNTOUCHED_DP_FACTOR`` times it when ``untouched`` says that the
    reductions ran and changed nothing."""
    budget = DP_BUDGET * (UNTOUCHED_DP_FACTOR if untouched else 1)
    return 3 ** len(instance.terminals) * instance.network.vertex_count <= budget


def _splits(key: int) -> Iterator[tuple[int, int]]:
    """Every split of the bitmask ``key`` into nonempty A + B, A holding
    its lowest bit."""
    low = key & -key
    rest = sub = key ^ low
    while sub:
        sub = (sub - 1) & rest
        yield low | sub, rest ^ sub


class ExactSubsetHeuristic(DualAscentHeuristic):
    """Dual-ascent tables, with exact Dreyfus-Wagner tables where they pay.

    A complement mask J gets the exact table S(J + root), the cost of the
    cheapest tree spanning J, the root and u, when J holds at most one
    terminal or when ``whole_dp`` is set; every other mask gets
    ``DualAscentHeuristic``'s table.  ``whole_dp`` starts as
    ``fits_dp_budget(instance)``; ``solve`` sets it from the same test with
    the 8x budget of a graph the reductions left untouched.  Both rules
    depend on the mask alone, so searches stay deterministic.

    Subset tables are keyed by a bitmask over all terminals, the root as
    the top bit.  S({t}) is t's distance row; for two or more terminals,
    every vertex starts at the cheapest split X = A + B (A holding X's
    lowest bit) of S(A)[v] + S(B)[v], and one seeded ``lower_distances``
    run finishes S(X); a completion retraces a tight split at v, else a tight
    arc.  A set ``deadline`` is checked before every table.
    """

    name = "da+dw"

    def __init__(self, instance: Instance, root: int):
        super().__init__(instance, root)
        self._terminals = (*self.index.order, root)  # by bit position
        self._root_bit = self.index.full_mask + 1
        self.whole_dp = fits_dp_budget(instance)
        self._subsets: dict[int, list[int]] = {}

    def eval_mask(self, u: int, mask: int) -> int:
        if self.exact(mask):
            return self._subset(mask | self._root_bit)[u]
        return super().eval_mask(u, mask)

    def exact(self, mask: int) -> bool:
        return self.whole_dp or not mask & (mask - 1)

    def completion(self, u: int, mask: int) -> Iterable[int]:
        net = self.instance.network
        tables = self._subsets
        edges: set[int] = set()
        stack = [(u, mask | self._root_bit)]
        while stack:
            v, key = stack.pop()
            row = tables[key]
            if key & (key - 1) == 0:
                edges.update(eid for _, eid in tight_path(net, row, v))
                continue
            for a, b in _splits(key):
                if tables[a][v] + tables[b][v] == row[v]:
                    stack += ((v, a), (v, b))
                    break
            else:
                cost, d = net.arc_cost, row[v]
                y, arc = next((y, a) for y, a in net.out[v] if row[y] + cost[a] == d)
                edges.add(arc >> 1)
                stack.append((y, key))
        return edges

    def _subset(self, key: int) -> list[int]:
        """S(X) for the terminals X of ``key``, built on first use."""
        row = self._subsets.get(key)
        if row is not None:
            return row
        if self.deadline is not None:
            check_deadline(self.deadline)
        net = self.instance.network
        if key & (key - 1) == 0:
            row = [net.total_cost + 1] * net.vertex_count
            lower_distances(net, row, (self._terminals[key.bit_length() - 1],))
        else:
            splits = [
                map(add, self._subset(a), self._subset(b)) for a, b in _splits(key)
            ]
            # One min call per vertex over every split.
            row = list(map(min, *splits) if len(splits) > 1 else splits[0])
            lower_distances(net, row, None)
        self._subsets[key] = row
        return row


class OneTreeHeuristic(SteinerHeuristic):
    """Half of (terminal-subset MST cost + two cheapest links from u).

    For the queried subset J, u plays the role of the designated terminal:
    the spanning structure of J plus two u-arms, halved and rounded up
    (valid for integer costs).  Consistent, so the search never re-expands.
    """

    name = "onetree"

    def __init__(self, instance: Instance, root: int):
        super().__init__(instance, root)
        self._mst_cache: dict[int, int] = {}

    @cached_property
    def rows(self) -> dict[int, list[int]]:
        """A distance row per terminal, each after a ``deadline`` check."""
        rows = {}
        for z in sorted(self.instance.terminals):
            check_deadline(self.deadline)
            rows[z] = shortest_path_distances(self.instance.network, z)
        return rows

    def _subset_mst(self, mask: int) -> int:
        cached = self._mst_cache.get(mask)
        if cached is None:
            points = (self.root, *self.index.members(mask))
            cached, _ = mst_over_points(
                len(points), lambda i, j: self.rows[points[i]][points[j]]
            )
            self._mst_cache[mask] = cached
        return cached

    def eval_mask(self, u: int, mask: int) -> int:
        members = (self.root, *self.index.members(mask))
        if len(members) == 1:
            arms = 2 * self.rows[self.root][u]
        else:
            d1, d2 = sorted(self.rows[z][u] for z in members)[:2]
            arms = d1 + d2
        return (self._subset_mst(mask) + arms + 1) // 2


def zero_heuristic(instance: Instance, root: int) -> SteinerHeuristic:
    return ZeroHeuristic(instance, root)


def da_heuristic(instance: Instance, root: int) -> SteinerHeuristic:
    return DualAscentHeuristic(instance, root)


def one_tree_heuristic(instance: Instance, root: int) -> SteinerHeuristic:
    return OneTreeHeuristic(instance, root)


def auto_heuristic(instance: Instance, root: int) -> SteinerHeuristic:
    return ExactSubsetHeuristic(instance, root)


def _prune_leaves(network: Network, edges: set[int], keep: frozenset[int]) -> set[int]:
    """Repeatedly delete degree-1 vertices that are not in ``keep``.

    On a tree this always ends at the minimal subtree spanning the ``keep``
    vertices it touches, whatever the order, so one worklist pass suffices.
    ``link[x]`` is the XOR of the ids of x's remaining edges: a leaf's last
    edge is its link.
    """
    edges = set(edges)
    degree: dict[int, int] = {}
    link: dict[int, int] = {}
    for eid in edges:
        u, v, _ = network.edges[eid]
        for x in (u, v):
            degree[x] = degree.get(x, 0) + 1
            link[x] = link.get(x, 0) ^ eid
    leaves = [x for x, d in degree.items() if d == 1 and x not in keep]
    while leaves:
        leaf = leaves.pop()
        if degree[leaf] != 1:
            continue  # its last edge went with the other endpoint
        eid = link[leaf]
        edges.remove(eid)
        u, v, _ = network.edges[eid]
        other = v if u == leaf else u
        degree[leaf] = 0
        degree[other] -= 1
        link[other] ^= eid
        if degree[other] == 1 and other not in keep:
            leaves.append(other)
    return edges


def rsph(
    instance: Instance,
    within: Optional[Iterable[int]] = None,
    start: Optional[int] = None,
    stop_at: Optional[int] = None,
    deadline: Optional[float] = None,
) -> Optional[SteinerTree]:
    """Repeated shortest path heuristic: grow a tree from ``start`` by
    repeatedly attaching the terminal nearest to the current tree.  Returns
    a feasible tree, hence an upper bound.  Each attachment adds a path of
    new edges that ends at a terminal, so every leaf is a terminal and the
    cost only grows: with ``stop_at`` the run returns None at the first
    attachment that brings the cost to ``stop_at`` or more.  A set
    ``deadline`` is checked before every attachment.

    One distance-to-tree list serves every attachment: after a path joins
    the tree, ``lower_distances`` from its new vertices lowers what they
    improve.  With ``within``, arcs into vertices outside it cost
    ``total_cost + 1``, the value of an unreached entry, so those vertices
    are never entered.  The next terminal is the remaining one with the
    smallest (distance, id), and ``tight_path`` retraces its path, as a
    Dijkstra restarted from the whole tree would pick and record them.
    """
    net = instance.network
    terms = instance.terminals
    if start is None:
        start = min(terms)
    if start not in terms:
        raise InputError("rsph start must be a terminal")
    inf = net.total_cost + 1
    arc_costs = None
    if within is not None:
        allowed = frozenset(within)
        if not terms <= allowed:
            raise InputError("restriction set must contain every terminal")
        tail, cost = net.tail, net.arc_cost
        arc_costs = [c if tail[a ^ 1] in allowed else inf for a, c in enumerate(cost)]

    dist = [inf] * net.vertex_count
    tree_edges: set[int] = set()
    tree_cost = 0
    remaining = set(terms)
    fresh = [start]
    while True:
        if deadline is not None and time.monotonic() > deadline:
            raise SolveTimeout()
        lower_distances(net, dist, fresh, arc_costs)
        remaining.difference_update(fresh)
        if not remaining:
            break
        x = min(remaining, key=lambda z: (dist[z], z))
        if dist[x] == inf:
            raise InputError("restriction set does not connect the terminals")
        tree_cost += dist[x]
        if stop_at is not None and tree_cost >= stop_at:
            return None
        steps = tight_path(net, dist, x)
        fresh = [v for v, _ in steps]
        tree_edges.update(eid for _, eid in steps)
    return SteinerTree.from_edges(net, tree_edges, start)


def pruned_mst(network: Network, edge_ids: Iterable[int], keep) -> set[int]:
    """Minimum spanning forest of the given edges, leaf-pruned down to the
    ``keep`` vertices it touches; on a connected edge set that touches every
    vertex of ``keep``, a Steiner tree for them costing at most those edges.
    Ties go to the smaller edge id, so under this strict (cost, id) order
    the forest is unique."""
    parent: dict[int, int] = {}

    def find(x):  # roots are absent from ``parent``
        root = x
        while root in parent:
            root = parent[root]
        while x != root:
            parent[x], x = root, parent[x]
        return root

    chosen = set()
    for eid in sorted(edge_ids, key=lambda e: (network.edges[e][2], e)):
        u, v, _ = network.edges[eid]
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            chosen.add(eid)
    return _prune_leaves(network, chosen, keep)


def _tree_adjacency(network: Network, edges: Iterable[int]):
    adj: dict[int, list[tuple[int, int]]] = {}
    for eid in edges:
        u, v, _ = network.edges[eid]
        adj.setdefault(u, []).append((v, eid))
        adj.setdefault(v, []).append((u, eid))
    return adj


def _key_paths(network: Network, edges: set[int], terminals: frozenset[int]):
    """Maximal tree paths whose interior vertices are degree-2 non-terminals."""
    adj = _tree_adjacency(network, edges)
    key = {v for v in adj if v in terminals or len(adj[v]) >= 3}
    paths = []
    seen: set[int] = set()
    for a in sorted(key):
        for nbr, eid in sorted(adj[a]):
            if eid in seen:
                continue
            path = [eid]
            prev, cur = a, nbr
            while cur not in key:
                nxt = [(n, e) for n, e in sorted(adj[cur]) if e != path[-1]]
                n, e = nxt[0]
                path.append(e)
                prev, cur = cur, n
            seen.update(path)
            paths.append((a, cur, tuple(path)))
    return paths


def local_search(
    instance: Instance, tree: SteinerTree, deadline: Optional[float] = None
) -> SteinerTree:
    """Improve a tree by key-path exchange until no exchange lowers the
    cost; the result is a valid tree of cost at most the input cost.
    ``deadline`` is checked before every exchange it tries.

    An exchange drops one path between key vertices and reconnects the two
    parts by a shortest path: ``lower_distances`` from the part holding the
    path's first end stops at the first vertex of the other part it
    settles, and ``tight_path`` retraces the way back.
    """
    net = instance.network
    terms = instance.terminals
    best = set(tree.edges)
    if not best:
        return tree

    improved = True
    while improved:
        improved = False
        for a, b, path in _key_paths(net, best, terms):
            check_deadline(deadline)
            path_cost = sum(net.cost_of(e) for e in path)
            kept = best - set(path)
            adj_kept = _tree_adjacency(net, kept)
            comp_a = {a}
            stack = [a]
            while stack:
                x = stack.pop()
                for y, _ in adj_kept.get(x, ()):
                    if y not in comp_a:
                        comp_a.add(y)
                        stack.append(y)
            comp_b = (set(adj_kept) | {b}) - comp_a
            dist = [net.total_cost + 1] * net.vertex_count
            hit = lower_distances(net, dist, comp_a, stop=comp_b)
            if hit is None or dist[hit] >= path_cost:
                continue
            new_path = {eid for _, eid in tight_path(net, dist, hit)}
            best = kept | new_path
            improved = True
            break

    return SteinerTree.from_edges(net, best, tree.root)


def _spread(items: list[int], cap: int) -> list[int]:
    """Up to ``cap`` elements spread evenly over a sorted list."""
    if len(items) <= cap:
        return list(items)
    picked = []
    for i in range(cap):
        j = round(i * (len(items) - 1) / max(cap - 1, 1))
        if not picked or items[j] != picked[-1]:
            picked.append(items[j])
    return picked


def spread_rsph(
    instance: Instance, deadline: Optional[float] = None
) -> SteinerTree:
    """The cheapest RSPH tree from up to 16 start terminals spread over the
    sorted terminals, the earliest of the cheapest; ``deadline`` is checked
    between starts.  A start stops once its tree costs at least the best
    finished one: it can no longer win."""
    best = None
    for s in _spread(sorted(instance.terminals), 16):
        check_deadline(deadline)
        stop_at = None if best is None else best.cost
        tree = rsph(instance, None, s, stop_at, deadline=deadline)
        if tree is not None:
            best = tree
    return best


def upper_bound_pipeline(
    instance: Instance,
    root: int,
    run: DualAscentResult,
    starts: Sequence[SteinerTree],
    deadline: Optional[float] = None,
) -> SteinerTree:
    """Best tree among the full-graph trees ``starts`` (empty for none) and
    an RSPH run on the root component of ``run``, the
    ``dual_ascent(instance, root)`` result, post-processed by local search.

    Local search is skipped when the best tree already costs
    ``run.lower_bound``: no tree is cheaper, and local search only accepts
    strict improvements.
    """
    check_deadline(deadline)
    best = rsph(instance, run.root_component, root, deadline=deadline)
    if starts:
        first = min(starts, key=lambda t: t.cost)  # the earliest of the cheapest
        if first.cost <= best.cost:
            best = first
    if best.cost == run.lower_bound:
        return best
    return local_search(instance, best, deadline)


def improving_root_runs(
    instance: Instance,
    stop_at: Optional[int] = None,
    deadline: Optional[float] = None,
    first: Optional[DualAscentResult] = None,
) -> Iterator[DualAscentResult]:
    """Dual-ascent runs from up to 50 terminal roots spread over the sorted
    terminals, each yielded when its bound beats every earlier one; ties go
    to the smallest root id.  With ``stop_at`` the runs end at the first
    bound that reaches it; no later run can beat an upper bound.
    ``first`` is the run from the first root (the smallest terminal),
    already made: it is not run again or yielded, and later runs must beat
    it.  ``deadline`` is checked before every run."""
    roots = _spread(sorted(instance.terminals), 50)
    best = first
    if first is not None:
        roots = roots[1:]
    for r in roots:
        check_deadline(deadline)
        run = dual_ascent(instance, r, deadline=deadline)
        if best is None or run.lower_bound > best.lower_bound:
            best = run
            yield run
            if stop_at is not None and run.lower_bound >= stop_at:
                return


def select_root(
    instance: Instance, deadline: Optional[float] = None
) -> DualAscentResult:
    """The last of ``improving_root_runs``: the run with the highest bound,
    whose root is the chosen terminal; ties go to the smallest id."""
    for run in improving_root_runs(instance, deadline=deadline):
        pass  # keeps one run at a time, not the whole sequence
    return run
