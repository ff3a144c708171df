"""The two exact algorithms.

``dreyfus_wagner`` is the classic dynamic program over all terminal subsets,
kept as the reference oracle; ``solve`` never calls it.
``ds_star`` explores (vertex, terminal-subset) states best-first under an
admissible guiding heuristic; because the heuristic need not be consistent,
an expanded state whose tentative cost later improves is simply re-expanded.
``solve`` wires preprocessing, root selection, heuristic choice, search and
solution expansion together.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field
from typing import Optional

from .graph import (
    InputError,
    Instance,
    InternalError,
    Network,
    SolveTimeout,
    StpError,
    SteinerTree,
    check_deadline,
    distance_matrix,
    shortest_path_distances,
    shortest_path_edges,
    validate_tree,
)
from . import bounds as _bounds
from .bounds import (
    SteinerHeuristic,
    TerminalIndex,
    auto_heuristic,
    da_heuristic,
    fits_dp_budget,
    improving_root_runs,
    one_tree_heuristic,
    pruned_mst,
    rsph,
    select_root,  # unused here; stpbench/tracing.py wraps this name
    upper_bound_pipeline,  # unused here; stpbench/tracing.py wraps this name
    zero_heuristic,
)
from .reductions import (
    PreprocessResult,
    SolveContext,
    identity_preprocess,
    run_pipeline,
    unreduce,
)

DW_TERMINAL_CAP = 25
DS_TERMINAL_CAP = 127


class TooManyTerminals(StpError):
    """Instance exceeds the subset-mask capacity of the requested solver."""


class HeuristicNegative(StpError):
    """A guiding heuristic returned a negative value (contract violation)."""


def iter_proper_subsets(mask: int):
    """Non-empty proper submasks of ``mask``, descending."""
    sub = (mask - 1) & mask
    while sub:
        yield sub
        sub = (sub - 1) & mask


def combine_split_cost(costs, mask: int) -> Optional[int]:
    """Cheapest split of ``mask`` into two non-empty disjoint halves.

    ``costs`` maps submasks to sub-tree costs (dict-like ``get``).  Returns
    None when no split has both halves available.
    """
    best = None
    for sub in iter_proper_subsets(mask):
        a = costs.get(sub)
        if a is None:
            continue
        b = costs.get(mask ^ sub)
        if b is None:
            continue
        total = a + b
        if best is None or total < best:
            best = total
    return best


def dreyfus_wagner(instance: Instance, root: Optional[int] = None):
    """Exact dynamic program over terminal subsets.

    Returns (cost, tree); ``root`` defaults to the smallest terminal.
    Memory grows with 2^|terminals|, so the terminal count is capped.
    """
    net = instance.network
    terms = instance.terminals
    if root is None:
        root = min(terms)
    if root not in terms:
        raise InputError("dreyfus_wagner root must be a terminal")
    index = TerminalIndex(terms, root)
    k = len(index.order)
    if k > DW_TERMINAL_CAP:
        raise TooManyTerminals(f"{k + 1} terminals exceed the exact-DP cap")
    if k == 0:
        return 0, SteinerTree(frozenset(), root, 0)

    dist = distance_matrix(net)
    n = net.vertex_count
    full = index.full_mask
    # Per-vertex tables: subset mask -> optimal sub-tree cost at that vertex.
    sub_cost: list[dict[int, int]] = [dict() for _ in range(n)]
    for i, z in enumerate(index.order):
        bit = 1 << i
        row = dist[z]
        for u in range(n):
            sub_cost[u][bit] = row[u]
    split_cost: dict[int, list[int]] = {}
    masks = sorted(range(1, full + 1), key=lambda m: (m.bit_count(), m))
    for mask in masks:
        if mask.bit_count() < 2:
            continue
        merged = [combine_split_cost(sub_cost[u], mask) for u in range(n)]
        split_cost[mask] = merged
        for u in range(n):
            row = dist[u]
            sub_cost[u][mask] = min(
                row[v] + merged[v] for v in range(n)
            )
    cost = sub_cost[root][full]
    edges = _dw_retrace(net, dist, index, sub_cost, split_cost, root, full)
    return cost, SteinerTree.from_edges(net, edges, root)


def _dw_retrace(net, dist, index, sub_cost, split_cost, root, full):
    edges: set[int] = set()
    stack = [(root, full)]
    seen = set()
    while stack:
        u, mask = stack.pop()
        if (u, mask) in seen:
            continue
        seen.add((u, mask))
        if mask.bit_count() == 1:
            z = index.order[mask.bit_length() - 1]
            edges.update(shortest_path_edges(net, u, z))
            continue
        merged = split_cost[mask]
        target = sub_cost[u][mask]
        join = next(
            v for v in range(net.vertex_count) if dist[u][v] + merged[v] == target
        )
        edges.update(shortest_path_edges(net, u, join))
        for sub in iter_proper_subsets(mask):
            other = mask ^ sub
            if sub_cost[join][sub] + sub_cost[join][other] == merged[join]:
                stack.append((join, sub))
                stack.append((join, other))
                break
        else:
            raise InternalError("retrace failed to find the recorded split")
    return edges


@dataclass
class SearchStats:
    expansions: int = 0
    re_expansions: int = 0
    insertions: int = 0
    queue_peak: int = 0
    prune_hits: int = 0
    stale_pops: int = 0
    wall_time: float = 0.0

    def as_dict(self) -> dict:
        return {
            "expansions": self.expansions,
            "re_expansions": self.re_expansions,
            "insertions": self.insertions,
            "queue_peak": self.queue_peak,
            "prune_hits": self.prune_hits,
            "stale_pops": self.stale_pops,
            "wall_time": round(self.wall_time, 6),
        }


@dataclass
class PruneState:
    """Per-subset upper bounds with witness terminals.

    ``upper[J]`` bounds the cost of some tree that spans J and touches one
    terminal outside J (the witness); states costlier than that bound cannot
    be part of an optimal decomposition and are kept out of the queue.
    ``outside[J]`` lists ``(z, row of z, min(row[x] for x in J))`` for the
    terminals z outside J, filled the first time J is pruned.
    """

    index: TerminalIndex
    terminals: tuple[int, ...]
    rows: dict[int, list[int]]
    upper: dict[int, int] = field(default_factory=dict)
    witness: dict[int, frozenset[int]] = field(default_factory=dict)
    outside: dict[int, list[tuple[int, list[int], int]]] = field(
        default_factory=dict
    )


def make_prune_state(
    instance: Instance, root: int, deadline: Optional[float] = None
) -> PruneState:
    """One distance row per terminal; ``deadline`` is checked before each."""
    terms = tuple(sorted(instance.terminals))
    rows = {}
    for z in terms:
        check_deadline(deadline)
        rows[z] = shortest_path_distances(instance.network, z)
    return PruneState(TerminalIndex(instance.terminals, root), terms, rows)


def prune(state: PruneState, v: int, mask: int, tentative: int) -> bool:
    """Update the subset bound with state (v, mask) and say whether to drop it."""
    outside = state.outside.get(mask)
    if outside is None:
        members = state.index.members(mask)
        inside = set(members)
        outside = state.outside[mask] = [
            (z, state.rows[z], min(state.rows[z][x] for x in members))
            for z in state.terminals
            if z not in inside
        ]
    best = None
    best_z = None
    for z, row, nearest in outside:
        jump = row[v]
        if nearest < jump:
            jump = nearest
        if best is None or jump < best:
            best, best_z = jump, z
    cand = tentative + best
    cur = state.upper.get(mask)
    if cur is None or cand < cur:
        state.upper[mask] = cand
        state.witness[mask] = frozenset((best_z,))
        cur = cand
    return tentative > cur


def prune_combine(
    state: PruneState, u: int, mask1: int, mask2: int, tentative: int
) -> bool:
    """Try composing the two subset bounds, then prune the merged state."""
    u1 = state.upper.get(mask1)
    u2 = state.upper.get(mask2)
    if u1 is not None and u2 is not None:
        set1 = set(state.index.members(mask1))
        set2 = set(state.index.members(mask2))
        w1 = state.witness[mask1]
        w2 = state.witness[mask2]
        if not (w1 & set2) or not (w2 & set1):
            merged = mask1 | mask2
            cand = u1 + u2
            cur = state.upper.get(merged)
            if cur is None or cand < cur:
                state.upper[merged] = cand
                state.witness[merged] = (w1 | w2) - set1 - set2
    return prune(state, u, mask1 | mask2, tentative)


def compute_smt(
    retrace: dict, network: Network, index: TerminalIndex, u: int, mask: int
) -> set[int]:
    """Collect tree edges by following retrace entries from (u, mask): a
    relaxed state's is the arc ``a`` that reached it (edge ``a >> 1``, from
    state ``(tail[a], mask)``), a merged state's its two submasks."""
    edges: set[int] = set()
    stack = [(u, mask)]
    seen = set()
    while stack:
        x, m = stack.pop()
        if (x, m) in seen:
            continue
        seen.add((x, m))
        entry = retrace.get((x, m))
        if entry is None:
            if m.bit_count() == 1 and index.order[m.bit_length() - 1] == x:
                continue  # base state (z, {z})
            raise InternalError(f"dangling retrace reference at {(x, m)}")
        if isinstance(entry, int):
            edges.add(entry >> 1)
            stack.append((network.tail[entry], m))
        else:
            stack.extend((x, half) for half in entry)
    return edges


def ds_star(
    instance: Instance,
    root: int,
    heuristic: SteinerHeuristic,
    pruning: bool = True,
    deadline: Optional[float] = None,
    cutoff: Optional[int] = None,
):
    """Best-first search over (vertex, terminal-subset) states, keyed by
    g + h, from an incumbent of cost ``cutoff`` (None for none).

    A state with g at or above the incumbent is dropped before its guide is
    asked, and one whose key is not below it is not queued.  One whose guide
    is exact for its complement is banked instead: its retrace plus the
    guide's completion becomes the incumbent when cheaper.  The goal counts
    with its g alone, and a start state's exact key is the optimum, which
    ends the search.  Otherwise it stops when the queue is empty or its
    smallest key reaches the incumbent, which is then optimal for any
    admissible guide, consistent or not: while an optimal tree T (one the
    pruning keeps) is cheaper than the incumbent, a state of T's
    decomposition is queued at its optimal cost, with a key of at most
    cost(T); a state that improves after its expansion is queued again.  So
    the largest key popped, capped by the incumbent, is a lower bound, which
    a ``SolveTimeout`` raised after the start states are queued carries,
    with the edge ids of the tree banked last, if any.

    Returns (cost, tree, stats); cost and tree are None when no tree is
    cheaper than ``cutoff``.
    """
    net = instance.network
    terms = instance.terminals
    if root not in terms:
        raise InputError("search root must be a terminal")
    if heuristic.root != root:
        raise InputError("heuristic was built for a different root")
    index = heuristic.index
    if len(index.order) > DS_TERMINAL_CAP:
        raise TooManyTerminals(
            f"{len(index.order) + 1} terminals exceed the mask capacity"
        )
    start = time.perf_counter()
    stats = SearchStats()
    if not index.order:
        return 0, SteinerTree(frozenset(), root, 0), stats

    full = index.full_mask
    best = math.inf if cutoff is None else cutoff
    incumbent: Optional[set[int]] = None
    floor: Optional[int] = None  # largest key popped

    def timeout() -> SolveTimeout:
        stats.wall_time = time.perf_counter() - start
        return SolveTimeout(
            stats, None if floor is None else min(floor, best), incumbent
        )

    def guide(u: int, mask: int) -> int:
        try:
            val = heuristic.eval_mask(u, full ^ mask)
        except SolveTimeout:  # raised while building a table
            raise timeout() from None
        if val < 0:
            raise HeuristicNegative(f"heuristic value {val} at {(u, mask)}")
        return val

    tentative: dict[tuple[int, int], int] = {}
    retrace: dict[tuple[int, int], int | tuple[int, int]] = {}
    expanded_at: dict[int, list[int]] = {}
    done: set[tuple[int, int]] = set()
    try:
        prune_state = make_prune_state(instance, root, deadline) if pruning else None
    except SolveTimeout:
        raise timeout() from None

    def bank(u: int, mask: int, cost: int):
        nonlocal best, incumbent
        edges = compute_smt(retrace, net, index, u, mask)
        if mask != full or u != root:
            edges.update(heuristic.completion(u, full ^ mask))
        tree = pruned_mst(net, edges, terms)
        if sum(net.cost_of(e) for e in tree) > cost:
            raise InternalError(f"tree through {(u, mask)} costs over {cost}")
        best, incumbent = cost, tree

    heap: list[tuple[int, int, int, int, int]] = []

    def push(u: int, mask: int, value: int) -> bool:
        """Queue, bank or drop a state; say whether its key was exact."""
        if value >= best:
            return False
        if mask == full and u == root:
            bank(u, mask, value)
            return True
        key = value + guide(u, mask)
        exact = heuristic.exact(full ^ mask)
        if key < best:
            if exact:
                bank(u, mask, key)
            else:
                heapq.heappush(heap, (key, -mask.bit_count(), u, mask, value))
                stats.insertions += 1
                if len(heap) > stats.queue_peak:
                    stats.queue_peak = len(heap)
        return exact

    for z in index.order:
        bit = index.bit[z]
        tentative[(z, bit)] = 0
        if push(z, bit, 0):  # at g = 0 an exact key is the optimum
            heap.clear()
            break
    if heap:
        floor = heap[0][0]

    out, arc_cost = net.out, net.arc_cost
    while heap and heap[0][0] < best:
        key, _, u, mask, inserted = heapq.heappop(heap)
        if key > floor:
            floor = key
        current = tentative.get((u, mask))
        if current is None or inserted > current:
            stats.stale_pops += 1
            continue
        stats.expansions += 1
        if deadline is not None and time.monotonic() > deadline:
            raise timeout()
        if (u, mask) in done:
            stats.re_expansions += 1
        else:
            done.add((u, mask))
            expanded_at.setdefault(u, []).append(mask)

        # Merge with disjoint subsets already expanded at this vertex.
        for other in expanded_at.get(u, ()):
            if other & mask:
                continue
            union = mask | other
            value = current + tentative[(u, other)]
            known = tentative.get((u, union))
            if known is None or value < known:
                tentative[(u, union)] = value
                retrace[(u, union)] = (mask, other)
                if pruning and prune_combine(prune_state, u, mask, other, value):
                    stats.prune_hits += 1
                else:
                    push(u, union, value)

        # Relax along incident edges.
        for v, a in out[u]:
            value = current + arc_cost[a]
            known = tentative.get((v, mask))
            if known is None or value < known:
                tentative[(v, mask)] = value
                retrace[(v, mask)] = a
                if pruning and prune(prune_state, v, mask, value):
                    stats.prune_hits += 1
                else:
                    push(v, mask, value)

    stats.wall_time = time.perf_counter() - start
    if incumbent is None:
        if cutoff is None:
            raise InternalError("queue exhausted before reaching the goal state")
        return None, None, stats
    return best, SteinerTree.from_edges(net, incumbent, root), stats


_HEURISTICS = {
    "auto": auto_heuristic,
    "da": da_heuristic,
    "onetree": one_tree_heuristic,
    "zero": zero_heuristic,
}


@dataclass
class SolveConfig:
    preprocess: bool = True
    pruning: bool = True
    heuristic: str = "auto"
    root: Optional[int] = None  # vertex id on the original instance
    time_limit: Optional[float] = None


@dataclass
class SolveResult:
    status: str  # "optimal" or "timeout"
    tree: Optional[SteinerTree]
    cost: Optional[int]
    stats: dict
    preprocess: Optional[PreprocessResult]
    search: Optional[SearchStats] = None


def solve(instance: Instance, config: Optional[SolveConfig] = None) -> SolveResult:
    """Full pipeline: reduce, pick a root and heuristic, search, expand.

    One ``SolveContext`` carries the root, the incumbent and the lower bound
    through the reductions.  When the bounds meet there, the incumbent is
    optimal and returned without a search.  Under a time limit an RSPH tree
    of the original instance is the first incumbent, and a timeout returns
    the best incumbent found.  ``stats`` reports both bounds in original
    costs.
    """
    cfg = config or SolveConfig()
    if cfg.heuristic not in _HEURISTICS:
        raise InputError(f"unknown heuristic {cfg.heuristic!r}")
    if cfg.root is not None and cfg.root not in instance.terminals:
        raise InputError("root override must be a terminal")
    # Written so that NaN fails the comparisons.
    if cfg.time_limit is not None and not 0 <= cfg.time_limit < float("inf"):
        raise InputError(f"time limit {cfg.time_limit!r} is not a finite time >= 0")
    deadline = (
        time.monotonic() + cfg.time_limit if cfg.time_limit is not None else None
    )
    started = time.perf_counter()
    ctx = SolveContext(root=cfg.root, whole_dp=cfg.heuristic == "auto")
    pre: Optional[PreprocessResult] = None
    # Every solve reports every key, None when the value is absent.
    stats: dict = dict.fromkeys(("heuristic", "preprocessing", "root", "search"))

    def result(status, tree, search=None) -> SolveResult:
        stats["wall_time"] = time.perf_counter() - started
        stats["lower_bound"] = ctx.lower_bound
        stats["upper_bound"] = ctx.upper_bound
        if search is not None:
            stats["search"] = search.as_dict()
        cost = None if tree is None else tree.cost
        return SolveResult(status, tree, cost, stats, pre, search)

    def proven(search=None) -> SolveResult:
        tree, bound = ctx.tree(instance), ctx.upper_bound
        if validate_tree(instance, tree) != bound:
            raise InternalError(f"proven tree costs {tree.cost}, bound {bound}")
        ctx.lower_bound = ctx.upper_bound
        return result("optimal", tree, search)

    try:
        if deadline is not None:
            ctx.offer(instance, rsph(instance).edges)
            check_deadline(deadline)
        if cfg.preprocess:
            pre = run_pipeline(instance, ctx, deadline)
        else:
            pre = identity_preprocess(instance)
        stats["preprocessing"] = {
            "changed": pre.changed,
            "offset": pre.offset,
            "vertices": pre.reduced.network.vertex_count,
            "edges": pre.reduced.network.edge_count,
            "terminals": len(pre.reduced.terminals),
            "ops": pre.stats,
        }
        reduced = pre.reduced

        if len(reduced.terminals) <= 1:
            trivial = SteinerTree(frozenset(), min(reduced.terminals), 0)
            tree = unreduce(trivial, pre.log)
            ctx.lower_bound = ctx.upper_bound = validate_tree(instance, tree)
            return result("optimal", tree)

        if ctx.proven:
            stats["root"] = pre.vertex_image[ctx.root]
            return proven()

        if ctx.root is None:
            # As in the hunting round, a timeout keeps the best run's bound.
            for run in improving_root_runs(reduced, deadline=deadline):
                ctx.lower_bound = max(ctx.lower_bound, run.lower_bound + pre.offset)
            root = run.root
        else:
            root = pre.vertex_image[ctx.root]
            if root is None or root not in reduced.terminals:
                raise InternalError("the solve's root vanished during preprocessing")
            if not cfg.preprocess:
                # No reduction round proved a bound; the root's dual ascent
                # does.  Looked up in ``bounds`` so that a wrapper installed
                # there (as by stpbench's tracer) counts this run.
                check_deadline(deadline)
                run = _bounds.dual_ascent(reduced, root, deadline=deadline)
                ctx.lower_bound = max(ctx.lower_bound, run.lower_bound + pre.offset)
        heuristic = _HEURISTICS[cfg.heuristic](reduced, root)
        heuristic.deadline = deadline
        if ctx.whole_dp:  # the auto guide, told whether the reductions bit
            untouched = cfg.preprocess and not pre.changed
            heuristic.whole_dp = fits_dp_budget(reduced, untouched)
        stats["heuristic"] = heuristic.name
        stats["root"] = root

        cutoff = None if ctx.upper_bound is None else ctx.upper_bound - pre.offset
        cost, reduced_tree, search = ds_star(
            reduced, root, heuristic, cfg.pruning, deadline, cutoff
        )
        if reduced_tree is None:  # the search proved the incumbent optimal
            return proven(search)
        tree = unreduce(reduced_tree, pre.log)
        recomputed = validate_tree(instance, tree)
        if recomputed != cost + pre.offset:
            raise InternalError(
                f"expanded tree costs {recomputed}, expected {cost + pre.offset}"
            )
        ctx.lower_bound = ctx.upper_bound = recomputed
        return result("optimal", tree, search)
    except SolveTimeout as exc:
        if exc.lower_bound is not None:
            ctx.lower_bound = max(ctx.lower_bound, exc.lower_bound + pre.offset)
        if exc.incumbent is not None:  # a tree the search banked
            banked = SteinerTree.from_edges(reduced.network, exc.incumbent, root)
            ctx.offer(instance, unreduce(banked, pre.log).edges)
        tree = ctx.tree(instance)
        if tree is not None:
            validate_tree(instance, tree)
        return result("timeout", tree, exc.search)
