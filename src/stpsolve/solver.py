"""The two exact algorithms.

``dreyfus_wagner`` is the classic dynamic program over all terminal subsets,
used as the reference oracle and as a fallback for tiny instances.
``ds_star`` explores (vertex, terminal-subset) states best-first under an
admissible guiding heuristic; because the heuristic need not be consistent,
an expanded state whose tentative cost later improves is simply re-expanded.
``solve`` wires preprocessing, root selection, heuristic choice, search and
solution expansion together.
"""

from __future__ import annotations

import heapq
import json
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
from .bounds import (
    SteinerHeuristic,
    TerminalIndex,
    auto_heuristic,
    da_heuristic,
    one_tree_heuristic,
    rsph,
    select_root,
    upper_bound_pipeline,  # unused here; stpbench/tracing.py wraps this name
    zero_heuristic,
)
from .reductions import (
    PipelineConfig,
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

    Returns (cost, tree).  Memory grows with 2^|terminals|, so the terminal
    count is capped.
    """
    net = instance.network
    terms = instance.terminals
    if root is None:
        root = instance.root if instance.root is not None else min(terms)
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
    heuristic_cache_hits: int = 0
    stale_pops: int = 0
    wall_time: float = 0.0

    def as_dict(self) -> dict:
        return {
            "expansions": self.expansions,
            "re_expansions": self.re_expansions,
            "insertions": self.insertions,
            "queue_peak": self.queue_peak,
            "prune_hits": self.prune_hits,
            "heuristic_cache_hits": self.heuristic_cache_hits,
            "stale_pops": self.stale_pops,
            "wall_time": round(self.wall_time, 6),
        }

    def line(self) -> str:
        return json.dumps(self.as_dict())


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


def make_prune_state(instance: Instance, root: int) -> PruneState:
    terms = tuple(sorted(instance.terminals))
    rows = {z: shortest_path_distances(instance.network, z) for z in terms}
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
    """Collect tree edges by following retrace sets from (u, mask)."""
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
        for y, m2 in entry:
            if y != x:
                eid = network.edge_between(x, y)
                if eid is None:
                    raise InternalError("retrace crosses a missing edge")
                edges.add(eid)
            stack.append((y, m2))
    return edges


def ds_star(
    instance: Instance,
    root: int,
    heuristic: SteinerHeuristic,
    pruning: bool = True,
    deadline: Optional[float] = None,
):
    """Best-first search over (vertex, terminal-subset) states.

    Terminates with the optimal cost for any admissible heuristic; states
    are re-expanded when their tentative cost improves after expansion, which
    non-consistent heuristics can cause.  Returns (cost, tree, stats).
    """
    net = instance.network
    terms = instance.terminals
    if root not in terms:
        raise InputError("search root must be a terminal")
    if getattr(heuristic, "root", root) != root:
        raise InputError("heuristic was built for a different root")
    index = TerminalIndex(terms, root)
    if len(index.order) > DS_TERMINAL_CAP:
        raise TooManyTerminals(
            f"{len(index.order) + 1} terminals exceed the mask capacity"
        )
    start = time.perf_counter()
    stats = SearchStats()
    if not index.order:
        return 0, SteinerTree(frozenset(), root, 0), stats

    full = index.full_mask
    h_memo: dict[tuple[int, int], int] = {}

    def guide(u: int, mask: int) -> int:
        key = (u, mask)
        val = h_memo.get(key)
        if val is not None:
            stats.heuristic_cache_hits += 1
            return val
        try:
            val = heuristic.eval_mask(u, full ^ mask)
        except SolveTimeout:  # raised before a table build
            stats.wall_time = time.perf_counter() - start
            raise SolveTimeout(stats) from None
        if val < 0:
            raise HeuristicNegative(f"heuristic value {val} at {key}")
        h_memo[key] = val
        return val

    tentative: dict[tuple[int, int], int] = {}
    retrace: dict[tuple[int, int], tuple] = {}
    expanded_at: dict[int, list[int]] = {}
    done: set[tuple[int, int]] = set()
    prune_state = make_prune_state(instance, root) if pruning else None

    heap = []
    for z in index.order:
        bit = index.bit[z]
        tentative[(z, bit)] = 0
        heap.append((guide(z, bit), -1, z, bit, 0))
    heapq.heapify(heap)
    stats.insertions = len(heap)
    stats.queue_peak = len(heap)

    def push(u: int, mask: int, value: int):
        heapq.heappush(
            heap, (value + guide(u, mask), -mask.bit_count(), u, mask, value)
        )
        stats.insertions += 1
        if len(heap) > stats.queue_peak:
            stats.queue_peak = len(heap)

    goal = (root, full)
    while goal not in done:
        if not heap:
            raise InternalError("queue exhausted before reaching the goal state")
        _, _, u, mask, inserted = heapq.heappop(heap)
        current = tentative.get((u, mask))
        if current is None or inserted > current:
            stats.stale_pops += 1
            continue
        stats.expansions += 1
        if deadline is not None and time.monotonic() > deadline:
            stats.wall_time = time.perf_counter() - start
            raise SolveTimeout(stats)
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
                retrace[(u, union)] = ((u, mask), (u, other))
                if pruning and prune_combine(prune_state, u, mask, other, value):
                    stats.prune_hits += 1
                else:
                    push(u, union, value)

        # Relax along incident edges.
        for v, cost, _ in net.adjacency[u]:
            value = current + cost
            known = tentative.get((v, mask))
            if known is None or value < known:
                tentative[(v, mask)] = value
                retrace[(v, mask)] = ((u, mask),)
                if pruning and prune(prune_state, v, mask, value):
                    stats.prune_hits += 1
                else:
                    push(v, mask, value)

    cost = tentative[goal]
    edges = compute_smt(retrace, net, index, root, full)
    tree = SteinerTree.from_edges(net, edges, root)
    stats.wall_time = time.perf_counter() - start
    return cost, tree, stats


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
    threshold_ratio: float = 0.01


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
    pipeline = PipelineConfig(threshold_ratio=cfg.threshold_ratio, deadline=deadline)
    started = time.perf_counter()
    ctx = SolveContext(root=cfg.root)
    pre: Optional[PreprocessResult] = None
    stats: dict = {"heuristic": None, "preprocessing": None}

    def result(status, tree, search=None) -> SolveResult:
        stats["wall_time"] = time.perf_counter() - started
        stats["lower_bound"] = ctx.lower_bound
        stats["upper_bound"] = ctx.upper_bound
        if search is not None:
            stats["search"] = search.as_dict()
        cost = None if tree is None else tree.cost
        return SolveResult(status, tree, cost, stats, pre, search)

    try:
        if deadline is not None:
            ctx.offer(instance, rsph(instance).edges)
            check_deadline(deadline)
        if cfg.preprocess:
            pre = run_pipeline(instance, pipeline, ctx)
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
            tree = ctx.tree(instance)
            if validate_tree(instance, tree) != ctx.lower_bound:
                raise InternalError(
                    f"proven tree costs {tree.cost}, bound {ctx.lower_bound}"
                )
            stats["root"] = pre.vertex_image[ctx.root]
            return result("optimal", tree)

        picked = ctx.root is None
        if picked:
            root = select_root(reduced, deadline)
        else:
            root = pre.vertex_image[ctx.root]
            if root is None or root not in reduced.terminals:
                raise InternalError("the solve's root vanished during preprocessing")
        heuristic = _HEURISTICS[cfg.heuristic](reduced, root)
        heuristic.deadline = deadline
        stats["heuristic"] = heuristic.name
        stats["root"] = root
        if picked:
            # No reduction round proved a bound.  The heuristic is admissible,
            # so its value at the root for every terminal bounds the optimum.
            full = heuristic.eval_mask(root, heuristic.index.full_mask)
            ctx.lower_bound = max(ctx.lower_bound, full + pre.offset)

        cost, reduced_tree, search = ds_star(
            reduced, root, heuristic, cfg.pruning, deadline
        )
        tree = unreduce(reduced_tree, pre.log)
        recomputed = validate_tree(instance, tree)
        if recomputed != cost + pre.offset:
            raise InternalError(
                f"expanded tree costs {recomputed}, expected {cost + pre.offset}"
            )
        ctx.lower_bound = ctx.upper_bound = recomputed
        return result("optimal", tree, search)
    except SolveTimeout as exc:
        tree = ctx.tree(instance)
        if tree is not None:
            validate_tree(instance, tree)
        return result("timeout", tree, exc.search)
