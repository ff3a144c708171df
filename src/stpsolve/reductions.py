"""Reversible preprocessing: shrink an instance while preserving at least one
optimal Steiner tree, and map solutions of the reduced instance back.

Every live edge of the working graph carries a provenance: the set of
original edge ids it stands for.  Contractions move their provenance into a
"forced" list and add their cost to the offset, so that
``csmt(original) == csmt(reduced) + offset`` and any reduced solution expands
to an original solution by unioning provenances with the forced paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .graph import (
    InputError,
    Instance,
    InternalError,
    Network,
    SteinerTree,
    check_deadline,
    lower_distances,
)
from . import bounds as _bounds


# A round of dual-ascent elimination that changes fewer than this share of
# the live vertices and edges (and at least one) ends the pipeline once the
# root is picked.
THRESHOLD_RATIO = 0.01


@dataclass
class ReductionLog:
    """What ``unreduce`` needs: the original instance, the forced paths and
    the provenance of every reduced edge, as original edge ids."""

    original: Instance
    forced: list[tuple[int, ...]] = field(default_factory=list)
    edge_expansion: dict[int, tuple[int, ...]] = field(default_factory=dict)


@dataclass
class PreprocessResult:
    reduced: Instance
    log: ReductionLog
    offset: int
    stats: dict
    vertex_image: dict[int, Optional[int]]
    changed: int


@dataclass
class SolveContext:
    """What one solve decides once and shares between reduction rounds.

    ``root`` is the search root as an original vertex id, which is also its
    working id in the reductions; a contracted root lives on in the vertex
    it merged into.  ``incumbent`` holds the original edge ids of the
    cheapest tree found so far and ``upper_bound`` its cost; ``lower_bound``
    is the best proven bound on the optimum, in original costs.  Equal
    bounds prove the incumbent optimal.  ``whole_dp`` says that the search's
    guide builds the whole subset DP on a graph that fits the DP budget,
    where the search ends at its first start state whatever the bounds: a
    graph within ``DP_BUDGET``, or within 8 times it when no reduction
    changed the graph (``bounds.fits_dp_budget``), since there the bounds
    stay apart and a search would build most of the DP's tables anyway.
    Past the budget the guide is exact only for subsets of at most one
    terminal and builds dual-ascent tables for the rest.
    """

    root: Optional[int] = None
    lower_bound: int = 0
    upper_bound: Optional[int] = None
    incumbent: frozenset[int] = frozenset()
    whole_dp: bool = False

    @property
    def proven(self) -> bool:
        return self.upper_bound == self.lower_bound

    def offer(self, instance: Instance, edges: Iterable[int]):
        """Make a tree of ``edges`` (original edge ids of a connected
        subgraph that spans every terminal) the incumbent if it is cheaper.
        The tree is their minimum spanning tree with non-terminal leaves
        pruned, which costs at most the subgraph: expanded edges that share
        provenance may close cycles."""
        net = instance.network
        tree = _bounds.pruned_mst(net, edges, instance.terminals)
        cost = sum(net.cost_of(e) for e in tree)
        if self.upper_bound is None or cost < self.upper_bound:
            self.upper_bound, self.incumbent = cost, frozenset(tree)

    def tree(self, instance: Instance) -> Optional[SteinerTree]:
        """The incumbent as a tree of the original ``instance``, if any."""
        if self.upper_bound is None:
            return None
        return SteinerTree.from_edges(
            instance.network, self.incumbent, min(instance.terminals)
        )


class _Working:
    """Mutable reduction state over the original vertex ids."""

    def __init__(self, instance: Instance, context: Optional[SolveContext] = None):
        net = instance.network
        self.instance = instance
        self.context = context if context is not None else SolveContext()
        self.alive: set[int] = set(range(net.vertex_count))
        self.terminals: set[int] = set(instance.terminals)
        # adj[u][v] = (cost, provenance as original edge ids)
        self.adj: dict[int, dict[int, tuple[int, tuple[int, ...]]]] = {
            v: {} for v in self.alive
        }
        for eid, (u, v, c) in enumerate(net.edges):
            entry = (c, (eid,))
            self.adj[u][v] = entry
            self.adj[v][u] = entry
        self.offset = 0
        self.forced: list[tuple[int, ...]] = []
        self.merged_into: dict[int, int] = {}
        # True until a primitive mutation runs: the graph is still the input's.
        self.pristine = True
        # The last ``snapshot()``, dropped by every primitive mutation; at
        # first the (connected) input's own, with the identity order and
        # provenance that a rebuild would give.
        self._built: Optional[tuple[Instance, list[int], list[tuple[int, ...]]]] = (
            instance,
            list(range(net.vertex_count)),
            [(eid,) for eid in range(net.edge_count)],
        )
        # The last elimination round's root run, None before the first round.
        self.run: Optional[_bounds.DualAscentResult] = None

    # -- primitive mutations -------------------------------------------------

    def _mutate(self):
        self.pristine = False
        self._built = None

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def edge_count(self) -> int:
        return sum(len(d) for d in self.adj.values()) // 2

    def remove_edge(self, u: int, v: int):
        self._mutate()
        self.adj[u].pop(v)
        self.adj[v].pop(u)

    def remove_vertex(self, v: int):
        self._mutate()
        for n in list(self.adj[v]):
            self.adj[n].pop(v)
        del self.adj[v]
        self.alive.discard(v)
        self.terminals.discard(v)

    def add_or_min_edge(self, u: int, v: int, cost: int, prov: tuple[int, ...]) -> bool:
        """Insert {u, v}; on collision keep the cheaper edge (ties keep the
        existing one).  Returns True when the new edge becomes live."""
        cur = self.adj[u].get(v)
        if cur is not None and cur[0] <= cost:
            return False
        self._mutate()
        entry = (cost, prov)
        self.adj[u][v] = entry
        self.adj[v][u] = entry
        return True

    def contract_edge_pair(self, a: int, b: int) -> int:
        """Contract the live edge {a, b}: the edge is forced into the
        solution, one endpoint absorbs the other, and the survivor becomes a
        terminal.  Returns the survivor."""
        if b not in self.adj.get(a, {}):
            raise InputError(f"cannot contract missing edge ({a}, {b})")
        self._mutate()
        a_term, b_term = a in self.terminals, b in self.terminals
        if a_term and not b_term:
            survivor, absorbed = b, a
        elif b_term and not a_term:
            survivor, absorbed = a, b
        else:
            survivor, absorbed = (a, b) if a < b else (b, a)
        cost, prov = self.adj[survivor].pop(absorbed)
        self.adj[absorbed].pop(survivor)
        self.offset += cost
        self.forced.append(prov)
        for nbr, entry in list(self.adj[absorbed].items()):
            self.adj[nbr].pop(absorbed)
            cur = self.adj[survivor].get(nbr)
            if cur is None or entry[0] < cur[0]:
                self.adj[survivor][nbr] = entry
                self.adj[nbr][survivor] = entry
        del self.adj[absorbed]
        self.alive.discard(absorbed)
        self.terminals.discard(absorbed)
        self.terminals.add(survivor)
        self.merged_into[absorbed] = survivor
        return survivor

    # -- shared helpers ------------------------------------------------------

    def survivor(self, v: int) -> int:
        """The live vertex that ``v`` was contracted into, or ``v``."""
        while v in self.merged_into:
            v = self.merged_into[v]
        return v

    def restrict_to_terminal_component(self) -> int:
        """Drop vertices outside the terminals' component (always safe).  The
        unchanged input graph is connected."""
        if not self.terminals or self.pristine:
            return 0
        start = min(self.terminals)
        comp = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in self.adj[x]:
                if y not in comp:
                    comp.add(y)
                    stack.append(y)
        for t in self.terminals:
            if t not in comp:
                raise InternalError("reduction separated two terminals")
        strays = sorted(self.alive - comp)
        for v in strays:
            self.remove_vertex(v)
        return len(strays)

    def snapshot(
        self, deadline: Optional[float] = None
    ) -> tuple[Instance, list[int], list[tuple[int, ...]]]:
        """Restrict the graph to the terminals' component and materialize it
        as an immutable Instance.

        Returns the instance, the ordered list mapping its dense ids back to
        working ids, and ``prov``: ``prov[eid]`` is the provenance of its
        edge ``eid``.  A graph no mutation touched since the last call (or
        since the start, when it is the input's) gets that snapshot again.
        ``deadline`` is checked between collecting the edges and building
        the ``Network``.
        """
        if self._built is not None:
            return self._built
        self.restrict_to_terminal_component()
        order = sorted(self.alive)
        pos = {v: i for i, v in enumerate(order)}
        edges, prov = [], []
        for u in order:  # in the sorted (u, v) order of ``Network.edges``
            nbrs = self.adj[u]
            for v in sorted(nbrs):
                if u < v:
                    c, p = nbrs[v]
                    edges.append((pos[u], pos[v], c))
                    prov.append(p)
        check_deadline(deadline)
        net = Network.trusted(len(order), edges)
        inst = Instance.trusted(net, frozenset(pos[t] for t in self.terminals))
        self._built = inst, order, prov
        return self._built

    # -- simple operations ---------------------------------------------------

    def simple_fixpoint(self) -> int:
        total = 0
        while len(self.terminals) > 1:
            changed = self.restrict_to_terminal_component()
            changed += self._nonterminals_low_degree()
            changed += self._terminals_degree_one()
            changed += self._minimum_terminal_edge()
            total += changed
            if not changed:
                break
        return total

    def _nonterminals_low_degree(self) -> int:
        count = 0
        again = True
        while again:
            again = False
            for v in sorted(self.alive):
                if v in self.terminals:
                    continue
                deg = self.degree(v)
                if deg <= 1:
                    self.remove_vertex(v)
                    count += 1
                    again = True
                elif deg == 2:
                    (x, (c1, p1)), (y, (c2, p2)) = sorted(self.adj[v].items())
                    self.remove_vertex(v)
                    self.add_or_min_edge(x, y, c1 + c2, p1 + p2)
                    count += 1
                    again = True
        return count

    def _terminals_degree_one(self) -> int:
        count = 0
        again = True
        while again:
            again = False
            for z in sorted(self.terminals):
                if len(self.terminals) <= 1:
                    return count
                if self.degree(z) == 1:
                    nbr = next(iter(self.adj[z]))
                    self.contract_edge_pair(z, nbr)
                    count += 1
                    again = True
                    break
        return count

    def _minimum_terminal_edge(self) -> int:
        count = 0
        again = True
        while again:
            again = False
            for z in sorted(self.terminals):
                if len(self.terminals) <= 1:
                    return count
                if self.degree(z) == 0:
                    continue
                cheapest = min(c for c, _ in self.adj[z].values())
                mates = sorted(
                    v for v, (c, _) in self.adj[z].items() if c == cheapest
                )
                terminal_mates = [v for v in mates if v in self.terminals]
                if terminal_mates:
                    self.contract_edge_pair(z, terminal_mates[0])
                    count += 1
                    again = True
                    break
        return count

    # -- dual-ascent elimination ---------------------------------------------

    def offer(self, tree: SteinerTree, prov: list[tuple[int, ...]]):
        """Offer a tree of the snapshot whose edge provenance is ``prov`` to
        the context, expanded through that provenance plus the forced
        paths."""
        ctx = self.context
        if ctx.upper_bound is not None and tree.cost + self.offset >= ctx.upper_bound:
            return
        edges = [eid for path in self.forced for eid in path]
        for eid in tree.edges:
            edges.extend(prov[eid])
        ctx.offer(self.instance, edges)

    def _adopt(self, run: _bounds.DualAscentResult):
        """Make ``run`` the round's root run and raise the context's lower
        bound to its bound."""
        ctx = self.context
        ctx.lower_bound = max(ctx.lower_bound, run.lower_bound + self.offset)
        self.run = run

    def dual_ascent_elimination(self, deadline: Optional[float] = None) -> int:
        """Delete vertices and edges whose dual-ascent bound exceeds the
        upper bound.

        The bound is the context's incumbent, improved by the upper-bound
        pipeline on the snapshot, whose local search starts from the RSPH
        tree in the root run's component; the context keeps the cheaper of
        that tree and the incumbent.  A round whose context has a root runs
        one dual ascent from it.  Otherwise the round runs dual ascent from
        the first root (the smallest terminal) and the pipeline with that
        run.  The first round eliminates with that run and leaves the root
        unpicked, because on the unreduced graph other roots and RSPH starts
        cost more than they add.  The next round, the hunting round, picks
        the root on the graph the first round shrank.  It first offers the
        best spread RSPH start and hands it to the pipeline.  While the
        bounds are apart it runs the other roots, which stop at a bound that
        meets the improved incumbent, and it keeps the run the full loop
        over the roots would pick: no run beats a bound that meets an upper
        bound.  A first round that deletes nothing goes on as the hunting
        round on its own snapshot and run, which is the graph and run the
        next round would make again, unless the context's search is the
        whole DP and that snapshot fits the DP budget, 8 times
        ``DP_BUDGET`` while no reduction has changed the graph: then the
        round's run picks the root and the pipeline ends.  When the bounds
        meet the incumbent is optimal, the round's run picks the root, and
        the round deletes nothing.
        """
        if len(self.terminals) <= 1:
            return 0
        inst, order, prov = self.snapshot(deadline)
        ctx = self.context
        if ctx.root is not None:
            root = order.index(self.survivor(ctx.root))
        else:
            check_deadline(deadline)
            root = min(inst.terminals)
        run = _bounds.dual_ascent(inst, root, deadline=deadline)
        hunt = ctx.root is None and self.run is not None
        self._adopt(run)
        while True:
            starts = ()
            if hunt:
                starts = (_bounds.spread_rsph(inst, deadline),)
                self.offer(starts[0], prov)
            tree = _bounds.upper_bound_pipeline(inst, run.root, run, starts, deadline)
            self.offer(tree, prov)
            if hunt and not ctx.proven:  # a timeout keeps the best bound
                stop_at = ctx.upper_bound - self.offset
                for run in _bounds.improving_root_runs(inst, stop_at, deadline, run):
                    self._adopt(run)
            if hunt or ctx.proven:
                ctx.root = order[run.root]
            if ctx.proven:
                return 0
            bound = ctx.upper_bound - self.offset
            changed = self._eliminate(inst, order, run, bound, deadline)
            if changed or ctx.root is not None:
                return changed
            if ctx.whole_dp and _bounds.fits_dp_budget(inst, self.pristine):
                ctx.root = order[run.root]  # no bound shortens the search
                return 0
            hunt = True  # the first round deleted nothing: hunt on its snapshot

    def _eliminate(
        self,
        inst: Instance,
        order: list[int],
        run: _bounds.DualAscentResult,
        upper_bound: int,
        deadline: Optional[float] = None,
    ) -> int:
        """Delete the vertices and edges of the snapshot ``inst`` (working
        ids ``order``) whose bound from ``run`` exceeds ``upper_bound``.
        ``deadline`` is checked between the two Dijkstra runs, before
        anything is deleted."""
        net = inst.network
        if upper_bound >= net.total_cost:
            return 0  # the total-cost surrogate means "no bound known"
        root = run.root
        lower = run.lower_bound
        reduced = run.reduced_cost
        nonroot = inst.terminals - {root}
        if not nonroot:
            return 0
        from_root = [net.total_cost + 1] * net.vertex_count
        lower_distances(net, from_root, (root,), reduced)
        check_deadline(deadline)
        to_terminal = [net.total_cost + 1] * net.vertex_count
        reversed_costs = [reduced[a ^ 1] for a in range(len(reduced))]
        lower_distances(net, to_terminal, nonroot, reversed_costs)
        doomed_vertices = [
            v
            for i, v in enumerate(order)
            if v not in self.terminals
            and lower + from_root[i] + to_terminal[i] > upper_bound
        ]
        doomed_edges = []
        for eid, (i, j, _) in enumerate(net.edges):  # arc i->j is 2 * eid
            via_i = from_root[i] + reduced[2 * eid] + to_terminal[j]
            via_j = from_root[j] + reduced[2 * eid + 1] + to_terminal[i]
            if lower + min(via_i, via_j) > upper_bound:
                doomed_edges.append((order[i], order[j]))
        for v in doomed_vertices:
            self.remove_vertex(v)
        for u, v in doomed_edges:
            if v in self.adj.get(u, {}):
                self.remove_edge(u, v)
        return len(doomed_vertices) + len(doomed_edges)

    # -- finalization ----------------------------------------------------------

    def finalize(
        self, stats: dict, changed: int, deadline: Optional[float] = None
    ) -> PreprocessResult:
        reduced, order, prov = self.snapshot(deadline)
        log = ReductionLog(
            original=self.instance,
            forced=list(self.forced),
            edge_expansion=dict(enumerate(prov)),
        )
        pos = {v: i for i, v in enumerate(order)}
        image = {
            v: pos.get(self.survivor(v))
            for v in range(self.instance.network.vertex_count)
        }
        return PreprocessResult(
            reduced=reduced,
            log=log,
            offset=self.offset,
            stats=stats,
            vertex_image=image,
            changed=changed,
        )


def identity_preprocess(instance: Instance) -> PreprocessResult:
    """A no-op PreprocessResult so downstream code has one uniform shape."""
    log = ReductionLog(
        original=instance,
        edge_expansion={
            eid: (eid,) for eid in range(len(instance.network.edges))
        },
    )
    image = {v: v for v in range(instance.network.vertex_count)}
    stats = {name: {"changed": 0} for name in REDUCTION_OPS}
    return PreprocessResult(instance, log, 0, stats, image, 0)


# Every operation's ``changed`` key.  The schedule runs only ``simple`` and
# ``dual_ascent_bounds``; the other five names stay, always 0, because the
# stats schema that ``--stats`` and the benchmark report has all seven keys.
REDUCTION_OPS = (
    "simple",
    "long_edges",
    "steiner_distance",
    "ntdk",
    "dual_ascent_bounds",
    "short_links",
    "nearest_vertex",
)


def run_pipeline(
    instance: Instance,
    context: Optional[SolveContext] = None,
    deadline: Optional[float] = None,
) -> PreprocessResult:
    """Run simple reductions to a fixpoint, then rounds of dual-ascent
    elimination, each productive round followed by the simple fixpoint,
    until a round changes fewer than ``THRESHOLD_RATIO`` of the live
    vertices and edges (at least one) once the root is picked.

    ``context`` carries the root, incumbent and lower bound of the solve
    across dual-ascent elimination rounds; the pipeline stops as soon as
    its bounds meet.  ``deadline`` is a ``time.monotonic()`` value or None.
    Every operation of ``REDUCTION_OPS`` has a ``changed`` entry in the
    stats, 0 when it did not run.
    """
    w = _Working(instance, context)
    stats = {name: {"changed": 0} for name in REDUCTION_OPS}
    total = stats["simple"]["changed"] = w.simple_fixpoint()
    while len(w.terminals) > 1 and not w.context.proven:
        check_deadline(deadline)
        units_before = len(w.alive) + w.edge_count()
        n = w.dual_ascent_elimination(deadline=deadline)
        stats["dual_ascent_bounds"]["changed"] += n
        if n:
            ns = w.simple_fixpoint()
            stats["simple"]["changed"] += ns
            total += n + ns
        small = n < max(1, int(THRESHOLD_RATIO * units_before))
        if small and w.context.root is not None:
            break
    return w.finalize(stats, total, deadline)


def unreduce(tree: SteinerTree, log: ReductionLog) -> SteinerTree:
    """Expand a reduced-instance tree to a tree on the original instance."""
    edges: set[int] = set()
    for eid in tree.edges:
        expansion = log.edge_expansion.get(eid)
        if expansion is None:
            raise InternalError(f"reduced edge {eid} has no provenance record")
        edges.update(expansion)
    for path in log.forced:
        edges.update(path)
    root = min(log.original.terminals)
    return SteinerTree.from_edges(log.original.network, edges, root)
