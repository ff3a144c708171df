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


@dataclass(frozen=True)
class EdgeIntroduced:
    edge: tuple[int, int]
    cost: int
    replaces: tuple[int, ...]


@dataclass(frozen=True)
class EdgeContracted:
    edge: tuple[int, int]
    cost: int
    absorbed: int
    path: tuple[int, ...]


@dataclass(frozen=True)
class VertexRemoved:
    vertex: int
    edges: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class EdgeRemoved:
    edge: tuple[int, int]
    cost: int


@dataclass
class ReductionLog:
    original: Instance
    records: list = field(default_factory=list)
    forced: list[tuple[int, ...]] = field(default_factory=list)
    offset: int = 0
    edge_expansion: dict[int, tuple[int, ...]] = field(default_factory=dict)


@dataclass
class PreprocessResult:
    original: Instance
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
    bounds prove the incumbent optimal.  ``run`` is the last root run while
    the working graph is still the one it ran on (``run_stamp`` counts the
    reduction records made before it), else None.
    """

    root: Optional[int] = None
    lower_bound: int = 0
    upper_bound: Optional[int] = None
    incumbent: frozenset[int] = frozenset()
    run: Optional[_bounds.DualAscentResult] = None
    run_stamp: int = 0

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


@dataclass
class PipelineConfig:
    threshold_ratio: float = 0.01
    deadline: Optional[float] = None

    def __post_init__(self):
        if not 0 <= self.threshold_ratio <= 1:  # NaN fails the comparisons too
            raise InputError(
                f"threshold ratio {self.threshold_ratio!r} is not in [0, 1]"
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
        self.records: list = []
        self.forced: list[tuple[int, ...]] = []
        self.merged_into: dict[int, int] = {}

    # -- primitive mutations -------------------------------------------------

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def edge_count(self) -> int:
        return sum(len(d) for d in self.adj.values()) // 2

    def edge_list(self) -> list[tuple[int, int, int]]:
        out = []
        for u in sorted(self.alive):
            for v, (c, _) in self.adj[u].items():
                if u < v:
                    out.append((u, v, c))
        return out

    def remove_edge(self, u: int, v: int):
        c, _ = self.adj[u].pop(v)
        self.adj[v].pop(u)
        self.records.append(EdgeRemoved((min(u, v), max(u, v)), c))

    def remove_vertex(self, v: int):
        incident = tuple(
            (min(v, n), max(v, n)) for n in sorted(self.adj[v])
        )
        for n in list(self.adj[v]):
            self.adj[n].pop(v)
        del self.adj[v]
        self.alive.discard(v)
        self.terminals.discard(v)
        self.records.append(VertexRemoved(v, incident))

    def add_or_min_edge(self, u: int, v: int, cost: int, prov: tuple[int, ...]) -> bool:
        """Insert {u, v}; on collision keep the cheaper edge (ties keep the
        existing one).  Returns True when the new edge becomes live."""
        cur = self.adj[u].get(v)
        if cur is not None and cur[0] <= cost:
            return False
        entry = (cost, prov)
        self.adj[u][v] = entry
        self.adj[v][u] = entry
        self.records.append(EdgeIntroduced((min(u, v), max(u, v)), cost, prov))
        return True

    def contract_edge_pair(self, a: int, b: int) -> int:
        """Contract the live edge {a, b}: the edge is forced into the
        solution, one endpoint absorbs the other, and the survivor becomes a
        terminal.  Returns the survivor."""
        if b not in self.adj.get(a, {}):
            raise InputError(f"cannot contract missing edge ({a}, {b})")
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
        self.records.append(
            EdgeContracted((min(a, b), max(a, b)), cost, absorbed, prov)
        )
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
        """Drop vertices outside the terminals' component (always safe)."""
        if not self.terminals:
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

    def snapshot(self) -> tuple[Instance, list[int]]:
        """Materialize the current graph as an immutable Instance.

        Returns the instance and the ordered list mapping its dense ids back
        to working ids.  Call after ``restrict_to_terminal_component``.
        """
        order = sorted(self.alive)
        pos = {v: i for i, v in enumerate(order)}
        edges = []
        for u in order:
            for v, (c, _) in self.adj[u].items():
                if u < v:
                    edges.append((pos[u], pos[v], c))
        net = Network(len(order), edges)
        inst = Instance(net, frozenset(pos[t] for t in self.terminals))
        return inst, order

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

    def offer(self, tree: SteinerTree, snapshot: Instance, order: list[int]):
        """Offer a tree of ``snapshot`` to the context, expanded through the
        provenance of its edges plus the forced paths."""
        ctx = self.context
        if ctx.upper_bound is not None and tree.cost + self.offset >= ctx.upper_bound:
            return
        edges = [eid for path in self.forced for eid in path]
        for eid in tree.edges:
            u, v, _ = snapshot.network.edges[eid]
            edges.extend(self.adj[order[u]][order[v]][1])
        ctx.offer(self.instance, edges)

    def incumbent_on(
        self, snapshot: Instance, order: list[int]
    ) -> Optional[SteinerTree]:
        """The context's incumbent as a tree of ``snapshot``: the snapshot
        edges whose provenance lies inside it, when they still connect the
        terminals (reductions may have cut a non-optimal incumbent)."""
        inside = self.context.incumbent
        net = snapshot.network
        edges = [
            eid
            for eid, (u, v, _) in enumerate(net.edges)
            if inside.issuperset(self.adj[order[u]][order[v]][1])
        ]
        tree = _bounds.pruned_mst(net, edges, snapshot.terminals)
        spanned = {x for eid in tree for x in net.edges[eid][:2]}
        if len(spanned) != len(tree) + 1 or not snapshot.terminals <= spanned:
            return None
        return SteinerTree.from_edges(net, tree, min(snapshot.terminals))

    def _adopt(self, run: _bounds.DualAscentResult, order: list[int]):
        """Make ``run``, on the current snapshot with ids ``order``, the
        context's root run, and raise the lower bound to its bound."""
        ctx = self.context
        ctx.lower_bound = max(ctx.lower_bound, run.lower_bound + self.offset)
        ctx.root = order[run.root]
        ctx.run, ctx.run_stamp = run, len(self.records)

    def dual_ascent_elimination(
        self, upper_bound: Optional[int] = None, deadline: Optional[float] = None
    ) -> int:
        """Delete vertices and edges whose dual-ascent bound exceeds the
        upper bound.

        Without ``upper_bound`` the bound is the context's incumbent,
        improved by the upper-bound pipeline on the snapshot.  The first
        round of a solve offers the best spread RSPH start and hands the
        starts to the pipeline; later rounds hand it the incumbent.  A round
        whose context has a root runs one dual ascent from it.  Otherwise
        the round picks the root: it runs dual ascent from the first root
        (the smallest terminal) and the pipeline with that run, and only
        while the bounds are then apart runs the other roots, which stop at
        a bound that meets the improved incumbent.  Either way it keeps the
        run the full loop over the roots would pick: no run beats a bound
        that meets an upper bound.  With ``upper_bound`` the root runs stop
        at it and no pipeline runs.  When the bounds meet the incumbent is
        optimal, and the round deletes nothing.
        """
        if len(self.terminals) <= 1:
            return 0
        self.restrict_to_terminal_component()
        inst, order = self.snapshot()
        pos = {v: i for i, v in enumerate(order)}
        ctx = self.context
        pick_root = upper_bound is None and ctx.root is None
        starts = None
        if upper_bound is None and ctx.run is None:
            starts = _bounds.spread_rsph(inst, deadline)
            self.offer(min(starts, key=lambda t: t.cost), inst, order)
        elif upper_bound is None:
            carried = self.incumbent_on(inst, order)
            starts = [] if carried is None else [carried]
        if ctx.root is not None:
            runs = [_bounds.dual_ascent(inst, pos[self.survivor(ctx.root)])]
        elif upper_bound is not None:
            runs = _bounds.improving_root_runs(inst, upper_bound, deadline)
        else:
            check_deadline(deadline)
            runs = [_bounds.dual_ascent(inst, min(inst.terminals))]
        for run in runs:  # a timeout in root selection keeps the best bound
            self._adopt(run, order)
        if upper_bound is None:
            tree = _bounds.upper_bound_pipeline(inst, run.root, run, starts, deadline)
            self.offer(tree, inst, order)
            if pick_root and not ctx.proven:
                stop_at = ctx.upper_bound - self.offset
                for run in _bounds.improving_root_runs(inst, stop_at, deadline, run):
                    self._adopt(run, order)
            if ctx.proven:
                return 0
            upper_bound = ctx.upper_bound - self.offset
        if upper_bound >= inst.network.total_cost:
            return 0  # the total-cost surrogate means "no bound known"
        root = run.root
        net = inst.network
        lower = run.lower_bound
        reduced = run.reduced_cost
        nonroot = inst.terminals - {root}
        if not nonroot:
            return 0
        from_root = [net.total_cost + 1] * net.vertex_count
        lower_distances(net, from_root, (root,), reduced)
        to_terminal = [net.total_cost + 1] * net.vertex_count
        reversed_costs = [reduced[a ^ 1] for a in range(len(reduced))]
        lower_distances(net, to_terminal, nonroot, reversed_costs)
        doomed_vertices = []
        for v in sorted(self.alive):
            if v in self.terminals:
                continue
            i = pos[v]
            if lower + from_root[i] + to_terminal[i] > upper_bound:
                doomed_vertices.append(v)
        doomed_edges = []
        for u, v, c in self.edge_list():
            i, j = pos[u], pos[v]
            arc = 2 * net.edge_between(i, j)  # i < j, so this is arc i->j
            via_u = from_root[i] + reduced[arc] + to_terminal[j]
            via_v = from_root[j] + reduced[arc + 1] + to_terminal[i]
            if lower + min(via_u, via_v) > upper_bound:
                doomed_edges.append((u, v))
        for v in doomed_vertices:
            self.remove_vertex(v)
        for u, v in doomed_edges:
            if v in self.adj.get(u, {}):
                self.remove_edge(u, v)
        return len(doomed_vertices) + len(doomed_edges)

    # -- finalization ----------------------------------------------------------

    def finalize(self, stats: dict, changed: int) -> PreprocessResult:
        self.restrict_to_terminal_component()
        order = sorted(self.alive)
        pos = {v: i for i, v in enumerate(order)}
        edges = []
        prov_by_pair = {}
        for u in order:
            for v, (c, prov) in self.adj[u].items():
                if u < v:
                    edges.append((pos[u], pos[v], c))
                    prov_by_pair[(pos[u], pos[v])] = prov
        net = Network(len(order), edges)
        reduced = Instance(net, frozenset(pos[t] for t in self.terminals))
        expansion = {
            eid: prov_by_pair[(u, v)] for (u, v), eid in net.edge_index.items()
        }
        log = ReductionLog(
            original=self.instance,
            records=self.records,
            forced=list(self.forced),
            offset=self.offset,
            edge_expansion=expansion,
        )
        image = {
            v: pos.get(self.survivor(v))
            for v in range(self.instance.network.vertex_count)
        }
        if self.context.run_stamp != len(self.records):
            self.context.run = None  # the graph changed after the run
        return PreprocessResult(
            original=self.instance,
            reduced=reduced,
            log=log,
            offset=self.offset,
            stats=stats,
            vertex_image=image,
            changed=changed,
        )


# -- public operation drivers ---------------------------------------------


def _driver(instance: Instance, name: str, op) -> PreprocessResult:
    w = _Working(instance)
    changed = op(w)
    return w.finalize({name: {"changed": changed}}, changed)


def contract_edge(instance: Instance, edge: tuple[int, int]) -> PreprocessResult:
    u, v = edge

    def op(w: _Working) -> int:
        w.contract_edge_pair(u, v)
        return 1

    return _driver(instance, "contract", op)


def simple_reductions(instance: Instance) -> PreprocessResult:
    return _driver(instance, "simple", lambda w: w.simple_fixpoint())


def dual_ascent_elimination(instance: Instance, upper_bound: int) -> PreprocessResult:
    return _driver(
        instance, "dual_ascent_bounds", lambda w: w.dual_ascent_elimination(upper_bound)
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
    return PreprocessResult(instance, instance, log, 0, {}, image, 0)


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
    config: Optional[PipelineConfig] = None,
    context: Optional[SolveContext] = None,
) -> PreprocessResult:
    """Run simple reductions to a fixpoint, then rounds of dual-ascent
    elimination, each productive round followed by the simple fixpoint,
    until a round changes fewer than ``threshold_ratio`` of the live
    vertices and edges (at least one).

    ``context`` carries the root, incumbent and lower bound of the solve
    across dual-ascent elimination rounds; the pipeline stops as soon as
    its bounds meet.  Every operation of ``REDUCTION_OPS`` has a
    ``changed`` entry in the stats, 0 when it did not run.
    """
    cfg = config or PipelineConfig()
    w = _Working(instance, context)
    stats = {name: {"changed": 0} for name in REDUCTION_OPS}
    total = stats["simple"]["changed"] = w.simple_fixpoint()
    while len(w.terminals) > 1 and not w.context.proven:
        check_deadline(cfg.deadline)
        units_before = len(w.alive) + w.edge_count()
        n = w.dual_ascent_elimination(deadline=cfg.deadline)
        stats["dual_ascent_bounds"]["changed"] += n
        if n:
            ns = w.simple_fixpoint()
            stats["simple"]["changed"] += ns
            total += n + ns
        if n < max(1, int(cfg.threshold_ratio * units_before)):
            break
    return w.finalize(stats, total)


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
