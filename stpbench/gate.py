"""Correctness gate that does not trust the solver's own validation.

``check_answer`` re-derives everything from the generated instance: each
returned edge must exist in the input, the edges must form one tree that
touches every terminal, and their summed input costs must equal the
reference optimum.

Reference optima are keyed by the SHA-256 of the instance text.  Those of
the seeds in ``make_references.REFERENCE_SEEDS`` are committed in
``reference_optima.json``, computed once with the solver of the commit that
added them.  For any other instance ``reference_optimum`` computes the
optimum on the unreduced instance, without the reductions, the ``solve``
pipeline or dual ascent: ``dreyfus_wagner`` on instances with few
terminals, otherwise ``ds_star`` guided by ``one_tree_heuristic``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from stpsolve import Instance, dreyfus_wagner, ds_star, one_tree_heuristic

REFERENCE_FILE = Path(__file__).with_name("reference_optima.json")
# Dreyfus-Wagner costs about 3^k * n + 2^k Dijkstra runs for k terminals on
# n vertices; past these sizes the guided search is cheaper.
DW_MAX_TERMINALS = 8
DW_MAX_VERTICES = 200


class GateFailure(Exception):
    """A returned tree is invalid or does not cost the reference optimum."""


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def reference_optimum(instance: Instance) -> int:
    """Optimum of the unreduced instance by the second path."""
    root = min(instance.terminals)
    if (
        len(instance.terminals) <= DW_MAX_TERMINALS
        and instance.network.vertex_count <= DW_MAX_VERTICES
    ):
        cost, _ = dreyfus_wagner(instance, root)
    else:
        cost, _, _ = ds_star(instance, root, one_tree_heuristic(instance, root))
    return cost


def known_optima() -> dict[str, int]:
    """The committed optima, by digest."""
    return json.loads(REFERENCE_FILE.read_text())


def tree_cost(instance: Instance, pairs) -> int:
    """Summed input cost of the edges ``pairs``, given as vertex pairs of
    ``instance``, after checking that they exist in the input and form one
    tree that touches every terminal.  Raises ``GateFailure`` otherwise."""
    costs = {(u, v): c for u, v, c in instance.network.edges}
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    total = 0
    for pair in pairs:
        u, v = sorted(pair)
        if (u, v) not in costs:
            raise GateFailure(f"edge ({u}, {v}) is not in the input")
        ru, rv = find(u), find(v)
        if ru == rv:
            raise GateFailure(f"edge ({u}, {v}) closes a cycle")
        parent[ru] = rv
        total += costs[(u, v)]
    touched = set(parent) or {min(instance.terminals)}
    if len({find(x) for x in touched}) != 1:
        raise GateFailure("returned edges are disconnected")
    missing = instance.terminals - touched
    if missing:
        raise GateFailure(f"terminals {sorted(missing)[:5]} are not spanned")
    return total


def check_answer(instance: Instance, parsed, tree, optimum: int):
    """Raise ``GateFailure`` unless ``tree`` is an optimal Steiner tree.

    ``tree.edges`` index the network of ``parsed``, whose vertex ``i``
    carries input label ``parsed.labels[i]``; the generated ``instance``
    names that vertex ``labels[i] - 1``.  Costs come only from the generated
    instance's edge list.
    """
    if tree is None:
        raise GateFailure("no tree returned")
    parsed_edges = parsed.instance.network.edges
    labels = parsed.labels
    pairs = []
    for eid in tree.edges:
        if not isinstance(eid, int) or not 0 <= eid < len(parsed_edges):
            raise GateFailure(f"edge id {eid!r} is not in the input")
        a, b, _ = parsed_edges[eid]
        pairs.append((labels[a] - 1, labels[b] - 1))
    total = tree_cost(instance, pairs)
    if total != optimum:
        raise GateFailure(f"tree costs {total}, reference optimum is {optimum}")
