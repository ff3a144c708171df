"""Parsers and writers for the two common Steiner tree instance formats.

``parse_stp`` reads SteinLib STP 1.0 files, ``parse_gr`` reads the challenge
``.gr`` dialect; both normalize to an :class:`Instance` with dense 0-based
vertex ids while keeping the original 1-based labels for output.  Stray
vertices outside the terminals' component are dropped, which real corpora
require; terminals split over several components are rejected.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Sequence

from .graph import InputError, Instance, Network, SteinerTree

STP_MAGIC = "33d32945"
# ``int()`` also takes "1_0", "١٠" and "３"; a file's integers do not.
_INTEGER = re.compile(r"[+-]?[0-9]+")


class FormatError(InputError):
    """Base class for instance file problems."""


class MissingHeader(FormatError):
    pass


class CountMismatch(FormatError):
    pass


class NonPositiveWeight(FormatError):
    pass


class VertexOutOfRange(FormatError):
    pass


@dataclass(frozen=True)
class ParsedInstance:
    """An instance plus the label bookkeeping needed to print solutions."""

    instance: Instance
    labels: tuple[int, ...]  # internal id -> original label
    label_to_id: dict[int, int]
    source_format: str


def _tokenize(text: str) -> list[list[str]]:
    rows = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rows.append(line.split())
    return rows


def _field(row: list[str], index: int, what: str) -> int:
    """Integer ``row[index]``: an optional sign and ASCII digits.  A line
    cut short is a format error."""
    if index >= len(row):
        raise FormatError(f"line {' '.join(row)!r} lacks its {what}")
    try:
        if _INTEGER.fullmatch(row[index]):
            return int(row[index])
    except ValueError:  # more than 4,300 digits
        pass
    raise FormatError(f"expected an integer {what}, got {row[index]!r}")


def _parse_sections(rows: list[list[str]], fmt: str) -> ParsedInstance:
    node_count = None
    declared_edges = None
    declared_terminals = None
    edge_lines: list[tuple[int, int, int]] = []
    terminal_lines: list[int] = []
    saw_graph = saw_terminals = False

    i = 0
    while i < len(rows):
        row = rows[i]
        head = row[0].lower()
        if head == "eof":
            break
        if head == "c":  # comment line
            i += 1
            continue
        if head != "section":
            raise FormatError(f"expected SECTION, got {' '.join(row)!r}")
        if len(row) < 2:
            raise FormatError("SECTION without a name")
        name = row[1].lower()
        i += 1
        closed = False
        while i < len(rows):
            row = rows[i]
            key = row[0].lower()
            if key == "end":
                closed = True
                i += 1
                break
            if name == "graph":
                if key == "nodes":
                    node_count = _field(row, 1, "node count")
                elif key == "edges":
                    declared_edges = _field(row, 1, "edge count")
                elif key == "e":
                    u = _field(row, 1, "endpoint")
                    v = _field(row, 2, "endpoint")
                    w = _field(row, 3, "edge cost")
                    edge_lines.append((u, v, w))
                elif key == "obstacles":
                    pass
                else:
                    raise FormatError(f"unsupported graph line {' '.join(row)!r}")
            elif name == "terminals":
                if key == "terminals":
                    declared_terminals = _field(row, 1, "terminal count")
                elif key == "t":
                    terminal_lines.append(_field(row, 1, "terminal"))
                elif key in ("root", "rootp"):
                    pass
                else:
                    raise FormatError(f"unsupported terminal line {' '.join(row)!r}")
            # lines of unknown sections are skipped
            i += 1
        if not closed:
            raise FormatError(f"section {name!r} is missing its END")
        if name == "graph":
            saw_graph = True
        elif name == "terminals":
            saw_terminals = True

    if not saw_graph:
        raise FormatError("no Graph section")
    if not saw_terminals:
        raise FormatError("no Terminals section")
    if node_count is None:
        raise FormatError("Graph section lacks a Nodes line")
    if declared_edges is not None and declared_edges != len(edge_lines):
        raise CountMismatch(
            f"declared {declared_edges} edges but found {len(edge_lines)}"
        )
    if declared_terminals is not None and declared_terminals != len(terminal_lines):
        raise CountMismatch(
            f"declared {declared_terminals} terminals but found {len(terminal_lines)}"
        )
    if not terminal_lines:
        raise FormatError("instance declares no terminals")

    for u, v, w in edge_lines:
        if not (1 <= u <= node_count and 1 <= v <= node_count):
            raise VertexOutOfRange(f"edge ({u}, {v}) outside 1..{node_count}")
        if w < 1:
            raise NonPositiveWeight(f"edge ({u}, {v}) has cost {w}")
    for t in terminal_lines:
        if not 1 <= t <= node_count:
            raise VertexOutOfRange(f"terminal {t} outside 1..{node_count}")

    return _build(node_count, edge_lines, terminal_lines, fmt)


def _build(
    node_count: int,
    edge_lines: Sequence[tuple[int, int, int]],
    terminal_lines: Sequence[int],
    fmt: str,
) -> ParsedInstance:
    # Restrict to the component containing the terminals; reject instances
    # whose terminals do not share one component.
    adjacency: dict[int, set[int]] = {}
    for u, v, _ in edge_lines:
        if u != v:
            adjacency.setdefault(u, set()).add(v)
            adjacency.setdefault(v, set()).add(u)
    terminals = sorted(set(terminal_lines))
    component = {terminals[0]}
    stack = [terminals[0]]
    while stack:
        x = stack.pop()
        for y in adjacency.get(x, ()):
            if y not in component:
                component.add(y)
                stack.append(y)
    for t in terminals:
        if t not in component:
            raise InputError("terminals are not connected to each other")

    labels = tuple(sorted(component))
    label_to_id = {lab: i for i, lab in enumerate(labels)}
    edges = [
        (label_to_id[u], label_to_id[v], w)
        for u, v, w in edge_lines
        if u in component and v in component and u != v
    ]
    network = Network(len(labels), edges)
    instance = Instance(network, frozenset(label_to_id[t] for t in terminals))
    return ParsedInstance(instance, labels, label_to_id, fmt)


def parse_stp(text: str) -> ParsedInstance:
    """Parse a SteinLib STP 1.0 file."""
    rows = _tokenize(text)
    if not rows or not rows[0][0].lower().startswith(STP_MAGIC):
        raise MissingHeader("not an STP file: magic header missing")
    return _parse_sections(rows[1:], "stp")


def parse_gr(text: str) -> ParsedInstance:
    """Parse a challenge-style .gr file."""
    rows = _tokenize(text)
    return _parse_sections(rows, "gr")


def detect_format(text: str) -> str:
    """Classify instance text as 'stp' or 'gr' by its first meaningful line."""
    for row in _tokenize(text):
        if row[0].lower().startswith(STP_MAGIC):
            return "stp"
        if row[0].lower() == "section":
            return "gr"
        break
    raise FormatError("unrecognized instance format")


def parse_instance(text: str | bytes, fmt: str = "auto") -> ParsedInstance:
    """Parse instance text; bytes must be UTF-8."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"instance is not UTF-8 text: {exc}") from None
    if fmt == "auto":
        fmt = detect_format(text)
    if fmt == "stp":
        return parse_stp(text)
    if fmt == "gr":
        return parse_gr(text)
    raise InputError(f"unknown format {fmt!r}")


def write_solution(tree: SteinerTree, network: Network, labels: Sequence[int]) -> str:
    """Solution text: a VALUE line, then one edge per line in original labels."""
    lines = [f"VALUE {tree.cost}"]
    pairs = []
    for eid in sorted(tree.edges):
        u, v, _ = network.edges[eid]
        a, b = labels[u], labels[v]
        pairs.append((a, b) if a < b else (b, a))
    for a, b in sorted(pairs):
        lines.append(f"{a} {b}")
    return "\n".join(lines) + "\n"


def write_instance(
    instance: Instance, labels: Optional[Sequence[int]] = None, fmt: str = "gr"
) -> str:
    """Render an instance back to file text (test support and debug dumps)."""
    net = instance.network
    if labels is None:
        labels = tuple(i + 1 for i in range(net.vertex_count))
    out = []
    if fmt == "stp":
        out.append("33D32945 STP File, STP Format Version 1.0")
    elif fmt != "gr":
        raise InputError(f"unknown format {fmt!r}")
    out.append("SECTION Graph")
    out.append(f"Nodes {net.vertex_count}")
    out.append(f"Edges {len(net.edges)}")
    for u, v, w in net.edges:
        out.append(f"E {labels[u]} {labels[v]} {w}")
    out.append("END")
    out.append("")
    out.append("SECTION Terminals")
    out.append(f"Terminals {len(instance.terminals)}")
    for t in sorted(instance.terminals, key=lambda x: labels[x]):
        out.append(f"T {labels[t]}")
    out.append("END")
    out.append("")
    out.append("EOF")
    return "\n".join(out) + "\n"
