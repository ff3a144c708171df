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
from typing import Sequence

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


def _rows(text: str):
    """The tokens of each line of ``text`` that is not blank or a comment."""
    lines = map(str.strip, text.splitlines())
    return (line.split() for line in lines if line and line[0] != "#")


def _tokenize(text: str) -> list[list[str]]:
    return list(_rows(text))


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


def _fields(row: list[str], *whats: str) -> tuple[int, ...]:
    """Integers ``row[1]``, ``row[2]``, ... named ``whats``: plain ASCII digits
    at once, anything else through ``_field``, which reports the first bad one."""
    tokens = row[1 : len(whats) + 1]
    digits = "".join(tokens)
    if len(tokens) == len(whats) and digits.isdigit() and digits.isascii():
        try:
            return tuple(map(int, tokens))
        except ValueError:  # more than 4,300 digits
            pass
    return tuple(_field(row, i, what) for i, what in enumerate(whats, 1))


def _parse_sections(rows: list[list[str]]) -> ParsedInstance:
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
                if key == "e":
                    edge_lines.append(_fields(row, "endpoint", "endpoint", "edge cost"))
                elif key == "nodes":
                    (node_count,) = _fields(row, "node count")
                elif key == "edges":
                    (declared_edges,) = _fields(row, "edge count")
                elif key == "obstacles":
                    pass
                else:
                    raise FormatError(f"unsupported graph line {' '.join(row)!r}")
            elif name == "terminals":
                if key == "terminals":
                    (declared_terminals,) = _fields(row, "terminal count")
                elif key == "t":
                    terminal_lines.extend(_fields(row, "terminal"))
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

    return _build(edge_lines, terminal_lines)


def _build(
    edge_lines: Sequence[tuple[int, int, int]],
    terminal_lines: Sequence[int],
) -> ParsedInstance:
    # Restrict to the component containing the terminals; reject instances
    # whose terminals do not share one component.  Ids are dense over the
    # labels that a terminal or an edge other than a loop names, in label
    # order, so nothing is kept per declared node.
    links = [(u, v, w) for u, v, w in edge_lines if u != v]
    terminals = sorted(set(terminal_lines))
    labels = sorted({u for u, _, _ in links}.union([v for _, v, _ in links], terminals))
    label_to_id = {lab: i for i, lab in enumerate(labels)}
    edges = [(label_to_id[u], label_to_id[v], w) for u, v, w in links]
    neighbours = [[] for _ in labels]
    for i, j, _ in edges:
        neighbours[i].append(j)
        neighbours[j].append(i)
    seen = [False] * len(labels)
    stack = [label_to_id[terminals[0]]]
    while stack:
        i = stack.pop()
        if not seen[i]:
            seen[i] = True
            stack.extend(neighbours[i])
    if not all(seen[label_to_id[t]] for t in terminals):
        raise InputError("terminals are not connected to each other")
    if not all(seen):  # the same again without the other components
        return _build([e for e in links if seen[label_to_id[e[0]]]], terminals)
    network = Network(len(labels), edges)
    instance = Instance(network, frozenset(label_to_id[t] for t in terminals))
    return ParsedInstance(instance, tuple(labels), label_to_id)


def parse_stp(text: str) -> ParsedInstance:
    """Parse a SteinLib STP 1.0 file."""
    rows = _tokenize(text)
    if not rows or not rows[0][0].lower().startswith(STP_MAGIC):
        raise MissingHeader("not an STP file: magic header missing")
    return _parse_sections(rows[1:])


def parse_gr(text: str) -> ParsedInstance:
    """Parse a challenge-style .gr file."""
    return _parse_sections(_tokenize(text))


def detect_format(text: str) -> str:
    """Classify instance text as 'stp' or 'gr' by its first meaningful line;
    ``c`` comment lines are skipped, as the parser skips them."""
    for row in _rows(text):
        head = row[0].lower()
        if head == "c":
            continue
        if head.startswith(STP_MAGIC):
            return "stp"
        if head == "section":
            return "gr"
        break
    raise FormatError("unrecognized instance format")


def parse_instance(text: str | bytes, fmt: str = "auto") -> ParsedInstance:
    """Parse instance text; bytes must be UTF-8.  One leading byte-order
    mark is skipped."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"instance is not UTF-8 text: {exc}") from None
    text = text.removeprefix("\ufeff")
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


def write_instance(instance: Instance, fmt: str = "gr") -> str:
    """Render an instance back to file text with 1-based labels (test
    support and debug dumps)."""
    net = instance.network
    out = []
    if fmt == "stp":
        out.append("33D32945 STP File, STP Format Version 1.0")
    elif fmt != "gr":
        raise InputError(f"unknown format {fmt!r}")
    out.append("SECTION Graph")
    out.append(f"Nodes {net.vertex_count}")
    out.append(f"Edges {len(net.edges)}")
    for u, v, w in net.edges:
        out.append(f"E {u + 1} {v + 1} {w}")
    out.append("END")
    out.append("")
    out.append("SECTION Terminals")
    out.append(f"Terminals {len(instance.terminals)}")
    for t in sorted(instance.terminals):
        out.append(f"T {t + 1}")
    out.append("END")
    out.append("")
    out.append("EOF")
    return "\n".join(out) + "\n"
