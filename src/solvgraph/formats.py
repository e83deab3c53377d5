"""Text interchange: edge-list and arc-list authoring formats, graph6 corpora.

Edge lists are UTF-8 text.  An optional first meaningful line
``vertices: a b c`` declares vertices (required for isolated ones); every
following line is one edge ``u v``.  ``#`` starts a comment.  Arc lists
use ``u > v`` lines with the same header and comment rules.

graph6 is the standard 6-bit packing: N(n) header byte, then the upper
triangle in column-major order, zero-padded to a byte boundary.
"""

from __future__ import annotations

from .errors import FormatError
from .graphs import (
    LabeledGraph,
    Orientation,
    g6_bytes_from_rows,
    rows_from_g6_bytes,
)

__all__ = [
    "FormatError",
    "parse_edge_list",
    "emit_edge_list",
    "parse_graph6",
    "emit_graph6",
    "parse_arc_list",
    "emit_arc_list",
    "parse_graph_auto",
]

# The values of synthesize's options, kept here so that the command-line
# parser can offer them without loading synthesis and the modules below it.
CONGRUENCE_GLOBAL = "global"
CONGRUENCE_PER_ARC = "per-arc"
DEFAULT_PRIME_CAP = 10**6


def _meaningful_lines(text: str):
    """Yield (offset, stripped line) skipping blanks and # comments."""
    offset = 0
    for raw in text.splitlines(keepends=True):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield offset, line
        offset += len(raw.encode("utf-8"))


def _parse_lines(text: str, separator: str | None):
    """Shared edge-list / arc-list reader; separator is None or '>'."""
    vertices: dict[str, None] = {}  # an insertion-ordered set
    pairs: list[tuple[str, str]] = []
    seen_pairs: set[frozenset[str]] = set()
    first = True
    for offset, line in _meaningful_lines(text):
        if first and line.startswith("vertices:"):
            for v in line[len("vertices:") :].split():
                if v in vertices:
                    raise FormatError(f"vertex {v!r} declared twice", offset)
                vertices[v] = None
            first = False
            continue
        first = False
        if separator is None:
            tokens = line.split()
            if len(tokens) != 2:
                raise FormatError(
                    f"expected 'u v', got {line!r}", offset
                )
        else:
            tokens = [t.strip() for t in line.split(separator)]
            if len(tokens) != 2 or not tokens[0] or not tokens[1]:
                raise FormatError(
                    f"expected 'u {separator} v', got {line!r}", offset
                )
        u, v = tokens
        if u == v:
            raise FormatError(f"loop at vertex {u!r}", offset)
        vertices.setdefault(u)
        vertices.setdefault(v)
        pair = frozenset((u, v))
        if pair in seen_pairs:
            raise FormatError(f"duplicate pair {u!r} {v!r}", offset)
        seen_pairs.add(pair)
        pairs.append((u, v))
    return list(vertices), pairs


def parse_edge_list(text: str) -> LabeledGraph:
    vertices, pairs = _parse_lines(text, None)
    return LabeledGraph(vertices, pairs)


def emit_edge_list(g: LabeledGraph) -> str:
    lines = ["vertices: " + " ".join(g.vertices)]
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"


def parse_arc_list(text: str) -> Orientation:
    vertices, pairs = _parse_lines(text, ">")
    underlying = LabeledGraph(vertices, pairs)
    return Orientation(underlying, pairs)


def emit_arc_list(o: Orientation) -> str:
    lines = ["vertices: " + " ".join(o.vertices)]
    lines.extend(f"{u} > {v}" for u, v in o.sorted_arcs())
    return "\n".join(lines) + "\n"


def parse_graph6(data: bytes | str) -> LabeledGraph:
    """Decode one graph6 line; vertex labels are decimal positions."""
    if isinstance(data, str):
        data = data.encode("ascii")
    data = data.rstrip(b"\r\n")
    n, rows = rows_from_g6_bytes(data)
    return LabeledGraph.from_rows(tuple(map(str, range(n))), rows)


def emit_graph6(g: LabeledGraph) -> bytes:
    """Encode in g's own vertex order, so parse-then-emit is byte exact."""
    return g6_bytes_from_rows(g.n, g.rows)


def parse_graph_auto(data: bytes | str) -> LabeledGraph:
    """Edge-list or graph6, decided by the shape of the first line.

    A line containing whitespace, a ``vertices:`` header, or a comment is
    edge-list text; otherwise the line is treated as graph6, and must be
    the only meaningful line: graph6 input holds one graph.
    """
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    lines = _meaningful_lines(text)
    for offset, line in lines:
        if line.startswith("vertices:") or any(c.isspace() for c in line):
            return parse_edge_list(text)
        second = next(lines, None)
        if second is not None:
            raise FormatError("more than one graph6 line; give one graph", second[0])
        try:
            return parse_graph6(line)
        except FormatError as exc:
            # parse_graph6 counts from the stripped line; count from the input
            start = text.encode("utf-8").index(line.encode("ascii"), offset)
            raise FormatError(exc.reason, start + exc.offset) from None
    # nothing but comments/blanks: an empty edge list would have no vertices
    return parse_edge_list(text)
