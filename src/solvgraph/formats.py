"""Text interchange: edge-list and arc-list authoring formats, graph6 corpora.

Edge lists are UTF-8 text.  An optional first meaningful line
``vertices: a b c`` declares vertices (required for isolated ones); every
following line is one edge ``u v``.  ``#`` starts a comment.  Arc lists
use ``u > v`` lines with the same header and comment rules.

graph6 is the standard 6-bit packing: N(n) header byte, then the upper
triangle in column-major order, zero-padded to a byte boundary.
"""

from __future__ import annotations

from .errors import FormatError, LimitExceeded
from .graphs import LabeledGraph, Orientation

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


# -- graph6 packing -----------------------------------------------------------


def g6_bytes_from_rows(n: int, rows) -> bytes:
    """Pack adjacency rows into graph6 bytes (n <= 62)."""
    columns = [sum((rows[i] >> j & 1) << j - 1 - i for i in range(j)) for j in range(n)]
    return g6_bytes_from_columns(n, columns)


def g6_bytes_from_columns(n: int, columns) -> bytes:
    """Pack upper-triangle columns into graph6 bytes (n <= 62).

    columns[j] holds the pairs (i, j), i < j, as j bits with i = 0 at the
    high bit: graph6's own bit order, so the body is their concatenation.
    """
    if n > 62:
        raise LimitExceeded("graph6 emitter supports at most 62 vertices")
    body = 0
    for j in range(1, n):
        body = body << j | columns[j]
    nbits = n * (n - 1) // 2
    pad = -nbits % 6
    body <<= pad
    return bytes(
        [n + 63] + [(body >> shift & 63) + 63 for shift in range(nbits + pad - 6, -1, -6)]
    )


def rows_from_g6_bytes(data: bytes) -> tuple[int, tuple[int, ...]]:
    """Unpack graph6 bytes into (n, adjacency rows); strict, no junk allowed."""
    if not data:
        raise FormatError("empty graph6 input", 0)
    n = data[0] - 63
    if not 0 <= n <= 62:
        raise FormatError(f"malformed graph6 header byte {data[0]}", 0)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) < 1 + nbytes:
        raise FormatError("truncated graph6 body", len(data))
    if len(data) > 1 + nbytes:
        raise FormatError("trailing junk after graph6 body", 1 + nbytes)
    rows = [0] * n
    index = 0
    i, j = 0, 1  # the pair of the index-th bit, in column-major order
    for byte_at, raw in enumerate(data[1:], start=1):
        value = raw - 63
        if not 0 <= value < 64:
            raise FormatError(f"graph6 body byte {raw} out of range", byte_at)
        for shift in range(5, -1, -1):
            if index >= nbits:
                if value >> shift & 1:
                    raise FormatError("nonzero padding bits", byte_at)
                continue
            if value >> shift & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            index += 1
            i += 1
            if i == j:
                i, j = 0, j + 1
    return n, tuple(rows)


def parse_graph6(data: bytes | str) -> LabeledGraph:
    """Decode one graph6 line; vertex labels are decimal positions.

    Text is read as its UTF-8 bytes, so a non-ASCII character is a
    FormatError at the byte offset where its encoding starts.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
        if not data.isascii():
            at = next(i for i, byte in enumerate(data) if byte > 127)
            raise FormatError(f"non-ASCII byte 0x{data[at]:02x} in graph6 line", at)
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
            start = text.encode("utf-8").index(line.encode("utf-8"), offset)
            raise FormatError(exc.reason, start + exc.offset) from None
    # nothing but comments/blanks: an empty edge list would have no vertices
    return parse_edge_list(text)
