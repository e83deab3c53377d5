"""Simple undirected/directed graphs over opaque string labels.

One graph type serves both abstract graphs and prime graphs (primes are
their decimal renderings).  Vertex *order* is significant: it fixes edge
normalization, lexicographic tie-breaking, and serialization, while
equality and hashing see the graph as (vertex tuple, edge set).

All values are immutable after construction and every operation is a pure
function, so concurrent reads are safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .errors import LimitExceeded

INFINITE_GIRTH = math.inf

CANONICAL_VERTEX_BOUND = 10


@dataclass(frozen=True, init=False)
class LabeledGraph:
    """Undirected simple graph: ordered vertex labels plus an edge set.

    Edges are stored as pairs ordered by vertex position.  No loops, no
    duplicate labels, every endpoint listed.
    """

    vertices: tuple[str, ...]
    edges: frozenset[tuple[str, str]]

    def __init__(self, vertices, edges):
        vertices = tuple(str(v) for v in vertices)
        if len(set(vertices)) != len(vertices):
            raise ValueError("duplicate vertex labels")
        position = {v: i for i, v in enumerate(vertices)}
        normalized = set()
        for edge in edges:
            u, v = edge
            u, v = str(u), str(v)
            if u == v:
                raise ValueError(f"loop at vertex {u!r}")
            if u not in position or v not in position:
                raise ValueError(f"edge ({u!r}, {v!r}) has an unlisted endpoint")
            if position[u] > position[v]:
                u, v = v, u
            normalized.add((u, v))
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", frozenset(normalized))

    # -- basic accessors -------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    def position(self, v: str) -> int:
        try:
            return self.vertices.index(v)
        except ValueError:
            raise ValueError(f"unknown vertex {v!r}") from None

    def has_edge(self, u: str, v: str) -> bool:
        return (u, v) in self.edges or (v, u) in self.edges

    def adjacency(self) -> dict[str, set[str]]:
        adj: dict[str, set[str]] = {v: set() for v in self.vertices}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def degree(self, v: str) -> int:
        if v not in self.vertices:
            raise ValueError(f"unknown vertex {v!r}")
        return sum(1 for e in self.edges if v in e)

    def sorted_edges(self) -> list[tuple[str, str]]:
        pos = {v: i for i, v in enumerate(self.vertices)}
        return sorted(self.edges, key=lambda e: (pos[e[0]], pos[e[1]]))

    def adjacency_rows(self) -> tuple[int, ...]:
        """Row bitmasks indexed by vertex position."""
        pos = {v: i for i, v in enumerate(self.vertices)}
        rows = [0] * self.n
        for u, v in self.edges:
            i, j = pos[u], pos[v]
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        return tuple(rows)


@dataclass(frozen=True, init=False)
class Orientation:
    """A choice of direction for every edge of an underlying simple graph."""

    underlying: LabeledGraph
    arcs: frozenset[tuple[str, str]]

    def __init__(self, underlying: LabeledGraph, arcs):
        arcs = frozenset((str(u), str(v)) for u, v in arcs)
        seen = set()
        for u, v in arcs:
            if not underlying.has_edge(u, v):
                raise ValueError(f"arc ({u!r}, {v!r}) is not an underlying edge")
            key = frozenset((u, v))
            if key in seen:
                raise ValueError(f"edge {{{u!r}, {v!r}}} oriented twice")
            seen.add(key)
        if len(arcs) != len(underlying.edges):
            raise ValueError("arcs must cover every underlying edge exactly once")
        object.__setattr__(self, "underlying", underlying)
        object.__setattr__(self, "arcs", arcs)

    @property
    def vertices(self) -> tuple[str, ...]:
        return self.underlying.vertices

    def out_neighbors(self) -> dict[str, set[str]]:
        out: dict[str, set[str]] = {v: set() for v in self.vertices}
        for u, v in self.arcs:
            out[u].add(v)
        return out

    def in_neighbors(self) -> dict[str, set[str]]:
        into: dict[str, set[str]] = {v: set() for v in self.vertices}
        for u, v in self.arcs:
            into[v].add(u)
        return into

    def sorted_arcs(self) -> list[tuple[str, str]]:
        pos = {v: i for i, v in enumerate(self.vertices)}
        return sorted(self.arcs, key=lambda a: (pos[a[0]], pos[a[1]]))


def orientation_from_arcs(vertices, arcs) -> Orientation:
    """Build an Orientation whose underlying edges are exactly the arc pairs."""
    vertices = tuple(str(v) for v in vertices)
    arcs = [(str(u), str(v)) for u, v in arcs]
    underlying = LabeledGraph(vertices, [(u, v) for u, v in arcs])
    return Orientation(underlying, arcs)


@dataclass(frozen=True)
class Coloring:
    """Map from vertex label to color index 0..k-1."""

    assignment: dict[str, int]

    def color_of(self, v: str) -> int:
        return self.assignment[v]

    def num_colors(self) -> int:
        return max(self.assignment.values()) + 1 if self.assignment else 0

    def is_proper_on(self, g: LabeledGraph) -> bool:
        if set(self.assignment) != set(g.vertices):
            return False
        return all(self.assignment[u] != self.assignment[v] for u, v in g.edges)


# -- constructors --------------------------------------------------------


def empty_graph(labels) -> LabeledGraph:
    return LabeledGraph(tuple(labels), ())


def complete_graph(labels) -> LabeledGraph:
    labels = tuple(labels)
    return LabeledGraph(labels, combinations(labels, 2))


def cycle_graph(labels) -> LabeledGraph:
    labels = tuple(labels)
    if len(labels) < 3:
        raise ValueError("cycle needs at least 3 vertices")
    edges = [(labels[i], labels[(i + 1) % len(labels)]) for i in range(len(labels))]
    return LabeledGraph(labels, edges)


def path_graph(labels) -> LabeledGraph:
    labels = tuple(labels)
    edges = [(labels[i], labels[i + 1]) for i in range(len(labels) - 1)]
    return LabeledGraph(labels, edges)


def with_edge(g: LabeledGraph, u: str, v: str) -> LabeledGraph:
    return LabeledGraph(g.vertices, set(g.edges) | {(u, v)})


def without_edge(g: LabeledGraph, u: str, v: str) -> LabeledGraph:
    if not g.has_edge(u, v):
        raise ValueError(f"no edge between {u!r} and {v!r}")
    return LabeledGraph(
        g.vertices, [e for e in g.edges if set(e) != {u, v}]
    )


# -- combinatorial primitives ---------------------------------------------


def complement(g: LabeledGraph) -> LabeledGraph:
    """Same vertices; edge present iff absent in g."""
    present = g.edges
    edges = [
        (u, v)
        for u, v in combinations(g.vertices, 2)
        if (u, v) not in present and (v, u) not in present
    ]
    return LabeledGraph(g.vertices, edges)


def find_triangle(g: LabeledGraph) -> tuple[str, str, str] | None:
    """Lexicographically least triangle under vertex order, or None."""
    rows = g.adjacency_rows()
    n = g.n
    for i in range(n):
        for j in range(i + 1, n):
            if not rows[i] >> j & 1:
                continue
            common = rows[i] & rows[j] & (~((1 << (j + 1)) - 1))
            if common:
                k = (common & -common).bit_length() - 1
                return (g.vertices[i], g.vertices[j], g.vertices[k])
    return None


def is_triangle_free(g: LabeledGraph) -> bool:
    return find_triangle(g) is None


def color_search(g: LabeledGraph, k: int) -> tuple[Coloring | None, int]:
    """Exact backtracking k-coloring with saturation-degree ordering.

    Returns (coloring or None, number of assignments tried).  A None
    result is a proof by exhaustion that no proper k-coloring exists.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = g.n
    if n == 0:
        return Coloring({}), 0
    rows = g.adjacency_rows()
    degrees = [rows[i].bit_count() for i in range(n)]
    colors: list[int | None] = [None] * n
    nodes = 0

    def pick() -> int | None:
        best = None
        best_key = None
        for i in range(n):
            if colors[i] is not None:
                continue
            saturation = len(
                {colors[j] for j in range(n) if rows[i] >> j & 1 and colors[j] is not None}
            )
            key = (saturation, degrees[i], -i)
            if best is None or key > best_key:
                best, best_key = i, key
        return best

    def solve() -> bool:
        nonlocal nodes
        i = pick()
        if i is None:
            return True
        forbidden = {colors[j] for j in range(n) if rows[i] >> j & 1 and colors[j] is not None}
        for c in range(k):
            if c in forbidden:
                continue
            nodes += 1
            colors[i] = c
            if solve():
                return True
            colors[i] = None
        return False

    if solve():
        return Coloring({g.vertices[i]: colors[i] for i in range(n)}), nodes
    return None, nodes


def color_with_at_most(g: LabeledGraph, k: int) -> Coloring | None:
    """Proper coloring with <= k colors, or None when provably impossible."""
    return color_search(g, k)[0]


def lex_least_coloring(g: LabeledGraph, k: int = 3) -> Coloring | None:
    """The lexicographically least proper <=k-coloring in vertex order.

    Deterministic anchor for the canonical orientation: backtracking in
    vertex order trying color indices ascending returns the least color
    sequence first.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = g.n
    rows = g.adjacency_rows()
    colors: list[int | None] = [None] * n

    def solve(i: int) -> bool:
        if i == n:
            return True
        forbidden = {colors[j] for j in range(i) if rows[i] >> j & 1}
        for c in range(k):
            if c in forbidden:
                continue
            colors[i] = c
            if solve(i + 1):
                return True
        colors[i] = None
        return False

    if solve(0):
        return Coloring({g.vertices[i]: colors[i] for i in range(n)})
    return None


def girth(g: LabeledGraph):
    """Length of a shortest cycle; INFINITE_GIRTH when g is a forest."""
    rows = g.adjacency_rows()
    n = g.n
    best = INFINITE_GIRTH
    for start in range(n):
        dist = [-1] * n
        parent = [-1] * n
        dist[start] = 0
        queue = [start]
        while queue:
            nxt = []
            for x in queue:
                for y in range(n):
                    if not rows[x] >> y & 1:
                        continue
                    if dist[y] == -1:
                        dist[y] = dist[x] + 1
                        parent[y] = x
                        nxt.append(y)
                    elif y != parent[x] and dist[y] >= dist[x]:
                        cycle = dist[x] + dist[y] + 1
                        if cycle < best:
                            best = cycle
            queue = nxt
    return best


def neighborhood(g: LabeledGraph, v: str, k: int) -> frozenset[str]:
    """Vertices at shortest-path distance exactly k from v."""
    if v not in g.vertices:
        raise ValueError(f"unknown vertex {v!r}")
    return _ring(g.adjacency(), v, k)


def directed_neighborhood(o: Orientation, v: str, k: int, direction: str) -> frozenset[str]:
    """k-in or k-out neighborhood of v: shortest directed distance exactly k.

    ``direction`` is "in" (vertices u with shortest path u -> ... -> v of
    length k) or "out" (paths v -> ... -> u).
    """
    if v not in o.vertices:
        raise ValueError(f"unknown vertex {v!r}")
    if direction not in ("in", "out"):
        raise ValueError('direction must be "in" or "out"')
    return _ring(o.in_neighbors() if direction == "in" else o.out_neighbors(), v, k)


def _ring(step: dict, v: str, k: int) -> frozenset[str]:
    """Vertices at distance exactly k from v along ``step``, by BFS."""
    if k < 1:
        raise ValueError("k must be >= 1")
    dist = {v: 0}
    frontier = [v]
    depth = 0
    while frontier and depth < k:
        depth += 1
        nxt = []
        for x in frontier:
            for y in step[x]:
                if y not in dist:
                    dist[y] = depth
                    nxt.append(y)
        frontier = nxt
    return frozenset(u for u, d in dist.items() if d == k)


def is_connected(g: LabeledGraph) -> bool:
    if g.n == 0:
        return True
    adj = g.adjacency()
    seen = {g.vertices[0]}
    stack = [g.vertices[0]]
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == g.n


def is_forest(g: LabeledGraph) -> bool:
    return girth(g) == INFINITE_GIRTH


# -- graph6 packing (shared with formats) ----------------------------------


def g6_bytes_from_rows(n: int, rows) -> bytes:
    """Pack adjacency rows into graph6 bytes (n <= 62)."""
    if n > 62:
        raise LimitExceeded("graph6 emitter supports at most 62 vertices")
    out = [n + 63]
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(rows[i] >> j & 1)
    while len(bits) % 6:
        bits.append(0)
    for i in range(0, len(bits), 6):
        value = 0
        for b in bits[i : i + 6]:
            value = value << 1 | b
        out.append(value + 63)
    return bytes(out)


def rows_from_g6_bytes(data: bytes) -> tuple[int, tuple[int, ...]]:
    """Unpack graph6 bytes into (n, adjacency rows); strict, no junk allowed."""
    from .errors import FormatError

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
                j = _pair_col(index)
                i = index - j * (j - 1) // 2
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            index += 1
    return n, tuple(rows)


def _pair_col(index: int) -> int:
    # column j of the index-th upper-triangle bit in column-major order
    j = 1
    while j * (j + 1) // 2 <= index:
        j += 1
    return j


# -- canonical form ---------------------------------------------------------


def canonical_form(g: LabeledGraph, max_vertices: int = CANONICAL_VERTEX_BOUND) -> bytes:
    """Canonical byte string: equal iff graphs are isomorphic.

    Minimizes the graph6 encoding over all vertex permutations with
    branch-and-bound pruning (partial upper-triangle comparison, twin
    skipping).  The output doubles as a canonical graph6 encoding.
    """
    n = g.n
    if n > max_vertices:
        raise LimitExceeded(
            f"canonical form limited to {max_vertices} vertices (got {n})"
        )
    return _canonical_g6(n, g.adjacency_rows())


def canonical_graph(g: LabeledGraph, max_vertices: int = CANONICAL_VERTEX_BOUND) -> LabeledGraph:
    """Canonically labeled representative of g's isomorphism class."""
    n, rows = rows_from_g6_bytes(canonical_form(g, max_vertices))
    return _graph_from_rows(n, rows)


def isomorphic(g: LabeledGraph, h: LabeledGraph, max_vertices: int = CANONICAL_VERTEX_BOUND) -> bool:
    if g.n != h.n or len(g.edges) != len(h.edges):
        return False
    return canonical_form(g, max_vertices) == canonical_form(h, max_vertices)


@lru_cache(maxsize=200_000)
def _canonical_g6_cached(n: int, rows: tuple[int, ...]) -> bytes:
    return _canonical_g6_compute(n, rows)


def _canonical_g6(n: int, rows) -> bytes:
    return _canonical_g6_cached(n, tuple(rows))


def _canonical_g6_compute(n: int, rows: tuple[int, ...]) -> bytes:
    if n <= 1:
        return g6_bytes_from_rows(n, rows)

    # Columns are packed into integers, first placed vertex at the high
    # bit, so integer order equals lexicographic bit order.  colbits[c]
    # tracks the adjacency of candidate c to the placed prefix and is
    # updated incrementally on place/unplace.
    best: list[int] | None = None
    generation = 0
    placed: list[int] = []
    columns: list[int] = []
    colbits = [0] * n
    used = 0

    def twins(u: int, w: int) -> bool:
        return rows[u] & ~(1 << w) == rows[w] & ~(1 << u)

    def rec(equals_best: bool) -> None:
        nonlocal best, generation, used
        depth = len(placed)
        if depth == n:
            if best is None or not equals_best:
                best = columns.copy()
                generation += 1
            return
        scored = sorted(
            (colbits[cand], cand) for cand in range(n) if not used >> cand & 1
        )
        tried: list[int] = []
        local_generation = generation
        for col, cand in scored:
            if generation != local_generation:
                # a deeper call improved best, which now extends our prefix
                equals_best = True
                local_generation = generation
            if best is not None and equals_best:
                if col > best[depth]:
                    break
                child_equals = col == best[depth]
            else:
                child_equals = False
            if any(twins(cand, t) for t in tried):
                continue
            tried.append(cand)
            placed.append(cand)
            columns.append(col)
            used |= 1 << cand
            row = rows[cand]
            for other in range(n):
                if not used >> other & 1:
                    colbits[other] = colbits[other] << 1 | (row >> other & 1)
            rec(child_equals)
            for other in range(n):
                if not used >> other & 1:
                    colbits[other] >>= 1
            used ^= 1 << cand
            columns.pop()
            placed.pop()

    rec(False)
    assert best is not None
    out_rows = [0] * n
    for j in range(1, n):
        col = best[j]
        for i in range(j):
            if col >> (j - 1 - i) & 1:
                out_rows[i] |= 1 << j
                out_rows[j] |= 1 << i
    return g6_bytes_from_rows(n, out_rows)


def _graph_from_rows(n: int, rows) -> LabeledGraph:
    labels = tuple(str(i) for i in range(n))
    edges = [
        (labels[i], labels[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rows[i] >> j & 1
    ]
    return LabeledGraph(labels, edges)


# -- exhaustive generation up to isomorphism -------------------------------


@lru_cache(maxsize=None)
def _generated_forms(n: int, triangle_free: bool) -> tuple[bytes, ...]:
    if n == 0:
        return (g6_bytes_from_rows(0, ()),)
    if n == 1:
        return (g6_bytes_from_rows(1, (0,)),)
    forms: set[bytes] = set()
    for parent in _generated_forms(n - 1, triangle_free):
        pn, prows = rows_from_g6_bytes(parent)
        for mask in range(1 << pn):
            if triangle_free and any(
                prows[u] & mask and mask >> u & 1 for u in range(pn)
            ):
                continue
            rows = list(prows) + [mask]
            for u in range(pn):
                if mask >> u & 1:
                    rows[u] |= 1 << pn
            forms.add(_canonical_g6(n, tuple(rows)))
    return tuple(sorted(forms))


def enumerate_graphs(n: int, triangle_free: bool = False) -> tuple[LabeledGraph, ...]:
    """All graphs on exactly n vertices up to isomorphism, canonical labels.

    Augments each (n-1)-vertex representative by one new vertex and
    deduplicates by canonical form; with ``triangle_free`` the new vertex
    only attaches to independent sets, which keeps n = 9 cheap.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > 10:
        raise LimitExceeded("exhaustive generation limited to 10 vertices")
    graphs = []
    for form in _generated_forms(n, triangle_free):
        fn, rows = rows_from_g6_bytes(form)
        graphs.append(_graph_from_rows(fn, rows))
    return tuple(graphs)
