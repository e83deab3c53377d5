"""Simple undirected/directed graphs over opaque string labels.

One graph type serves both abstract graphs and prime graphs (primes are
their decimal renderings).  It stores the vertex tuple and one adjacency
bit row per vertex; every search below runs on those rows, and edges are
computed from them on each read.  An orientation stores its underlying
graph and one out-mask per vertex; arcs are computed on each read, and
in-masks kept.  Vertex *order* is significant: it fixes edge
normalization, lexicographic tie-breaking, and serialization, while
equality and hashing see a graph as (vertex tuple, rows) and an
orientation as (underlying, out-masks).

All values are immutable after construction and every operation is a pure
function, so concurrent reads are safe.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import combinations
from operator import attrgetter
from typing import NamedTuple

from .errors import LimitExceeded

INFINITE_GIRTH = math.inf

COLOR_NODE_BOUND = 1_000_000


class Frozen:
    """Base of the immutable classes that keep derived state: their fields
    are their own annotated class attributes, in order, which each
    constructor sets with ``object.__setattr__``.  Instances compare equal
    only within one class, hash over their fields, and repr as
    ``Name(field=value, ...)``; assignment and deletion raise
    AttributeError.  ``cached_property`` still works: it writes to the
    instance dict directly, as does code that keeps small derived state
    there (``_index``, a Frobenius verdict); ``edges`` and ``arcs`` never.
    """

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._values = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class LabeledGraph(Frozen):
    """Undirected simple graph: ordered vertex labels plus adjacency rows.

    ``rows[i]`` is the bit mask of the neighbours of ``vertices[i]``.  No
    loops, no duplicate labels, every endpoint listed.  ``edges`` (pairs
    by vertex position) is built from the rows on each read and not
    stored: read it once, outside loops.
    """

    vertices: tuple[str, ...]
    rows: tuple[int, ...]

    def __init__(self, vertices, edges):
        vertices = tuple(map(str, vertices))
        index = dict(zip(vertices, range(len(vertices))))
        if len(index) != len(vertices):
            raise ValueError("duplicate vertex labels")
        object.__setattr__(self, "vertices", vertices)
        vars(self)["_index"] = index
        bits = [1 << i for i in range(len(vertices))]
        rows = [0] * len(vertices)
        for u, v in edges:
            # listed labels as given; all else takes the coercing, checking path
            try:
                i, j = index[u], index[v]
            except (KeyError, TypeError):
                i = None
            if i is None or i == j:
                i, j = self._pair(u, v)
            rows[i] |= bits[j]
            rows[j] |= bits[i]
        object.__setattr__(self, "rows", tuple(rows))

    @classmethod
    def from_rows(cls, vertices: tuple[str, ...], rows) -> LabeledGraph:
        """Graph on rows the library built itself; nothing is checked."""
        g = object.__new__(cls)
        object.__setattr__(g, "vertices", vertices)
        object.__setattr__(g, "rows", tuple(rows))
        return g

    # -- basic accessors -------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    def position(self, v: str) -> int:
        """Position of vertex v, or else of str(v) as the constructors store
        labels; ValueError when neither is a vertex."""
        try:
            return self._index[v]
        except (KeyError, TypeError):
            if str(v) in self._index:
                return self._index[str(v)]
        raise ValueError(f"unknown vertex {v!r}")

    def _pair(self, u, v) -> tuple[int, int]:
        """Positions of the endpoints of a new edge, checked."""
        u, v = str(u), str(v)
        if u == v:
            raise ValueError(f"loop at vertex {u!r}")
        index = self._index
        if u not in index or v not in index:
            raise ValueError(f"edge ({u!r}, {v!r}) has an unlisted endpoint")
        return index[u], index[v]

    @property
    def edges(self) -> frozenset[tuple[str, str]]:
        return frozenset(self.sorted_edges())

    def has_edge(self, u: str, v: str) -> bool:
        try:
            return self.rows[self.position(u)] >> self.position(v) & 1 == 1
        except ValueError:
            return False

    def adjacency(self) -> dict[str, set[str]]:
        vs = self.vertices
        return {v: {vs[j] for j in _bits(row)} for v, row in zip(vs, self.rows)}

    def degree(self, v: str) -> int:
        return self.rows[self.position(v)].bit_count()

    def sorted_edges(self) -> list[tuple[str, str]]:
        vs = self.vertices
        return [
            (vs[i], vs[j])
            for i, row in enumerate(self.rows)
            for j in _bits(row >> (i + 1) << (i + 1))
        ]


def _bits(mask: int):
    """Positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


class Orientation(Frozen):
    """A direction for every edge of an underlying simple graph, stored as
    out-masks: ``out_rows[i]`` is the bit mask of the out-neighbours of
    ``vertices[i]``.  ``arcs`` is built on each read and not stored: read
    it once, outside loops.  Kept once derived: the in-masks ``in_rows``
    and the role masks ``sinks`` (no out-arcs, isolated vertices included),
    ``doubles`` (out- and in-arcs) and ``sources`` (out-arcs only).
    """

    underlying: LabeledGraph
    out_rows: tuple[int, ...]

    def __init__(self, underlying: LabeledGraph, arcs):
        index, rows = underlying._index, underlying.rows
        out = [0] * underlying.n
        for u, v in arcs:
            try:
                i, j = index[u], index[v]
            except (KeyError, TypeError):
                i = None
            if i is None or not rows[i] >> j & 1:
                u, v = str(u), str(v)
                if not underlying.has_edge(u, v):
                    raise ValueError(f"arc ({u!r}, {v!r}) is not an underlying edge")
                i, j = index[u], index[v]
            if out[j] >> i & 1:
                raise ValueError(f"edge {{{str(u)!r}, {str(v)!r}}} oriented twice")
            out[i] |= 1 << j
        # each underlying edge sets a bit in the rows of both its ends
        edges = sum(row.bit_count() for row in rows) // 2
        if sum(row.bit_count() for row in out) != edges:
            raise ValueError("arcs must cover every underlying edge exactly once")
        object.__setattr__(self, "underlying", underlying)
        object.__setattr__(self, "out_rows", tuple(out))

    @classmethod
    def from_out_rows(cls, underlying: LabeledGraph, rows) -> Orientation:
        """Orientation on out-masks the library built itself; nothing is checked."""
        o = object.__new__(cls)
        object.__setattr__(o, "underlying", underlying)
        object.__setattr__(o, "out_rows", tuple(rows))
        return o

    @property
    def vertices(self) -> tuple[str, ...]:
        return self.underlying.vertices

    @cached_property
    def in_rows(self) -> tuple[int, ...]:
        # every underlying edge at a vertex points either out or in
        return tuple(row & ~out for row, out in zip(self.underlying.rows, self.out_rows))

    @cached_property
    def sinks(self) -> int:
        return sum(1 << i for i, out in enumerate(self.out_rows) if not out)

    @cached_property
    def doubles(self) -> int:
        return sum(1 << i for i, into in enumerate(self.in_rows) if into) & ~self.sinks

    @cached_property
    def sources(self) -> int:
        return (1 << len(self.out_rows)) - 1 & ~(self.sinks | self.doubles)

    @property
    def arcs(self) -> frozenset[tuple[str, str]]:
        return frozenset(self.sorted_arcs())

    def sorted_arcs(self) -> list[tuple[str, str]]:
        vs = self.vertices
        return [(vs[i], vs[j]) for i, row in enumerate(self.out_rows) for j in _bits(row)]


def orientation_from_arcs(vertices, arcs) -> Orientation:
    """Build an Orientation whose underlying edges are exactly the arc pairs."""
    arcs = list(arcs)
    return Orientation(LabeledGraph(vertices, arcs), arcs)


def labels_at(vertices: tuple[str, ...], mask: int) -> list[str]:
    """The labels at the set bits of mask, in vertex order."""
    return [vertices[i] for i in _bits(mask)]


class Coloring(NamedTuple):
    """Map from vertex label to color index 0..k-1."""

    assignment: dict[str, int]

    def color_of(self, v: str) -> int:
        return self.assignment[v]

    def num_colors(self) -> int:
        return max(self.assignment.values()) + 1 if self.assignment else 0

    def is_proper_on(self, g: LabeledGraph) -> bool:
        return self.class_masks(g) is not None

    def class_masks(self, g: LabeledGraph) -> dict[int, int] | None:
        """Bit mask of g's vertices of each color, or None unless the
        coloring covers exactly g's vertices and is proper on g."""
        if self.assignment.keys() != set(g.vertices):
            return None
        colors = [self.assignment[v] for v in g.vertices]
        masks: dict[int, int] = {}
        for i, c in enumerate(colors):
            masks[c] = masks.get(c, 0) | 1 << i
        proper = not any(row & masks[c] for row, c in zip(g.rows, colors))
        return masks if proper else None


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
    i, j = g._pair(u, v)
    return g if g.rows[i] >> j & 1 else _flipped(g, i, j)


def without_edge(g: LabeledGraph, u: str, v: str) -> LabeledGraph:
    if not g.has_edge(u, v):
        raise ValueError(f"no edge between {str(u)!r} and {str(v)!r}")
    return _flipped(g, g.position(u), g.position(v))


def _flipped(g: LabeledGraph, i: int, j: int) -> LabeledGraph:
    """g with the pair at positions i, j toggled between edge and non-edge."""
    rows = list(g.rows)
    rows[i] ^= 1 << j
    rows[j] ^= 1 << i
    return LabeledGraph.from_rows(g.vertices, rows)


# -- combinatorial primitives ---------------------------------------------


def complement(g: LabeledGraph) -> LabeledGraph:
    """Same vertices; edge present iff absent in g."""
    full = (1 << g.n) - 1
    return LabeledGraph.from_rows(
        g.vertices, [full ^ row ^ (1 << i) for i, row in enumerate(g.rows)]
    )


def find_triangle(g: LabeledGraph) -> tuple[str, str, str] | None:
    """Lexicographically least triangle under vertex order, or None."""
    rows = g.rows
    for i, row in enumerate(rows):
        later = row >> (i + 1) << (i + 1)
        while later:
            low = later & -later
            later ^= low
            j = low.bit_length() - 1
            common = later & rows[j]
            if common:
                last = (common & -common).bit_length() - 1
                return g.vertices[i], g.vertices[j], g.vertices[last]
    return None


def color_search(g: LabeledGraph, k: int) -> tuple[Coloring | None, int]:
    """Exact backtracking k-coloring with saturation-degree ordering.

    DSATUR (Brélaz 1979) on ``_color_search``: the next vertex is the
    uncolored one of most distinct neighbour colors, then of largest
    degree, then earliest in vertex order.  Each node rebuilds the
    saturation classes from the per-color neighbour masks and picks the
    lowest vertex of the first degree tier that meets the top class.

    Returns (coloring or None, number of assignments tried).  A None
    result is a proof by exhaustion that no proper k-coloring exists.
    Raises LimitExceeded when more than COLOR_NODE_BOUND assignments are
    needed.
    """
    return _color_search(g, k, in_order=False)


def color_with_at_most(g: LabeledGraph, k: int) -> Coloring | None:
    """Proper coloring with <= k colors, or None when provably impossible."""
    return color_search(g, k)[0]


def lex_least_coloring(g: LabeledGraph, k: int = 3) -> Coloring | None:
    """The lexicographically least proper <=k-coloring in vertex order.

    Deterministic anchor for the canonical orientation: ``_color_search``
    in vertex order, colors ascending, finds the least color sequence
    first.  A vertex that already sees all k colors is picked ahead of
    its turn and fails at once (forward checking), and the first-use
    rule keeps the least sequence, which uses its colors in order of
    first appearance.

    Raises LimitExceeded when more than COLOR_NODE_BOUND colors are tried.
    """
    return _color_search(g, k, in_order=True)[0]


def _color_search(g: LabeledGraph, k: int, in_order: bool) -> tuple[Coloring | None, int]:
    """The one backtracking k-coloring loop: (coloring or None, nodes).

    Only the pick depends on ``in_order``: DSATUR's (color_search) or
    vertex order (lex_least_coloring).  A vertex takes a color already
    used, tried ascending, or only the least unused one: permuting colors
    changes neither pick, so the subtree under a second unused color is
    an image of the one under the first, which has already failed.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    bound = COLOR_NODE_BOUND
    rows = g.rows
    n = g.n
    # Vertex masks by degree, highest first: the lowest vertex of the first
    # tier that meets the top saturation class is the vertex DSATUR picks.
    by_degree: dict[int, int] = {}
    if not in_order:
        for i, row in enumerate(rows):
            d = row.bit_count()
            by_degree[d] = by_degree.get(d, 0) | 1 << i
    tiers = [by_degree[d] for d in sorted(by_degree, reverse=True)]
    seen = [0] * k  # seen[c]: vertices with a neighbour colored c; 0 for c >= used
    uncolored = (1 << n) - 1
    colors = [0] * n
    used = 0  # colors 0..used-1 appear in the partial coloring
    trail = []  # (vertex, color, used before, seen[color] before)
    nodes = 0
    while uncolored:
        if in_order:
            top = uncolored
            if used == k:
                for mask in seen:
                    top &= mask
                top = top or uncolored  # a vertex seeing all k colors fails at once
        else:
            at = [uncolored]  # at[j]: uncolored vertices seeing at least j colors
            for mask in seen[:used]:
                j = len(at)
                at.append(at[-1] & mask)
                while j > 1:
                    j -= 1
                    at[j] |= at[j - 1] & mask
            top = at.pop()
            while not top:
                top = at.pop()
            for tier in tiers:
                if tier & top:
                    top &= tier
                    break
        v = (top & -top).bit_length() - 1
        c = 0
        while True:
            limit = used + 1 if used < k else k
            while c < limit and seen[c] >> v & 1:
                c += 1
            if c < limit:
                break
            if not trail:
                return None, nodes
            v, c, used, before = trail.pop()
            seen[c] = before
            uncolored |= 1 << v
            c += 1
        nodes += 1
        if nodes > bound:
            raise LimitExceeded(f"coloring search limited to {bound} nodes")
        uncolored ^= 1 << v
        trail.append((v, c, used, seen[c]))
        if c == used:
            used += 1
        seen[c] |= rows[v]
        colors[v] = c
    return Coloring(dict(zip(g.vertices, colors))), nodes


def girth(g: LabeledGraph):
    """Length of a shortest cycle; INFINITE_GIRTH when g is a forest."""
    rows = g.rows
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
                for y in _bits(rows[x]):
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
    return frozenset(labels_at(g.vertices, mask_ring(g.rows, g.position(v), k)))


def directed_neighborhood(o: Orientation, v: str, k: int, direction: str) -> frozenset[str]:
    """k-in or k-out neighborhood of v: shortest directed distance exactly k.

    ``direction`` is "in" (vertices u with shortest path u -> ... -> v of
    length k) or "out" (paths v -> ... -> u).
    """
    i = o.underlying.position(v)
    if direction not in ("in", "out"):
        raise ValueError('direction must be "in" or "out"')
    rows = o.in_rows if direction == "in" else o.out_rows
    return frozenset(labels_at(o.vertices, mask_ring(rows, i, k)))


def mask_ring(rows, i: int, k: int) -> int:
    """Mask of the positions at distance exactly k from position i, each
    step going from a position j to the bits of ``rows[j]``."""
    if k < 1:
        raise ValueError("k must be >= 1")
    seen = frontier = 1 << i
    for _ in range(k):
        frontier = reach(rows, frontier) & ~seen
        seen |= frontier
    return frontier


def reach(rows, mask: int) -> int:
    """Union of ``rows[j]`` over the set bits j of mask: one BFS step."""
    out = 0
    for j in _bits(mask):
        out |= rows[j]
    return out


def is_connected(g: LabeledGraph) -> bool:
    seen = frontier = 1 if g.n else 0
    while frontier:
        frontier = reach(g.rows, frontier) & ~seen
        seen |= frontier
    return seen == (1 << g.n) - 1


# The benchmark still reads these census names through this module; delete
# the alias once it reads them from census.
_CENSUS_ALIASES = ("_canonical_g6_cached", "canonical_form", "enumerate_graphs")


def __getattr__(name: str):
    if name in _CENSUS_ALIASES:
        from . import census

        return getattr(census, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
