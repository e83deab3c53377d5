"""Deciding which graphs occur as prime graphs of finite solvable groups.

A graph qualifies exactly when its complement is triangle-free and
3-colorable.  Positive answers carry a proper 3-coloring of the
complement as certificate; negative answers carry either a triangle of
the complement or an exhausted-search marker (non-3-colorability has no
succinct certificate, so the verdict records the search node count).
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .graphs import (
    INFINITE_GIRTH,
    Coloring,
    LabeledGraph,
    Orientation,
    _bits,
    color_search,
    complement,
    find_triangle,
    girth,
)

VIOLATION_TRIANGLE = "triangle-in-complement"
VIOLATION_NOT_3_COLORABLE = "complement-not-3-colorable"


class Violation(NamedTuple):
    kind: str
    vertices: tuple[str, ...] | None = None


class RealizabilityVerdict(NamedTuple):
    realizable: bool
    certificate: Coloring | None
    violation: Violation | None
    search_nodes: int


def is_solvable_prime_graph(g: LabeledGraph) -> RealizabilityVerdict:
    """Realizability verdict with certificate or violation.

    The least-triangle test of ``find_triangle`` and the incremental
    DSATUR search of ``color_search`` run on the complement's adjacency
    rows.  ``search_nodes`` counts the assignments the search tried; the
    search raises LimitExceeded past ``COLOR_NODE_BOUND`` of them.

    Rejects the empty vertex set: prime graphs of nontrivial groups are
    nonempty, and a single vertex is realizable (any p-group).
    """
    if g.n == 0:
        raise ValueError("empty vertex set has no realizability verdict")
    co = complement(g)
    triangle = find_triangle(co)
    if triangle is not None:
        return RealizabilityVerdict(
            realizable=False,
            certificate=None,
            violation=Violation(VIOLATION_TRIANGLE, triangle),
            search_nodes=0,
        )
    coloring, nodes = color_search(co, 3)
    if coloring is None:
        return RealizabilityVerdict(
            realizable=False,
            certificate=None,
            violation=Violation(VIOLATION_NOT_3_COLORABLE),
            search_nodes=nodes,
        )
    return RealizabilityVerdict(
        realizable=True, certificate=coloring, violation=None, search_nodes=nodes
    )


def orient_from_coloring(f: LabeledGraph, coloring: Coloring) -> Orientation:
    """Direct every edge of f from lower to higher color index.

    Needs a proper coloring with at most 3 colors; the result is acyclic
    and has no directed path with 3 arcs, since colors only increase
    along arcs and there are at most 3 levels.
    """
    if coloring.num_colors() > 3:
        raise ValueError("coloring uses more than 3 colors")
    masks = coloring.class_masks(f)
    if masks is None:
        raise ValueError("coloring is not proper on the graph")
    above = {c: sum(m for d, m in masks.items() if d > c) for c in masks}
    colors = (coloring.assignment[v] for v in f.vertices)
    return Orientation.from_out_rows(f, [row & above[c] for row, c in zip(f.rows, colors)])


class OrientationViolation(NamedTuple):
    kind: str  # "cycle" | "directed-3-path" | "triangle"
    vertices: tuple[str, ...]


def validate_frobenius_orientation(o: Orientation) -> list[OrientationViolation]:
    """Empty list iff o is acyclic, has no directed 3-path, and its
    underlying graph is triangle-free.

    Witnesses are chosen deterministically (least under vertex order) so
    repeated runs report identical violations.  An orientation does not
    change once built, so o keeps this verdict and the witness searches run
    once per orientation; each call returns a fresh list.
    """
    kept = vars(o)
    if "_violations" not in kept:
        witnesses = (
            ("cycle", _least_cycle(o)),
            ("directed-3-path", _least_directed_3_path(o)),
            ("triangle", find_triangle(o.underlying)),
        )
        kept["_violations"] = tuple(
            OrientationViolation(kind, w) for kind, w in witnesses if w is not None
        )
    return list(kept["_violations"])


def _least_cycle(o: Orientation) -> tuple[str, ...] | None:
    # Peeling sinks leaves what reaches a cycle, and nothing peeled leads
    # back into it.  Then the shortest directed cycle through the earliest
    # possible vertex, by BFS preferring lower-position successors.
    out = o.out_rows
    left = (1 << len(out)) - 1
    while sinks := sum(1 << i for i in _bits(left) if not out[i] & left):
        left ^= sinks
    for start in _bits(left):
        parent = {}
        frontier = [start]
        seen = 1 << start
        while frontier:
            nxt = []
            for x in frontier:
                if out[x] >> start & 1:
                    cycle = [x]
                    while cycle[-1] != start:
                        cycle.append(parent[cycle[-1]])
                    return tuple(o.vertices[i] for i in reversed(cycle))
                new = out[x] & left & ~seen
                seen |= new
                for y in _bits(new):
                    parent[y] = x
                    nxt.append(y)
            frontier = nxt
    return None


def _least_directed_3_path(o: Orientation) -> tuple[str, ...] | None:
    out = o.out_rows
    inner = ~o.sinks
    # paths are visited in lexicographic position order: the first is least;
    # the vertices are distinct once d != a, as no edge points both ways
    for a, row in enumerate(out):
        for b in _bits(row & inner):
            for c in _bits(out[b] & inner):
                ends = out[c] & ~(1 << a)
                if ends:
                    d = (ends & -ends).bit_length() - 1
                    return tuple(o.vertices[i] for i in (a, b, c, d))
    return None


GIRTH_3 = "girth3"
EXCEPTIONAL = "exceptional"
NOT_REALIZABLE = "not-realizable"


class GirthClassification(NamedTuple):
    status: str  # GIRTH_3 | EXCEPTIONAL | NOT_REALIZABLE
    kind: str | None = None  # "C4" | "C5" | "forest-1".."forest-7"


@lru_cache(maxsize=1)
def exceptional_forests() -> tuple[LabeledGraph, ...]:
    """The 7 forests without an independent set of size 3, up to isomorphism,
    by vertex count and then edge count.

    Computed by exhaustive generation over at most 4 vertices (any forest
    on 5 or more vertices has an independent set of size 3), never
    hard-coded.  No two of them have the same vertex and edge counts.  An
    independent set of size 3 is a triangle of the complement.
    """
    from .census import enumerate_graphs

    found = [
        g
        for n in range(1, 5)
        for g in enumerate_graphs(n)
        if girth(g) == INFINITE_GIRTH and find_triangle(complement(g)) is None
    ]
    return tuple(sorted(found, key=_size))


def _size(g: LabeledGraph) -> tuple[int, int]:
    """Vertex and edge count, the edges counted on the rows: reading g.edges
    would build the edge set."""
    return g.n, sum(map(int.bit_count, g.rows)) // 2


def classify_girth(g: LabeledGraph) -> GirthClassification:
    """Realizable graphs have girth 3 except C4, C5, and the 7 forests.

    Each exception is told by an invariant.  A graph whose girth is its
    vertex count is that cycle, since a chord would close a shorter one.
    A realizable graph has no independent set of size 3, so a realizable
    forest is one of the 7, and those differ in vertex or edge count.
    """
    if not is_solvable_prime_graph(g).realizable:
        return GirthClassification(NOT_REALIZABLE)
    value = girth(g)
    if value == 3:
        return GirthClassification(GIRTH_3)
    if value == INFINITE_GIRTH:
        for i, forest in enumerate(exceptional_forests(), start=1):
            if _size(forest) == _size(g):
                return GirthClassification(EXCEPTIONAL, f"forest-{i}")
        raise AssertionError("realizable forest outside the exceptional list")
    if value in (4, 5) and value == g.n:
        return GirthClassification(EXCEPTIONAL, f"C{value}")
    raise AssertionError("realizable graph with unclassified girth")
