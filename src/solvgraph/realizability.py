"""Deciding which graphs occur as prime graphs of finite solvable groups.

A graph qualifies exactly when its complement is triangle-free and
3-colorable.  Positive answers carry a proper 3-coloring of the
complement as certificate; negative answers carry either a triangle of
the complement or an exhausted-search marker (non-3-colorability has no
succinct certificate, so the verdict records the search node count).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from .graphs import (
    INFINITE_GIRTH,
    Coloring,
    LabeledGraph,
    Orientation,
    _bits,
    canonical_form,
    color_search,
    complement,
    cycle_graph,
    enumerate_graphs,
    find_triangle,
    girth,
    isomorphic,
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
    repeated runs report identical violations.
    """
    witnesses = (
        ("cycle", _least_cycle(o)),
        ("directed-3-path", _least_directed_3_path(o)),
        ("triangle", find_triangle(o.underlying)),
    )
    return [OrientationViolation(kind, w) for kind, w in witnesses if w is not None]


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
    """The 7 forests without an independent set of size 3, up to isomorphism.

    Computed by exhaustive generation over at most 4 vertices (any forest
    on 5 or more vertices has an independent set of size 3), never
    hard-coded.
    """
    found = [
        g
        for n in range(1, 5)
        for g in enumerate_graphs(n)
        if girth(g) == INFINITE_GIRTH and independence_number(g) < 3
    ]
    return tuple(sorted(found, key=lambda g: (g.n, len(g.edges), canonical_form(g))))


def independence_number(g: LabeledGraph) -> int:
    """Brute-force maximum independent set size (small graphs only)."""
    for size in range(g.n, 0, -1):
        for subset in combinations(range(g.n), size):
            chosen = sum(1 << i for i in subset)
            if not any(g.rows[i] & chosen for i in subset):
                return size
    return 0


def classify_girth(g: LabeledGraph) -> GirthClassification:
    """Realizable graphs have girth 3 except C4, C5, and the 7 forests."""
    if not is_solvable_prime_graph(g).realizable:
        return GirthClassification(NOT_REALIZABLE)
    value = girth(g)
    if value == 3:
        return GirthClassification(GIRTH_3)
    if value == INFINITE_GIRTH:
        for i, forest in enumerate(exceptional_forests(), start=1):
            if isomorphic(g, forest):
                return GirthClassification(EXCEPTIONAL, f"forest-{i}")
        raise AssertionError("realizable forest outside the exceptional list")
    if value == 4 and isomorphic(g, cycle_graph("abcd")):
        return GirthClassification(EXCEPTIONAL, "C4")
    if value == 5 and isomorphic(g, cycle_graph("abcde")):
        return GirthClassification(EXCEPTIONAL, "C5")
    raise AssertionError("realizable graph with unclassified girth")
