"""Minimal prime graphs: the predicate, vertex duplication, enumeration,
and the structural facts every minimal graph satisfies.

A realizable graph is minimal when it has more than one vertex, is
connected, and deleting any single edge destroys realizability.  Edge
deletion is the only move checked: removing a non-edge changes nothing,
so the definition is read over existing edges.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from .analysis import analyze
from .errors import LimitExceeded
from .graphs import (
    LabeledGraph,
    Orientation,
    _bits,
    _flipped,
    complement,
    color_with_at_most,
    is_connected,
    lex_least_coloring,
)
from .realizability import is_solvable_prime_graph, orient_from_coloring

# Every triangle-free graph on fewer vertices is 3-colourable; the Grötzsch
# graph is the smallest that is not (Chvátal 1974).
_GROTZSCH_ORDER = 11


class MinimalityReport(NamedTuple):
    minimal: bool
    failing_edge: tuple[str, str] | None
    connectivity_ok: bool
    nontrivial_ok: bool


def is_minimal(g: LabeledGraph) -> MinimalityReport:
    """Minimality report for a realizable graph.

    failing_edge is the first edge in lexicographic order whose removal
    leaves a realizable graph; its presence refutes minimality.  An edge
    whose endpoints share a neighbour in the complement is passed over
    without a verdict: removing it puts a triangle in the complement.
    Removing any other edge leaves a triangle-free complement, so below
    11 vertices (the order of the Grötzsch graph, the smallest
    triangle-free graph that is not 3-colourable) the first such edge
    fails without a verdict; from 11 vertices on each gets one.
    """
    if not is_solvable_prime_graph(g).realizable:
        raise ValueError("graph is not realizable; minimality is undefined")
    return _minimality(g)


def _minimality(g: LabeledGraph) -> MinimalityReport:
    """is_minimal's report on a graph already known to be realizable."""
    nontrivial_ok = g.n > 1
    connectivity_ok = is_connected(g)
    failing_edge = _failing_edge(g) if nontrivial_ok and connectivity_ok else None
    minimal = nontrivial_ok and connectivity_ok and failing_edge is None
    return MinimalityReport(minimal, failing_edge, connectivity_ok, nontrivial_ok)


def _failing_edge(g: LabeledGraph) -> tuple[str, str] | None:
    """The first edge ij, i < j in vertex order, whose removal leaves the
    realizable graph g realizable, or None."""
    rows = g.rows
    full = (1 << g.n) - 1
    needs_verdicts = g.n >= _GROTZSCH_ORDER
    for i, row in enumerate(rows):
        for j in _bits(row >> i + 1 << i + 1):
            if full & ~(row | rows[j]):
                # i and j have a common neighbour in the complement, where
                # the edge ij closes a triangle
                continue
            # else the complement plus ij is triangle-free, and below the
            # Grötzsch order also 3-colourable: g less ij is realizable
            if not needs_verdicts or is_solvable_prime_graph(_flipped(g, i, j)).realizable:
                return g.vertices[i], g.vertices[j]
    return None


def linked_vertex_duplication(
    g: LabeledGraph, v: str, new_label: str | None = None
) -> LabeledGraph:
    """Add a twin of v adjacent to v and to every neighbor of v.

    The default fresh label is v with prime marks appended; a given label
    is stored as str(new_label), as the constructors store labels.
    """
    i = g.position(v)
    if new_label is None:
        new_label = g.vertices[i] + "'"
        while new_label in g.vertices:
            new_label += "'"
    elif (new_label := str(new_label)) in g.vertices:
        raise ValueError(f"label {new_label!r} already in use")
    twin = g.rows[i] | 1 << i
    rows = [row | (twin >> j & 1) << g.n for j, row in enumerate(g.rows)]
    return LabeledGraph.from_rows(g.vertices + (new_label,), rows + [twin])


def enumerate_minimal(n: int) -> tuple[LabeledGraph, ...]:
    """All minimal prime graphs on exactly n vertices up to isomorphism.

    Candidates are complements of triangle-free graphs (minimal graphs
    are realizable, so their complements are triangle-free); generation
    runs up to isomorphism and the minimality filter does the rest.
    Deterministic order by canonical form.
    """
    if not 1 <= n <= 9:
        raise ValueError("n must be between 1 and 9")
    return _enumerate_minimal(n)


@lru_cache(maxsize=None)
def _enumerate_minimal(n: int) -> tuple[LabeledGraph, ...]:
    from .census import canonical_form, enumerate_graphs

    found: list[tuple[bytes, LabeledGraph]] = []
    # Every candidate is realizable, so none needs is_minimal's opening
    # verdict: its complement is triangle-free on at most 9 vertices, hence
    # 3-colourable (the smallest triangle-free graph that is not, Grötzsch's,
    # has 11).  Below 11 vertices _minimality runs no per-edge verdict
    # either, so up to n = 10 no candidate runs a colouring search.
    for t in enumerate_graphs(n, triangle_free=True):
        g = complement(t)
        if _minimality(g).minimal:
            found.append((canonical_form(g), g))
    found.sort(key=lambda pair: pair[0])
    return tuple(g for _, g in found)


def contains_induced_c5(g: LabeledGraph) -> tuple[str, ...] | None:
    """First vertex subset (in lexicographic order) inducing a 5-cycle."""
    rows = g.rows
    for subset in combinations(range(g.n), 5):
        chosen = sum(1 << i for i in subset)
        # 2-regular on 5 vertices is the 5-cycle: no cycle has 2 vertices
        if all((rows[i] & chosen).bit_count() == 2 for i in subset):
            return tuple(g.vertices[i] for i in subset)
    return None


def canonical_orientation(g: LabeledGraph) -> Orientation:
    """Orientation of the complement induced by its lexicographically least
    proper 3-coloring; the deterministic digraph used for lemma checks."""
    co = complement(g)
    coloring = lex_least_coloring(co, 3)
    if coloring is None:
        raise ValueError("complement is not 3-colorable")
    return orient_from_coloring(co, coloring)


class MinimalLemmaReport(NamedTuple):
    complement_not_2_colorable: bool
    no_complement_singletons: bool
    has_induced_c5: bool
    partition_classes_nonempty: bool

    @property
    def all_pass(self) -> bool:
        return (
            self.complement_not_2_colorable
            and self.no_complement_singletons
            and self.has_induced_c5
            and self.partition_classes_nonempty
        )


def check_minimal_lemmas(g: LabeledGraph) -> MinimalLemmaReport:
    """Structural facts that hold for every minimal graph.

    Checked: the complement is not 2-colorable and has no isolated
    vertices, the graph contains an induced 5-cycle, and sources, doubles
    and sinks are all nonempty on the canonical orientation.
    """
    if not is_minimal(g).minimal:
        raise ValueError("lemma checks apply to minimal graphs only")
    co = complement(g)
    not_2_colorable = color_with_at_most(co, 2) is None
    no_singletons = all(co.degree(v) > 0 for v in co.vertices)
    induced_c5 = contains_induced_c5(g) is not None
    a = analyze(canonical_orientation(g))
    nonempty = bool(a.o_set) and bool(a.d_set) and bool(a.i_set)
    return MinimalLemmaReport(
        complement_not_2_colorable=not_2_colorable,
        no_complement_singletons=no_singletons,
        has_induced_c5=induced_c5,
        partition_classes_nonempty=nonempty,
    )


def duplication_reachable(
    start: LabeledGraph, max_vertices: int
) -> frozenset[bytes]:
    """Canonical forms of graphs reachable from start by repeated linked
    vertex duplication, up to max_vertices vertices (bounded BFS)."""
    if max_vertices > 12:
        raise LimitExceeded("duplication closure explored up to 12 vertices only")
    from .census import canonical_form

    seen: set[bytes] = set()
    frontier = [start]
    seen.add(canonical_form(start, max_vertices))
    while frontier:
        nxt = []
        for g in frontier:
            if g.n >= max_vertices:
                continue
            for v in g.vertices:
                child = linked_vertex_duplication(g, v)
                key = canonical_form(child, max_vertices)
                if key not in seen:
                    seen.add(key)
                    nxt.append(child)
        frontier = nxt
    return frozenset(seen)
