"""Deciding which graphs occur as prime graphs of finite solvable groups.

A graph qualifies exactly when its complement is triangle-free and
3-colorable.  Positive answers carry a proper 3-coloring of the
complement as certificate; negative answers carry either a triangle of
the complement or an exhausted-search marker (non-3-colorability has no
succinct certificate, so the verdict records the search node count).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .graphs import (
    INFINITE_GIRTH,
    Coloring,
    LabeledGraph,
    Orientation,
    canonical_form,
    color_search,
    complement,
    cycle_graph,
    enumerate_graphs,
    find_triangle,
    girth,
    is_forest,
    isomorphic,
)

VIOLATION_TRIANGLE = "triangle-in-complement"
VIOLATION_NOT_3_COLORABLE = "complement-not-3-colorable"


@dataclass(frozen=True)
class Violation:
    kind: str
    vertices: tuple[str, ...] | None = None


@dataclass(frozen=True)
class RealizabilityVerdict:
    realizable: bool
    certificate: Coloring | None
    violation: Violation | None
    search_nodes: int

    def to_json_dict(self) -> dict:
        doc: dict = {
            "schema": "solvgraph.check/1",
            "realizable": self.realizable,
            "search_nodes": self.search_nodes,
        }
        doc["coloring"] = (
            None if self.certificate is None else dict(sorted(self.certificate.assignment.items()))
        )
        doc["violation"] = (
            None
            if self.violation is None
            else {
                "kind": self.violation.kind,
                "vertices": list(self.violation.vertices or ()),
            }
        )
        return doc


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
    if not coloring.is_proper_on(f):
        raise ValueError("coloring is not proper on the graph")
    arcs = []
    for u, v in f.edges:
        if coloring.color_of(u) < coloring.color_of(v):
            arcs.append((u, v))
        else:
            arcs.append((v, u))
    return Orientation(f, arcs)


@dataclass(frozen=True)
class OrientationViolation:
    kind: str  # "cycle" | "directed-3-path" | "triangle"
    vertices: tuple[str, ...]


def validate_frobenius_orientation(o: Orientation) -> list[OrientationViolation]:
    """Empty list iff o is acyclic, has no directed 3-path, and its
    underlying graph is triangle-free.

    Witnesses are chosen deterministically (least under vertex order) so
    repeated runs report identical violations.
    """
    violations = []
    cycle = _least_cycle(o)
    if cycle is not None:
        violations.append(OrientationViolation("cycle", cycle))
    path = _least_directed_3_path(o)
    if path is not None:
        violations.append(OrientationViolation("directed-3-path", path))
    triangle = find_triangle(o.underlying)
    if triangle is not None:
        violations.append(OrientationViolation("triangle", triangle))
    return violations


def _least_cycle(o: Orientation) -> tuple[str, ...] | None:
    # shortest directed cycle through the earliest possible vertex,
    # BFS preferring lower-position successors
    pos = {v: i for i, v in enumerate(o.vertices)}
    out = o.out_neighbors()
    ordered_out = {v: sorted(out[v], key=pos.get) for v in o.vertices}
    for start in o.vertices:
        parent: dict[str, str] = {}
        frontier = [start]
        seen = {start}
        while frontier:
            nxt = []
            for x in frontier:
                for y in ordered_out[x]:
                    if y == start:
                        cycle = [x]
                        while cycle[-1] != start:
                            cycle.append(parent[cycle[-1]])
                        cycle.reverse()
                        return tuple(cycle)
                    if y not in seen:
                        seen.add(y)
                        parent[y] = x
                        nxt.append(y)
            frontier = nxt
    return None


def _least_directed_3_path(o: Orientation) -> tuple[str, ...] | None:
    pos = {v: i for i, v in enumerate(o.vertices)}
    out = o.out_neighbors()
    # paths are visited in lexicographic position order: the first is least
    for a in o.vertices:
        for b in sorted(out[a], key=pos.get):
            for c in sorted(out[b], key=pos.get):
                for d in sorted(out[c], key=pos.get):
                    if len({a, b, c, d}) == 4:
                        return a, b, c, d
    return None


GIRTH_3 = "girth3"
EXCEPTIONAL = "exceptional"
NOT_REALIZABLE = "not-realizable"


@dataclass(frozen=True)
class GirthClassification:
    status: str  # GIRTH_3 | EXCEPTIONAL | NOT_REALIZABLE
    kind: str | None = None  # "C4" | "C5" | "forest-1".."forest-7"


def exceptional_forests() -> tuple[LabeledGraph, ...]:
    """The 7 forests without an independent set of size 3, up to isomorphism.

    Computed by exhaustive generation over at most 4 vertices (any forest
    on 5 or more vertices has an independent set of size 3), never
    hard-coded.
    """
    return _exceptional_forests()


@lru_cache(maxsize=1)
def _exceptional_forests() -> tuple[LabeledGraph, ...]:
    found = []
    for n in range(1, 5):
        for g in enumerate_graphs(n):
            if is_forest(g) and independence_number(g) < 3:
                found.append(g)
    found.sort(key=lambda g: (g.n, len(g.edges), canonical_form(g)))
    return tuple(found)


def independence_number(g: LabeledGraph) -> int:
    """Brute-force maximum independent set size (small graphs only)."""
    best = 0
    for size in range(g.n, 0, -1):
        for subset in combinations(g.vertices, size):
            chosen = set(subset)
            if all(not g.has_edge(u, v) for u, v in combinations(chosen, 2)):
                return size
    return best


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
