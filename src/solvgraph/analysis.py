"""Structure of a validated orientation: source/double/sink partition and
the derived vertex sets used by the minimal-graph theory.

Vertices split into sources O (zero in-degree, nonzero out-degree),
doubles D (both degrees nonzero), and sinks I (zero out-degree, isolated
vertices included), read from the Orientation's role masks.  On top of
the partition sit Pi (sinks with a nonempty 2-in-neighborhood), Phi (the
remaining sinks), and the four source subsets built from O1(p) =
1-in-neighbors of p inside O.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .graphs import LabeledGraph, Orientation, _bits, cycle_graph, isomorphic, labels_at, mask_ring
from .realizability import validate_frobenius_orientation


@dataclass(frozen=True)
class DigraphAnalysis:
    orientation: Orientation
    o_set: frozenset[str]
    d_set: frozenset[str]
    i_set: frozenset[str]
    pi_set: frozenset[str]
    phi_set: frozenset[str]
    o1_of: dict[str, frozenset[str]]
    o1: frozenset[str]
    o1_star: frozenset[str]
    o2: frozenset[str]
    o2_star: frozenset[str]

    def to_json_dict(self) -> dict:
        order = {v: i for i, v in enumerate(self.orientation.vertices)}

        def ordered(vs) -> list[str]:
            return sorted(vs, key=order.get)

        return {
            "schema": "solvgraph.analysis/1",
            "o": ordered(self.o_set),
            "d": ordered(self.d_set),
            "i": ordered(self.i_set),
            "pi": ordered(self.pi_set),
            "phi": ordered(self.phi_set),
            "o1_of": {v: ordered(s) for v, s in sorted(self.o1_of.items(), key=lambda kv: order[kv[0]])},
            "o1": ordered(self.o1),
            "o1_star": ordered(self.o1_star),
            "o2": ordered(self.o2),
            "o2_star": ordered(self.o2_star),
        }


def analyze(o: Orientation) -> DigraphAnalysis:
    """Compute the full analysis of a validated orientation.

    Pi is always contained in the sinks here: a vertex with both a
    2-in-neighbor and an out-arc would sit inside a directed 3-path,
    which validation excludes.  When Pi is empty the intersections over
    it default to all of O (so O1* = O2 = O and O1 = O2* = empty).
    """
    violations = validate_frobenius_orientation(o)
    if violations:
        raise ValueError(f"orientation is not valid: {violations[0].kind}")
    vs = o.vertices
    into = o.in_rows
    o_mask, d_mask, i_mask = o.sources, o.doubles, o.sinks
    sinks = list(_bits(i_mask))
    # the 2-in-neighborhood of each vertex of Pi, which lies inside the sinks
    n2 = {i: far for i in sinks if (far := mask_ring(into, i, 2))}
    pi_mask = sum(1 << i for i in n2)
    # 2-in-neighbors are sources (one more arc in would make a 3-path),
    # so starting the intersections from O changes nothing
    o1 = o2_star = 0
    o1_star = o2 = o_mask
    for i, far in n2.items():
        o1 |= into[i] & o_mask
        o1_star &= into[i]
        o2 &= far
        o2_star |= far

    def labels(mask: int) -> frozenset[str]:
        return frozenset(labels_at(vs, mask))

    return DigraphAnalysis(
        orientation=o,
        o_set=labels(o_mask),
        d_set=labels(d_mask),
        i_set=labels(i_mask),
        pi_set=labels(pi_mask),
        phi_set=labels(i_mask & ~pi_mask),
        o1_of={vs[i]: labels(into[i] & o_mask) for i in sinks},
        o1=labels(o1),
        o1_star=labels(o1_star),
        o2=labels(o2),
        o2_star=labels(o2_star),
    )


@dataclass(frozen=True)
class FittingBounds:
    low: int
    high: int
    exact: int | None
    note: str


def fitting_bounds(g: LabeledGraph) -> FittingBounds:
    """Reported Fitting-length interval for groups realizing a minimal graph.

    This is lookup metadata, not a computation on g beyond the minimality
    check: such groups have Fitting length 3 or 4, and length 4 forces a
    normal section isomorphic to the binary octahedral group 2O.  The
    5-cycle is special-cased with exact length 3.
    """
    from .minimality import is_minimal

    report = is_minimal(g)
    if not report.minimal:
        raise ValueError("fitting bounds apply to minimal graphs only")
    note = (
        "Fitting length lies in [3, 4]; length 4 forces a normal section "
        "isomorphic to the binary octahedral group 2O."
    )
    exact = None
    if g.n == 5 and isomorphic(g, cycle_graph("abcde")):
        exact = 3
        note += " Groups whose prime graph is the 5-cycle have Fitting length exactly 3."
    return FittingBounds(low=3, high=4, exact=exact, note=note)


class SigmaPartitionBound(NamedTuple):
    n_vertices: int
    bound: int
    holds: bool


def sigma_partition_bound(a: DigraphAnalysis) -> SigmaPartitionBound:
    """Graph-level bound: vertex count against three times the largest class."""
    n = len(a.o_set) + len(a.d_set) + len(a.i_set)
    bound = 3 * max(len(a.o_set), len(a.d_set), len(a.i_set))
    return SigmaPartitionBound(n, bound, n <= bound)
