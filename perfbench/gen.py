"""Seeded inputs and independent output checks for the benchmark.

Graphs are built here as adjacency sets over 0..n-1 and handed to the
library only as finished ``LabeledGraph`` / ``Orientation`` values.  The
checks re-derive each claimed property from the raw edges with plain
Python and share no code with ``solvgraph`` or ``tests/helpers.py``.
"""

from __future__ import annotations

import hashlib
from itertools import combinations
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

Adj = list[set[int]]


# -- graph6, encoded and decoded independently of solvgraph.formats ---------------


def graph6(n: int, edges) -> bytes:
    """Standard graph6 of a graph on vertices 0..n-1 (n <= 62)."""
    present = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [1 if (i, j) in present else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    out = bytearray([n + 63])
    for k in range(0, len(bits), 6):
        value = 0
        for b in bits[k : k + 6]:
            value = value << 1 | b
        out.append(value + 63)
    return bytes(out)


def parse_graph6(line: str) -> tuple[int, list[tuple[int, int]]]:
    data = line.strip().encode("ascii")
    n = data[0] - 63
    bits = []
    for byte in data[1:]:
        value = byte - 63
        bits.extend(value >> s & 1 for s in range(5, -1, -1))
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    return n, [pair for pair, bit in zip(pairs, bits) if bit]


def graph6_of(g) -> bytes:
    """graph6 of a LabeledGraph in its own vertex order."""
    pos = {v: i for i, v in enumerate(g.vertices)}
    return graph6(len(g.vertices), [(pos[u], pos[v]) for u, v in g.edges])


def digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
        h.update(b"\n")
    return h.hexdigest()


# -- random graph families ---------------------------------------------------------


def empty_adj(n: int) -> Adj:
    return [set() for _ in range(n)]


def greedy_triangle_free(n: int, pairs, limit: int | None = None) -> Adj:
    """Insert pairs in the given order, skipping any that closes a triangle."""
    adj = empty_adj(n)
    added = 0
    for u, v in pairs:
        if limit is not None and added >= limit:
            break
        if adj[u] & adj[v]:
            continue
        adj[u].add(v)
        adj[v].add(u)
        added += 1
    return adj


def random_triangle_free(rng, n: int, m: int) -> Adj:
    pairs = list(combinations(range(n), 2))
    rng.shuffle(pairs)
    return greedy_triangle_free(n, pairs, m)


def maximal_triangle_free(rng, n: int) -> Adj:
    pairs = list(combinations(range(n), 2))
    rng.shuffle(pairs)
    return greedy_triangle_free(n, pairs)


def planted_three_colorable(rng, n: int, m: int) -> tuple[Adj, list[int]]:
    """Triangle-free graph with a planted 3-colouring, plus a vertex order
    that lists colour class 0, then 1, then 2.

    In that order the least colour-by-colour assignment never needs to
    backtrack (a vertex of class c only sees earlier vertices coloured
    below c), so the lexicographically least colouring stays cheap at
    80 vertices; in a random order it can take minutes.
    """
    colour = [rng.randrange(3) for _ in range(n)]
    pairs = [(u, v) for u, v in combinations(range(n), 2) if colour[u] != colour[v]]
    rng.shuffle(pairs)
    adj = greedy_triangle_free(n, pairs, m)
    order = sorted(range(n), key=lambda v: (colour[v], rng.random()))
    return adj, order


def random_with_cotriangle(rng, n: int) -> Adj:
    """G(n, 1/2) with one planted independent triple, so the complement
    is certain to contain a triangle."""
    adj = empty_adj(n)
    for u, v in combinations(range(n), 2):
        if rng.random() < 0.5:
            adj[u].add(v)
            adj[v].add(u)
    a, b, c = rng.sample(range(n), 3)
    for u, v in ((a, b), (a, c), (b, c)):
        adj[u].discard(v)
        adj[v].discard(u)
    return adj


def mycielski(adj: Adj) -> Adj:
    """Mycielski lift: mirrors n..2n-1 of 0..n-1 and a hub 2n."""
    n = len(adj)
    out = empty_adj(2 * n + 1)
    for v in range(n):
        for w in adj[v]:
            out[v].add(w)
            out[v + n].add(w)
            out[w].add(v + n)
        out[v + n].add(2 * n)
        out[2 * n].add(v + n)
    return out


def cycle(n: int) -> Adj:
    adj = empty_adj(n)
    for v in range(n):
        adj[v].add((v + 1) % n)
        adj[(v + 1) % n].add(v)
    return adj


def complement_adj(adj: Adj) -> Adj:
    n = len(adj)
    everyone = set(range(n))
    return [everyone - adj[v] - {v} for v in range(n)]


def labeled(adj: Adj, labels: list[str], order: list[int] | None = None):
    """LabeledGraph with vertex v named labels[v], listed in ``order``."""
    from solvgraph import LabeledGraph

    order = list(range(len(adj))) if order is None else order
    edges = [(labels[u], labels[v]) for u in range(len(adj)) for v in adj[u] if u < v]
    return LabeledGraph([labels[v] for v in order], edges)


def relabeled(rng, adj: Adj):
    """The same graph under fresh random names and a random vertex order."""
    names = [f"x{i}" for i in range(len(adj))]
    rng.shuffle(names)
    order = list(range(len(adj)))
    rng.shuffle(order)
    return labeled(adj, names, order)


# -- the validated orientations on at most 6 vertices ------------------------------


def triangle_free_classes() -> list[tuple[int, list[tuple[int, int]]]]:
    """One graph per isomorphism class of triangle-free graphs on 1..6
    vertices, stored as graph6 in data/."""
    text = (DATA / "triangle_free_upto6.g6").read_text(encoding="ascii")
    return [parse_graph6(line) for line in text.split()]


def valid_orientations(n: int, edges: list[tuple[int, int]]):
    """Every orientation with no directed cycle and no directed path of
    three arcs, by backtracking over edges with pruning."""
    out = empty_adj(n)
    arcs: list[tuple[int, int]] = []

    def longest_from(v: int, on_path: set[int]) -> int:
        # -1 marks a directed cycle
        best = 0
        for w in out[v]:
            if w in on_path:
                return -1
            on_path.add(w)
            sub = longest_from(w, on_path)
            on_path.discard(w)
            if sub < 0:
                return -1
            best = max(best, sub + 1)
        return best

    def admissible() -> bool:
        for v in range(n):
            length = longest_from(v, {v})
            if length < 0 or length > 2:
                return False
        return True

    def rec(i: int):
        if i == len(edges):
            yield list(arcs)
            return
        u, v = edges[i]
        for a, b in ((u, v), (v, u)):
            out[a].add(b)
            arcs.append((a, b))
            if admissible():
                yield from rec(i + 1)
            arcs.pop()
            out[a].discard(b)

    yield from rec(0)


def orientation_sweep():
    from solvgraph import orientation_from_arcs

    found = []
    for n, edges in triangle_free_classes():
        labels = [str(i) for i in range(n)]
        for arcs in valid_orientations(n, edges):
            found.append(
                orientation_from_arcs(labels, [(labels[a], labels[b]) for a, b in arcs])
            )
    return found


def pentagon_orientation():
    from solvgraph import orientation_from_arcs

    return orientation_from_arcs(
        ["p1", "p2", "p3", "p4", "p5"],
        [("p1", "p3"), ("p3", "p4"), ("p1", "p5"), ("p2", "p4"), ("p2", "p5")],
    )


# -- independent checks ------------------------------------------------------------


def edge_set(g) -> set[frozenset]:
    return {frozenset(e) for e in g.edges}


def is_triangle_free(g) -> bool:
    adj = {v: set() for v in g.vertices}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return not any(adj[u] & adj[v] for u, v in g.edges)


def complement_coloring_ok(g, assignment: dict) -> bool:
    """assignment is a proper colouring with at most 3 colours of the
    complement of g: every non-adjacent pair of g gets different colours."""
    if set(assignment) != set(g.vertices) or len(set(assignment.values())) > 3:
        return False
    edges = edge_set(g)
    return all(
        assignment[u] != assignment[v] or frozenset((u, v)) in edges
        for u, v in combinations(g.vertices, 2)
    )


def cotriangle_ok(g, witness) -> bool:
    """witness is three distinct vertices of g, pairwise non-adjacent."""
    if witness is None or len(set(witness)) != 3 or not set(witness) <= set(g.vertices):
        return False
    edges = edge_set(g)
    return not any(frozenset(p) in edges for p in combinations(witness, 2))


def orients_complement(o, g) -> bool:
    """o's arcs are exactly the non-edges of g, each once."""
    edges = edge_set(g)
    expected = {
        frozenset(p) for p in combinations(g.vertices, 2) if frozenset(p) not in edges
    }
    return len(o.arcs) == len(expected) and {frozenset(a) for a in o.arcs} == expected
