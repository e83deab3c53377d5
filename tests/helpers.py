"""Shared test fixtures and independent oracles.

The oracles here deliberately avoid the library's algorithms: coloring by
enumerating all labelings, triangles by scanning vertex triples, girth by
trying every cycle length, and orientation existence by backtracking over
edge directions.  They are the second route in every dual check.

reference_color_search and reference_lex_least_coloring are the library's
earlier plain backtracking searches, kept unchanged: the current searches
must reproduce their colorings (and node counts) exactly.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations, permutations, product
from operator import mul

from solvgraph import (
    Coloring,
    LabeledGraph,
    Orientation,
    canonical_form,
    canonical_graph,
    complement,
    cycle_graph,
    enumerate_graphs,
    find_triangle,
    synthesize,
)
from solvgraph.model import GroupModel
from solvgraph.modmat import to_rows


# -- named graphs -----------------------------------------------------------


def mycielski(g: LabeledGraph) -> LabeledGraph:
    """Triangle-free chromatic-number lift: each vertex gets a mirror tied
    to its neighborhood, plus a hub over the mirrors."""
    mirror = {v: v + "~" for v in g.vertices}
    hub = "hub"
    vertices = list(g.vertices) + [mirror[v] for v in g.vertices] + [hub]
    edges = list(g.edges)
    adj = g.adjacency()
    for v in g.vertices:
        edges.extend((mirror[v], w) for w in adj[v])
        edges.append((mirror[v], hub))
    return LabeledGraph(vertices, edges)


def grotzsch() -> LabeledGraph:
    return mycielski(cycle_graph("abcde"))


def numbered(g: LabeledGraph) -> LabeledGraph:
    """g with its vertices renamed "0", "1", ... in vertex order, so that
    mycielski can be applied again."""
    name = {v: str(i) for i, v in enumerate(g.vertices)}
    return LabeledGraph(name.values(), [(name[u], name[v]) for u, v in g.edges])


def six_prime_example_orientation() -> Orientation:
    """The 6-vertex digraph on {2,3,5,11,23,31} used as a running example."""
    from solvgraph import orientation_from_arcs

    return orientation_from_arcs(
        ["2", "3", "5", "11", "23", "31"],
        [
            ("2", "23"),
            ("3", "23"),
            ("2", "31"),
            ("3", "31"),
            ("5", "11"),
            ("5", "31"),
            ("11", "23"),
        ],
    )


def six_prime_example_graph() -> LabeledGraph:
    return LabeledGraph(
        ["2", "3", "5", "11", "23", "31"],
        [
            ("2", "3"),
            ("2", "5"),
            ("2", "11"),
            ("3", "5"),
            ("3", "11"),
            ("5", "23"),
            ("11", "31"),
            ("23", "31"),
        ],
    )


def pentagon_orientation() -> Orientation:
    """The unique (up to isomorphism) valid orientation of the 5-cycle's
    complement: two sources, one double, two sinks."""
    from solvgraph import orientation_from_arcs

    return orientation_from_arcs(
        ["p1", "p2", "p3", "p4", "p5"],
        [("p1", "p3"), ("p3", "p4"), ("p1", "p5"), ("p2", "p4"), ("p2", "p5")],
    )


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> LabeledGraph:
    labels = [str(i) for i in range(n)]
    edges = [
        (labels[i], labels[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return LabeledGraph(labels, edges)


def maximal_triangle_free(rng: random.Random, n: int) -> LabeledGraph:
    """Insert all vertex pairs in random order, skipping any that would
    close a triangle."""
    pairs = list(combinations(range(n), 2))
    rng.shuffle(pairs)
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in pairs:
        if not adj[u] & adj[v]:
            adj[u].add(v)
            adj[v].add(u)
    return LabeledGraph(
        [str(i) for i in range(n)],
        [(str(u), str(v)) for u in range(n) for v in adj[u] if u < v],
    )


def planted_three_colorable(rng: random.Random, n: int, m: int) -> LabeledGraph:
    """m random edges between the classes of a random 3-labeling, vertices
    in random order (no order that makes the least coloring easy)."""
    label = [rng.randrange(3) for _ in range(n)]
    pairs = [(u, v) for u, v in combinations(range(n), 2) if label[u] != label[v]]
    names = [str(i) for i in range(n)]
    rng.shuffle(names)
    return LabeledGraph(
        [str(i) for i in range(n)],
        [(names[u], names[v]) for u, v in rng.sample(pairs, min(m, len(pairs)))],
    )


def relabeled(g: LabeledGraph, rng: random.Random) -> LabeledGraph:
    new = [f"r{i}" for i in range(g.n)]
    rng.shuffle(new)
    rename = dict(zip(g.vertices, new))
    return LabeledGraph(
        sorted(new), [(rename[u], rename[v]) for u, v in g.edges]
    )


# -- brute-force oracles -----------------------------------------------------


def oracle_has_triangle(g: LabeledGraph) -> bool:
    return any(
        g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)
        for a, b, c in combinations(g.vertices, 3)
    )


def oracle_colorable(g: LabeledGraph, k: int) -> bool:
    """Try all k**n color assignments."""
    for assignment in product(range(k), repeat=g.n):
        colors = dict(zip(g.vertices, assignment))
        if all(colors[u] != colors[v] for u, v in g.edges):
            return True
    return False


def oracle_lex_least_coloring(g: LabeledGraph, k: int) -> tuple[int, ...] | None:
    """First proper labeling in lexicographic order over all k**n."""
    for assignment in product(range(k), repeat=g.n):
        colors = dict(zip(g.vertices, assignment))
        if all(colors[u] != colors[v] for u, v in g.edges):
            return assignment
    return None


def oracle_least_directed_3_path(o: Orientation) -> tuple[str, ...] | None:
    """Least 4-tuple of distinct vertices, compared by vertex positions,
    whose consecutive pairs are arcs; a minimum over all 4-tuples."""
    position = {v: i for i, v in enumerate(o.vertices)}
    paths = [
        path
        for path in permutations(o.vertices, 4)
        if all((path[i], path[i + 1]) in o.arcs for i in range(3))
    ]
    return min(paths, key=lambda path: [position[v] for v in path], default=None)


def oracle_girth(g: LabeledGraph):
    """Smallest L such that some L-subset carries a spanning cycle."""
    import math

    for length in range(3, g.n + 1):
        for subset in combinations(g.vertices, length):
            first = subset[0]
            for rest in permutations(subset[1:]):
                cycle = (first,) + rest
                if all(
                    g.has_edge(cycle[i], cycle[(i + 1) % length])
                    for i in range(length)
                ):
                    return length
    return math.inf


@lru_cache(maxsize=None)
def unpruned_generation(n: int, triangle_free: bool) -> tuple[LabeledGraph, ...]:
    """All graphs on n vertices up to isomorphism by plain augmentation.

    Every neighbour set (every independent set, with ``triangle_free``) of
    a new vertex over every (n-1)-vertex class, deduplicated by
    canonical_form with nothing skipped before it; canonically labeled and
    sorted by canonical form, as enumerate_graphs promises.
    """
    if n == 0:
        return (LabeledGraph((), ()),)
    children: dict[bytes, LabeledGraph] = {}
    new = str(n - 1)
    for parent in unpruned_generation(n - 1, triangle_free):
        for size in range(n):
            for attach in combinations(parent.vertices, size):
                if triangle_free and any(
                    parent.has_edge(u, v) for u, v in combinations(attach, 2)
                ):
                    continue
                child = LabeledGraph(
                    parent.vertices + (new,),
                    list(parent.edges) + [(u, new) for u in attach],
                )
                children.setdefault(canonical_form(child), child)
    return tuple(canonical_graph(children[form]) for form in sorted(children))


def edge_rows(g: LabeledGraph) -> list[int]:
    """Neighbour bit masks by vertex position, from g.vertices and g.edges."""
    position = {v: i for i, v in enumerate(g.vertices)}
    rows = [0] * g.n
    for u, v in g.edges:
        rows[position[u]] |= 1 << position[v]
        rows[position[v]] |= 1 << position[u]
    return rows


def reference_color_search(g: LabeledGraph, k: int) -> tuple[Coloring | None, int]:
    """Exact backtracking k-coloring with saturation-degree ordering.

    Returns (coloring or None, number of assignments tried).  A None
    result is a proof by exhaustion that no proper k-coloring exists.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = g.n
    if n == 0:
        return Coloring({}), 0
    rows = edge_rows(g)
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


def reference_lex_least_coloring(g: LabeledGraph, k: int = 3) -> Coloring | None:
    """The lexicographically least proper <=k-coloring in vertex order.

    Deterministic anchor for the canonical orientation: backtracking in
    vertex order trying color indices ascending returns the least color
    sequence first.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = g.n
    rows = edge_rows(g)
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


def reference_verdict_document(g: LabeledGraph) -> dict:
    """The check document of g from complement, find_triangle and
    reference_color_search, written out field by field."""
    co = complement(g)
    triangle = find_triangle(co)
    if triangle is not None:
        coloring, nodes = None, 0
        violation = {"kind": "triangle-in-complement", "vertices": list(triangle)}
    else:
        coloring, nodes = reference_color_search(co, 3)
        violation = (
            None
            if coloring is not None
            else {"kind": "complement-not-3-colorable", "vertices": []}
        )
    return {
        "schema": "solvgraph.check/1",
        "realizable": coloring is not None,
        "search_nodes": nodes,
        "coloring": None if coloring is None else dict(sorted(coloring.assignment.items())),
        "violation": violation,
    }


def oracle_max_clique(g: LabeledGraph) -> int:
    best = 0
    for size in range(g.n, 0, -1):
        for subset in combinations(g.vertices, size):
            if all(g.has_edge(u, v) for u, v in combinations(subset, 2)):
                return size
    return best


def all_valid_orientations(f: LabeledGraph):
    """Backtracking search over edge directions, independent of coloring.

    Yields exactly the orientations accepted by the validator: partial
    assignments are pruned on directed cycles and directed 3-paths, and a
    triangle in f rules everything out up front.
    """
    if find_triangle(f) is not None:
        return
    edges = f.sorted_edges()
    arcs: list[tuple[str, str]] = []
    out: dict[str, set[str]] = {v: set() for v in f.vertices}

    def has_cycle() -> bool:
        state: dict[str, int] = {}

        def visit(v: str) -> bool:
            state[v] = 1
            for w in out[v]:
                s = state.get(w)
                if s == 1:
                    return True
                if s is None and visit(w):
                    return True
            state[v] = 2
            return False

        return any(state.get(v) is None and visit(v) for v in f.vertices)

    def longest_path_arcs() -> int:
        memo: dict[str, int] = {}

        def down(v: str) -> int:
            if v in memo:
                return memo[v]
            memo[v] = 0
            memo[v] = max((1 + down(w) for w in out[v]), default=0)
            return memo[v]

        return max((down(v) for v in f.vertices), default=0)

    def rec(i: int):
        if i == len(edges):
            yield Orientation(f, list(arcs))
            return
        u, v = edges[i]
        for a, b in ((u, v), (v, u)):
            out[a].add(b)
            arcs.append((a, b))
            if not has_cycle() and longest_path_arcs() <= 2:
                yield from rec(i + 1)
            out[a].remove(b)
            arcs.pop()

    yield from rec(0)


def model_sigma_by_enumeration(model: GroupModel) -> int:
    """Max distinct primes in one element order, from the K sweep used by
    the brute-force edge oracle, in dense matrix arithmetic."""
    best = 0
    ranges = [range(p) for _, p, _ in model.k_factors]
    for k in product(*ranges):
        n_k = model.k_order(k)
        count = sum(1 for _, p, _ in model.k_factors if n_k % p == 0)
        for j, f in enumerate(model.modules):
            transfer = dense_transfer(dense_rho(model, j, k), n_k, f.prime)
            if any(any(row) for row in transfer):
                count += 1
        best = max(best, count)
    return best


# -- dense matrices over GF(r), as lists of rows --------------------------------


def dense_identity(dim: int) -> list[list[int]]:
    return [[int(i == j) for j in range(dim)] for i in range(dim)]


def dense_mul(a, b, r: int) -> list[list[int]]:
    columns = list(zip(*b))
    return [[sum(map(mul, row, col)) % r for col in columns] for row in a]


def dense_add(a, b, r: int) -> list[list[int]]:
    return [[(x + y) % r for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def dense_pow(a, e: int, r: int) -> list[list[int]]:
    result = dense_identity(len(a))
    base = a
    while e:
        if e & 1:
            result = dense_mul(result, base, r)
        base = dense_mul(base, base, r)
        e >>= 1
    return result


def dense_transfer(a, n: int, r: int) -> list[list[int]]:
    """I + a + ... + a**(n-1), by halving."""

    def halve(n: int):
        # (I + a + ... + a**(n-1), a**n)
        if n == 0:
            return [[0] * len(a) for _ in a], dense_identity(len(a))
        total, power = halve(n // 2)
        total = dense_add(total, dense_mul(power, total, r), r)
        power = dense_mul(power, power, r)
        if n % 2:
            total = dense_add(total, power, r)
            power = dense_mul(power, a, r)
        return total, power

    return halve(n)[0]


def dense_apply(a, v, r: int) -> tuple[int, ...]:
    return tuple(sum(map(mul, row, v)) % r for row in a)


def dense_nullity(a, r: int) -> int:
    """dim ker(a) over GF(r), by Gaussian elimination."""
    m = [[x % r for x in row] for row in a]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][col], -1, r)
        m[rank] = [x * inv % r for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                factor = m[i][col]
                m[i] = [(x - factor * y) % r for x, y in zip(m[i], m[rank])]
        rank += 1
    return len(m[0]) - rank if m else 0


def dense_rho(model: GroupModel, j: int, k: tuple[int, ...]) -> list[list[int]]:
    """Action of the K element k on module j, multiplied out from the
    plan's dense rows: double coordinates first, then source coordinates."""
    f = model.modules[j]
    spec = model.plan.modules.get(f.vertex)
    rows = spec.generator_action if spec is not None else {}
    mat = dense_identity(f.dim)
    for role_wanted in ("D", "O"):
        for i, (v, _, role) in enumerate(model.k_factors):
            if role == role_wanted and v in rows:
                mat = dense_mul(mat, dense_pow(to_rows(rows[v]), k[i], f.prime), f.prime)
    return mat


# -- shared synthesized corpus ------------------------------------------------


@lru_cache(maxsize=1)
def orientation_sweep(max_n: int = 6) -> tuple[Orientation, ...]:
    """Every validated orientation on up to max_n vertices, one underlying
    graph per isomorphism class of triangle-free graphs."""
    found = []
    for n in range(1, max_n + 1):
        for t in enumerate_graphs(n, triangle_free=True):
            found.extend(all_valid_orientations(t))
    return tuple(found)


@lru_cache(maxsize=1)
def sweep_plans(max_n: int = 6):
    """Per-arc synthesized plans for the whole orientation sweep."""
    return tuple(
        (o, synthesize(o, congruence="per-arc")) for o in orientation_sweep(max_n)
    )
