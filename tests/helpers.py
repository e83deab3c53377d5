"""Shared test fixtures and independent oracles.

The oracles here deliberately avoid the library's algorithms: coloring by
enumerating all labelings, triangles by scanning vertex triples, girth by
trying every cycle length, orientation existence by backtracking over
edge directions, and canonical forms by packing every relabeling.  They
are the second route in every dual check.

reference_color_search and reference_lex_least_coloring are the library's
earlier plain backtracking searches: the current searches must reproduce
their colorings (and node counts) exactly.  reference_color_search takes
the library's first-use color rule by default; break_symmetry=False is the
unpruned search, which must find the same coloring in no fewer nodes.
reference_k_multiply and reference_rho are likewise the group model's
earlier K product and module action, which read the plan's maps on every
call; the table-driven versions must reproduce them exactly.
reference_brute_force_prime_graph, reference_frobenius_digraph and
reference_round_trip_report are the model's earlier oracle (k_order for
every K element), arc-list digraph and label-based round trip; the
sieved oracle, the out-mask digraph and the out-mask round trip must give
the same graphs and reports.  transfer_sum_order is the model's earlier
element order, which summed the powers of the module action on each
coordinate; the fixed-component rule must give the same orders.
reference_validate, reference_analyze and reference_phi_sets are the
earlier orientation algorithms on dicts of neighbour sets built from the
arcs; the mask versions must reproduce their witnesses and sets exactly.
reference_graph_rows and reference_out_rows are the earlier
LabeledGraph and Orientation constructors, which passed every label
through str() before any lookup; the constructors must build the same
rows and raise the same first error.
reference_children is the earlier augmentation step of enumerate_graphs,
which scanned every neighbour mask of the new vertex; the recursive
listing must keep exactly the same children of every parent.
reference_roles is the source/double/sink partition by the same route,
and reference_validate_plan and reference_verify_module are the earlier
plan self-check, which read that partition as a role dict; the
Orientation's role masks and validate_plan must reproduce their verdicts
and problem lists exactly.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations, permutations, product
from operator import mul

from solvgraph import (
    Coloring,
    GroupPlan,
    LabeledGraph,
    Orientation,
    canonical_form,
    canonical_graph,
    complement,
    cycle_graph,
    enumerate_graphs,
    estimate_order,
    find_triangle,
    orientation_from_arcs,
    synthesize,
)
from solvgraph.analysis import DigraphAnalysis
from solvgraph.errors import LimitExceeded
from solvgraph.formats import CONGRUENCE_GLOBAL, CONGRUENCE_PER_ARC
from solvgraph.model import BRUTE_FORCE_CAP, GroupModel
from solvgraph.primes import is_prime
from solvgraph.realizability import OrientationViolation, validate_frobenius_orientation
from solvgraph.synthesis import phi_sets
from solvgraph import modmat
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
    edges = g.edges
    for assignment in product(range(k), repeat=g.n):
        colors = dict(zip(g.vertices, assignment))
        if all(colors[u] != colors[v] for u, v in edges):
            return True
    return False


def oracle_lex_least_coloring(g: LabeledGraph, k: int) -> tuple[int, ...] | None:
    """First proper labeling in lexicographic order over all k**n."""
    edges = g.edges
    for assignment in product(range(k), repeat=g.n):
        colors = dict(zip(g.vertices, assignment))
        if all(colors[u] != colors[v] for u, v in edges):
            return assignment
    return None


def oracle_least_directed_3_path(o: Orientation) -> tuple[str, ...] | None:
    """Least 4-tuple of distinct vertices, compared by vertex positions,
    whose consecutive pairs are arcs; a minimum over all 4-tuples."""
    position = {v: i for i, v in enumerate(o.vertices)}
    arcs = o.arcs
    paths = [
        path
        for path in permutations(o.vertices, 4)
        if all((path[i], path[i + 1]) in arcs for i in range(3))
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


def oracle_induced_c5(g: LabeledGraph) -> tuple[str, ...] | None:
    """First 5-subset in vertex order that carries exactly 5 edges, all on
    one spanning cycle: an induced 5-cycle."""
    edges = {frozenset(e) for e in g.edges}
    for subset in combinations(g.vertices, 5):
        if sum(frozenset(pair) in edges for pair in combinations(subset, 2)) != 5:
            continue
        for rest in permutations(subset[1:]):
            cycle = subset[:1] + rest
            if all(frozenset((cycle[i - 1], cycle[i])) in edges for i in range(5)):
                return subset
    return None


def oracle_canonical_g6(g: LabeledGraph) -> bytes:
    """Least graph6 encoding of g over all n! relabelings, by brute force.

    The relabeled edge sets are collected as the orbit of g's edge set
    under the swap (0 1) and the rotation i -> i + 1, which generate every
    permutation, so a graph with many automorphisms is packed only once
    per distinct relabeling.  The graph6 packing is written out here, not
    taken from the library.
    """
    n = g.n
    position = {v: i for i, v in enumerate(g.vertices)}
    start = frozenset(
        (min(position[u], position[v]), max(position[u], position[v])) for u, v in g.edges
    )
    generators = [tuple(range(n))]
    if n >= 2:
        generators = [(1, 0) + tuple(range(2, n)), tuple(range(1, n)) + (0,)]
    orbit = {start}
    frontier = [start]
    while frontier:
        edges = frontier.pop()
        for p in generators:
            image = frozenset((min(p[i], p[j]), max(p[i], p[j])) for i, j in edges)
            if image not in orbit:
                orbit.add(image)
                frontier.append(image)

    def packed(edges) -> bytes:
        bits = "".join(
            "1" if (i, j) in edges else "0" for j in range(1, n) for i in range(j)
        )
        bits += "0" * (-len(bits) % 6)
        return bytes([n + 63] + [63 + int(bits[k : k + 6], 2) for k in range(0, len(bits), 6)])

    return min(packed(edges) for edges in orbit)


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


def reference_children(rows: tuple[int, ...], triangle_free: bool) -> set[tuple[int, ...]]:
    """The children enumerate_graphs keeps of a parent, as rows, by the
    earlier mask scan: every neighbour mask of a new vertex (every
    independent one, with triangle_free), less those holding a twin w but
    not its twin u < w, and those giving an old vertex a larger (degree,
    sorted neighbour degrees) than the new one."""
    pn = len(rows)
    twin_pairs = [
        (u, w)
        for u, w in combinations(range(pn), 2)
        if rows[u] & ~(1 << w) == rows[w] & ~(1 << u)
    ]
    kept = set()
    for mask in range(1 << pn):
        if triangle_free and any(rows[u] & mask and mask >> u & 1 for u in range(pn)):
            continue
        if any(mask >> w & 1 and not mask >> u & 1 for u, w in twin_pairs):
            continue
        child = list(rows) + [mask]
        for u in range(pn):
            if mask >> u & 1:
                child[u] |= 1 << pn
        degree = [row.bit_count() for row in child]

        def invariant(v: int) -> tuple:
            return degree[v], sorted(degree[u] for u in range(pn + 1) if child[v] >> u & 1)

        if any(invariant(u) > invariant(pn) for u in range(pn)):
            continue
        kept.add(tuple(child))
    return kept


def edge_rows(g: LabeledGraph) -> list[int]:
    """Neighbour bit masks by vertex position, from g.vertices and g.edges."""
    position = {v: i for i, v in enumerate(g.vertices)}
    rows = [0] * g.n
    for u, v in g.edges:
        rows[position[u]] |= 1 << position[v]
        rows[position[v]] |= 1 << position[u]
    return rows


def reference_graph_rows(vertices, edges) -> tuple[tuple[str, ...], tuple[int, ...], dict[str, int]]:
    """(vertices, rows, label index) by the constructor's earlier route:
    every label through str(), then each edge through the loop and
    unlisted-endpoint checks of ``LabeledGraph._pair``, in argument order."""
    vertices = tuple(str(v) for v in vertices)
    if len(set(vertices)) != len(vertices):
        raise ValueError("duplicate vertex labels")
    index = {v: i for i, v in enumerate(vertices)}
    rows = [0] * len(vertices)
    for u, v in edges:
        u, v = str(u), str(v)
        if u == v:
            raise ValueError(f"loop at vertex {u!r}")
        if u not in index or v not in index:
            raise ValueError(f"edge ({u!r}, {v!r}) has an unlisted endpoint")
        rows[index[u]] |= 1 << index[v]
        rows[index[v]] |= 1 << index[u]
    return vertices, tuple(rows), index


def reference_out_rows(underlying: LabeledGraph, arcs) -> tuple[int, ...]:
    """Out-masks by the Orientation constructor's earlier route: both
    labels through str(), then has_edge, then the twice-oriented and the
    cover checks."""
    index = {v: i for i, v in enumerate(underlying.vertices)}
    out = [0] * underlying.n
    for u, v in arcs:
        u, v = str(u), str(v)
        if not underlying.has_edge(u, v):
            raise ValueError(f"arc ({u!r}, {v!r}) is not an underlying edge")
        i, j = index[u], index[v]
        if out[j] >> i & 1:
            raise ValueError(f"edge {{{u!r}, {v!r}}} oriented twice")
        out[i] |= 1 << j
    if sum(row.bit_count() for row in out) != len(underlying.sorted_edges()):
        raise ValueError("arcs must cover every underlying edge exactly once")
    return tuple(out)


def reference_color_search(
    g: LabeledGraph, k: int, break_symmetry: bool = True
) -> tuple[Coloring | None, int]:
    """Exact backtracking k-coloring with saturation-degree ordering.

    With break_symmetry, a vertex tries the colors already used and only
    the least unused one; without it, every color: the plain search.

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
        used = len({c for c in colors if c is not None})
        for c in range(min(k, used + 1) if break_symmetry else k):
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


# -- earlier group-model arithmetic ---------------------------------------------


def reference_twist(model: GroupModel, t_exponents: dict[str, int], q_vertex: str, q: int) -> int:
    e = 1
    for (p_vertex, target), exponent in model.k_exponents.items():
        if target != q_vertex:
            continue
        power = t_exponents.get(p_vertex, 0)
        if power:
            e = e * pow(exponent, power, q) % q
    return e


def reference_k_multiply(model: GroupModel, k1: tuple[int, ...], k2: tuple[int, ...]) -> tuple[int, ...]:
    t1 = {
        v: k1[i]
        for i, (v, _, role) in enumerate(model.k_factors)
        if role == "O" and k1[i]
    }
    out = []
    for i, (v, p, role) in enumerate(model.k_factors):
        if role == "O":
            out.append((k1[i] + k2[i]) % p)
        else:
            out.append((k1[i] + k2[i] * reference_twist(model, t1, v, p)) % p)
    return tuple(out)


def reference_rho(model: GroupModel, j: int, k: tuple[int, ...]) -> modmat.Monomial:
    f = model.modules[j]
    mat = modmat.identity(f.dim)
    for role_wanted in ("D", "O"):
        for i, (v, _, role) in enumerate(model.k_factors):
            if role == role_wanted and k[i] and v in f.action:
                mat = modmat.multiply(
                    mat, modmat.power(f.action[v], k[i], f.prime), f.prime
                )
    return mat


def transfer_sum_order(model: GroupModel, x) -> int:
    """Element order by the transfer sum: the K-part order n, times each
    module prime r for which (I + M + ... + M**(n-1)) moves the module
    coordinate off zero, the sum taken by applying M to it n times."""
    n = model.k_order(x.k)
    total = n
    for j, f in enumerate(model.modules):
        action = model.rho(j, x.k)
        term, summed = x.mods[j], (0,) * f.dim
        for _ in range(n):
            summed = tuple((a + b) % f.prime for a, b in zip(summed, term))
            term = modmat.apply(action, term, f.prime)
        if any(summed):
            total *= f.prime
    return total


def reference_frobenius_digraph(model: GroupModel) -> Orientation:
    """The earlier digraph: an arc list between prime labels through the
    public constructor."""
    label = {v: str(p) for v, p, _ in model.k_factors}
    arcs = [(label[u], label[v]) for u, v in model.k_exponents]
    for f in model.modules:
        for v, mat in f.action.items():
            if not modmat.has_fixed_vector(mat, f.prime):
                arcs.append((label[v], str(f.prime)))
    return orientation_from_arcs(model._prime_labels(), arcs)


def reference_brute_force_prime_graph(model: GroupModel, cap: int = BRUTE_FORCE_CAP) -> LabeledGraph:
    """The earlier oracle: k_order for every K element."""
    if model.group_order() > cap:
        raise LimitExceeded(
            f"group order {model.group_order()} exceeds the cap {cap}"
        )
    labels = model._prime_labels()
    edges: set[tuple[str, str]] = set()
    ranges = [range(p) for _, p, _ in model.k_factors]
    for k in product(*ranges):
        n_k = model.k_order(k)
        realized = [
            str(p) for _, p, _ in model.k_factors if n_k % p == 0
        ]
        for j, f in enumerate(model.modules):
            if not modmat.transfer_is_zero(model.rho(j, k), n_k, f.prime):
                realized.append(str(f.prime))
        for u, v in combinations(realized, 2):
            edges.add((u, v))
    return LabeledGraph(labels, edges)


def reference_round_trip_report(plan: GroupPlan) -> dict:
    """The earlier round trip: label-pair sets and complement graphs."""
    report = {
        "schema": "solvgraph.verify/1",
        "plan_valid": False,
        "digraph_matches": False,
        "prime_graph_matches": False,
        "group_order": estimate_order(plan),
    }
    if plan.problems:
        return report
    model = GroupModel(plan)
    o = plan.orientation
    rename = {v: str(plan.prime_of[v]) for v in o.vertices}
    digraph = reference_frobenius_digraph(model)
    prime_graph = complement(digraph.underlying)
    expected_graph = LabeledGraph(
        [rename[v] for v in o.vertices],
        [(rename[u], rename[v]) for u, v in complement(o.underlying).edges],
    )
    report["plan_valid"] = True
    report["digraph_matches"] = set(digraph.arcs) == {(rename[u], rename[v]) for u, v in o.arcs}
    report["prime_graph_matches"] = (
        set(prime_graph.vertices) == set(expected_graph.vertices)
        and {frozenset(e) for e in prime_graph.edges}
        == {frozenset(e) for e in expected_graph.edges}
    )
    return report


# -- earlier orientation algorithms, on dicts of neighbour sets ----------------


def reference_out_neighbors(o: Orientation) -> dict[str, set[str]]:
    out: dict[str, set[str]] = {v: set() for v in o.vertices}
    for u, v in o.arcs:
        out[u].add(v)
    return out


def reference_in_neighbors(o: Orientation) -> dict[str, set[str]]:
    into: dict[str, set[str]] = {v: set() for v in o.vertices}
    for u, v in o.arcs:
        into[v].add(u)
    return into


def reference_ring(step: dict, v: str, k: int) -> frozenset[str]:
    """Vertices at distance exactly k from v along ``step``, by BFS."""
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


def reference_least_cycle(o: Orientation) -> tuple[str, ...] | None:
    # shortest directed cycle through the earliest possible vertex,
    # BFS preferring lower-position successors
    pos = {v: i for i, v in enumerate(o.vertices)}
    out = reference_out_neighbors(o)
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


def reference_least_directed_3_path(o: Orientation) -> tuple[str, ...] | None:
    pos = {v: i for i, v in enumerate(o.vertices)}
    out = reference_out_neighbors(o)
    for a in o.vertices:
        for b in sorted(out[a], key=pos.get):
            for c in sorted(out[b], key=pos.get):
                for d in sorted(out[c], key=pos.get):
                    if len({a, b, c, d}) == 4:
                        return a, b, c, d
    return None


def reference_validate(o: Orientation) -> list[OrientationViolation]:
    violations = []
    cycle = reference_least_cycle(o)
    if cycle is not None:
        violations.append(OrientationViolation("cycle", cycle))
    path = reference_least_directed_3_path(o)
    if path is not None:
        violations.append(OrientationViolation("directed-3-path", path))
    triangle = find_triangle(o.underlying)
    if triangle is not None:
        violations.append(OrientationViolation("triangle", triangle))
    return violations


def reference_analyze(o: Orientation) -> DigraphAnalysis:
    """The analysis of a valid orientation, by set operations."""
    out = reference_out_neighbors(o)
    into = reference_in_neighbors(o)
    o_set, d_set, i_set = set(), set(), set()
    for v in o.vertices:
        if not out[v]:
            i_set.add(v)
        elif into[v]:
            d_set.add(v)
        else:
            o_set.add(v)
    pi_set = {v for v in o.vertices if reference_ring(into, v, 2)}
    o1_of = {
        v: frozenset(reference_ring(into, v, 1) & o_set)
        for v in sorted(i_set, key=o.vertices.index)
    }
    n2 = {v: reference_ring(into, v, 2) for v in pi_set}
    if pi_set:
        o1 = frozenset().union(*(o1_of[p] for p in pi_set))
        o1_star = frozenset.intersection(*(o1_of[p] for p in pi_set))
        o2 = frozenset.intersection(*(n2[p] for p in pi_set))
        o2_star = frozenset().union(*(n2[p] for p in pi_set))
    else:
        o1, o2_star = frozenset(), frozenset()
        o1_star, o2 = frozenset(o_set), frozenset(o_set)
    return DigraphAnalysis(
        orientation=o,
        o_set=frozenset(o_set),
        d_set=frozenset(d_set),
        i_set=frozenset(i_set),
        pi_set=frozenset(pi_set),
        phi_set=frozenset(i_set - pi_set),
        o1_of=o1_of,
        o1=o1,
        o1_star=o1_star,
        o2=frozenset(o2),
        o2_star=frozenset(o2_star),
    )


def reference_phi_sets(o: Orientation, v: str) -> tuple[frozenset[str], frozenset[str]]:
    into = reference_in_neighbors(o)
    if v not in into:
        raise ValueError(f"unknown vertex {v!r}")
    if any(v in sources for sources in into.values()):
        raise ValueError(f"vertex {v!r} has outgoing arcs; phi sets need a sink")
    return reference_ring(into, v, 1), reference_ring(into, v, 2)


def reference_roles(o: Orientation) -> dict[str, str]:
    """Each vertex's role in vertex order: "I" sink (no out-arcs), else
    "D" double (with in-arcs) or "O" source (without)."""
    out = reference_out_neighbors(o)
    into = reference_in_neighbors(o)
    return {v: "I" if not out[v] else "D" if into[v] else "O" for v in o.vertices}


def reference_verify_module(
    plan: GroupPlan,
    v: str,
    phi1: frozenset[str],
    phi2: frozenset[str],
) -> list[str]:
    spec = plan.modules[v]
    r = spec.characteristic
    d = spec.dimension
    if set(spec.generator_action) != phi1 | phi2:
        return [f"acting vertices {sorted(spec.generator_action)} do not match the in-neighborhoods"]
    mats = spec.generator_action
    for w, mat in mats.items():
        if len(mat[0]) != d:
            return [f"matrix for {w!r} has wrong shape"]
    identity = modmat.identity(d)
    problems = []
    for w, mat in mats.items():
        p_w = plan.prime_of[w]
        if mat == identity:
            problems.append(f"matrix for {w!r} is the identity")
        elif not modmat.power_is_identity(mat, p_w, r):
            problems.append(f"matrix for {w!r} does not have order {p_w}")
    phi1_list = sorted(phi1)
    for i, w in enumerate(phi1_list):
        for u in phi1_list[i + 1 :]:
            if not modmat.commute(mats[w], mats[u], r):
                problems.append(f"matrices for {w!r} and {u!r} do not commute")
    if problems:
        return problems
    m = 1
    for w in phi1:
        m *= plan.prime_of[w]
    generator = identity
    for w in phi1_list:
        generator = modmat.multiply(generator, mats[w], r)
    if modmat.has_fixed_vector(generator, r, [m // plan.prime_of[w] for w in phi1_list]):
        problems.append("fixed point in the span of the 1-in-neighborhood action")
    for s in sorted(phi2):
        if not modmat.has_fixed_vector(mats[s], r):
            problems.append(f"no fixed space for any power of the matrix of {s!r}")
    if problems:
        return problems
    role = reference_roles(plan.orientation)
    u_actors = sorted(w for w in phi1 if role[w] == "D")
    t_actors = sorted(w for w in phi1 | phi2 if role[w] == "O")
    for i, w in enumerate(t_actors):
        for u in t_actors[i + 1 :]:
            if not modmat.commute(mats[w], mats[u], r):
                problems.append(f"module {v!r}: matrices of {w!r} and {u!r} must commute")
    for s in t_actors:
        for w in u_actors:
            e = plan.k_actions.get((s, w), 1)
            twisted = modmat.multiply(modmat.power(mats[w], e, r), mats[s], r)
            if modmat.multiply(mats[s], mats[w], r) != twisted:
                problems.append(
                    f"module {v!r}: conjugation by {s!r} disagrees with the "
                    f"exponent action on {w!r}"
                )
    return problems


def reference_validate_plan(plan: GroupPlan) -> list[str]:
    problems: list[str] = []
    o = plan.orientation
    if validate_frobenius_orientation(o):
        return ["orientation fails validation"]
    role = reference_roles(o)
    values = list(plan.prime_of.values())
    if sorted(plan.prime_of) != sorted(o.vertices):
        problems.append("prime map does not cover the vertex set")
        return problems
    if len(set(values)) != len(values):
        problems.append("primes are not distinct")
    not_prime = [f"{p} (vertex {v!r}) is not prime" for v, p in plan.prime_of.items() if not is_prime(p)]
    if not_prime:
        return problems + not_prime
    if plan.congruence not in (CONGRUENCE_GLOBAL, CONGRUENCE_PER_ARC):
        problems.append(f"unknown congruence mode {plan.congruence!r}")
    if plan.congruence == CONGRUENCE_GLOBAL:
        o_product = 1
        for v in o.vertices:
            if role[v] == "O":
                o_product *= plan.prime_of[v]
        for v in o.vertices:
            if role[v] == "D" and plan.prime_of[v] % o_product != 1 % o_product:
                problems.append(f"double prime {plan.prime_of[v]} is not 1 mod {o_product}")
    expected_actions = set()
    for u, v in o.sorted_arcs():
        if role[u] == "O" and role[v] == "D":
            expected_actions.add((u, v))
            if plan.prime_of[v] % plan.prime_of[u] != 1:
                problems.append(
                    f"arc {u!r}->{v!r}: {plan.prime_of[v]} is not 1 mod {plan.prime_of[u]}"
                )
    if set(plan.k_actions) != expected_actions:
        problems.append("action exponents do not match the source-to-double arcs")
    for (u, v), e in plan.k_actions.items():
        if (u, v) not in expected_actions:
            continue
        p, q = plan.prime_of[u], plan.prime_of[v]
        if not 1 < e < q or pow(e, p, q) != 1 or e % q == 1:
            problems.append(f"exponent {e} for {u!r}->{v!r} has wrong order")
    for v, out, into in zip(o.vertices, o.out_rows, o.in_rows):
        if not out and into and v not in plan.modules:
            problems.append(f"sink {v!r} is missing a module")
        if not out and not into and v in plan.modules:
            problems.append(f"isolated sink {v!r} should be a plain cyclic factor")
    for v, spec in plan.modules.items():
        if role[v] != "I":
            problems.append(f"module on {v!r}, which is not a sink")
            continue
        if not is_prime(spec.characteristic):
            problems.append(f"module characteristic {spec.characteristic} for {v!r} is not prime")
            continue
        phi1, phi2 = phi_sets(o, v)
        m = 1
        for w in phi1:
            m *= plan.prime_of[w]
        d = 1
        for s in phi2:
            d *= plan.prime_of[s]
        if (spec.characteristic - 1) % m != 0:
            problems.append(f"module prime {spec.characteristic} is not 1 mod {m}")
        if spec.characteristic != plan.prime_of[v]:
            problems.append(f"module prime for {v!r} disagrees with the prime map")
        if spec.dimension != d:
            problems.append(f"module for {v!r} has dimension {spec.dimension}, expected {d}")
        problems.extend(reference_verify_module(plan, v, phi1, phi2))
    return problems


def random_orientations(seed: int, count: int = 600):
    """count random orientations of random graphs on 1-9 vertices, with
    random labels listed in a random order."""
    rng = random.Random(seed)
    for _ in range(count):
        g = random_graph(rng, rng.randrange(1, 10), rng.random())
        name = {v: f"v{rng.randrange(100)}_{v}" for v in g.vertices}
        vertices = list(name.values())
        rng.shuffle(vertices)
        arcs = [(name[u], name[v]) for u, v in g.sorted_edges()]
        yield Orientation(
            LabeledGraph(vertices, arcs),
            [(u, v) if rng.random() < 0.5 else (v, u) for u, v in arcs],
        )


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


@lru_cache(maxsize=1)
def global_sweep_plans(max_n: int = 6):
    """Global-congruence synthesized plans for the whole orientation sweep."""
    return tuple(map(synthesize, orientation_sweep(max_n)))
