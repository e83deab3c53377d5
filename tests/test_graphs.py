"""Core graph primitives against frozen examples and brute-force oracles."""

from __future__ import annotations

import gc
import math
import random
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    grotzsch,
    maximal_triangle_free,
    oracle_canonical_g6,
    oracle_colorable,
    oracle_girth,
    oracle_has_triangle,
    oracle_lex_least_coloring,
    oracle_max_clique,
    planted_three_colorable,
    random_graph,
    reference_children,
    reference_graph_rows,
    reference_out_rows,
    reference_lex_least_coloring,
    relabeled,
    unpruned_generation,
)
from solvgraph import (
    INFINITE_GIRTH,
    LabeledGraph,
    Orientation,
    canonical_form,
    canonical_orientation,
    color_with_at_most,
    complement,
    complete_graph,
    cycle_graph,
    directed_neighborhood,
    empty_graph,
    enumerate_graphs,
    find_triangle,
    girth,
    isomorphic,
    neighborhood,
    orientation_from_arcs,
    path_graph,
)
from solvgraph.census import _canonical_g6_cached, _children, _generated_forms, _twin_masks
from solvgraph.errors import LimitExceeded
from solvgraph.formats import g6_bytes_from_rows
from solvgraph.graphs import _bits, _bits_lazy, color_search, lex_least_coloring, with_edge, without_edge


@st.composite
def drawn_graphs(draw, max_n=8):
    """(graph, the pairs it was built from): vertices in a permuted order,
    each pair in a random direction."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    labels = draw(st.permutations([str(i) for i in range(n)]))
    pairs = list(combinations(labels, 2))
    mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    flips = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    drawn = [
        (v, u) if flips >> i & 1 else (u, v)
        for i, (u, v) in enumerate(pairs)
        if mask >> i & 1
    ]
    return LabeledGraph(labels, drawn), drawn


def graphs(max_n=8):
    return drawn_graphs(max_n).map(lambda pair: pair[0])


def test_graph_validation():
    """Each constructor message; the first bad edge in argument order wins."""
    cases = [
        (["a", "a"], [("a", "z")], "duplicate vertex labels"),
        ([1, "1"], [], "duplicate vertex labels"),
        ("ab", [("a", "b"), ("b", "b")], "loop at vertex 'b'"),
        ("ab", [("z", "z")], "loop at vertex 'z'"),  # the loop before the unlisted label
        ("ab", [(1, "1")], "loop at vertex '1'"),
        ("ab", [("a", "z")], "edge ('a', 'z') has an unlisted endpoint"),
        ("ab", [("a", "z"), ("b", "b")], "edge ('a', 'z') has an unlisted endpoint"),
        ("ab", [("b", "b"), ("a", "z")], "loop at vertex 'b'"),
        ("ab", [(["a"], "b")], "edge (\"['a']\", 'b') has an unlisted endpoint"),
    ]
    for vertices, edges, message in cases:
        with pytest.raises(ValueError) as err:
            LabeledGraph(vertices, edges)
        assert str(err.value) == message, (vertices, edges)


def test_constructors_coerce_endpoints():
    """Integer and unhashable endpoints go through str(), also midway
    through a one-shot iterator; the label index is kept."""
    strings = LabeledGraph("0123", [("0", "1"), ("1", "2"), ("2", "3")])
    assert LabeledGraph(["0", "1", "2", "3"], [(0, 1), (1, "2"), ("2", 3)]) == strings
    assert LabeledGraph(range(4), iter([("0", "1"), (1, 2), ("2", "3")])) == strings
    assert vars(strings)["_index"] == {"0": 0, "1": 1, "2": 2, "3": 3}
    listed = LabeledGraph(["[1]", "b"], [([1], "b")])
    assert listed.edges == {("[1]", "b")}
    labels = [f"v{i}" for i in range(7)]
    assert LabeledGraph(labels, combinations(labels, 2)) == complete_graph(labels)
    arcs = iter([("0", "1"), (2, 1), ("2", 3)])
    assert Orientation(strings, arcs).arcs == {("0", "1"), ("2", "1"), ("2", "3")}
    assert Orientation(listed, [([1], "b")]).arcs == {("[1]", "b")}


def test_without_edge_coerces_like_with_edge():
    g = LabeledGraph([1, 2, 3], [(1, 2)])
    assert with_edge(g, 2, 3).has_edge("2", "3")
    assert without_edge(g, 1, 2) == LabeledGraph("123", [])
    assert without_edge(with_edge(g, 2, 3), 3, "2") == g
    for u, v in ((2, 3), (1, 4), (1, 1)):
        with pytest.raises(ValueError, match=f"^no edge between '{u}' and '{v}'$"):
            without_edge(g, u, v)


def test_lookups_coerce_labels_like_the_constructors():
    g = LabeledGraph([1, 2, 3], [(1, 2)])
    assert g.has_edge(1, 2) and g.has_edge("2", 1) and g.has_edge(2, "1")
    assert not g.has_edge(1, 3) and not g.has_edge(1, 4) and not g.has_edge(4, 1)
    assert (g.degree(1), g.degree("2"), g.degree(3)) == (1, 1, 0)
    assert (g.position(1), g.position("3")) == (0, 2)
    assert neighborhood(g, 1, 1) == {"2"}
    listed = LabeledGraph(["[1]", "b"], [([1], "b")])
    assert listed.has_edge([1], "b") and listed.degree([1]) == 1
    for v in (4, "4", None):
        with pytest.raises(ValueError, match=f"^unknown vertex {v!r}$"):
            g.degree(v)


_LABELS = ("0", "1", "2", "3", "a", "b", "[0]", 0, 1, 4)
_STRAYS = ("z", 9, [0], [5], ("a",))


@st.composite
def mixed_edge_lists(draw):
    """(vertices, edges) for the constructor: labels of mixed types, each
    endpoint as listed or of another type with the same str(), plus up to
    two faults at random places: a label listed twice, a loop, or an edge
    with an unlisted or unhashable endpoint."""
    vertices = draw(st.lists(st.sampled_from(_LABELS), unique_by=str, max_size=7))
    forms = [[v, str(v), int(v)] if str(v).isdigit() else [v] for v in vertices]
    edges = []
    if len(vertices) >= 2:
        position = st.integers(0, len(vertices) - 1)
        for i, j in draw(st.lists(st.lists(position, min_size=2, max_size=2, unique=True), max_size=10)):
            edges.append((draw(st.sampled_from(forms[i])), draw(st.sampled_from(forms[j]))))
    for fault in draw(st.lists(st.sampled_from(("twice", "loop", "stray")), max_size=2)):
        listed = draw(st.sampled_from(forms)) if forms else ["z"]
        if fault == "twice" and vertices:
            vertices.append(draw(st.sampled_from(listed)))
            continue
        u = draw(st.sampled_from(listed))
        v = draw(st.sampled_from(listed if fault == "loop" else _STRAYS))
        edge = (u, v) if draw(st.booleans()) else (v, u)
        edges.insert(draw(st.integers(0, len(edges))), edge)
    return vertices, edges


def _outcome(build):
    try:
        return build()
    except ValueError as err:
        return str(err)


@given(mixed_edge_lists())
@settings(max_examples=400, deadline=None)
def test_graph_constructor_matches_the_reference(drawn):
    """Rows, label index and the first error, against the per-edge
    str()-and-_pair loop, on mixed labels, loops and unlisted endpoints."""
    vertices, edges = drawn

    def built():
        g = LabeledGraph(vertices, iter(edges))
        return g.vertices, g.rows, vars(g)["_index"]

    assert _outcome(built) == _outcome(lambda: reference_graph_rows(vertices, edges))


@given(drawn_graphs(max_n=6), st.data())
@settings(max_examples=300, deadline=None)
def test_orientation_constructor_matches_the_reference(drawn, data):
    """Out-masks and the first error, against the per-arc str() and
    has_edge loop: every edge in a random direction, then up to two faults
    (a repeated arc, a reversed copy, a dropped arc, a loop or non-edge),
    and some labels given as integers."""
    g, pairs = drawn
    arcs = list(pairs)  # drawn in random directions
    for fault in data.draw(st.lists(st.sampled_from(("repeat", "reverse", "drop", "stray")), max_size=2)):
        if fault == "stray":
            u = data.draw(st.sampled_from(g.vertices))
            arc = (u, data.draw(st.sampled_from(g.vertices + ("z",))))
        elif not arcs:
            continue
        else:
            u, v = arcs.pop(data.draw(st.integers(0, len(arcs) - 1)))
            if fault == "drop":
                continue
            arcs.append((u, v))
            arc = (u, v) if fault == "repeat" else (v, u)
        arcs.insert(data.draw(st.integers(0, len(arcs))), arc)
    arcs = [
        tuple(int(x) if x.isdigit() and data.draw(st.booleans()) else x for x in arc)
        for arc in arcs
    ]
    assert _outcome(lambda: Orientation(g, iter(arcs)).out_rows) == _outcome(
        lambda: reference_out_rows(g, arcs)
    )


@given(drawn_graphs())
@settings(max_examples=200, deadline=None)
def test_stored_rows_match_the_drawn_pairs(drawn):
    g, pairs = drawn
    position = {v: i for i, v in enumerate(g.vertices)}
    expected = sorted(
        (tuple(sorted(p, key=position.get)) for p in pairs),
        key=lambda e: (position[e[0]], position[e[1]]),
    )
    adjacency = {v: set() for v in g.vertices}
    for u, v in pairs:
        adjacency[u].add(v)
        adjacency[v].add(u)
    assert g.edges == frozenset(expected)
    assert g.sorted_edges() == expected
    assert g.adjacency() == adjacency
    for u in g.vertices:
        assert g.degree(u) == len(adjacency[u])
        assert not g.has_edge(u, "absent")
        for v in g.vertices:
            assert g.has_edge(u, v) == (v in adjacency[u])
    again = LabeledGraph(g.vertices, g.edges)
    assert again == g and hash(again) == hash(g)
    for u, v in combinations(g.vertices, 2):
        if v in adjacency[u]:
            assert with_edge(g, v, u) == g
        else:
            assert with_edge(g, u, v).has_edge(v, u)
            assert without_edge(with_edge(g, u, v), u, v) == g


def test_edges_and_arcs_are_built_on_each_read_and_not_kept():
    # the complement of a C5 blown up to 5 classes of 24: 120 vertices,
    # 4260 edges; its canonical orientation has the blow-up's 2880 arcs
    labels = [f"{c}.{k}" for c in range(5) for k in range(24)]
    blowup = LabeledGraph(
        labels, [(u, v) for u, v in combinations(labels, 2) if int(v[0]) - int(u[0]) in (1, 4)]
    )
    g = complement(blowup)
    o = canonical_orientation(g)
    assert (g.n, len(g.sorted_edges()), len(o.sorted_arcs())) == (120, 4260, 2880)
    expected_edges, expected_arcs = frozenset(g.sorted_edges()), frozenset(o.sorted_arcs())
    kept = [set(vars(x)) for x in (g, o, o.underlying)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        reads = [(g.edges, o.arcs) for _ in range(3)]
        assert all(e == expected_edges and a == expected_arcs for e, a in reads)
        assert tracemalloc.get_traced_memory()[0] - before > 3 * 100_000
        del reads
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after - before < 4096
    assert [set(vars(x)) for x in (g, o, o.underlying)] == kept
    assert "edges" not in vars(g) and "arcs" not in vars(o)


def test_bits_from_the_table_match_the_generator():
    """Masks below 256 read their bit positions from a table, larger ones
    from the lazy generator; both list the positions of the binary
    digits in ascending order, on every mask below 2**12 and on seeded
    masks up to 2**300."""
    rng = random.Random(29)
    masks = list(range(2**12)) + [rng.getrandbits(rng.randrange(1, 301)) for _ in range(200)]
    for mask in masks:
        expected = [i for i, bit in enumerate(reversed(bin(mask)[2:])) if bit == "1"]
        assert list(_bits(mask)) == list(_bits_lazy(mask)) == expected, mask


def test_bits_above_the_table_stay_lazy():
    """The first position of a huge mask comes without listing the rest."""
    assert next(iter(_bits(1 << 10**6 | 1))) == 0


def test_complement_examples():
    c5 = cycle_graph("abcde")
    assert isomorphic(complement(c5), c5)  # self-complementary
    assert complement(complete_graph("abcd")) == empty_graph("abcd")
    assert complement(empty_graph("abc")) == complete_graph("abc")


@given(graphs())
@settings(max_examples=150, deadline=None)
def test_complement_involution(g):
    assert complement(complement(g)) == g


def test_complement_involution_exhaustive_small():
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            assert complement(complement(g)) == g
    # the generated triangle-free corpus reaches 9 vertices
    for n in range(7, 10):
        for g in enumerate_graphs(n, triangle_free=True):
            assert complement(complement(g)) == g


def test_find_triangle_examples():
    assert find_triangle(complete_graph("abc")) == ("a", "b", "c")
    assert find_triangle(cycle_graph("abcde")) is None
    # the complement of a 6-cycle contains two disjoint triangles
    got = find_triangle(complement(cycle_graph("012345")))
    assert got is not None
    co = complement(cycle_graph("012345"))
    assert all(co.has_edge(u, v) for u, v in combinations(got, 2))


def test_find_triangle_agrees_with_subset_scan():
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            assert (find_triangle(g) is not None) == oracle_has_triangle(g)


def test_find_triangle_witness_is_least():
    g = LabeledGraph("abcd", [("a", "b"), ("a", "c"), ("b", "c"), ("b", "d"), ("c", "d"), ("a", "d")])
    assert find_triangle(g) == ("a", "b", "c")


def test_coloring_examples():
    assert color_with_at_most(cycle_graph("abcde"), 3) is not None
    assert color_with_at_most(cycle_graph("abcde"), 2) is None
    assert color_with_at_most(complete_graph("abcd"), 3) is None


def test_coloring_agrees_with_label_enumeration():
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            for k in range(1, 5):
                got = color_with_at_most(g, k)
                if got is not None:
                    assert got.is_proper_on(g)
                    assert got.num_colors() <= k
                assert (got is not None) == oracle_colorable(g, k)


def test_lex_least_coloring_is_least():
    # compare against every proper <=k labeling; k = 4 leaves the most
    # colors unused at each step, which tests the first-use rule in
    # vertex order most directly
    cases = [(g, k) for n in range(1, 7) for g in enumerate_graphs(n) for k in (1, 2, 3)]
    cases += [(g, 4) for n in range(1, 6) for g in enumerate_graphs(n)]
    cases.append((complement(cycle_graph("abcde")), 3))
    for g, k in cases:
        coloring = lex_least_coloring(g, k)
        best = oracle_lex_least_coloring(g, k)
        if best is None:
            assert coloring is None
        else:
            assert coloring is not None and coloring.is_proper_on(g)
            assert tuple(coloring.assignment[v] for v in g.vertices) == best


def test_lex_least_coloring_matches_reference_search():
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randrange(1, 31)
        g = planted_three_colorable(rng, n, rng.randrange(3 * n + 1))
        assert lex_least_coloring(g, 3) == reference_lex_least_coloring(g, 3)


def test_lex_least_coloring_random_order_planted_60(monkeypatch):
    # plain backtracking (reference_lex_least_coloring) took 114 s on this
    # graph on a 2-core x86 machine; the search in vertex order, with its
    # forward checking, needs 18,855 nodes, so a tenth of the default
    # budget is enough
    monkeypatch.setattr("solvgraph.graphs.COLOR_NODE_BOUND", 100_000)
    g = planted_three_colorable(random.Random(0), 60, 90)
    coloring = lex_least_coloring(g, 3)
    assert coloring is not None and coloring.is_proper_on(g)


def test_color_search_budget(monkeypatch):
    # 26 is the exact work of the search with the first-use color rule
    # (the plain search took 153): the bound is met, one less is exceeded
    g = grotzsch()
    monkeypatch.setattr("solvgraph.graphs.COLOR_NODE_BOUND", 26)
    assert color_search(g, 3) == (None, 26)
    monkeypatch.setattr("solvgraph.graphs.COLOR_NODE_BOUND", 25)
    with pytest.raises(LimitExceeded, match="limited to 25 nodes"):
        color_search(g, 3)
    monkeypatch.setattr("solvgraph.graphs.COLOR_NODE_BOUND", 5)
    with pytest.raises(LimitExceeded, match="limited to 5 nodes"):
        color_search(g, 3)


def test_lex_least_coloring_budget(monkeypatch):
    # 57 is the exact work of the search in vertex order with the first-use
    # color rule (forward checking alone took 339): the bound is met, one
    # less is exceeded
    g = grotzsch()
    monkeypatch.setattr("solvgraph.graphs.COLOR_NODE_BOUND", 57)
    assert lex_least_coloring(g, 3) is None
    monkeypatch.setattr("solvgraph.graphs.COLOR_NODE_BOUND", 56)
    with pytest.raises(LimitExceeded, match="limited to 56 nodes"):
        lex_least_coloring(g, 3)
    monkeypatch.setattr("solvgraph.graphs.COLOR_NODE_BOUND", 5)
    with pytest.raises(LimitExceeded, match="limited to 5 nodes"):
        lex_least_coloring(g, 3)


def test_girth_examples():
    assert girth(cycle_graph("abcde")) == 5
    assert girth(path_graph("abcd")) == INFINITE_GIRTH
    assert girth(complete_graph("abc")) == 3


def test_girth_agrees_with_cycle_search():
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            assert girth(g) == oracle_girth(g)


def test_neighborhood_examples():
    c5 = cycle_graph("abcde")
    assert neighborhood(c5, "a", 1) == {"b", "e"}
    assert neighborhood(c5, "a", 2) == {"c", "d"}
    two_edges = LabeledGraph("abcd", [("a", "b"), ("c", "d")])
    assert neighborhood(two_edges, "a", 2) == frozenset()
    with pytest.raises(ValueError):
        neighborhood(c5, "zz", 1)


def test_directed_neighborhood_examples():
    o = orientation_from_arcs(
        "p1 p2 p3 p4 p5".split(),
        [("p1", "p3"), ("p3", "p4"), ("p1", "p5"), ("p2", "p4"), ("p2", "p5")],
    )
    assert directed_neighborhood(o, "p4", 2, "in") == {"p1"}
    assert directed_neighborhood(o, "p5", 2, "in") == frozenset()
    single = orientation_from_arcs("ab", [("a", "b")])
    assert directed_neighborhood(single, "a", 1, "out") == {"b"}
    with pytest.raises(ValueError):
        directed_neighborhood(o, "p1", 1, "sideways")


def test_canonical_form_examples():
    c5a = cycle_graph("abcde")
    c5z = cycle_graph("vwxyz")
    assert canonical_form(c5a) == canonical_form(c5z)
    assert canonical_form(complete_graph("abc")) != canonical_form(path_graph("abc"))
    two_k2 = LabeledGraph("abcd", [("a", "b"), ("c", "d")])
    assert canonical_form(two_k2) != canonical_form(path_graph("abcd"))


def test_canonical_form_random_pairs():
    rng = random.Random(2024)
    for _ in range(1000):
        g = random_graph(rng, rng.randrange(1, 9))
        assert canonical_form(g) == canonical_form(relabeled(g, rng))


def test_canonical_form_is_least_over_all_relabelings():
    # every labelled graph on up to 5 vertices
    for n in range(6):
        labels = [str(i) for i in range(n)]
        pairs = list(combinations(labels, 2))
        for mask in range(1 << len(pairs)):
            g = LabeledGraph(labels, [p for k, p in enumerate(pairs) if mask >> k & 1])
            assert canonical_form(g) == oracle_canonical_g6(g)
    rng = random.Random(6)
    for g in enumerate_graphs(6):
        for _ in range(2):
            h = relabeled(g, rng)
            assert canonical_form(h) == oracle_canonical_g6(h) == canonical_form(g)
    named = [
        LabeledGraph.from_rows(tuple("abcd"), (4, 8, 1, 2)),  # 2K2, adjacent twins
        complete_graph("abcde"),
        LabeledGraph("abcxyz", [(u, v) for u in "abc" for v in "xyz"]),  # K3,3
        LabeledGraph("abcdef", cycle_graph("abcde").edges),  # C5 + K1
        empty_graph([str(i) for i in range(10)]),
    ]
    for g in named:
        assert canonical_form(g) == oracle_canonical_g6(g)


def test_canonical_form_when_the_search_starts_at_its_last_columns():
    # with no edge, K2 and stars (isolated vertices too) a largest
    # independent set leaves at most one vertex, and the root decides; a
    # complete bipartite graph reaches its last two columns in two cells
    named = [empty_graph("a"), complete_graph("ab")]
    named += [empty_graph([str(i) for i in range(n)]) for n in (2, 3, 7)]
    rng = random.Random(71)
    for m in range(1, 8):
        leaves = [f"x{i}" for i in range(m)]
        for isolated in range(3):
            star = LabeledGraph(["c"] + leaves + [f"z{i}" for i in range(isolated)], [("c", x) for x in leaves])
            named += [star, relabeled(star, rng)]
    for a in range(1, 5):
        for b in range(a, 9 - a):
            left, right = [f"a{i}" for i in range(a)], [f"b{i}" for i in range(b)]
            bipartite = LabeledGraph(left + right, [(u, v) for u in left for v in right])
            named += [bipartite, relabeled(bipartite, rng)]
    for g in named:
        assert canonical_form(g) == oracle_canonical_g6(g), g


@given(graphs(max_n=7))
@settings(max_examples=100, deadline=None)
def test_canonical_form_matches_the_oracle(g):
    assert canonical_form(g) == oracle_canonical_g6(g)


def largest_independent_sets(g: LabeledGraph) -> list[set[str]]:
    """Every independent set of the largest size, by subset scan."""
    for size in range(g.n, 0, -1):
        found = [
            set(subset)
            for subset in combinations(g.vertices, size)
            if not any(g.has_edge(u, v) for u, v in combinations(subset, 2))
        ]
        if found:
            return found
    return [set()]


def first_outside_largest_independent_sets(g: LabeledGraph, rng) -> LabeledGraph | None:
    """g relabeled with a vertex that lies in no largest independent set
    first and the others shuffled; None when every vertex lies in one."""
    covered = set().union(*largest_independent_sets(g))
    outside = [v for v in g.vertices if v not in covered]
    if not outside:
        return None
    rest = [v for v in g.vertices if v != outside[0]]
    rng.shuffle(rest)
    return LabeledGraph([outside[0]] + rest, g.edges)


def test_canonical_form_is_least_when_vertex_0_is_in_no_largest_independent_set():
    # the least encoding opens with a largest independent set, so the
    # first vertex of the input order is a poor start on these graphs
    rng = random.Random(16)
    checked = 0
    samples = enumerate_graphs(7, triangle_free=True)[::2]
    samples += enumerate_graphs(8, triangle_free=True)[::60]
    for g in samples:
        h = first_outside_largest_independent_sets(g, rng)
        if h is not None:
            assert canonical_form(h) == oracle_canonical_g6(h) == canonical_form(g)
            checked += 1
    assert checked == 45
    dense = [complement(maximal_triangle_free(rng, 8)) for _ in range(3)]
    dense.append(complement(LabeledGraph("abcdefgh", [(u, v) for u in "abcd" for v in "efgh"])))
    for g in dense:
        assert oracle_max_clique(complement(g)) <= 2
        h = relabeled(g, rng)
        assert canonical_form(h) == oracle_canonical_g6(h) == canonical_form(g)


def leading_zero_columns(form: bytes) -> int:
    """How many of graph6 columns 1, 2, ... are zero before the first
    nonzero one; column j holds the j bits of the pairs (i, j), i < j."""
    n = form[0] - 63
    bits = "".join(format(byte - 63, "06b") for byte in form[1:])[: n * (n - 1) // 2]
    if "1" not in bits:
        return max(n - 1, 0)
    first, column = bits.index("1"), 1
    while column * (column + 1) // 2 <= first:
        column += 1
    return column - 1


def test_canonical_form_opens_with_a_largest_independent_set():
    rng = random.Random(61)
    samples = [g for n in range(1, 8) for g in enumerate_graphs(n)]
    samples += [random_graph(rng, rng.randrange(8, 11), rng.random()) for _ in range(150)]
    for g in samples:
        alpha = oracle_max_clique(complement(g))
        assert leading_zero_columns(canonical_form(g)) == alpha - 1, g


def test_canonical_form_is_invariant_under_relabeling_on_11_and_12_vertices():
    rng = random.Random(1112)
    for n in (11, 12):
        for k in range(40):
            g = random_graph(rng, n, k / 39)
            form = canonical_form(g, max_vertices=12)
            for _ in range(2):
                assert canonical_form(relabeled(g, rng), max_vertices=12) == form
            assert canonical_form(relabeled(complement(g), rng), max_vertices=12) == (
                canonical_form(complement(g), max_vertices=12)
            )


@st.composite
def relabeled_pairs(draw, max_n=10):
    """(graph, a random relabeling of it) on up to max_n vertices; the edge
    density is drawn too, from empty to complete."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    density = draw(st.integers(min_value=0, max_value=8)) / 8
    rng = draw(st.randoms(use_true_random=False))
    g = random_graph(rng, n, density)
    return g, relabeled(g, rng)


@given(relabeled_pairs())
@settings(max_examples=200, deadline=None)
def test_canonical_form_is_invariant_under_relabeling(pair):
    g, h = pair
    for a, b in ((g, h), (complement(g), complement(h))):
        assert canonical_form(a) == canonical_form(b)
        assert isomorphic(a, b)


@st.composite
def twinned_pairs(draw, max_n=10):
    """(graph, a random relabeling of it) on up to max_n vertices, grown
    from a random graph by adding twins, adjacent or not, of its vertices."""
    rng = draw(st.randoms(use_true_random=False))
    rows = list(random_graph(rng, draw(st.integers(1, 6)), rng.random()).rows)
    for new in range(len(rows), draw(st.integers(len(rows), max_n))):
        v = rng.randrange(new)
        closed = rng.random() < 0.5
        rows.append(rows[v] | closed << v)
        for u in range(new):
            if rows[new] >> u & 1:
                rows[u] |= 1 << new
    g = LabeledGraph.from_rows(tuple(map(str, range(len(rows)))), rows)
    return g, relabeled(g, rng)


@given(twinned_pairs())
@settings(max_examples=200, deadline=None)
def test_twin_masks_match_the_pairwise_definition(pair):
    g, h = pair
    for rows in (g.rows, h.rows):
        pairwise = [
            sum(1 << w for w in range(len(rows)) if w != u and rows[u] & ~(1 << w) == rows[w] & ~(1 << u))
            for u in range(len(rows))
        ]
        assert _twin_masks(rows) == pairwise
    assert canonical_form(g) == canonical_form(h)


def test_canonical_form_distinguishes_degree_sequences():
    rng = random.Random(99)
    checked = 0
    while checked < 1000:
        g = random_graph(rng, rng.randrange(2, 9))
        h = random_graph(rng, g.n)
        if sorted(g.degree(v) for v in g.vertices) == sorted(
            h.degree(v) for v in h.vertices
        ):
            continue
        assert canonical_form(g) != canonical_form(h)
        checked += 1


def test_canonical_form_size_bound():
    big = empty_graph([str(i) for i in range(11)])
    with pytest.raises(LimitExceeded):
        canonical_form(big)
    assert canonical_form(big, max_vertices=11)


def test_enumeration_counts_match_published_sequences():
    assert [len(enumerate_graphs(n)) for n in range(1, 8)] == [
        1, 2, 4, 11, 34, 156, 1044,
    ]
    # OEIS A006785; criterion 02 has generated n = 9 already
    assert [len(enumerate_graphs(n, triangle_free=True)) for n in range(1, 10)] == [
        1, 2, 3, 7, 14, 38, 107, 410, 1897,
    ]


def test_enumeration_matches_unpruned_augmentation():
    for n in range(8):
        assert enumerate_graphs(n, triangle_free=True) == unpruned_generation(n, True)
    for n in range(7):
        assert enumerate_graphs(n) == unpruned_generation(n, False)


def test_augmentation_keeps_the_children_of_the_mask_scan():
    for triangle_free, top in ((False, 7), (True, 8)):
        for n in range(1, top + 1):
            for parent in enumerate_graphs(n, triangle_free):
                children = list(_children(parent.rows, triangle_free))
                assert len(set(children)) == len(children)
                assert set(children) == reference_children(parent.rows, triangle_free), parent


def test_generation_up_to_8_triangle_free_makes_724_canonical_calls():
    # pins the pruning: weaker twin or invariant tests make more calls
    _generated_forms.cache_clear()
    _canonical_g6_cached.cache_clear()
    enumerate_graphs(8, triangle_free=True)
    assert _canonical_g6_cached.cache_info().misses == 724


def test_generated_rows_re_encode_to_their_forms():
    # generation keeps each class's canonical rows, in canonical-form order
    for triangle_free, top in ((True, 8), (False, 7)):
        for n in range(top + 1):
            kept = _generated_forms(n, triangle_free)
            forms = [g6_bytes_from_rows(n, rows) for rows in kept]
            assert forms == sorted(set(forms))
            labels = [str(i) for i in range(n)]
            assert all(
                canonical_form(LabeledGraph.from_rows(labels, rows)) == form
                for rows, form in zip(kept, forms)
            )


def test_triangle_free_classes_are_pairwise_non_isomorphic_by_networkx():
    nx = pytest.importorskip("networkx")  # optional second route
    for n in range(1, 8):
        # isomorphic graphs share their sorted degree sequence
        by_degrees: dict[tuple, list] = {}
        for g in enumerate_graphs(n, triangle_free=True):
            h = nx.Graph()
            h.add_nodes_from(g.vertices)
            h.add_edges_from(g.edges)
            by_degrees.setdefault(tuple(sorted(d for _, d in h.degree)), []).append(h)
        for same in by_degrees.values():
            for a, b in combinations(same, 2):
                assert not nx.is_isomorphic(a, b)


def test_enumeration_is_isomorphism_free():
    for n in range(1, 7):
        forms = [canonical_form(g) for g in enumerate_graphs(n)]
        assert len(forms) == len(set(forms))


def test_girth_of_forest_is_math_inf():
    assert girth(empty_graph("a")) is INFINITE_GIRTH
    assert math.isinf(girth(path_graph("abcdef")))
