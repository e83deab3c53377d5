"""Core graph primitives against frozen examples and brute-force oracles."""

from __future__ import annotations

import math
import random
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
    reference_lex_least_coloring,
    relabeled,
    unpruned_generation,
)
from solvgraph import (
    INFINITE_GIRTH,
    LabeledGraph,
    canonical_form,
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
from solvgraph.errors import LimitExceeded
from solvgraph.graphs import (
    _canonical_g6_cached,
    _children,
    _generated_forms,
    _twin_masks,
    color_search,
    lex_least_coloring,
    with_edge,
    without_edge,
)


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
    with pytest.raises(ValueError):
        LabeledGraph(["a", "a"], [])
    with pytest.raises(ValueError):
        LabeledGraph(["a", "b"], [("a", "a")])
    with pytest.raises(ValueError):
        LabeledGraph(["a", "b"], [("a", "c")])


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
    # compare against every proper <=k labeling
    cases = [(g, k) for n in range(1, 7) for g in enumerate_graphs(n) for k in (1, 2, 3)]
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
    # graph on a 2-core x86 machine; forward checking needs 18,855 nodes,
    # so a tenth of the default budget is enough
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
    monkeypatch.setattr("solvgraph.graphs.COLOR_NODE_BOUND", 5)
    with pytest.raises(LimitExceeded, match="limited to 5 nodes"):
        lex_least_coloring(grotzsch(), 3)


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
