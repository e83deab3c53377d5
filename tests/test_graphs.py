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
    oracle_colorable,
    oracle_girth,
    oracle_has_triangle,
    oracle_lex_least_coloring,
    planted_three_colorable,
    random_graph,
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
from solvgraph.graphs import color_search, lex_least_coloring, with_edge, without_edge


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
    g = grotzsch()
    monkeypatch.setattr("solvgraph.graphs.COLOR_NODE_BOUND", 153)
    assert color_search(g, 3) == (None, 153)
    monkeypatch.setattr("solvgraph.graphs.COLOR_NODE_BOUND", 152)
    with pytest.raises(LimitExceeded, match="limited to 152 nodes"):
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
