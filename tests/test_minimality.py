"""Minimality predicate, duplication, enumeration, and lemma checks."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from helpers import grotzsch, relabeled, six_prime_example_graph
from solvgraph import (
    LabeledGraph,
    canonical_form,
    complement,
    complete_graph,
    cycle_graph,
    empty_graph,
    enumerate_graphs,
    enumerate_minimal,
    is_minimal,
    is_solvable_prime_graph,
    isomorphic,
    linked_vertex_duplication,
)
from solvgraph import minimality
from solvgraph.graphs import is_connected, without_edge
from solvgraph.minimality import (
    canonical_orientation,
    check_minimal_lemmas,
    contains_induced_c5,
    duplication_reachable,
)


def test_c5_is_minimal():
    report = is_minimal(cycle_graph("abcde"))
    assert report.minimal
    assert report.failing_edge is None
    assert report.connectivity_ok and report.nontrivial_ok


def test_k2_not_minimal_with_failing_edge():
    report = is_minimal(LabeledGraph("ab", [("a", "b")]))
    assert not report.minimal
    assert report.failing_edge == ("a", "b")
    # removing that edge leaves two isolated vertices, still realizable
    assert is_solvable_prime_graph(empty_graph("ab")).realizable


def test_six_prime_example_is_minimal():
    assert is_minimal(six_prime_example_graph()).minimal


def test_is_minimal_requires_realizable_input():
    with pytest.raises(ValueError):
        is_minimal(empty_graph("abc"))


def test_disconnected_graph_not_minimal():
    g = LabeledGraph("abcd", [("a", "b"), ("c", "d")])
    report = is_minimal(g)
    assert not report.minimal and not report.connectivity_ok


def failing_edge_by_verdicts(g: LabeledGraph) -> tuple[str, str] | None:
    """is_minimal's failing edge with a full verdict on every edge."""
    if g.n < 2 or not is_connected(g):
        return None
    return next(
        (
            (u, v)
            for u, v in g.sorted_edges()
            if is_solvable_prime_graph(without_edge(g, u, v)).realizable
        ),
        None,
    )


def test_failing_edge_matches_the_verdict_on_every_edge():
    # is_minimal passes over edges whose endpoints share a neighbour in the
    # complement, and below 11 vertices takes the first other edge without a
    # verdict; here every edge gets its full verdict
    for n in range(1, 10):
        for t in enumerate_graphs(n, triangle_free=True):
            g = complement(t)
            assert is_minimal(g).failing_edge == failing_edge_by_verdicts(g), t


def random_triangle_free(rng: random.Random, n: int, m: int) -> LabeledGraph:
    """Up to m random pairs, each kept unless it closes a triangle."""
    pairs = list(combinations(range(n), 2))
    rng.shuffle(pairs)
    rows = [0] * n
    edges = []
    for u, v in pairs:
        if len(edges) < m and not rows[u] & rows[v]:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            edges.append((str(u), str(v)))
    return LabeledGraph([str(i) for i in range(n)], edges)


def test_failing_edge_matches_the_verdict_on_sampled_10_vertex_graphs():
    # 10 is the last order on which the triangle test alone decides
    rng = random.Random(1010)
    for k in range(120):
        t = random_triangle_free(rng, 10, 9 + k % 17)
        g = relabeled(complement(t), rng)
        assert is_minimal(g).failing_edge == failing_edge_by_verdicts(g), t


def grotzsch_less_an_edge_complement():
    """(g, (u, v)): g is the complement of the Grötzsch graph less its
    first edge uv, listed with u and v first, so uv is g's first edge.  In
    the complement u and v share no neighbour, yet g less uv is not
    realizable: its complement is the Grötzsch graph."""
    gr = grotzsch()
    u, v = gr.sorted_edges()[0]
    order = (u, v) + tuple(w for w in gr.vertices if w not in (u, v))
    return complement(LabeledGraph(order, without_edge(gr, u, v).edges)), (u, v)


def test_failing_edge_on_11_vertices_takes_the_verdict():
    g, (u, v) = grotzsch_less_an_edge_complement()
    co = complement(g)
    assert g.sorted_edges()[0] == (u, v)
    assert not co.rows[co.position(u)] & co.rows[co.position(v)]
    assert not is_solvable_prime_graph(without_edge(g, u, v)).realizable
    report = is_minimal(g)
    assert report.failing_edge is not None and report.failing_edge != (u, v)
    assert report.failing_edge == failing_edge_by_verdicts(g)


def test_minimality_runs_verdicts_from_11_vertices_only(monkeypatch):
    calls = []

    def counted(g):
        calls.append(g.n)
        return is_solvable_prime_graph(g)

    monkeypatch.setattr(minimality, "is_solvable_prime_graph", counted)
    minimality._enumerate_minimal.cache_clear()
    assert [len(enumerate_minimal(n)) for n in range(5, 10)] == [1, 1, 3, 6, 12]
    rng = random.Random(1010)
    for k in range(30):
        minimality._minimality(complement(random_triangle_free(rng, 10, 9 + k % 17)))
    assert calls == []
    g, _ = grotzsch_less_an_edge_complement()
    minimality._minimality(g)
    assert calls and set(calls) == {11}


def test_duplication_examples():
    c5 = cycle_graph("abcde")
    dup = linked_vertex_duplication(c5, "a", "f")
    assert dup.n == 6
    assert sorted(dup.adjacency()["f"]) == ["a", "b", "e"]
    assert len(dup.edges) == len(c5.edges) + c5.degree("a") + 1
    again = linked_vertex_duplication(dup, "c")
    assert again.n == 7
    triangle = linked_vertex_duplication(LabeledGraph("uv", [("u", "v")]), "v", "w")
    assert isomorphic(triangle, complete_graph("abc"))


def test_duplication_errors():
    c5 = cycle_graph("abcde")
    with pytest.raises(ValueError):
        linked_vertex_duplication(c5, "nope")
    with pytest.raises(ValueError):
        linked_vertex_duplication(c5, "a", "b")


def test_duplication_default_label_is_fresh():
    c5 = cycle_graph("abcde")
    dup = linked_vertex_duplication(c5, "a")
    assert "a'" in dup.vertices
    dup2 = linked_vertex_duplication(dup, "a")
    assert "a''" in dup2.vertices
    # the vertex is looked up as str(v), as the constructors store it
    assert "1'" in linked_vertex_duplication(LabeledGraph([1, 2], [(1, 2)]), 1).vertices


def test_duplication_coerces_the_new_label():
    # a non-string label is stored as str(label), as the constructors store it
    c5 = cycle_graph("abcde")
    dup = linked_vertex_duplication(c5, "a", 5)
    assert dup.vertices[-1] == "5" and dup.has_edge("5", "a") and dup.has_edge(5, "b")
    assert dup == linked_vertex_duplication(c5, "a", "5")
    # a label that equals an existing one only under str() is already in use
    numbered = cycle_graph(range(5))
    with pytest.raises(ValueError, match="already in use"):
        linked_vertex_duplication(numbered, 0, 3)


def test_enumerate_minimal_floor():
    for n in range(1, 5):
        assert enumerate_minimal(n) == ()
    five = enumerate_minimal(5)
    assert len(five) == 1
    assert isomorphic(five[0], cycle_graph("abcde"))


def test_enumerate_minimal_six_contains_duplicated_pentagon():
    six = enumerate_minimal(6)
    dup = linked_vertex_duplication(cycle_graph("abcde"), "a")
    assert any(isomorphic(g, dup) for g in six)


def test_enumerate_minimal_rejects_out_of_range():
    with pytest.raises(ValueError):
        enumerate_minimal(0)
    with pytest.raises(ValueError):
        enumerate_minimal(10)


def test_enumerate_minimal_deterministic_and_deduplicated():
    graphs = enumerate_minimal(7)
    forms = [canonical_form(g) for g in graphs]
    assert forms == sorted(forms)
    assert len(set(forms)) == len(forms)


def test_contains_induced_c5_examples():
    c5 = cycle_graph("abcde")
    assert contains_induced_c5(c5) == ("a", "b", "c", "d", "e")
    assert contains_induced_c5(complete_graph("abcd")) is None
    g = grotzsch()
    e = g.sorted_edges()[0]
    assert contains_induced_c5(without_edge(g, *e)) is not None


def test_contains_induced_c5_finds_the_first_subset():
    c5 = cycle_graph("01234")

    def first(g):
        edges = g.edges
        for subset in combinations(g.vertices, 5):
            induced = LabeledGraph(subset, [e for e in edges if set(e) <= set(subset)])
            if isomorphic(induced, c5):
                return subset
        return None

    rng = random.Random(5)
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            for h in (g, relabeled(g, rng)):
                assert contains_induced_c5(h) == first(h), h


def test_check_minimal_lemmas_on_known_minimal_graphs():
    for g in (cycle_graph("abcde"), six_prime_example_graph()):
        report = check_minimal_lemmas(g)
        assert report.all_pass


def test_check_minimal_lemmas_rejects_non_minimal():
    with pytest.raises(ValueError):
        check_minimal_lemmas(cycle_graph("abcd"))


def test_c4_complement_is_2_colorable_hence_not_minimal():
    c4 = cycle_graph("abcd")
    assert is_solvable_prime_graph(c4).realizable
    assert not is_minimal(c4).minimal


def test_minimality_is_isomorphism_invariant():
    rng = random.Random(31)
    pool = list(enumerate_minimal(5) + enumerate_minimal(6) + enumerate_minimal(7))
    for g in pool:
        for _ in range(70):
            assert is_minimal(relabeled(g, rng)).minimal
    square = cycle_graph("abcd")
    for _ in range(150):
        assert not is_minimal(relabeled(square, rng)).minimal


def test_canonical_orientation_is_valid_and_deterministic():
    from solvgraph import validate_frobenius_orientation

    g = six_prime_example_graph()
    o1 = canonical_orientation(g)
    o2 = canonical_orientation(g)
    assert o1 == o2
    assert validate_frobenius_orientation(o1) == []


def test_grotzsch_complement_family_is_never_minimal():
    """Verified computationally (and cross-checked by exhaustive labeling
    in the acceptance suite): no single edge removal of the 11-vertex
    triangle-free 4-chromatic graph leaves a complement that is minimal.
    Each such complement has an edge whose removal stays realizable."""
    g = grotzsch()
    for u, v in g.sorted_edges():
        target = complement(without_edge(g, u, v))
        report = is_minimal(target)
        assert not report.minimal
        assert report.failing_edge is not None


def test_not_every_minimal_graph_is_duplication_reachable():
    """Duplication closure does not generate everything: at 8 vertices
    exactly one minimal graph falls outside the family grown from the
    5-cycle by linked vertex duplication."""
    from solvgraph import enumerate_minimal

    reachable = duplication_reachable(cycle_graph("abcde"), 8)
    for n in (5, 6, 7):
        assert all(canonical_form(g) in reachable for g in enumerate_minimal(n))
    outside = [
        g for g in enumerate_minimal(8) if canonical_form(g) not in reachable
    ]
    assert len(outside) == 1
    assert is_minimal(outside[0]).minimal
