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


def test_failing_edge_matches_the_verdict_on_every_edge():
    # is_minimal passes over edges whose endpoints share a neighbour in the
    # complement; here every edge gets its full verdict
    for n in range(1, 9):
        for t in enumerate_graphs(n, triangle_free=True):
            g = complement(t)
            expected = None
            if g.n > 1 and is_connected(g):
                expected = next(
                    (
                        (u, v)
                        for u, v in g.sorted_edges()
                        if is_solvable_prime_graph(without_edge(g, u, v)).realizable
                    ),
                    None,
                )
            assert is_minimal(g).failing_edge == expected, t


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
        for subset in combinations(g.vertices, 5):
            induced = LabeledGraph(subset, [e for e in g.edges if set(e) <= set(subset)])
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
