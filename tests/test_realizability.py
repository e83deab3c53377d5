"""Realizability verdicts, orientation building/validation, girth classes."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    all_valid_orientations,
    grotzsch,
    maximal_triangle_free,
    mycielski,
    numbered,
    oracle_canonical_g6,
    oracle_girth,
    oracle_induced_c5,
    oracle_least_directed_3_path,
    oracle_max_clique,
    orientation_sweep,
    pentagon_orientation,
    planted_three_colorable,
    random_graph,
    random_orientations,
    reference_color_search,
    reference_validate,
    reference_verdict_document,
    relabeled,
)
from solvgraph import (
    Coloring,
    LabeledGraph,
    Orientation,
    analyze,
    canonical_orientation,
    classify_girth,
    complement,
    complete_graph,
    contains_induced_c5,
    cycle_graph,
    empty_graph,
    enumerate_graphs,
    exceptional_forests,
    fitting_bounds,
    girth,
    is_minimal,
    is_solvable_prime_graph,
    orient_from_coloring,
    orientation_from_arcs,
    path_graph,
    validate_frobenius_orientation,
)
from solvgraph.census import _largest_independent_sets, _twin_masks
from solvgraph.cli import check_document
from solvgraph.graphs import color_search, with_edge
from solvgraph.realizability import (
    VIOLATION_NOT_3_COLORABLE,
    VIOLATION_TRIANGLE,
    OrientationViolation,
)


def independence_number(g: LabeledGraph) -> int:
    """The size of the first largest independent set that canonical
    labeling lists (0 for the graph on no vertices)."""
    return _largest_independent_sets(g.rows, _twin_masks(g.rows))[0].bit_count()


def test_c5_is_realizable_with_certificate():
    verdict = is_solvable_prime_graph(cycle_graph("abcde"))
    assert verdict.realizable
    assert verdict.certificate is not None
    assert verdict.certificate.is_proper_on(complement(cycle_graph("abcde")))
    assert verdict.certificate.num_colors() <= 3
    assert verdict.violation is None


def test_empty_three_vertices_violates_with_triangle():
    verdict = is_solvable_prime_graph(empty_graph("abc"))
    assert not verdict.realizable
    assert verdict.violation.kind == VIOLATION_TRIANGLE
    assert verdict.violation.vertices == ("a", "b", "c")


def test_c6_not_realizable():
    assert not is_solvable_prime_graph(cycle_graph("abcdef")).realizable


def test_not_3_colorable_marker_records_search():
    from helpers import grotzsch

    # complement of the triangle-free chromatic-4 graph: complement side
    # has no triangle but is not 3-colorable
    g = complement(grotzsch())
    verdict = is_solvable_prime_graph(g)
    assert not verdict.realizable
    assert verdict.violation.kind == VIOLATION_NOT_3_COLORABLE
    assert verdict.search_nodes > 0


def test_empty_vertex_set_rejected():
    with pytest.raises(ValueError):
        is_solvable_prime_graph(LabeledGraph([], []))


def test_single_vertex_realizable():
    assert is_solvable_prime_graph(LabeledGraph(["2"], [])).realizable


def test_orient_from_coloring_single_edge():
    f = LabeledGraph("uv", [("u", "v")])
    o = orient_from_coloring(f, Coloring({"u": 0, "v": 1}))
    assert o.arcs == frozenset({("u", "v")})


def test_orient_from_coloring_pentagon_complement():
    f = complement(cycle_graph("abcde"))
    coloring = Coloring({"a": 0, "c": 1, "e": 0, "b": 1, "d": 2})
    assert coloring.is_proper_on(f)
    o = orient_from_coloring(f, coloring)
    for u, v in o.arcs:
        assert coloring.color_of(u) < coloring.color_of(v)
    assert validate_frobenius_orientation(o) == []


def test_orient_from_coloring_triangle_has_no_3_path():
    f = complete_graph("abc")
    o = orient_from_coloring(f, Coloring({"a": 0, "b": 1, "c": 2}))
    kinds = {v.kind for v in validate_frobenius_orientation(o)}
    assert kinds == {"triangle"}  # acyclic, no directed 3-path, but a triangle


def test_orient_from_coloring_rejects_improper_and_wide():
    f = LabeledGraph("uv", [("u", "v")])
    with pytest.raises(ValueError):
        orient_from_coloring(f, Coloring({"u": 0, "v": 0}))
    square = cycle_graph("abcd")
    with pytest.raises(ValueError, match="more than 3 colors"):
        orient_from_coloring(square, Coloring({"a": 0, "b": 1, "c": 2, "d": 3}))
    # 4 levels along a path: -1 -> 0 -> 1 -> 2 would be a directed 3-path
    path = path_graph("abcd")
    for odd in (-1, "x", 1.5):
        with pytest.raises(ValueError, match="colors other than 0, 1 and 2"):
            orient_from_coloring(path, Coloring({"a": odd, "b": 0, "c": 1, "d": 2}))


def random_proper_coloring(rng: random.Random, g: LabeledGraph) -> Coloring | None:
    """A proper coloring of g with colors in {0, 1, 2}, each vertex trying
    them in a random order (backtracking); None if g is not 3-colorable."""
    colors = [0] * g.n

    def extend(i: int) -> bool:
        if i == g.n:
            return True
        for c in rng.sample(range(3), 3):
            if all(colors[j] != c for j in range(i) if g.rows[i] >> j & 1):
                colors[i] = c
                if extend(i + 1):
                    return True
        return False

    return Coloring(dict(zip(g.vertices, colors))) if extend(0) else None


def test_layered_verdict_matches_the_reference():
    """The triangle search alone on a colouring's orientation gives the
    whole violation list, witnesses included, that all three searches give."""
    rng = random.Random(30)
    seen = with_triangle = 0
    while seen < 1500:
        g = random_graph(rng, rng.randrange(1, 10), rng.random() * 0.6)
        coloring = random_proper_coloring(rng, g)
        if coloring is None:
            continue
        o = orient_from_coloring(g, coloring)
        found = validate_frobenius_orientation(o)
        assert found == reference_validate(o), (g.sorted_edges(), coloring)
        with_triangle += bool(found)
        seen += 1
    assert with_triangle > 200
    cases = with_triangle = 0
    for n in range(3, 30, 2):
        for g in (
            complement(planted_three_colorable(rng, n, rng.randrange(3 * n))),
            complement(maximal_triangle_free(rng, n)),
        ):
            if color_search(complement(g), 3)[0] is None:
                continue
            o = canonical_orientation(g)
            found = validate_frobenius_orientation(o)
            assert found == reference_validate(o)
            with_triangle += bool(found)
            cases += 1
    assert cases > 20 and 0 < with_triangle < cases


class SearchRan(Exception):
    pass


def test_layered_orientations_skip_the_cycle_and_3_path_searches(monkeypatch):
    from solvgraph import realizability

    def refuse(o):
        raise SearchRan

    monkeypatch.setattr(realizability, "_least_cycle", refuse)
    monkeypatch.setattr(realizability, "_least_directed_3_path", refuse)
    pentagon = canonical_orientation(cycle_graph("abcde"))
    assert validate_frobenius_orientation(pentagon) == []
    # the complement of the empty graph on 3 vertices is a 3-colourable triangle
    triangle = canonical_orientation(empty_graph("abc"))
    first = validate_frobenius_orientation(triangle)
    assert first == [OrientationViolation("triangle", ("a", "b", "c"))]
    first.clear()
    assert validate_frobenius_orientation(triangle) == [OrientationViolation("triangle", ("a", "b", "c"))]
    assert validate_frobenius_orientation(triangle) is not validate_frobenius_orientation(triangle)
    f = complement(cycle_graph("abcde"))
    colored = orient_from_coloring(f, Coloring({"a": 0, "c": 1, "e": 0, "b": 1, "d": 2}))
    assert validate_frobenius_orientation(colored) == []
    # the marker is not a field: an equal orientation built from its arcs
    # compares and hashes alike, and runs the searches
    for o in (pentagon, triangle, colored):
        again = Orientation(o.underlying, o.sorted_arcs())
        assert again == o and hash(again) == hash(o) and repr(again) == repr(o)
        with pytest.raises(SearchRan):
            validate_frobenius_orientation(again)
    with pytest.raises(SearchRan):
        validate_frobenius_orientation(orientation_from_arcs("ab", [("a", "b")]))


def test_validator_examples():
    from solvgraph import orientation_from_arcs

    good = orientation_from_arcs(
        "p1 p2 p3 p4 p5".split(),
        [("p1", "p3"), ("p3", "p4"), ("p1", "p5"), ("p2", "p4"), ("p2", "p5")],
    )
    assert validate_frobenius_orientation(good) == []

    chain = orientation_from_arcs("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
    violations = validate_frobenius_orientation(chain)
    assert [v.kind for v in violations] == ["directed-3-path"]
    assert violations[0].vertices == ("a", "b", "c", "d")

    loop = orientation_from_arcs("abc", [("a", "b"), ("b", "c"), ("c", "a")])
    kinds = {v.kind for v in validate_frobenius_orientation(loop)}
    assert "cycle" in kinds
    cycle_witness = next(
        v.vertices for v in validate_frobenius_orientation(loop) if v.kind == "cycle"
    )
    assert set(cycle_witness) == {"a", "b", "c"}


def test_verdict_is_kept_and_each_call_gets_a_fresh_list():
    loop = orientation_from_arcs("abcd", [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")])
    first = validate_frobenius_orientation(loop)
    second = validate_frobenius_orientation(loop)
    assert first == second == reference_validate(loop)
    assert [v.kind for v in first] == ["cycle", "directed-3-path", "triangle"]
    first.clear()
    first.append(OrientationViolation("cycle", ("x",)))
    assert validate_frobenius_orientation(loop) == second == reference_validate(loop)
    assert validate_frobenius_orientation(loop) is not validate_frobenius_orientation(loop)


def test_analyze_reuses_the_kept_verdict(monkeypatch):
    from solvgraph import realizability

    counts = {}
    for name in ("_least_cycle", "_least_directed_3_path", "find_triangle"):
        counts[name] = 0

        def counted(x, name=name, fn=getattr(realizability, name)):
            counts[name] += 1
            return fn(x)

        monkeypatch.setattr(realizability, name, counted)
    o = pentagon_orientation()
    assert validate_frobenius_orientation(o) == []
    analysis = analyze(o)
    assert analyze(o) == analysis
    assert counts == {"_least_cycle": 1, "_least_directed_3_path": 1, "find_triangle": 1}
    # an equal orientation is another object and runs its own searches
    again = Orientation(o.underlying, o.sorted_arcs())
    assert again == o and analyze(again) == analysis
    assert set(counts.values()) == {2}
    bad = orientation_from_arcs("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
    for _ in range(3):
        with pytest.raises(ValueError, match="orientation is not valid: directed-3-path"):
            analyze(bad)
    assert set(counts.values()) == {3}


def test_directed_3_path_witness_is_least():
    rng = random.Random(7)
    cyclic = 0
    for _ in range(500):
        g = random_graph(rng, rng.randrange(1, 9), rng.random())
        vertices = list(g.vertices)
        rng.shuffle(vertices)
        g = LabeledGraph(vertices, g.edges)
        o = Orientation(g, [(u, v) if rng.random() < 0.5 else (v, u) for u, v in g.sorted_edges()])
        found = {v.kind: v.vertices for v in validate_frobenius_orientation(o)}
        assert found.get("directed-3-path") == oracle_least_directed_3_path(o)
        cyclic += "cycle" in found
    assert cyclic > 50


def test_validator_matches_the_reference():
    """Whole violation lists, witnesses included, against the dict-based
    searches: the sweep and random orientations with shuffled labels."""
    cyclic = 0
    for o in orientation_sweep() + tuple(random_orientations(11)):
        found = validate_frobenius_orientation(o)
        assert found == reference_validate(o), o.sorted_arcs()
        cyclic += any(v.kind == "cycle" for v in found)
    assert cyclic >= 50


def test_independence_number_matches_clique_oracle():
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            assert independence_number(g) == oracle_max_clique(complement(g)), g


def test_exceptional_forests_are_the_seven_known_ones():
    forests = exceptional_forests()
    assert len(forests) == 7
    named = [
        empty_graph("a"),
        empty_graph("ab"),
        LabeledGraph("ab", [("a", "b")]),
        LabeledGraph("abc", [("a", "b")]),
        path_graph("abc"),
        path_graph("abcd"),
        LabeledGraph("abcd", [("a", "b"), ("c", "d")]),
    ]
    from solvgraph import canonical_form

    assert {canonical_form(f) for f in forests} == {canonical_form(g) for g in named}
    assert all(independence_number(f) <= 2 for f in forests)


def test_classify_girth_examples():
    assert classify_girth(cycle_graph("abcd")).kind == "C4"
    p4 = path_graph("abcd")
    result = classify_girth(p4)
    assert result.status == "exceptional"
    assert result.kind.startswith("forest-")
    chord = with_edge(cycle_graph("abcde"), "a", "c")
    verdict = is_solvable_prime_graph(chord)
    assert verdict.realizable and girth(chord) == 3
    assert classify_girth(chord).status == "girth3"
    assert classify_girth(cycle_graph("abcdef")).status == "not-realizable"
    assert classify_girth(cycle_graph("abcde")).kind == "C5"


def test_girth_rules_match_isomorphism_to_the_named_exceptions():
    """classify_girth, contains_induced_c5 and fitting_bounds tell C4, C5
    and the forests by girth, vertex and edge counts and degrees.  On every
    graph with at most 7 vertices and every complement of a triangle-free
    graph on 8, they agree with brute-force girth, brute-force canonical
    forms of the named exceptions and a spanning-cycle search for induced
    5-cycles.  The forests are numbered by vertex count, then edge count."""
    named = {
        oracle_canonical_g6(g): kind
        for kind, g in [
            ("forest-1", empty_graph("a")),
            ("forest-2", empty_graph("ab")),
            ("forest-3", LabeledGraph("ab", [("a", "b")])),
            ("forest-4", LabeledGraph("abc", [("a", "b")])),
            ("forest-5", path_graph("abc")),
            ("forest-6", LabeledGraph("abcd", [("a", "b"), ("c", "d")])),
            ("forest-7", path_graph("abcd")),
            ("C4", cycle_graph("abcd")),
            ("C5", cycle_graph("abcde")),
        ]
    }
    graphs = [g for n in range(1, 8) for g in enumerate_graphs(n)]
    graphs += [complement(t) for t in enumerate_graphs(8, triangle_free=True)]
    kinds, minimal = {}, 0
    for g in graphs:
        assert contains_induced_c5(g) == oracle_induced_c5(g), g
        classified = classify_girth(g)
        if not is_solvable_prime_graph(g).realizable:
            assert classified.status == "not-realizable", g
            continue
        # isomorphic graphs have equal vertex counts, so only n <= 5 needs a form
        kind = named.get(oracle_canonical_g6(g)) if g.n <= 5 else None
        if is_minimal(g).minimal:
            assert (fitting_bounds(g).exact == 3) == (kind == "C5"), g
            minimal += 1
        if oracle_girth(g) == 3:
            assert classified.status == "girth3", g
            continue
        assert classified == ("exceptional", kind), g
        kinds[kind] = kinds.get(kind, 0) + 1
    assert len(graphs) == 1252 + 410
    assert kinds == dict.fromkeys(named.values(), 1)
    assert minimal == 11


def test_realizability_is_isomorphism_invariant():
    rng = random.Random(123)
    from helpers import random_graph

    for _ in range(500):
        g = random_graph(rng, rng.randrange(1, 8))
        assert (
            is_solvable_prime_graph(g).realizable
            == is_solvable_prime_graph(relabeled(g, rng)).realizable
        )


def test_coloring_and_orientation_routes_agree_small():
    # spot check on 5 vertices; the full sweep is an acceptance criterion
    for g in enumerate_graphs(5):
        by_coloring = is_solvable_prime_graph(g).realizable
        by_search = next(iter(all_valid_orientations(complement(g))), None) is not None
        assert by_coloring == by_search


def test_orient_from_coloring_output_validates_on_random_realizable():
    rng = random.Random(7)
    from helpers import random_graph
    from solvgraph.graphs import color_search

    seen = 0
    while seen < 1000:
        g = random_graph(rng, rng.randrange(2, 12), p=0.75)
        verdict_side = complement(g)
        from solvgraph import find_triangle

        if find_triangle(verdict_side) is not None:
            continue
        coloring, _ = color_search(verdict_side, 3)
        if coloring is None:
            continue
        o = orient_from_coloring(verdict_side, coloring)
        assert validate_frobenius_orientation(o) == []
        seen += 1


@st.composite
def search_inputs(draw):
    """A graph on at most 40 vertices: G(n, p), or the complement of a
    triangle-free graph (maximal, or thinned), so that verdicts reach
    the coloring search; plus a number of colors."""
    n = draw(st.integers(min_value=1, max_value=40))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    kind = draw(st.sampled_from(["random", "maximal", "thinned"]))
    if kind == "random":
        g = random_graph(rng, n, draw(st.sampled_from([0.1, 0.25, 0.5, 0.75, 0.9])))
    else:
        t = maximal_triangle_free(rng, n)
        if kind == "thinned":
            t = LabeledGraph(t.vertices, [e for e in t.sorted_edges() if rng.random() < 0.8])
        g = complement(t)
    return g, draw(st.integers(min_value=1, max_value=4))


@given(search_inputs())
@settings(max_examples=100, deadline=None)
def test_search_and_verdict_match_the_reference_search(case):
    g, k = case
    assert color_search(g, k) == reference_color_search(g, k)
    assert check_document(is_solvable_prime_graph(g)) == reference_verdict_document(g)


@given(search_inputs())
@settings(max_examples=100, deadline=None)
def test_first_use_rule_keeps_the_plain_search_coloring(case):
    # the first-use color rule only cuts subtrees that are color
    # permutations of failed ones: same first coloring, no more nodes
    g, k = case
    coloring, nodes = color_search(g, k)
    plain_coloring, plain_nodes = reference_color_search(g, k, break_symmetry=False)
    assert coloring == plain_coloring
    assert nodes <= plain_nodes


def test_search_and_verdict_match_the_reference_on_large_inputs():
    m11 = grotzsch()
    m23 = mycielski(numbered(m11))
    m47 = mycielski(numbered(m23))
    mtf100 = maximal_triangle_free(random.Random(0), 100)
    for t in (m11, m23, m47, mtf100):
        assert color_search(t, 3) == reference_color_search(t, 3)
        g = complement(t)
        assert check_document(is_solvable_prime_graph(g)) == reference_verdict_document(g)
