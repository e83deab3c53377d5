"""Edge-list, arc-list, and graph6 round trips plus error reporting."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from helpers import random_graph
from solvgraph import (
    FormatError,
    LabeledGraph,
    emit_arc_list,
    emit_edge_list,
    emit_graph6,
    enumerate_graphs,
    parse_arc_list,
    parse_edge_list,
    parse_graph6,
    parse_graph_auto,
)

import random

from test_graphs import graphs


def test_edge_list_example():
    g = parse_edge_list("a b\nb c\n")
    assert g.vertices == ("a", "b", "c")
    assert g.has_edge("a", "b") and g.has_edge("b", "c") and not g.has_edge("a", "c")


def test_edge_list_loop_rejected():
    with pytest.raises(FormatError) as err:
        parse_edge_list("a a\n")
    assert err.value.offset == 0


def test_edge_list_header_and_comments():
    g = parse_edge_list("# prime graph\nvertices: x y z\nx y # chord\n")
    assert g.vertices == ("x", "y", "z")
    assert g.degree("z") == 0


def test_edge_list_round_trip():
    rng = random.Random(5)
    for _ in range(50):
        g = random_graph(rng, rng.randrange(1, 9))
        text = emit_edge_list(g)
        assert parse_edge_list(text) == g
        assert emit_edge_list(parse_edge_list(text)) == text


def test_edge_list_bad_line_offset():
    with pytest.raises(FormatError) as err:
        parse_edge_list("a b\na b c\n")
    assert err.value.offset == 4


def test_graph6_known_bytes():
    g = parse_graph6("D?{")
    assert g.n == 5
    assert sorted(g.edges) == [("0", "4"), ("1", "4"), ("2", "4"), ("3", "4")]
    assert emit_graph6(g) == b"D?{"


def test_graph6_round_trip_all_small_graphs():
    for n in range(0, 6):
        for g in enumerate_graphs(n):
            data = emit_graph6(g)
            again = parse_graph6(data)
            assert emit_graph6(again) == data
            assert len(again.edges) == len(g.edges)


def test_graph6_errors_carry_offsets():
    with pytest.raises(FormatError):
        parse_graph6(b"")
    with pytest.raises(FormatError) as err:
        parse_graph6(b"D?{junk")
    assert err.value.offset == 3
    with pytest.raises(FormatError):
        parse_graph6(b"D?")  # truncated body
    with pytest.raises(FormatError):
        parse_graph6(bytes([30]))  # header below the printable range


def test_graph6_padding_bits_must_be_zero():
    # 4 vertices use 6 bits exactly; 3 vertices leave 3 padding bits
    with pytest.raises(FormatError):
        parse_graph6(bytes([63 + 3, 63 + 1]))


@given(graphs(max_n=8))
@settings(max_examples=100, deadline=None)
def test_graph6_round_trip_property(g):
    data = emit_graph6(g)
    again = parse_graph6(data)
    assert again.n == g.n
    assert emit_graph6(again) == data


def test_arc_list_round_trip():
    text = "vertices: a b c d\na > b\nc > b\nc > d\n"
    o = parse_arc_list(text)
    assert emit_arc_list(o) == text
    assert ("c", "b") in o.arcs


def test_arc_list_rejects_double_orientation():
    with pytest.raises(FormatError):
        parse_arc_list("a > b\nb > a\n")


@pytest.mark.parametrize(
    "parse, text", [(parse_edge_list, "a b\nb a\n"), (parse_arc_list, "a > b\nb > a\n")]
)
def test_duplicate_pair_reported_at_second_line(parse, text):
    with pytest.raises(FormatError, match="duplicate pair") as err:
        parse(text)
    assert err.value.offset == text.index("\n") + 1


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_edge_list, "# header\nvertices: a b a\n", "vertex 'a' declared twice (byte offset 9)"),
        (parse_arc_list, "a > b\na >\n", "expected 'u > v', got 'a >' (byte offset 6)"),
        (parse_arc_list, "a > b\n> b\n", "expected 'u > v', got '> b' (byte offset 6)"),
        (parse_arc_list, "a > b\n\nb > c > d\n", "expected 'u > v', got 'b > c > d' (byte offset 7)"),
    ],
)
def test_malformed_line_reported_at_its_offset(parse, text, message):
    with pytest.raises(FormatError) as err:
        parse(text)
    assert str(err.value) == message


def test_auto_detection():
    assert parse_graph_auto("a b\n").has_edge("a", "b")
    assert parse_graph_auto("vertices: q\n").vertices == ("q",)
    assert parse_graph_auto("D?{").n == 5
    assert parse_graph_auto(b"D?{\n").n == 5


def test_graph6_input_holds_one_graph():
    assert parse_graph_auto("# one graph\nD?{\n\n# end\n").n == 5
    for text, second in (("D?{\nD?{\n", 4), ("D?{\n# and\n\nDQc\n", 11), ("D?{\na b\n", 4)):
        with pytest.raises(FormatError, match="more than one graph6 line") as err:
            parse_graph_auto(text)
        assert err.value.offset == second
    # edge lists keep one edge per line
    assert parse_graph_auto("a b\nb c\n").n == 3


def test_graph6_errors_in_auto_input_carry_input_offsets():
    # the offset counts from the start of the input, not of the graph6 line
    for text, offset in (("# note\nD?", 9), ("  D?", 4), ("\t D?{junk\n", 5), ("# \u00e9\n\u00a0D?", 9)):
        with pytest.raises(FormatError) as err:
            parse_graph_auto(text)
        assert err.value.offset == offset, text
    with pytest.raises(FormatError, match=r"^truncated graph6 body \(byte offset 9\)$"):
        parse_graph_auto(b"# note\nD?")


def test_graph6_non_ascii_is_a_format_error_at_its_input_byte():
    # the offset counts UTF-8 bytes of the input: 'é' is 0xc3 0xa9
    with pytest.raises(FormatError, match=r"^non-ASCII byte 0xc3 in graph6 line \(byte offset 4\)$"):
        parse_graph_auto(b"# x\n\xc3\xa9D?")
    for text, offset in (("# x\n\u00e9D?", 4), ("D?{\u00e9", 3), ("  \u00e9D?", 2)):
        with pytest.raises(FormatError, match="non-ASCII byte 0xc3") as err:
            parse_graph_auto(text)
        assert err.value.offset == offset, text
    with pytest.raises(FormatError, match=r"non-ASCII byte 0xe2 in graph6 line \(byte offset 2\)"):
        parse_graph6("D?\u2026")


def test_orientation_requires_full_cover():
    g = LabeledGraph("abc", [("a", "b"), ("b", "c")])
    from solvgraph import Orientation

    with pytest.raises(ValueError, match="cover every underlying edge"):
        Orientation(g, [("a", "b")])
    with pytest.raises(ValueError, match="oriented twice"):
        Orientation(g, [("a", "b"), ("b", "a")])
    with pytest.raises(ValueError, match=r"arc \('a', 'c'\) is not an underlying edge"):
        Orientation(g, [("a", "b"), ("b", "c"), ("a", "c")])
    with pytest.raises(ValueError, match=r"arc \('a', 'z'\) is not an underlying edge"):
        Orientation(g, [("a", "z")])
    with pytest.raises(ValueError, match="is not an underlying edge"):
        Orientation(g, [("a", "a")])
    # a repeated arc counts once, as in a set of arcs
    o = Orientation(g, [("a", "b"), ("c", "b"), ("a", "b")])
    assert o == Orientation(g, [("c", "b"), ("a", "b")])
    assert o.arcs == {("a", "b"), ("c", "b")}
    assert o.sorted_arcs() == [("a", "b"), ("c", "b")]
    assert o.in_rows == (0, 0b101, 0) and o.out_rows == (0b10, 0, 0b10)
