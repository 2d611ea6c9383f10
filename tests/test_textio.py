"""Text round trips and parse diagnostics for the digraph file format."""

import pytest

from kernelkit import build_digraph, directed_cycle, format_digraph_text, parse_digraph_text
from kernelkit.errors import (
    DigraphSyntaxError,
    DuplicateArcError,
    LoopArcError,
    VertexOutOfRangeError,
)


def test_round_trip_is_canonical():
    d = build_digraph(4, [(2, 1), (0, 3), (0, 1)])
    text = format_digraph_text(d)
    assert text == "n 4\n0 1\n0 3\n2 1\n"
    assert parse_digraph_text(text).arcs == d.arcs


def test_name_line_parses_as_a_comment():
    d = parse_digraph_text("# name: triangle\nn 3\n0 1\n1 2\n2 0\n")
    assert d.arcs == directed_cycle(3).arcs


def test_comments_and_blank_lines_ignored():
    d = parse_digraph_text("\n# preamble\nn 3\n0 1  # trailing\n\n1 2\n")
    assert d.arcs == frozenset({(0, 1), (1, 2)})


def test_missing_header():
    with pytest.raises(DigraphSyntaxError):
        parse_digraph_text("0 1\n")
    with pytest.raises(DigraphSyntaxError):
        parse_digraph_text("# only a comment\n")


def test_bad_header_reports_line():
    with pytest.raises(DigraphSyntaxError) as exc:
        parse_digraph_text("# c\nvertices 3\n")
    assert exc.value.line == 2
    # "²".isdigit() is true, but int("²") fails
    with pytest.raises(DigraphSyntaxError) as exc:
        parse_digraph_text("n \u00b2\n")
    assert exc.value.line == 1
    # Arabic-Indic three: isdecimal() and int() both accept it
    with pytest.raises(DigraphSyntaxError) as exc:
        parse_digraph_text("# c\nn \u0663\n0 1\n")
    assert exc.value.line == 2


def test_non_integer_arc():
    # arc tokens follow the header's rule, plus one optional leading '-';
    # Arabic-Indic and fullwidth digits are decimal, but not ASCII
    for arc in ["0 x", "0 1_0", "+0 1", "0 --1", "- 1", "0 \u00b2", "0 \u0661", "0 \uff10", "-\u0661 0"]:
        with pytest.raises(DigraphSyntaxError) as exc:
            parse_digraph_text(f"n 11\n{arc}\n")
        assert exc.value.line == 2
    with pytest.raises(VertexOutOfRangeError, match="line 2"):
        parse_digraph_text("n 3\n0 -1\n")


def test_wrong_token_count():
    with pytest.raises(DigraphSyntaxError):
        parse_digraph_text("n 3\n0 1 2\n")


def test_semantic_errors_carry_line_numbers():
    with pytest.raises(LoopArcError, match="line 2"):
        parse_digraph_text("n 3\n1 1\n")
    with pytest.raises(VertexOutOfRangeError, match="line 3"):
        parse_digraph_text("n 3\n0 1\n0 7\n")
    with pytest.raises(DuplicateArcError, match="line 3"):
        parse_digraph_text("n 3\n0 1\n0 1\n")


def test_empty_digraph_round_trip():
    assert format_digraph_text(build_digraph(0, [])) == "n 0\n"
    assert parse_digraph_text("n 0\n").vertex_count == 0
