"""Digraph text format: `n <count>` header then one `<u> <v>` arc per line.

`#` starts a comment.  Canonical emission sorts arcs lexicographically,
UTF-8, LF line endings.
"""

from __future__ import annotations

from .digraph import Digraph, add_arc
from .errors import (
    DigraphSyntaxError,
    DuplicateArcError,
    LoopArcError,
    VertexOutOfRangeError,
)


def _is_digits(token: str) -> bool:
    """ASCII 0-9 only, as `format_digraph_text` writes them: `isdecimal`
    alone accepts other scripts' digits, such as '١', which `int` reads."""
    return token.isascii() and token.isdecimal()


def parse_digraph_text(text: str) -> Digraph:
    vertex_count: int | None = None
    seen: set[tuple[int, int]] = set()
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline
        if "#" in line:
            line = line[: line.index("#")]
        tokens = line.split()
        if not tokens:
            continue
        if vertex_count is None:
            if len(tokens) != 2 or tokens[0] != "n" or not _is_digits(tokens[1]):
                raise DigraphSyntaxError(f"expected 'n <count>', got {rawline!r}", lineno)
            vertex_count = int(tokens[1])
            continue
        if len(tokens) != 2:
            raise DigraphSyntaxError(f"expected '<u> <v>', got {rawline!r}", lineno)
        if not all(_is_digits(token.removeprefix("-")) for token in tokens):
            raise DigraphSyntaxError(f"non-integer arc {rawline!r}", lineno)
        u, v = int(tokens[0]), int(tokens[1])
        try:
            add_arc(seen, vertex_count, u, v)
        except (LoopArcError, VertexOutOfRangeError, DuplicateArcError) as exc:
            raise type(exc)(f"{exc} at line {lineno}") from None
    if vertex_count is None:
        raise DigraphSyntaxError("missing 'n <count>' header", 1)
    return Digraph(vertex_count, frozenset(seen))


def format_digraph_text(d: Digraph) -> str:
    lines = [f"n {d.vertex_count}"]
    lines.extend(f"{u} {v}" for u, v in sorted(d.arcs))
    return "\n".join(lines) + "\n"
