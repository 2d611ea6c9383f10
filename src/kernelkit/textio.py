"""Digraph text format: `n <count>` header then one `<u> <v>` arc per line.

`#` starts a comment; a leading `# name: <text>` comment carries an optional
document name through a round trip.  Canonical emission sorts arcs
lexicographically, UTF-8, LF line endings.
"""

from __future__ import annotations

from dataclasses import dataclass

from .digraph import Digraph, add_arc, sorted_arcs
from .errors import (
    DigraphSyntaxError,
    DuplicateArcError,
    LoopArcError,
    VertexOutOfRangeError,
)


@dataclass(frozen=True)
class DigraphDocument:
    digraph: Digraph
    name: str | None = None


def parse_document(text: str) -> DigraphDocument:
    name: str | None = None
    vertex_count: int | None = None
    seen: set[tuple[int, int]] = set()
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline
        if "#" in line:
            comment = line[line.index("#") + 1 :].strip()
            if name is None and vertex_count is None and comment.startswith("name:"):
                name = comment[len("name:") :].strip()
            line = line[: line.index("#")]
        tokens = line.split()
        if not tokens:
            continue
        if vertex_count is None:
            if len(tokens) != 2 or tokens[0] != "n" or not tokens[1].isdigit():
                raise DigraphSyntaxError(f"expected 'n <count>', got {rawline!r}", lineno)
            vertex_count = int(tokens[1])
            continue
        if len(tokens) != 2:
            raise DigraphSyntaxError(f"expected '<u> <v>', got {rawline!r}", lineno)
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise DigraphSyntaxError(f"non-integer arc {rawline!r}", lineno) from None
        try:
            add_arc(seen, vertex_count, u, v)
        except (LoopArcError, VertexOutOfRangeError, DuplicateArcError) as exc:
            raise type(exc)(f"{exc} at line {lineno}") from None
    if vertex_count is None:
        raise DigraphSyntaxError("missing 'n <count>' header", 1)
    return DigraphDocument(Digraph(vertex_count, frozenset(seen)), name)


def parse_digraph_text(text: str) -> Digraph:
    return parse_document(text).digraph


def format_document(doc: DigraphDocument) -> str:
    lines = []
    if doc.name is not None:
        lines.append(f"# name: {doc.name}")
    lines.append(f"n {doc.digraph.vertex_count}")
    lines.extend(f"{u} {v}" for u, v in sorted_arcs(doc.digraph))
    return "\n".join(lines) + "\n"


def format_digraph_text(d: Digraph, name: str | None = None) -> str:
    return format_document(DigraphDocument(d, name))
