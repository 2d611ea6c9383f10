"""Immutable digraph representation with distances and neighbourhood operators.

Vertices are dense integers 0..n-1.  All values are frozen after construction
and safe to share; derived structures (adjacency masks, radius-2 in-balls,
distance matrix) are tables, built on first read and stored in the instance
`__dict__`, so every search on one digraph builds them once and later reads
are plain attribute lookups.  `_table` is that caching descriptor: unlike
`functools.cached_property`, it takes no lock (Python 3.11's does; 3.12
dropped it, so the gain is smaller there), and the first read of either
adjacency table fills both from one pass over the arcs.  Nothing is built at
construction, so a size bound can be checked before anything of size n
exists.  The masks are the one adjacency format every walk reads.  A
distance is a hop count, or None when the target is unreachable.  Two
breadth-first walks on masks serve the package: `_ball` gives the
vertices within a radius, which the kernel engine, closures, strong
connectivity and the substitution method read, and `_hops` gives hop counts
from one source, which build the distance matrix behind `distance`, the
neighbourhood operators and the list predicates.  `in_balls2` needs no
walk: v's radius-2 in-ball is v's in-mask joined with the in-masks of its
in-neighbours, built in one loop over the in-masks.  `_mask` builds a mask
from vertices, and `_members`, its inverse, lists a mask's vertices for the
callers that need them as a vertex set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence

from .errors import (
    DuplicateArcError,
    EmptySetError,
    LoopArcError,
    VertexOutOfRangeError,
)

Arc = tuple[int, int]
VertexSet = tuple[int, ...]


def as_vertex_set(vertices: Iterable[int]) -> VertexSet:
    """Canonical sorted-ascending tuple of distinct vertex ids."""
    return tuple(sorted(set(vertices)))


class _table:
    """A table computed by `func` on its first read and stored in the instance
    `__dict__` under the attribute's name, where later reads find it without
    calling the descriptor.  `func` is looked up at read time, so it can be
    replaced on the descriptor.  Two threads reading a table at once may both
    build it; they build equal values from the frozen fields."""

    def __init__(self, func: Callable[[Any], Any]) -> None:
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, obj: Any, owner: type | None = None) -> Any:
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


@dataclass(frozen=True)
class Digraph:
    """A loopless simple directed graph on vertices 0..vertex_count-1."""

    vertex_count: int
    arcs: frozenset  # frozenset[Arc]

    def _adjacency(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The out- and in-masks, from one pass over the arcs."""
        outs = [0] * self.vertex_count
        ins = [0] * self.vertex_count
        for u, v in self.arcs:
            outs[u] |= 1 << v
            ins[v] |= 1 << u
        return tuple(outs), tuple(ins)

    @_table
    def out_masks(self) -> tuple[int, ...]:
        """Entry v: the out-neighbours of v as an int, bit w set for arc (v, w)."""
        out_masks, self.__dict__["in_masks"] = self._adjacency()
        return out_masks

    @_table
    def in_masks(self) -> tuple[int, ...]:
        """Entry v: the in-neighbours of v as an int, bit u set for arc (u, v)."""
        self.__dict__["out_masks"], in_masks = self._adjacency()
        return in_masks

    @_table
    def in_balls2(self) -> tuple[int, ...]:
        """Entry v: v and every vertex reaching v within 2 steps, as an int:
        v's in-mask joined with the in-masks of its in-neighbours."""
        in_masks = self.in_masks
        balls = []
        for v, ins in enumerate(in_masks):
            ball, tails = ins | 1 << v, ins
            while tails:
                low = tails & -tails
                ball |= in_masks[low.bit_length() - 1]
                tails ^= low
            balls.append(ball)
        return tuple(balls)

    def vertices(self) -> range:
        return range(self.vertex_count)

    def check_vertex(self, v: int) -> None:
        if not 0 <= v < self.vertex_count:
            raise VertexOutOfRangeError(f"vertex {v} not in 0..{self.vertex_count - 1}")

    # -- distances ---------------------------------------------------------

    @_table
    def _raw_matrix(self) -> tuple[tuple, ...]:
        """Entry [u][v]: hop count from u to v, or None when unreachable."""
        return tuple(_hops(self.out_masks, u) for u in self.vertices())

    def distance(self, u: int, v: int) -> int | None:
        """Hop count from u to v, or None when v is unreachable from u."""
        self.check_vertex(u)
        self.check_vertex(v)
        return self._raw_matrix[u][v]

    def is_strongly_connected(self) -> bool:
        """Vertex 0's out-ball and in-ball each cover every vertex."""
        n = self.vertex_count
        whole = (1 << n) - 1
        return n == 0 or (
            _ball(self.out_masks, 0, whole, n) == whole
            and _ball(self.in_masks, 0, whole, n) == whole
        )

    # -- subdigraphs and neighbourhoods ------------------------------------

    def induced(self, subset: Iterable[int]) -> tuple["Digraph", dict[int, int]]:
        """Induced subdigraph on `subset`, relabeled to 0..|S|-1 in ascending
        order of the original ids.  Returns (subdigraph, old->new mapping)."""
        vs = as_vertex_set(subset)
        for v in vs:
            self.check_vertex(v)
        mapping = {old: new for new, old in enumerate(vs)}
        keep = set(vs)
        arcs = frozenset(
            (mapping[u], mapping[v]) for u, v in self.arcs if u in keep and v in keep
        )
        return Digraph(len(vs), arcs), mapping

    def in_neighborhood_at_distance(self, subset: Iterable[int], ell: int) -> VertexSet:
        """Vertices u outside the set with d(u, v) exactly `ell` for some member v."""
        vs = as_vertex_set(subset)
        if not vs:
            raise EmptySetError("in-neighbourhood of an empty set")
        for v in vs:
            self.check_vertex(v)
        members = set(vs)
        raw = self._raw_matrix
        found = {
            u
            for u in self.vertices()
            if u not in members and any(raw[u][v] == ell for v in vs)
        }
        return as_vertex_set(found)

    def out_cone(self, subset: Iterable[int], ell: int) -> VertexSet:
        """Vertices v with 0 < d(u, v) <= `ell` for some member u."""
        vs = as_vertex_set(subset)
        if not vs:
            raise EmptySetError("out-cone of an empty set")
        for v in vs:
            self.check_vertex(v)
        raw = self._raw_matrix
        found = set()
        for u in vs:
            row = raw[u]
            for v in self.vertices():
                d = row[v]
                if d is not None and 0 < d <= ell:
                    found.add(v)
        return as_vertex_set(found)


def _ball(adj: Sequence[int], v: int, within: int, radius: int) -> int:
    """v and the vertices reached from v in <= radius steps (radius >= 1)
    along `adj` inside `within`; it stops once a step reaches nothing new."""
    frontier = adj[v] & within
    ball = frontier | 1 << v
    while frontier and radius > 1:
        radius -= 1
        step = 0
        while frontier:
            low = frontier & -frontier
            step |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = step & within & ~ball
        ball |= frontier
    return ball


def _mask(vs: Iterable[int]) -> int:
    """The mask with the bits of `vs` set; the inverse of `_members`."""
    out = 0
    for v in vs:
        out |= 1 << v
    return out


def _members(mask: int) -> VertexSet:
    """The set bits of `mask`, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _hops(adj: Sequence[int], source: int) -> tuple[int | None, ...]:
    """Entry v: the hop count from `source` to v along `adj`, or None when
    v is unreachable; one layer of the walk per hop."""
    hops: list[int | None] = [None] * len(adj)
    frontier = seen = 1 << source
    depth = 0
    while frontier:
        step = 0
        while frontier:
            low = frontier & -frontier
            v = low.bit_length() - 1
            hops[v] = depth
            step |= adj[v]
            frontier ^= low
        frontier = step & ~seen
        seen |= frontier
        depth += 1
    return tuple(hops)


def add_arc(seen: set[Arc], vertex_count: int, u: int, v: int) -> None:
    """Add arc (u, v) to `seen`; reject a loop, an out-of-range end or a repeat."""
    if u == v:
        raise LoopArcError(f"loop arc ({u}, {u})")
    if not (0 <= u < vertex_count and 0 <= v < vertex_count):
        raise VertexOutOfRangeError(f"arc ({u}, {v}) outside 0..{vertex_count - 1}")
    if (u, v) in seen:
        raise DuplicateArcError(f"duplicate arc ({u}, {v})")
    seen.add((u, v))


def build_digraph(vertex_count: int, arcs: Iterable[Arc]) -> Digraph:
    """Validated constructor: rejects loops, duplicates, and out-of-range ids."""
    if vertex_count < 0:
        raise VertexOutOfRangeError("vertex_count must be non-negative")
    seen: set[Arc] = set()
    for u, v in arcs:
        add_arc(seen, vertex_count, u, v)
    return Digraph(vertex_count, frozenset(seen))


def directed_cycle(n: int) -> Digraph:
    """The directed cycle 0 -> 1 -> ... -> n-1 -> 0 (edgeless for n < 2)."""
    if n < 2:
        return build_digraph(n, [])
    return build_digraph(n, [(i, (i + 1) % n) for i in range(n)])


def iter_arc_pairs(n: int) -> Iterator[Arc]:
    """All ordered vertex pairs (u, v), u != v, in lexicographic order."""
    for u in range(n):
        for v in range(n):
            if u != v:
                yield (u, v)
