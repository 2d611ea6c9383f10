"""Immutable digraph representation with distances and neighbourhood operators.

Vertices are dense integers 0..n-1.  All values are frozen after construction
and safe to share; derived structures (adjacency lists, adjacency masks,
distance matrix) are cached lazily on the instance, so every search on one
digraph builds them once.  A distance is a hop count, or None when the target
is unreachable.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

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


@dataclass(frozen=True)
class Digraph:
    """A loopless simple directed graph on vertices 0..vertex_count-1."""

    vertex_count: int
    arcs: frozenset  # frozenset[Arc]

    @cached_property
    def out_adj(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for u, v in self.arcs:
            adj[u].append(v)
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def in_adj(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for u, v in self.arcs:
            adj[v].append(u)
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def out_masks(self) -> tuple[int, ...]:
        """Entry v: the out-neighbours of v as an int, bit w set for arc (v, w)."""
        return tuple(sum(1 << w for w in ws) for ws in self.out_adj)

    @cached_property
    def in_masks(self) -> tuple[int, ...]:
        """Entry v: the in-neighbours of v as an int, bit u set for arc (u, v)."""
        return tuple(sum(1 << u for u in us) for us in self.in_adj)

    def vertices(self) -> range:
        return range(self.vertex_count)

    def check_vertex(self, v: int) -> None:
        if not 0 <= v < self.vertex_count:
            raise VertexOutOfRangeError(f"vertex {v} not in 0..{self.vertex_count - 1}")

    # -- distances ---------------------------------------------------------

    def _bfs(self, source: int, adj: tuple[tuple[int, ...], ...]) -> tuple:
        dist: list[int | None] = [None] * self.vertex_count
        dist[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if dist[w] is None:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return tuple(dist)

    @cached_property
    def _raw_matrix(self) -> tuple[tuple, ...]:
        """Entry [u][v]: hop count from u to v, or None when unreachable."""
        return tuple(self._bfs(u, self.out_adj) for u in self.vertices())

    def distance(self, u: int, v: int) -> int | None:
        """Hop count from u to v, or None when v is unreachable from u."""
        self.check_vertex(u)
        self.check_vertex(v)
        return self._raw_matrix[u][v]

    def is_strongly_connected(self) -> bool:
        if self.vertex_count == 0:
            return True
        return all(d is not None for d in self._raw_matrix[0]) and all(
            d is not None for d in self._bfs(0, self.in_adj)
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


def sorted_arcs(d: Digraph) -> list[Arc]:
    return sorted(d.arcs)


def iter_arc_pairs(n: int) -> Iterator[Arc]:
    """All ordered vertex pairs (u, v), u != v, in lexicographic order."""
    for u in range(n):
        for v in range(n):
            if u != v:
                yield (u, v)
