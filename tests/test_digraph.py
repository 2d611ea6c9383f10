"""Digraph construction, distances, mask balls and neighbourhood operators.

networkx is used as an independent oracle for shortest paths and strong
connectivity so the hand-rolled BFS and mask walks are checked against code
we did not write.
"""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelkit import (
    THREE_KERNEL,
    Digraph,
    as_vertex_set,
    build_digraph,
    directed_cycle,
    find_kl_kernel,
)
from kernelkit.digraph import _ball, iter_arc_pairs
from kernelkit.errors import (
    DuplicateArcError,
    EmptySetError,
    LoopArcError,
    SizeBoundError,
    VertexOutOfRangeError,
)
from kernelkit.generators import enumerate_labeled_digraphs, random_digraph


def to_networkx(d: Digraph) -> nx.DiGraph:
    g = nx.DiGraph()
    g.add_nodes_from(d.vertices())
    g.add_edges_from(d.arcs)
    return g


# -- construction ------------------------------------------------------------


def test_build_rejects_loops():
    with pytest.raises(LoopArcError):
        build_digraph(3, [(0, 0)])


def test_build_rejects_duplicates():
    with pytest.raises(DuplicateArcError):
        build_digraph(3, [(0, 1), (0, 1)])


def test_build_rejects_out_of_range():
    with pytest.raises(VertexOutOfRangeError):
        build_digraph(3, [(0, 3)])
    with pytest.raises(VertexOutOfRangeError):
        build_digraph(-1, [])


def test_empty_digraph():
    d = build_digraph(0, [])
    assert d.vertex_count == 0
    assert d.is_strongly_connected()


def test_as_vertex_set_sorts_and_dedupes():
    assert as_vertex_set([3, 1, 3, 2]) == (1, 2, 3)
    assert as_vertex_set([]) == ()


# -- distances against the networkx oracle -----------------------------------


arc_lists = st.integers(1, 7).flatmap(
    lambda n: st.builds(
        lambda picks: build_digraph(n, [p for p, keep in zip(iter_arc_pairs(n), picks) if keep]),
        st.lists(st.booleans(), min_size=n * (n - 1), max_size=n * (n - 1)),
    )
)


@pytest.mark.parametrize("seed", range(10))
def test_distance_matrix_matches_networkx(seed):
    d = random_digraph(8, 0.25, seed)
    g = to_networkx(d)
    oracle = dict(nx.all_pairs_shortest_path_length(g))
    for u in d.vertices():
        for v in d.vertices():
            assert d.distance(u, v) == oracle[u].get(v)


@given(arc_lists)
@settings(max_examples=150, deadline=None)
def test_hop_counts_match_networkx_with_unreachable_pairs(d):
    oracle = dict(nx.all_pairs_shortest_path_length(to_networkx(d)))
    for u in d.vertices():
        for v in d.vertices():
            assert d.distance(u, v) == oracle[u].get(v)


@pytest.mark.parametrize("seed", range(10))
def test_strong_connectivity_matches_networkx(seed):
    d = random_digraph(7, 0.3, seed)
    assert d.is_strongly_connected() == nx.is_strongly_connected(to_networkx(d))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_strong_connectivity_matches_networkx_on_every_small_digraph(n):
    for d in enumerate_labeled_digraphs(n):
        assert d.is_strongly_connected() == nx.is_strongly_connected(to_networkx(d))


class CountingMasks(tuple):
    """Adjacency masks that count their lookups."""

    reads = 0

    def __getitem__(self, v):
        self.reads += 1
        return super().__getitem__(v)


def test_ball_stops_once_its_frontier_is_empty():
    masks = CountingMasks(directed_cycle(5).out_masks)
    assert _ball(masks, 0, 0b11111, 10**9) == 0b11111
    assert masks.reads <= 5


def test_cycle_distances():
    d = directed_cycle(6)
    assert d.distance(0, 3) == 3
    assert d.distance(3, 0) == 3
    assert d.distance(2, 1) == 5
    assert d.distance(4, 4) == 0


@given(arc_lists)
@settings(max_examples=60, deadline=None)
def test_triangle_inequality(d):
    raw = d._raw_matrix
    n = d.vertex_count
    for u in range(n):
        for v in range(n):
            for w in range(n):
                if raw[u][v] is not None and raw[v][w] is not None:
                    assert raw[u][w] is not None
                    assert raw[u][w] <= raw[u][v] + raw[v][w]


@given(arc_lists)
@settings(max_examples=60, deadline=None)
def test_adjacency_masks_hold_exactly_the_adjacency_lists(d):
    def bits(mask):
        return {w for w in range(mask.bit_length()) if mask >> w & 1}

    for v in d.vertices():
        assert bits(d.out_masks[v]) == {w for u, w in d.arcs if u == v}
        assert bits(d.in_masks[v]) == {u for u, w in d.arcs if w == v}
    # the masks are the only adjacency: no adjacency lists, no list BFS
    assert not hasattr(Digraph, "out_adj") and not hasattr(Digraph, "_bfs")


# -- cached tables -----------------------------------------------------------


class CountingArcs(frozenset):
    """An arc set that counts the passes made over it."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


@pytest.mark.parametrize("first", ["out_masks", "in_masks"])
def test_both_adjacency_tables_come_from_one_pass_over_the_arcs(first):
    arcs = CountingArcs([(0, 1), (1, 2), (2, 0), (2, 1)])
    d = Digraph(3, arcs)
    assert arcs.passes == 0  # nothing is built at construction
    getattr(d, first)
    assert arcs.passes == 1
    assert d.out_masks == (0b010, 0b100, 0b011) and d.in_masks == (0b100, 0b101, 0b010)
    assert arcs.passes == 1


def test_filled_tables_leave_equality_and_hash_alone():
    arcs = [(0, 1), (1, 2), (2, 0), (0, 2)]
    filled, fresh = build_digraph(3, arcs), build_digraph(3, arcs)
    filled.distance(0, 2)
    filled.in_balls2
    assert {"out_masks", "in_masks", "in_balls2", "_raw_matrix"} <= set(vars(filled))
    assert filled == fresh and hash(filled) == hash(fresh)
    assert set(vars(fresh)) == {"vertex_count", "arcs"}


def test_a_size_bound_is_checked_before_any_table_is_built():
    d = Digraph(10**20, frozenset())
    with pytest.raises(SizeBoundError):
        find_kl_kernel(d, THREE_KERNEL)
    assert "out_masks" not in vars(d) and "in_masks" not in vars(d)


# -- subdigraphs and neighbourhoods ------------------------------------------


def test_induced_relabels_in_order():
    d = build_digraph(5, [(0, 2), (2, 4), (4, 0), (1, 3)])
    sub, mapping = d.induced([4, 0, 2])
    assert mapping == {0: 0, 2: 1, 4: 2}
    assert sub.vertex_count == 3
    assert sub.arcs == frozenset({(0, 1), (1, 2), (2, 0)})


def test_induced_rejects_bad_vertex():
    d = build_digraph(3, [])
    with pytest.raises(VertexOutOfRangeError):
        d.induced([0, 5])


def test_in_neighborhood_exact_distance():
    d = directed_cycle(6)
    assert d.in_neighborhood_at_distance([0], 1) == (5,)
    assert d.in_neighborhood_at_distance([0], 2) == (4,)
    # members themselves are excluded even when another member is nearby
    assert d.in_neighborhood_at_distance([0, 1], 1) == (5,)


def test_in_neighborhood_empty_set_raises():
    with pytest.raises(EmptySetError):
        directed_cycle(4).in_neighborhood_at_distance([], 1)


def test_out_cone():
    d = directed_cycle(6)
    assert d.out_cone([0], 2) == (1, 2)
    assert d.out_cone([0, 3], 1) == (1, 4)
    with pytest.raises(EmptySetError):
        d.out_cone([], 2)


def test_out_cone_excludes_distance_zero():
    d = build_digraph(3, [(0, 1), (1, 0)])
    # d(0, 0) = 0, so the source never lands in its own cone
    assert d.out_cone([0], 2) == (1,)
    assert d.out_cone([0], 1) == (1,)
