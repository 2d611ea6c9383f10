"""Closures, (k,l)-kernel predicates, subset-search solver, and perfection.

The solver's lex-least claim is checked against a dumb itertools oracle, its
`within` search against the relabel route (search D[S] relabelled, then map
back), `kl_kernels` against `is_kl_kernel` on every subset, the perfection
scans against a brute-force scan over every subset of every induced
subdigraph, and the closure distance law against networkx shortest paths.
All three scans decide and name from one walk over the weakly connected
vertex sets, which is checked against networkx; a failing scan's
counterexample must be weakly connected, have no kernel by brute force, and
be the first brute-force failure in the walk's order.  The balls the walk
carries from set to set are checked against `_kernel_balls`' filler, which
builds them from scratch, at every set it visits.  The search, which builds
a vertex's balls when it first picks the vertex, must give what it gives on
balls built up front for every member, and the scans, which hand it their
carried balls, must never ask it to build one.
"""

import math
import random
from itertools import chain, combinations

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kernelkit import (
    KERNEL,
    THREE_KERNEL,
    KernelQuery,
    KernelResult,
    build_digraph,
    directed_cycle,
    find_kernel_via_closure,
    find_kl_kernel,
    is_3_kernel_perfect,
    is_k_independent,
    is_kernel_perfect,
    is_kl_kernel,
    is_l_absorbent,
    is_quasi_3_kernel_perfect,
    k_closure,
    kl_kernels,
)
from kernelkit import kernels
from kernelkit.errors import SizeBoundError, VertexOutOfRangeError
from kernelkit.generators import (
    enumerate_labeled_digraphs,
    random_digraph,
    random_strongly_connected,
)
from kernelkit.digraph import _ball, _members
from kernelkit.kernels import _every_connected_set


def all_subsets(n):
    return chain.from_iterable(combinations(range(n), r) for r in range(n + 1))


def subsets_lex(n):
    """All subsets of 0..n-1 as sorted tuples, in lexicographic list order
    (empty set first)."""
    prefix = []

    def rec(start):
        yield tuple(prefix)
        for v in range(start, n):
            prefix.append(v)
            yield from rec(v + 1)
            prefix.pop()

    return rec(0)


# -- closures ----------------------------------------------------------------

def test_one_closure_is_identity():
    d = random_digraph(7, 0.3, 42)
    assert k_closure(d, 1).arcs == d.arcs


def test_closure_rejects_nonpositive_k():
    with pytest.raises(ValueError):
        k_closure(directed_cycle(3), 0)


def test_closure_of_cycle():
    d = k_closure(directed_cycle(5), 2)
    assert (0, 2) in d.arcs and (0, 1) in d.arcs
    assert (0, 3) not in d.arcs


def test_closures_nest():
    d = random_digraph(8, 0.2, 7)
    assert k_closure(d, 2).arcs <= k_closure(d, 3).arcs


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("k", [2, 3])
def test_closure_distance_law_vs_networkx(seed, k):
    d = random_digraph(9, 0.2, seed)
    g = nx.DiGraph()
    g.add_nodes_from(d.vertices())
    g.add_edges_from(d.arcs)
    base = dict(nx.all_pairs_shortest_path_length(g))
    closed = k_closure(d, k)
    for u in d.vertices():
        for v in d.vertices():
            if u == v:
                continue
            expected = math.ceil(base[u][v] / k) if v in base[u] else None
            assert closed.distance(u, v) == expected


# -- predicates --------------------------------------------------------------

def test_c6_three_kernel_membership():
    d = directed_cycle(6)
    assert is_kl_kernel(d, (0, 3), THREE_KERNEL)
    assert not is_k_independent(d, (0, 2), 3)
    assert not is_l_absorbent(d, (0,), 2)


def test_unreachable_counts_as_independent():
    d = build_digraph(4, [(0, 1), (2, 3)])
    assert is_k_independent(d, (0, 2), 99)


def test_empty_set_absorbs_nothing():
    d = directed_cycle(3)
    assert not is_l_absorbent(d, (), 2)
    assert is_k_independent(d, (), 3)


# -- solver vs oracle --------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3])
def test_solver_finds_lex_least_exhaustively(n):
    for d in enumerate_labeled_digraphs(n):
        expected = next(
            (s for s in sorted(all_subsets(n)) if is_kl_kernel(d, s, THREE_KERNEL)),
            None,
        )
        result = find_kl_kernel(d, THREE_KERNEL)
        assert result.found == (expected is not None)
        if expected is not None:
            assert result.witness == expected


def test_solver_size_bound():
    # SUBSET_SEARCH_BOUND = 24 counts the searched vertices, not D's
    d = build_digraph(30, [])
    for within in (None, range(25)):
        with pytest.raises(SizeBoundError) as raised:
            find_kl_kernel(d, KERNEL, within=within)
        assert "exceeds subset-search bound 24" in str(raised.value)
    assert find_kl_kernel(d, KERNEL, within=range(24)).witness == tuple(range(24))


@pytest.mark.parametrize(
    "within, message",
    [
        ([9, 1, 7], "vertex 7 not in 0..4"),
        ([-1, 9], "vertex -1 not in 0..4"),
        ([2, 5], "vertex 5 not in 0..4"),
    ],
)
def test_within_names_its_smallest_out_of_range_vertex(within, message):
    with pytest.raises(VertexOutOfRangeError) as raised:
        find_kl_kernel(directed_cycle(5), KERNEL, within=within)
    assert str(raised.value) == message


@pytest.mark.parametrize("query", [KERNEL, THREE_KERNEL])
def test_within_reads_any_iterable_once_in_any_order(query):
    d = random_digraph(9, 0.3, 4)
    expected = find_kl_kernel(d, query, within=(1, 2, 4, 6, 7))
    for within in ((v for v in (7, 2, 4, 1, 6)), [1, 2, 2, 4, 6, 7, 1], [6, 4, 7, 1, 2]):
        assert find_kl_kernel(d, query, within=within) == expected
    with pytest.raises(VertexOutOfRangeError) as raised:
        find_kl_kernel(directed_cycle(5), query, within=(v for v in (9, 1, 7)))
    assert str(raised.value) == "vertex 7 not in 0..4"


def test_c4_has_no_three_kernel():
    result = find_kl_kernel(directed_cycle(4), THREE_KERNEL)
    assert not result.found and result.witness is None


def test_closure_route_agrees_with_direct_search():
    for seed in range(12):
        d = random_digraph(6, 0.3, seed)
        assert find_kernel_via_closure(d, 3).found == find_kl_kernel(d, THREE_KERNEL).found
    with pytest.raises(ValueError):
        find_kernel_via_closure(directed_cycle(4), 2)


def digraphs_up_to(max_n):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda a: a[0] != a[1]),
            unique=True,
            max_size=n * (n - 1),
        ).map(lambda arcs: build_digraph(n, arcs))
    )


digraphs = digraphs_up_to(5)


def relabel_route(d, query, subset):
    """Reference for `within`: search D[S] relabelled to 0..|S|-1 by scanning
    its distance matrix, then map the witness back to D's labels."""
    sub, mapping = d.induced(subset)
    labels = sorted(mapping)
    raw = sub._raw_matrix

    def near(u, v, radius):
        return raw[u][v] is not None and raw[u][v] <= radius

    examined = 0
    members = []

    def search(start):
        nonlocal examined
        examined += 1
        if all(u in members or any(near(u, v, query.l) for v in members) for u in sub.vertices()):
            return tuple(labels[v] for v in members)
        for v in range(start, sub.vertex_count):
            if not any(near(u, v, query.k - 1) or near(v, u, query.k - 1) for u in members):
                members.append(v)
                hit = search(v + 1)
                if hit is not None:
                    return hit
                members.pop()
        return None

    witness = search(0)
    return KernelResult(witness is not None, witness, examined)


# l != k-1 builds an absorbed-by ball of its own; l = k-1 reuses the in-conflict ball.
@given(digraphs_up_to(7), st.integers(0, 2**7 - 1), st.integers(2, 5), st.integers(1, 4))
@example(directed_cycle(6), 0b111111, 3, 1)
@example(directed_cycle(7), 0b1110111, 2, 2)
@example(build_digraph(5, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 3), (1, 3)]), 0b11111, 3, 1)
@settings(max_examples=150, deadline=None)
def test_within_search_matches_relabel_route_and_brute_force(d, picks, k, ell):
    subset = [v for v in d.vertices() if picks >> v & 1]
    query = KernelQuery(k, ell)
    result = find_kl_kernel(d, query, within=subset)
    assert result == relabel_route(d, query, subset)
    sub, mapping = d.induced(subset)
    expected = next(
        (s for s in sorted(all_subsets(len(subset))) if is_kl_kernel(sub, s, query)), None
    )
    assert result.witness == (None if expected is None else tuple(subset[v] for v in expected))
    if result.found:
        assert is_kl_kernel(sub, [mapping[v] for v in result.witness], query)


@given(digraphs)
@settings(max_examples=80, deadline=None)
def test_closure_lemma_equivalence_property(d):
    closed = k_closure(d, 2)
    for subset in all_subsets(d.vertex_count):
        assert is_kl_kernel(d, subset, THREE_KERNEL) == is_kl_kernel(closed, subset, KERNEL)


# l >= k lets a superset of a kernel be a kernel too: the search must go on past one.
@given(digraphs_up_to(6), st.integers(2, 5), st.integers(1, 4))
@example(build_digraph(2, []), 2, 2)
@example(directed_cycle(6), 2, 3)
@settings(max_examples=150, deadline=None)
def test_kl_kernels_lists_every_kernel_in_lex_order(d, k, ell):
    query = KernelQuery(k, ell)
    expected = [s for s in subsets_lex(d.vertex_count) if is_kl_kernel(d, s, query)]
    assert kl_kernels(d, query) == expected
    assert find_kl_kernel(d, query).witness == (expected[0] if expected else None)


def test_kl_kernels_size_bound():
    with pytest.raises(SizeBoundError):
        kl_kernels(directed_cycle(25), KERNEL)


# -- every digraph has a quasi-kernel (Chvatal-Lovasz) -------------------------

# A (2,2)-kernel is a quasi-kernel: an independent set that every other vertex
# reaches in one or two steps.  Chvatal and Lovasz (1974) showed that every
# digraph has one, while a (2,1)-kernel, a classic kernel, can be missing.
QUASI_KERNEL = KernelQuery(2, 2)
MODELS = [random_digraph, random_strongly_connected]
PROBS = [0.05, 0.1, 0.2, 0.35, 0.6]


@given(st.sampled_from(MODELS), st.integers(1, 12), st.sampled_from(PROBS),
       st.integers(0, 2**32 - 1))
@example(random_strongly_connected, 3, 0.05, 0)  # a directed C3: no kernel
@settings(max_examples=200, deadline=None)
def test_every_random_digraph_has_a_quasi_kernel(model, n, prob, seed):
    d = model(n, prob, seed)
    result = find_kl_kernel(d, QUASI_KERNEL)
    assert result.found and is_kl_kernel(d, result.witness, QUASI_KERNEL), d.arcs


def test_random_digraphs_without_a_kernel_still_have_a_quasi_kernel():
    draws = [
        model(n, prob, seed)
        for model in MODELS for n in range(1, 13) for prob in PROBS for seed in range(6)
    ]
    kernelless = [d for d in draws if not find_kl_kernel(d, KERNEL).found]
    assert kernelless  # positive control: the weaker demand is not vacuous
    for d in draws:
        assert find_kl_kernel(d, QUASI_KERNEL).found, d.arcs


# -- a digraph without odd cycles has a kernel (Richardson) --------------------

# Richardson (1953) showed that a digraph without odd cycles has a kernel, a
# (2,1)-kernel, and the class is hereditary.  Each draw below keeps only the
# arcs of a random model that cross a 2-colouring of the vertices, so every
# cycle alternates colours and is even.


def crossing_arcs_only(d, colours):
    """D with only its arcs between the two colour classes of the bitmask
    `colours`."""
    arcs = [(u, v) for u, v in d.arcs if (colours >> u ^ colours >> v) & 1]
    return build_digraph(d.vertex_count, arcs)


@given(st.sampled_from(MODELS), st.integers(1, 12), st.sampled_from([*PROBS, 0.9]),
       st.integers(0, 2**32 - 1), st.integers(0, 2**12 - 1))
@example(random_strongly_connected, 12, 0.9, 0, 0b010101010101)
@settings(max_examples=200, deadline=None)
def test_every_digraph_without_odd_cycles_has_a_kernel(model, n, prob, seed, colours):
    d = crossing_arcs_only(model(n, prob, seed), colours)
    g = nx.Graph(list(d.arcs))
    assert nx.is_bipartite(g)  # no odd cycle, even ignoring directions
    result = find_kl_kernel(d, KERNEL)
    assert result.found and is_kl_kernel(d, result.witness, KERNEL), d.arcs
    assert is_kernel_perfect(d) == (True, None), d.arcs


def test_an_odd_cycle_leaves_a_digraph_without_a_kernel():
    # the control: Richardson's hypothesis is needed, since C3 has no kernel
    assert not find_kl_kernel(directed_cycle(3), KERNEL).found
    assert is_kernel_perfect(directed_cycle(3)) == (False, (0, 1, 2))


# -- a digraph whose cycle lengths are all 0 mod k has a k-kernel --------------

# The mod-k theorem: when every cycle length is 0 mod k, D has a
# (k, k-1)-kernel; k = 2 is Richardson's.  A residue draw gives each vertex
# a residue r(v) in Z_k and allows only the arcs u -> v with r(v) = r(u) + 1,
# so r rises by one along each arc and every cycle length is 0 mod k.  By
# README's residue proof, each residue class of a strongly connected draw
# with n >= 2 is a (k, k-1)-kernel.


@st.composite
def residue_digraphs(draw):
    """(k, r, D): k in {2, 3, 4}, residues r of n <= 12 vertices, and D with
    each allowed arc kept with probability p."""
    k = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(1, 12))
    r = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    prob = draw(st.sampled_from([*PROBS, 0.9]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    allowed = [(u, v) for u in range(n) for v in range(n) if r[v] == (r[u] + 1) % k]
    return k, r, build_digraph(n, [arc for arc in allowed if rng.random() < prob])


CYCLE_8 = [(i, (i + 1) % 8) for i in range(8)]


@given(residue_digraphs())
@example((2, [0, 1, 0, 1], directed_cycle(4)))
@example((3, [0, 1, 2, 0, 1, 2], build_digraph(6, [*CYCLE_8[:5], (5, 0), (0, 4)])))
@example((4, [i % 4 for i in range(8)], build_digraph(8, [*CYCLE_8, (0, 5), (2, 7)])))
@settings(max_examples=300, deadline=None)
def test_every_digraph_whose_cycle_lengths_are_0_mod_k_has_a_k_kernel(draw):
    k, r, d = draw
    query = KernelQuery(k, k - 1)
    result = find_kl_kernel(d, query)
    assert result.found and is_kl_kernel(d, result.witness, query), (k, d.arcs)
    if d.vertex_count >= 2 and d.is_strongly_connected():
        for c in range(k):
            residue_class = [v for v in d.vertices() if r[v] == c]
            assert is_kl_kernel(d, residue_class, query), (k, r, d.arcs, c)


@pytest.mark.parametrize("k", [3, 4])
def test_a_cycle_of_length_k_plus_1_has_no_k_kernel(k):
    # the control: the hypothesis is needed (k = 2 is Richardson's C3 above)
    assert not find_kl_kernel(directed_cycle(k + 1), KernelQuery(k, k - 1)).found


# -- on-demand balls against balls built up front -----------------------------

ENGINE_QUERIES = [KernelQuery(2, 1), KernelQuery(3, 2), KernelQuery(4, 3), KernelQuery(3, 1),
                  KernelQuery(2, 2)]


def eager_search(d, query, whole, first):
    """Reference: every member's conflict and absorbed-by balls in D[whole]
    built up front from `_ball`, then the engine's recursion, which then
    never needs its filler."""
    out_masks, in_masks = d.out_masks, d.in_masks
    conflict, absorbed_by = [0] * d.vertex_count, [0] * d.vertex_count
    for v in _members(whole):
        conflict[v] = _ball(out_masks, v, whole, query.k - 1) | _ball(
            in_masks, v, whole, query.k - 1
        )
        absorbed_by[v] = _ball(in_masks, v, whole, query.l)
    return kernels._search_balls(whole, conflict, absorbed_by, first)


def eager_result(d, query, whole):
    """`find_kl_kernel`'s answer on D[whole] from `eager_search`."""
    found, examined = eager_search(d, query, whole, True)
    return KernelResult(bool(found), found[0] if found else None, examined)


def record_fills(monkeypatch):
    """Every vertex the kernel engine's recursion asks its filler for, in
    order; a caller that passes no filler fails at its first request."""
    asked = []
    search = kernels._search_balls

    def recording(whole, conflict, absorbed_by, first, fill=None):
        def counted(v):
            asked.append(v)
            return fill(v)

        return search(whole, conflict, absorbed_by, first, counted)

    monkeypatch.setattr(kernels, "_search_balls", recording)
    return asked


@given(digraphs_up_to(10), st.integers(0, 2**10 - 1), st.sampled_from(ENGINE_QUERIES))
@example(directed_cycle(6), 2**10 - 1, THREE_KERNEL)
@example(directed_cycle(7), 0b1110111, KernelQuery(2, 2))
@example(build_digraph(1, []), 0, KERNEL)
@settings(max_examples=200, deadline=None)
def test_on_demand_balls_match_balls_built_up_front(d, picks, query):
    whole = (1 << d.vertex_count) - 1
    assert find_kl_kernel(d, query) == eager_result(d, query, whole)
    assert kl_kernels(d, query) == eager_search(d, query, whole, False)[0]
    within = picks & whole
    assert find_kl_kernel(d, query, within=_members(within)) == eager_result(d, query, within)


@given(digraphs_up_to(10), st.sampled_from(ENGINE_QUERIES))
@settings(max_examples=60, deadline=None)
def test_the_search_fills_each_vertex_it_picks_once(d, query):
    with pytest.MonkeyPatch.context() as monkeypatch:
        fills = record_fills(monkeypatch)
        find_kl_kernel(d, query)
        assert len(fills) == len(set(fills))
        assert bool(fills) == (d.vertex_count > 0)  # the search picks vertex 0 first
        fills.clear()
        kl_kernels(d, query)
        assert len(fills) == len(set(fills)) == d.vertex_count  # a full walk picks each


@given(digraphs, st.integers(2, 4))
@settings(max_examples=60, deadline=None)
def test_independence_monotone_in_k(d, k):
    for subset in all_subsets(d.vertex_count):
        if is_k_independent(d, subset, k):
            assert is_k_independent(d, subset, k - 1)


# -- perfection --------------------------------------------------------------

def test_c3_kernel_perfection():
    d = directed_cycle(3)
    ok, counterexample = is_kernel_perfect(d)
    assert not ok and counterexample == (0, 1, 2)
    assert is_3_kernel_perfect(d) == (True, None)


def test_c4_three_kernel_perfection():
    d = directed_cycle(4)
    assert is_quasi_3_kernel_perfect(d) == (True, None)
    ok, counterexample = is_3_kernel_perfect(d)
    assert not ok and counterexample == (0, 1, 2, 3)


@given(digraphs_up_to(6))
@example(directed_cycle(4))
@settings(max_examples=120, deadline=None)
def test_quasi_perfect_digraph_is_perfect_iff_it_has_a_three_kernel(d):
    if not is_quasi_3_kernel_perfect(d)[0]:
        return
    if find_kl_kernel(d, THREE_KERNEL).found:
        assert is_3_kernel_perfect(d) == (True, None)
    else:
        assert is_3_kernel_perfect(d) == (False, tuple(d.vertices()))


def has_kernel_by_brute_force(d, subset, query):
    """Whether D[subset] has a (k,l)-kernel, by `is_kl_kernel` on every subset."""
    sub, _ = d.induced(subset)
    return any(is_kl_kernel(sub, s, query) for s in all_subsets(len(subset)))


def scan_reference(d, query, proper_only):
    """The first nonempty subset S, in `subsets_lex` order, whose D[S] has no
    (k,l)-kernel, found by testing every subset of D[S] with `is_kl_kernel`."""
    n = d.vertex_count
    for subset in subsets_lex(n):
        if not subset or (proper_only and len(subset) == n):
            continue
        if not has_kernel_by_brute_force(d, subset, query):
            return False, subset
    return True, None


ISOLATED_AND_TRIANGLE = build_digraph(4, [(1, 2), (2, 3), (3, 1)])
PATH_AND_TRIANGLE = build_digraph(5, [(0, 1), (2, 3), (3, 4), (4, 2)])


def assert_scan_matches_brute_force(d, scan, query, proper_only):
    """The scan's verdict is `scan_reference`'s; a failing scan names a
    weakly connected C without a kernel, the first brute-force failure in the
    connected-set walk's order."""
    n = d.vertex_count
    ok, counterexample = scan(d)
    assert ok == scan_reference(d, query, proper_only)[0]
    if ok:
        assert counterexample is None
        return
    assert is_weakly_connected(d, counterexample)
    assert not has_kernel_by_brute_force(d, counterexample, query)
    assert not (proper_only and len(counterexample) == n)
    first = _every_connected_set(
        d,
        query,
        lambda mask, *balls: proper_only and mask == (1 << n) - 1
        or has_kernel_by_brute_force(d, _members(mask), query),
    )
    assert first == (False, counterexample)


def assert_scans_match_brute_force(d):
    assert_scan_matches_brute_force(d, is_kernel_perfect, KERNEL, False)
    assert_scan_matches_brute_force(d, is_quasi_3_kernel_perfect, THREE_KERNEL, True)
    assert_scan_matches_brute_force(d, is_3_kernel_perfect, THREE_KERNEL, False)


@given(digraphs_up_to(6))
@example(directed_cycle(3))
@example(directed_cycle(4))
@example(build_digraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]))
@example(ISOLATED_AND_TRIANGLE)
@example(PATH_AND_TRIANGLE)
@settings(max_examples=100, deadline=None)
def test_perfection_scans_match_brute_force(d):
    assert_scans_match_brute_force(d)


# The shape of the `perfection` benchmark workload: sparse, strongly connected, n = 9.
@pytest.mark.parametrize("seed", range(10))
def test_perfection_scans_match_brute_force_on_sparse_strong_digraphs(seed):
    assert_scans_match_brute_force(random_strongly_connected(9, 0.03, seed))


@pytest.fixture
def searched(monkeypatch):
    """The vertex set of every run of the kernel engine's recursion, in order:
    the scans run it on the balls they carry, `find_kl_kernel` on its own."""
    calls = []
    search = kernels._search_balls

    def recording(whole, *balls):
        calls.append(_members(whole))
        return search(whole, *balls)

    monkeypatch.setattr(kernels, "_search_balls", recording)
    return calls


@pytest.mark.parametrize(
    "d, counterexample",
    [(ISOLATED_AND_TRIANGLE, (1, 2, 3)), (PATH_AND_TRIANGLE, (2, 3, 4))],
)
def test_kernel_perfection_names_the_failing_component(d, counterexample):
    assert is_kernel_perfect(d) == (False, counterexample)


def is_weakly_connected(d, subset):
    """Whether D[subset] is weakly connected, per networkx."""
    g = nx.DiGraph(d.arcs)
    g.add_nodes_from(d.vertices())
    return nx.is_weakly_connected(g.subgraph(subset))


def weakly_connected_subsets(d):
    """Every nonempty S whose D[S] is weakly connected."""
    return [s for s in subsets_lex(d.vertex_count) if s and is_weakly_connected(d, s)]


def test_last_3_kernel_search_is_the_failing_component(searched):
    # an isolated vertex and the directed C4, which has no 3-kernel
    d = build_digraph(5, [(1, 2), (2, 3), (3, 4), (4, 1)])
    assert is_3_kernel_perfect(d) == (False, (1, 2, 3, 4))
    assert searched[-1] == (1, 2, 3, 4)
    assert len(set(searched)) == len(searched)
    assert set(searched) <= set(weakly_connected_subsets(d))


@pytest.mark.parametrize("d", [ISOLATED_AND_TRIANGLE, PATH_AND_TRIANGLE, directed_cycle(6)])
def test_kernel_perfection_makes_no_kernel_search(d, searched):
    is_kernel_perfect(d)
    assert searched == []
    # positive control: the recording reaches the 3-kernel scan's searches
    is_3_kernel_perfect(d)
    assert searched


@pytest.mark.parametrize("d", [ISOLATED_AND_TRIANGLE, PATH_AND_TRIANGLE, directed_cycle(6),
                               random_strongly_connected(9, 0.03, 1), random_digraph(8, 0.3, 2)])
def test_perfection_scans_never_call_the_filler(d, monkeypatch):
    # the scans hand the recursion the balls they carry, every member's
    fills = record_fills(monkeypatch)
    is_3_kernel_perfect(d)
    is_quasi_3_kernel_perfect(d)
    kernels._perfection_scan(d, KERNEL, False)
    assert fills == []
    find_kl_kernel(d, THREE_KERNEL)  # positive control: a search fills its balls
    assert fills


def sym(arcs):
    return [arc for u, v in arcs for arc in ((u, v), (v, u))]


def test_interval_walk_matches_the_component_scan_on_every_digraph_up_to_4():
    for n in range(5):
        for d in enumerate_labeled_digraphs(n):
            assert is_kernel_perfect(d) == kernels._perfection_scan(d, KERNEL, False)


@pytest.mark.parametrize("model", [random_digraph, random_strongly_connected])
@pytest.mark.parametrize("prob", [0.05, 0.15, 0.3, 0.6])
def test_interval_walk_matches_the_component_scan_on_random_digraphs(model, prob):
    for n in range(1, 11):
        for seed in range(4):
            d = model(n, prob, seed)
            assert is_kernel_perfect(d) == kernels._perfection_scan(d, KERNEL, False)


@given(digraphs_up_to(5))
@example(build_digraph(1, []))
@example(build_digraph(3, sym([(0, 1), (1, 2), (0, 2)])))
@settings(max_examples=150, deadline=None)
def test_interval_walk_matches_brute_force(d):
    assert_scan_matches_brute_force(d, is_kernel_perfect, KERNEL, False)


@pytest.mark.parametrize(
    "d",
    [
        build_digraph(16, []),
        build_digraph(15, sym([(3 * i + a, 3 * i + b) for i in range(5)
                               for a, b in ((0, 1), (1, 2), (0, 2))])),
        build_digraph(16, sym([(2 * i, 2 * i + 1) for i in range(8)])),
        build_digraph(16, sym([(i, (i + 1) % 16) for i in range(16)])),
        directed_cycle(16),
        random_digraph(16, 0.1, 3),  # fails: the walk has no early exit
    ],
    ids=["empty", "symmetric-triangles", "digons", "symmetric-C16", "C16", "random-failing"],
)
def test_interval_walk_matches_the_component_scan_at_the_size_bound(d):
    assert is_kernel_perfect(d) == kernels._perfection_scan(d, KERNEL, False)


# the last two fail kernel-perfection, on their triangle (see above)
@pytest.mark.parametrize(
    "d",
    [build_digraph(4, [(0, 1), (2, 3)]), directed_cycle(6), ISOLATED_AND_TRIANGLE,
     PATH_AND_TRIANGLE],
)
def test_passing_scan_searches_each_weakly_connected_subset_once(d, searched):
    assert is_3_kernel_perfect(d) == (True, None)
    assert len(set(searched)) == len(searched)
    assert sorted(searched) == sorted(weakly_connected_subsets(d))


@given(digraphs_up_to(6))
@example(build_digraph(1, []))
@example(directed_cycle(6))
@settings(max_examples=150, deadline=None)
def test_connected_set_walk_asks_each_weakly_connected_set_once(d):
    asked = []
    assert _every_connected_set(
        d, KERNEL, lambda mask, *balls: asked.append(mask) or True
    ) == (True, None)
    assert sorted(asked) == sorted(sum(1 << v for v in s) for s in weakly_connected_subsets(d))
    # the radius-2 walk, which updates the balls it carries, asks the same sets in the same order
    at_radius_2 = []
    assert _every_connected_set(
        d, THREE_KERNEL, lambda mask, *balls: at_radius_2.append(mask) or True
    ) == (True, None)
    assert at_radius_2 == asked
    # sets by least vertex, ascending; each set after the set it extends by one vertex
    least = [mask & -mask for mask in asked]
    assert least == sorted(least)
    for i, mask in enumerate(asked):
        above_least = _members(mask & (mask - 1))
        if above_least:
            assert {mask ^ 1 << v for v in above_least} & set(asked[:i])
    for stop in range(len(asked)):
        seen = []
        failing = _every_connected_set(
            d, KERNEL, lambda mask, *balls: seen.append(mask) or len(seen) <= stop
        )
        assert seen == asked[: stop + 1] and failing == (False, _members(asked[stop]))


def assert_carried_balls_match_kernel_balls(d):
    """At every set C the walk visits, the balls it carries, masked to C,
    are the balls in D[C] that `_kernel_balls`' filler builds from scratch."""
    for query in (KERNEL, THREE_KERNEL):

        def ok(mask, conflict, absorbed_by):
            members = _members(mask)
            _, expected_absorbed_by, fill = kernels._kernel_balls(d, mask, query)
            for v in members:
                assert conflict[v] & mask == fill(v), (query, members, v)
                assert absorbed_by[v] & mask == expected_absorbed_by[v], (query, members, v)
            return True

        assert _every_connected_set(d, query, ok) == (True, None)


def test_carried_balls_match_kernel_balls_on_every_digraph_up_to_4():
    for n in range(5):
        for d in enumerate_labeled_digraphs(n):
            assert_carried_balls_match_kernel_balls(d)


@given(digraphs_up_to(8))
@example(directed_cycle(8))
@example(build_digraph(6, sym([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])))
@settings(max_examples=100, deadline=None)
def test_carried_balls_match_kernel_balls(d):
    assert_carried_balls_match_kernel_balls(d)


# The shape of the `perfection` benchmark workload.
@pytest.mark.parametrize("seed", range(10))
def test_carried_balls_match_kernel_balls_on_sparse_strong_digraphs(seed):
    assert_carried_balls_match_kernel_balls(random_strongly_connected(9, 0.03, seed))


@pytest.mark.parametrize("query", [KernelQuery(2, 2), KernelQuery(4, 3), KernelQuery(3, 1)])
def test_connected_set_walk_carries_balls_only_for_l_equal_k_minus_1_up_to_2(query):
    with pytest.raises(ValueError):
        _every_connected_set(directed_cycle(3), query, lambda mask, *balls: True)


# Two disjoint directed C4s, on {0, 5, 6, 7} and {1, 2, 3, 4}: the
# lexicographically first subset without a 3-kernel is {0, 1, 2, 3, 4}, but
# the connected-set walk meets {0, 5, 6, 7} first, and a failing scan names it.
TWO_C4S = build_digraph(8, [(0, 5), (5, 6), (6, 7), (7, 0), (1, 2), (2, 3), (3, 4), (4, 1)])


@pytest.mark.parametrize("proper_only", [False, True])
def test_failing_scan_names_the_first_failing_set_not_the_first_failing_subset(proper_only):
    d = TWO_C4S
    assert scan_reference(d, THREE_KERNEL, proper_only) == (False, (0, 1, 2, 3, 4))
    assert kernels._perfection_scan(d, THREE_KERNEL, proper_only) == (False, (0, 5, 6, 7))


@given(digraphs_up_to(6))
@settings(max_examples=100, deadline=None)
def test_undirected_ball_of_the_largest_vertex_is_its_weak_component(d):
    n = d.vertex_count
    linked = [out | in_ for out, in_ in zip(d.out_masks, d.in_masks)]
    g = nx.DiGraph(d.arcs)
    g.add_nodes_from(d.vertices())
    for subset in subsets_lex(n):
        if not subset:
            continue
        v = subset[-1]
        component = next(c for c in nx.weakly_connected_components(g.subgraph(subset)) if v in c)
        ball = _ball(linked, v, sum(1 << u for u in subset), n)
        assert ball == sum(1 << u for u in component)


def test_perfection_size_bound():
    # PERFECTION_BOUND = 16; each scan raises before its first search
    for scan in (is_kernel_perfect, is_quasi_3_kernel_perfect, is_3_kernel_perfect):
        with pytest.raises(SizeBoundError) as raised:
            scan(directed_cycle(17))
        assert str(raised.value) == "17 vertices exceeds perfection bound 16"
