"""The 3-substitution method: frozen hand-traces, roads, and lemma checkers.

The C6/C4/C3 traces below were derived by hand from the set equations and
double-checked against the brute-force solver before being frozen here.
The trace builder's N' sets and M-sets are checked against a reference that
applies the set equations directly, one distance query per set or vertex,
and its base-kernel check on D's masks against `is_kl_kernel` on an
`induced` copy of D - x0.  The lemma checkers and the method's verdict read
radius-2 in-ball masks and hop counts on masks; references in this file
recompute them from `Digraph.distance` and, for the hop counts from x0,
from networkx.  Their witness paths and the road search read adjacency
masks and must equal the breadth-first and depth-first searches over
sorted out-lists kept here as references.  The road conditions, the labels
and the unique-chord checker read the trace's label masks; the references
here test membership in the trace's sorted set tuples and arcs in
`Digraph.arcs`, and the reference road search checks only whole paths.
`roads_of`, which builds one skip table for every road length, must give
`find_road`'s road, or none, for every set member.
A trace stores its sets as label masks; the hand-built traces here are
written as set tuples that `labels_of` turns into those masks, and the
trace invariants must reject a hand-broken C6 trace of each of their five
kinds.

Three small strongly connected digraphs (A, B, C at the bottom) are frozen
as regression inputs for the lemma checkers: on each of them one of the
method's claimed properties genuinely fails, and the checkers must *report*
that rather than mask it.  See the README section on reported findings.
"""

import os
import subprocess
import sys
import textwrap
from collections import deque
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kernelkit
from kernelkit import (
    THREE_KERNEL,
    SubstitutionTrace,
    as_vertex_set,
    assemble_pre_3_kernel,
    build_digraph,
    build_substitution_sequence,
    check_additive_inverse_property,
    check_pre_kernel_properties,
    check_unique_short_chord,
    directed_cycle,
    find_kl_kernel,
    find_road,
    is_3_kernel_perfect,
    is_kl_kernel,
    is_quasi_3_kernel_perfect,
    roads_of,
    run_substitution_method,
    start_substitution,
    validate_road,
)
from kernelkit.errors import (
    NoBaseKernelError,
    NoRoadFoundError,
    NotAKernelError,
    SubkernelMissingError,
    TraceInvariantError,
)
from kernelkit.generators import random_digraph, random_strongly_connected
from kernelkit.substitution import ConditionResult, _check_trace_invariants, _close_path


@pytest.fixture
def c6_trace():
    return run_substitution_method(directed_cycle(6), 0).trace


# -- frozen worked traces ----------------------------------------------------


def test_c6_full_trace(c6_trace):
    t = c6_trace
    assert t.base_kernel == (2, 5)
    assert t.p == 2
    assert t.added == ((0,), (3,), ())
    assert t.removed_one == ((5,), (2,), ())
    assert t.removed_two == ((), (), ())
    assert t.m_sets == ((0,), (3,), ())
    assert assemble_pre_3_kernel(t) == (0, 3)


def test_c6_outcome_is_3_kernel():
    outcome = run_substitution_method(directed_cycle(6), 0)
    assert outcome.pre_3_kernel == (0, 3)
    assert outcome.is_3_kernel
    assert outcome.failure_witness is None


def test_c6_intermediates(c6_trace):
    assert c6_trace.primed_one == ((), ())
    assert c6_trace.primed_two == ((4,), (1,))
    assert c6_trace.intermediate_at(2) == (4,)
    assert c6_trace.intermediate_at(8) == ()  # k = p is out of range


def test_c6_set_indexing(c6_trace):
    assert c6_trace.set_at(0) == (0,)
    assert c6_trace.set_at(1) == (5,)
    assert c6_trace.set_at(3) == (3,)
    assert c6_trace.set_at(4) == (2,)
    assert c6_trace.set_at(99) == ()
    assert c6_trace.added_round(3) == 1
    assert c6_trace.added_round(4) is None


def test_c3_trace():
    outcome = run_substitution_method(directed_cycle(3), 0)
    assert outcome.pre_3_kernel == (0,)
    assert outcome.is_3_kernel
    assert outcome.trace.p == 1
    assert outcome.trace.removed_one[0] == (2,)


def test_c4_method_fails_honestly():
    outcome = run_substitution_method(directed_cycle(4), 0)
    assert outcome.pre_3_kernel == (0, 1)
    assert not outcome.is_3_kernel
    assert outcome.failure_witness == (0, 1)


def test_single_vertex():
    outcome = run_substitution_method(build_digraph(1, []), 0)
    assert outcome.pre_3_kernel == (0,)
    assert outcome.is_3_kernel
    assert outcome.trace.p == 0


def test_no_base_kernel():
    # C4 plus an apex vertex: deleting the apex leaves C4, which has no 3-kernel
    d = build_digraph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (0, 4)])
    with pytest.raises(NoBaseKernelError):
        run_substitution_method(d, 4)


def test_build_rejects_non_kernel():
    with pytest.raises(NotAKernelError):
        build_substitution_sequence(directed_cycle(6), 0, (1, 4))
    with pytest.raises(NotAKernelError):
        build_substitution_sequence(directed_cycle(6), 0, (0, 3))  # contains x0


def rejected_on_an_induced_copy(d, x0, kernel):
    """Reference: the base-kernel check on a relabelled copy of D - x0."""
    sub, mapping = d.induced(v for v in d.vertices() if v != x0)
    return x0 in kernel or not is_kl_kernel(sub, [mapping[v] for v in kernel], THREE_KERNEL)


@given(
    st.builds(
        random_strongly_connected, st.integers(1, 7), st.floats(0, 1), st.integers(0, 2**32)
    ),
    st.integers(0, 6),
    st.integers(0, 2**7 - 1),
)
@settings(max_examples=150, deadline=None)
def test_base_kernel_check_matches_the_induced_copy_route(d, x0, picks):
    x0 %= d.vertex_count
    found = find_kl_kernel(d, THREE_KERNEL, within=[v for v in d.vertices() if v != x0])
    for kernel in (tuple(v for v in d.vertices() if picks >> v & 1), found.witness or ()):
        try:
            build_substitution_sequence(d, x0, kernel)
            rejected = False
        except NotAKernelError:
            rejected = True
        except SubkernelMissingError:
            rejected = False
        assert rejected == rejected_on_an_induced_copy(d, x0, kernel)


# -- roads -------------------------------------------------------------------


def road_labels(trace, road):
    """The display labels of a road's path, as `cli substitute --trace` prints them."""
    return tuple(trace.label_of(w, road.length - j) for j, w in enumerate(road.path))


def test_c6_road_from_n3(c6_trace):
    road = find_road(c6_trace, 3, 3)
    assert road.path == (3, 4, 5, 0)
    assert road_labels(c6_trace, road) == ("N3", "N'2", "N1", "N0")
    assert road.length == 3
    assert road.vertex_at(0) == 0 and road.vertex_at(3) == 3


def test_road_positions_outside_the_road_raise(c6_trace):
    road = find_road(c6_trace, 3, 3)
    assert [road.vertex_at(i) for i in range(4)] == [0, 5, 4, 3]
    for i in (-1, 4, 5, 7, 8):
        with pytest.raises(IndexError):
            road.vertex_at(i)


def test_c6_road_from_n1(c6_trace):
    road = find_road(c6_trace, 5, 1)
    assert road.path == (5, 0)


def test_trivial_road(c6_trace):
    road = find_road(c6_trace, 0, 0)
    assert road.path == (0,)
    assert validate_road(c6_trace, road.path).passed


def test_find_road_rejects_wrong_membership(c6_trace):
    with pytest.raises(ValueError):
        find_road(c6_trace, 4, 3)


def test_validate_road_condition9_failure(c6_trace):
    report = validate_road(c6_trace, (4, 5, 0))
    assert not report.passed
    c9 = report.conditions[0]
    assert not c9.ok and "t_2=4 not in N_2" in c9.detail


def test_validate_road_rejects_non_path(c6_trace):
    for path in [(3, 5, 0), ()]:
        report = validate_road(c6_trace, path)
        assert not report.passed
        assert all(not c.ok for c in report.conditions)


def test_c6_roads_pass_all_conditions(c6_trace):
    for path in [(3, 4, 5, 0), (5, 0)]:
        assert validate_road(c6_trace, path).passed


def test_skip_arc_condition_reads_every_round_not_the_skip_position():
    # p = 3; N'_5 = (2, 5, 6, 7), N'_7 = (7, 10), and N_3 = (3,)
    t = start_substitution(random_strongly_connected(12, 0.15, 1560055), 0)
    assert t.p == 3
    cases = {
        # the skip arc (7, 5) at position 5 is allowed by j = 2 (7 in N'_7,
        # 5 in N'_5), although 5 is not 3j + 1 for any j
        (9, 10, 11, 7, 8, 5, 6, 4, 0): [
            (True, ""),
            (True, ""),
            (False, "t_i not in N_i at positions [3]"),
            (True, ""),
        ],
        (9, 10, 7, 8, 5, 6, 1, 4, 0): [
            (True, ""),
            (True, ""),
            (False, "t_i not in N_i at positions [3, 6]"),
            (False, "skip-arc label fails at positions [3]"),
        ],
        (9, 10, 7, 11, 5, 6, 1, 4, 0): [
            (True, ""),
            (True, ""),
            (False, "t_i not in N_i at positions [3, 6]"),
            (False, "skip-arc label fails at positions [3, 7]"),
        ],
    }
    for path, expected in cases.items():
        assert [(c.ok, c.detail) for c in validate_road(t, path).conditions] == expected
        assert reference_road_conditions(t, path) == expected


SET_READS = ("added", "removed_one", "removed_two", "primed_one", "primed_two")


def labels_of(added, removed_one, removed_two, primed_one, primed_two):
    """The (N_i, N'_i) mask pairs, i = 0..3p+2, of a trace with these set
    tuples: added[k] = N_{3k}, removed_one[k] = N_{3k+1} and so on, with
    the primed sets of round k < p."""
    def mask(vs):
        return sum(1 << v for v in set(vs))

    labels = []
    for k, n_3k in enumerate(added):
        labels.append((mask(n_3k), 0))
        for removed, primed in ((removed_one, primed_one), (removed_two, primed_two)):
            labels.append((mask(removed[k]), mask(primed[k]) if k < len(primed) else 0))
    return tuple(labels)


def with_sets(trace, **changes):
    """`trace` with the named fields and set tuples replaced, its labels
    rebuilt from the set tuples."""
    sets = {name: changes.pop(name, getattr(trace, name)) for name in SET_READS}
    return trace._replace(labels=labels_of(**sets), **changes)


def skip_arc_trace():
    """A hand-built trace (p = 3) whose only length-7 path from 7 to x0 = 0,
    7 6 5 4 3 2 1 0, has the skip arc (4, 2) at position 4.  Round j = 2
    allows it (4 in N'_7, 2 in N'_5); round j = 1, the one with 3j + 1 = 4,
    does not (N'_4 is empty)."""
    d = build_digraph(8, [(v, v - 1) for v in range(1, 8)] + [(4, 2)])
    labels = labels_of(
        added=((0,), (3,), (6,), ()), removed_one=((), (), (7,), ()),
        removed_two=((), (), (), ()), primed_one=((), (), (4,)), primed_two=((), (2,), ()),
    )
    return SubstitutionTrace(d, 0, (7,), labels, m_sets=((0,), (3,), (6,), ()))


def test_road_search_allows_a_skip_arc_from_another_round():
    t = skip_arc_trace()
    road = find_road(t, 7, 7)
    assert road.path == (7, 6, 5, 4, 3, 2, 1, 0)
    assert road_labels(t, road) == ("N7", "N6", "-", "-", "N3", "-", "-", "N0")
    assert validate_road(t, road.path).passed
    assert road.path == reference_find_road(t, 7, 7)
    report = check_unique_short_chord(t, road)
    assert (report.skip_positions, report.inner_positions) == ((4,), (4,))
    assert report.violations == ("t_5=5 beyond the skip arc not in N_5",)
    assert report.violations == reference_unique_chord(t, road)[2]


def test_road_search_refuses_a_skip_arc_no_round_allows():
    t = with_sets(skip_arc_trace(), primed_two=((), (), ()))  # N'_5 emptied
    with pytest.raises(NoRoadFoundError):
        find_road(t, 7, 7)
    assert reference_find_road(t, 7, 7) is None
    assert validate_road(t, (7, 6, 5, 4, 3, 2, 1, 0)).conditions[3] == ConditionResult(
        False, "skip-arc label fails at positions [4]"
    )


# -- lemma checkers on well-behaved traces -----------------------------------


def test_c6_pre_kernel_properties(c6_trace):
    report = check_pre_kernel_properties(c6_trace)
    assert report.passed
    assert report.absorption_violations == () and report.shape_violations == ()


def test_c6_unique_chord_vacuous(c6_trace):
    road = find_road(c6_trace, 3, 3)
    report = check_unique_short_chord(c6_trace, road)
    assert report.passed
    assert report.skip_positions == () and report.inner_positions == ()


def test_c6_additive_inverse(c6_trace):
    road = find_road(c6_trace, 3, 3)
    # d(0,3)=3 = -3 mod 3, d(0,4)=4 = -2 mod 3; position 1 is exempt
    assert check_additive_inverse_property(c6_trace, road).passed


def test_additive_inverse_flags_bad_positions(c6_trace):
    # (5, 0) read as a length-1 road checks only position 0; fabricate a
    # report over a path whose far end sits at the wrong residue instead
    report = check_additive_inverse_property(c6_trace, find_road(c6_trace, 5, 1))
    assert report.passed  # position 1 is exempt by the lemma statement


# -- frozen counterexamples: the checkers must report the violations ---------

# A: the process halts immediately (p = 0) and x0 = 3 keeps a length-2 path
# to the retained base-kernel vertex 0, so the internal-path shape claim
# fails with an endpoint outside the added sets.
DIGRAPH_A = build_digraph(6, [(0, 1), (1, 2), (2, 0), (2, 4), (3, 5), (4, 3), (4, 5), (5, 0)])

# B: N_1 is empty while both intermediate sets are occupied, so every
# candidate length-3 path from 2 breaks the position-pairing biconditional
# and no road exists.
DIGRAPH_B = build_digraph(6, [(0, 1), (0, 5), (1, 3), (1, 5), (2, 0), (2, 3), (3, 5), (4, 2), (5, 1), (5, 4)])

# C: strongly connected, every closed trail has length 0 mod 3, every proper
# induced subdigraph has a 3-kernel -- yet the method's pre-3-kernel for
# x0 = 3 contains the arc 3 -> 1, for either choice of base kernel.
DIGRAPH_C = build_digraph(6, [(0, 3), (1, 2), (2, 5), (3, 1), (3, 4), (4, 0), (5, 1), (5, 4)])


def test_counterexample_a_shape_violation_reported():
    outcome = run_substitution_method(DIGRAPH_A, 3)
    assert outcome.trace.p == 0
    assert outcome.pre_3_kernel == (0, 3)
    report = check_pre_kernel_properties(outcome.trace)
    assert report.absorption_violations == ()
    assert report.shape_violations == ((3, 0, (3, 5, 0), "endpoint outside the added sets"),)


def test_counterexample_b_road_gap_reported():
    outcome = run_substitution_method(DIGRAPH_B, 4)
    t = outcome.trace
    assert t.set_at(3) == (2,)
    assert t.set_at(1) == () and t.intermediate_at(1) == (5,)
    with pytest.raises(NoRoadFoundError):
        find_road(t, 2, 3)
    # both candidate paths fail exactly the pairing biconditional
    for path in [(2, 0, 5, 4), (2, 3, 5, 4)]:
        report = validate_road(t, path)
        assert not report.conditions[1].ok
        assert report.conditions[0].ok and report.conditions[2].ok


def test_roads_of_covers_every_set_member_and_marks_missing_roads():
    t = run_substitution_method(DIGRAPH_B, 4).trace
    triples = list(roads_of(t))
    assert [(s, v) for s, v, _ in triples] == [
        (s, v) for s in range(3 * t.p + 1) for v in t.set_at(s)
    ]
    assert (3, 2, None) in triples
    for s, v, road in triples:
        if road is not None:
            assert road == find_road(t, v, s)


def test_trace_invariants_are_checked_under_python_O():
    script = textwrap.dedent(
        """
        from kernelkit import SubstitutionTrace, directed_cycle
        from kernelkit.errors import TraceInvariantError
        from kernelkit.substitution import _check_trace_invariants

        assert not __debug__, "expected to run under python -O"
        # N_0 = {0}, N_1 = N_2 = {3}
        overlapping = SubstitutionTrace(
            digraph=directed_cycle(6), x0=0, base_kernel=(0, 3),
            labels=((1, 0), (8, 0), (8, 0)), m_sets=((0,),),
        )
        try:
            _check_trace_invariants(overlapping)
        except TraceInvariantError as exc:
            print(exc)
        """
    )
    src = str(Path(kernelkit.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "substitution sets must be disjoint\n"


def test_counterexample_c_method_fails_on_well_hypothesised_input():
    assert DIGRAPH_C.is_strongly_connected()
    assert is_quasi_3_kernel_perfect(DIGRAPH_C) == (True, None)
    assert is_3_kernel_perfect(DIGRAPH_C) == (True, None)
    outcome = run_substitution_method(DIGRAPH_C, 3)
    assert outcome.pre_3_kernel == (1, 3)
    assert not outcome.is_3_kernel
    assert outcome.failure_witness == (3, 1)
    # the alternative base kernel fares no better
    alt = build_substitution_sequence(DIGRAPH_C, 3, (0, 2))
    assert assemble_pre_3_kernel(alt) == (2, 3)


# -- trace builder against the set equations ---------------------------------


def reference_intermediate(trace, i):
    """N'_i = N^-_r(N_{3k}) - N_i for i = 3k + r, r in {1, 2}, k < p."""
    k, r = divmod(i, 3)
    source = trace.added[k] if r and 0 <= k < trace.p else ()
    if not source:
        return ()
    reach = trace.digraph.in_neighborhood_at_distance(source, r)
    return as_vertex_set(set(reach) - set(trace.set_at(i)))


def reference_m_sets(trace):
    """M_{3k+3}: each vertex outside the earlier M-sets and the surviving
    base kernel whose out-cone of radius 2 meets only removed base-kernel
    vertices and no added vertex."""
    d, kernel = trace.digraph, set(trace.base_kernel)
    m_sets, m_union, added_union, removed = [(trace.x0,)], {trace.x0}, {trace.x0}, set()
    for k in range(trace.p):
        removed |= set(trace.removed_one[k]) | set(trace.removed_two[k])
        m_next = []
        for x in sorted(set(d.vertices()) - m_union - (kernel - removed)):
            cone = set(d.out_cone([x], 2))
            if cone & kernel <= removed and not cone & added_union:
                m_next.append(x)
        m_sets.append(tuple(m_next))
        m_union |= set(m_next)
        added_union |= set(trace.added[k + 1])
    return tuple(m_sets)


@given(
    st.builds(
        random_strongly_connected, st.integers(2, 8), st.floats(0, 1), st.integers(0, 2**32)
    )
)
@example(directed_cycle(6))  # x0 = 0 is the hand trace above
@example(DIGRAPH_B)  # x0 = 4: N_1 empty, N'_1 occupied
@example(DIGRAPH_C)  # x0 = 3
@settings(max_examples=120, deadline=None)
def test_trace_sets_match_the_set_equations(d):
    for x0 in d.vertices():
        try:
            trace = start_substitution(d, x0)
        except (NoBaseKernelError, SubkernelMissingError):
            continue
        for i in range(-1, 3 * trace.p + 6):
            assert trace.intermediate_at(i) == reference_intermediate(trace, i)
        assert trace.m_sets == reference_m_sets(trace)


@pytest.mark.parametrize(
    "broken, message",
    [
        # 5 is in N_1 and in N_2
        ({"removed_two": ((5,), (), ())}, "substitution sets must be disjoint"),
        # 5 is in N_1 and in N_4: removed again in a later round
        ({"removed_one": ((5,), (2, 5), ())}, "substitution sets must be disjoint"),
        ({"m_sets": ((1,), (3,), ())}, "round 0 must add exactly x0"),
        ({"removed_one": ((5,), (4,), ())}, "round 1 removes vertices outside the base kernel"),
        (
            {"added": ((0,), (2,), ()), "removed_one": ((5,), (), ())},
            "round 1 adds base-kernel vertices",
        ),
        (
            {"base_kernel": (1, 2, 5), "removed_two": ((), (), (1,))},
            "terminal round 2 removes vertices",
        ),
    ],
)
def test_trace_invariants_reject_each_hand_broken_trace(c6_trace, broken, message):
    _check_trace_invariants(c6_trace)  # the C6 trace itself holds every invariant
    with pytest.raises(TraceInvariantError) as raised:
        _check_trace_invariants(with_sets(c6_trace, **broken))
    assert str(raised.value) == message


# -- lemma checkers and the method's verdict against distances ---------------


def within_two(d, a, b):
    """d(a, b) <= 2, read from the distance matrix."""
    dist = d.distance(a, b)
    return dist is not None and dist <= 2


def is_shortest_path(d, path, a, b):
    return (
        path[0] == a
        and path[-1] == b
        and len(path) - 1 == d.distance(a, b)
        and all((u, v) in d.arcs for u, v in zip(path, path[1:]))
    )


def reference_pre_kernel_report(trace):
    """(absorption violations, shape violations without their paths), from
    distances; each shape violation's path comes back from the checker."""
    d, pre = trace.digraph, assemble_pre_3_kernel(trace)
    absorption = tuple(
        u for u in d.vertices() if u not in pre and not any(within_two(d, u, v) for v in pre)
    )
    shape = []
    for a in pre:
        for b in pre:
            if a == b or not within_two(d, a, b):
                continue
            ka, kb = trace.added_round(a), trace.added_round(b)
            if ka is None or kb is None:
                shape.append((a, b, "endpoint outside the added sets"))
            elif ka > kb:
                shape.append((a, b, f"rounds out of order: {ka} > {kb}"))
    return absorption, shape


def reference_additive_inverse(trace, road):
    """The checker's violations from networkx's hop counts out of x0."""
    g = nx.DiGraph(trace.digraph.arcs)
    g.add_nodes_from(trace.digraph.vertices())
    hops = nx.single_source_shortest_path_length(g, trace.x0)
    violations = []
    for pos in range(road.length + 1):
        dist = hops.get(road.vertex_at(pos))
        if pos != 1 and (dist is None or dist % 3 != (-pos) % 3):
            violations.append((pos, dist))
    return tuple(violations)


@given(
    st.builds(
        random_strongly_connected, st.integers(2, 9), st.floats(0, 1), st.integers(0, 2**32)
    )
)
@example(DIGRAPH_A)
@example(DIGRAPH_B)
@example(DIGRAPH_C)
@settings(max_examples=100, deadline=None)
def test_checkers_and_verdict_match_the_distance_references(d):
    for x0 in d.vertices():
        try:
            outcome = run_substitution_method(d, x0)
        except (NoBaseKernelError, SubkernelMissingError):
            continue
        trace, pre = outcome.trace, outcome.pre_3_kernel

        report = check_pre_kernel_properties(trace)
        absorption, shape = reference_pre_kernel_report(trace)
        assert report.absorption_violations == absorption
        assert [(a, b, why) for a, b, _, why in report.shape_violations] == shape
        assert all(is_shortest_path(d, path, a, b) for a, b, path, _ in report.shape_violations)

        close = [(a, b) for a in pre for b in pre if a != b and within_two(d, a, b)]
        assert outcome.is_3_kernel == (not close and not absorption)
        if close:
            assert is_shortest_path(d, outcome.failure_witness, *close[0])
        else:
            assert outcome.failure_witness is None

        for _, _, road in roads_of(trace):
            if road is not None:
                report = check_additive_inverse_property(trace, road)
                assert report.violations == reference_additive_inverse(trace, road)


def out_lists(d):
    """Entry v: v's out-neighbours ascending, read from the arc set."""
    return [sorted(w for u, w in d.arcs if u == v) for v in d.vertices()]


def reference_shortest_path(d, a, b):
    """Breadth-first search from a over sorted out-lists, first parent kept."""
    adj = out_lists(d)
    parents = {a: a}
    queue = deque([a])
    while queue:
        u = queue.popleft()
        if u == b:
            out = [b]
            while out[-1] != a:
                out.append(parents[out[-1]])
            return tuple(reversed(out))
        for w in adj[u]:
            if w not in parents:
                parents[w] = u
                queue.append(w)
    return None


probabilities = st.sampled_from([0.0, 0.1, 0.3, 0.6, 0.9])
seeds = st.integers(0, 2**32)


@given(
    st.one_of(
        st.builds(random_strongly_connected, st.integers(2, 10), probabilities, seeds),
        st.builds(random_digraph, st.integers(2, 10), probabilities, seeds),
    )
)
@example(DIGRAPH_A)
@example(DIGRAPH_B)
@example(DIGRAPH_C)
@settings(max_examples=150, deadline=None)
def test_close_paths_match_the_breadth_first_reference(d):
    balls = d.in_balls2
    for a in d.vertices():
        for b in d.vertices():
            if a != b and balls[b] >> a & 1:
                assert _close_path(d, a, b) == reference_shortest_path(d, a, b)


# -- road search against the list search --------------------------------------


def reference_road_conditions(trace, path):
    """[(ok, detail)] of road conditions 9-12, membership read from the
    trace's sorted set tuples and arcs from `Digraph.arcs`."""
    d = trace.digraph
    s = len(path) - 1
    at = lambda i: path[s - i]

    bad_arcs = [
        (path[j], path[j + 1]) for j in range(s) if (path[j], path[j + 1]) not in d.arcs
    ]
    if not path or bad_arcs or len(set(path)) != len(path):
        why = bad_arcs or ("repeated vertex" if path else "no vertex")
        return [(False, f"not a path: {why}")] * 4

    if s <= 3 * trace.p and at(s) in trace.set_at(s):
        c9 = (True, "")
    else:
        c9 = (False, f"t_{s}={at(s)} not in N_{s}")

    bad10 = []
    i = 0
    while 3 * i + 2 <= s:
        lhs = at(3 * i + 1) in trace.set_at(3 * i + 1)
        rhs = at(3 * i + 2) in trace.intermediate_at(3 * i + 2)
        if lhs != rhs:
            bad10.append(3 * i + 1)
        i += 1
    c10 = (not bad10, f"biconditional fails at positions {bad10}" if bad10 else "")

    bad11 = [3 * i for i in range(s // 3 + 1) if at(3 * i) not in trace.set_at(3 * i)]
    c11 = (not bad11, f"t_i not in N_i at positions {bad11}" if bad11 else "")

    bad12 = []
    for i in range(2, s + 1):
        if (at(i), at(i - 2)) not in d.arcs:
            continue
        ok = any(
            at(i) in trace.intermediate_at(3 * j + 1)
            and at(i - 2) in trace.intermediate_at(3 * (j - 1) + 2)
            for j in range(1, trace.p + 1)
            if 3 * j < s
        )
        if not ok:
            bad12.append(i)
    c12 = (not bad12, f"skip-arc label fails at positions {bad12}" if bad12 else "")

    return [c9, c10, c11, c12]


def reference_label(trace, v, i):
    if v in trace.set_at(i):
        return f"N{i}"
    if v in trace.intermediate_at(i):
        return f"N'{i}"
    return "-"


def reference_unique_chord(trace, road):
    """(skip positions, inner positions, violations), from `Digraph.arcs`
    and the sorted set tuples."""
    s, at = road.length, road.vertex_at
    skips = tuple(i for i in range(2, s + 1) if (at(i), at(i - 2)) in trace.digraph.arcs)
    inner = tuple(i for i in skips if 2 < i < s)
    violations = []
    if inner:
        if len(skips) > 1:
            violations.append(f"multiple skip arcs at positions {list(skips)}")
        for q in range(2, s + 1, 3):
            if q > inner[0] and at(q) not in trace.set_at(q):
                violations.append(f"t_{q}={at(q)} beyond the skip arc not in N_{q}")
    return skips, inner, tuple(violations)


def reference_find_road(trace, v, s):
    """Depth-first search over sorted out-lists for a length-s road from v
    down to x0, far end first: the first path whose conditions all hold by
    `reference_road_conditions`, or None."""
    adj = out_lists(trace.digraph)
    path = [v]

    def descend(pos):
        if pos == 0:
            passed = all(ok for ok, _ in reference_road_conditions(trace, path))
            return tuple(path) if passed else None
        for w in adj[path[-1]]:
            if w in path:
                continue
            if (pos - 1) % 3 == 0 and w not in trace.set_at(pos - 1):
                continue
            path.append(w)
            hit = descend(pos - 1)
            if hit is not None:
                return hit
            path.pop()
        return None

    return descend(s)


def find_road_or_none(trace, v, s):
    try:
        return find_road(trace, v, s)
    except NoRoadFoundError:
        return None


def test_roads_of_matches_find_road_on_the_skip_arc_traces():
    # p = 3: the length-7 road needs round 2's skip, which roads_of's table
    # takes at s = 7, after round 1's at s = 4; emptied, no road is left
    allowed = skip_arc_trace()
    refused = with_sets(allowed, primed_two=((), (), ()))
    for trace in (allowed, refused):
        for s, v, road in roads_of(trace):
            assert road == find_road_or_none(trace, v, s), (s, v)
    assert (7, 7, find_road(allowed, 7, 7)) in roads_of(allowed)
    assert (7, 7, None) in roads_of(refused)


# the golden traces of tests/test_golden_reports.py: p = 2 at x0 = 1, p = 4 at x0 = 6
N12_S0 = random_strongly_connected(12, 0.08, 0)
N12_S39 = random_strongly_connected(12, 0.08, 39)


@given(
    st.builds(
        random_strongly_connected, st.integers(2, 9), probabilities, st.integers(0, 2**32)
    )
)
@example(directed_cycle(6))
@example(DIGRAPH_A)
@example(DIGRAPH_B)
@example(DIGRAPH_C)
@example(N12_S0)
@example(N12_S39)
@settings(max_examples=100, deadline=None)
def test_mask_road_search_matches_the_list_search(d):
    for x0 in d.vertices():
        try:
            trace = start_substitution(d, x0)
        except (NoBaseKernelError, SubkernelMissingError):
            continue
        for s, v, road in roads_of(trace):
            assert road == find_road_or_none(trace, v, s)  # roads_of's shared skip table
            expected = reference_find_road(trace, v, s)
            if expected is None:
                assert road is None
                continue
            labels = tuple(reference_label(trace, w, s - j) for j, w in enumerate(expected))
            assert (road.path, road_labels(trace, road)) == (expected, labels)
            report = check_unique_short_chord(trace, road)
            assert (report.skip_positions, report.inner_positions, report.violations) == (
                reference_unique_chord(trace, road)
            )


def simple_paths(d, v, length):
    """Every simple path of `length` arcs from v, over sorted out-lists."""
    adj = out_lists(d)
    path = [v]

    def extend():
        if len(path) == length + 1:
            yield tuple(path)
            return
        for w in adj[path[-1]]:
            if w not in path:
                path.append(w)
                yield from extend()
                path.pop()

    return extend()


def assert_validation_matches_the_reference(trace):
    for s in range(3 * trace.p + 1):
        for v in trace.set_at(s):
            for path in simple_paths(trace.digraph, v, s):
                report = validate_road(trace, path)
                assert [(c.ok, c.detail) for c in report.conditions] == (
                    reference_road_conditions(trace, path)
                )


@given(
    st.builds(
        random_strongly_connected,
        st.integers(9, 12),
        st.sampled_from([0.08, 0.12, 0.16]),
        st.integers(0, 2**32),
    )
)
@example(N12_S0)
@example(N12_S39)
@example(random_strongly_connected(12, 0.15, 1560055))  # x0 = 0: p = 3
@settings(max_examples=40, deadline=None)
def test_road_conditions_match_the_reference_on_every_simple_path(d):
    for x0 in d.vertices():
        try:
            trace = start_substitution(d, x0)
        except (NoBaseKernelError, SubkernelMissingError):
            continue
        if trace.p >= 2:
            assert_validation_matches_the_reference(trace)


def test_road_conditions_read_the_last_pair_of_a_length_3i_plus_2_path():
    # t_5 = 7 is in N'_5 and t_4 = 11 is not in N_4; no set N_5 holds a far
    # end, so the path is not among those the test above walks
    t = start_substitution(random_strongly_connected(12, 0.15, 1560055), 0)
    path = (7, 11, 5, 6, 4, 0)
    report = validate_road(t, path)
    assert report.conditions[1] == ConditionResult(False, "biconditional fails at positions [4]")
    assert [(c.ok, c.detail) for c in report.conditions] == reference_road_conditions(t, path)


def test_road_conditions_match_the_reference_on_a_hand_built_trace():
    t = skip_arc_trace()
    assert_validation_matches_the_reference(t)
    for path in [(), (7,), (0,), (99,), (-1,), (7, 6, 7), (7, 5), (7, 6, 5, 4, 2, 1, 0)]:
        report = validate_road(t, path)
        assert [(c.ok, c.detail) for c in report.conditions] == reference_road_conditions(t, path)
