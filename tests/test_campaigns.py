"""Verification-campaign harness: determinism, occupancy reporting, and the
failure-collection contract, and that campaigns and commands leave no
reference cycles of kernelkit's for the cyclic collector."""

import contextlib
import gc
import inspect
import json
from itertools import chain, combinations

import networkx as nx
import pytest

from kernelkit import (
    KERNEL,
    THREE_KERNEL,
    CampaignParams,
    CycleHypothesisVariant,
    Digraph,
    HypothesisReport,
    build_digraph,
    check_circuit_hypothesis,
    check_cycle_hypothesis,
    directed_cycle,
    enumerate_cycles,
    every_cycle_has_symmetric_arc,
    format_digraph_text,
    is_kl_kernel,
    k_closure,
    parse_digraph_text,
    roads_of,
    run_campaign,
    start_substitution,
)
from kernelkit import campaigns, cli
from kernelkit.campaigns import CAMPAIGNS, CLASSES, PARAMETER_READERS
from kernelkit.cycles import Violation
from kernelkit.errors import BudgetExceededError
from kernelkit.generators import (
    derive_trial_seed,
    enumerate_labeled_digraphs,
    random_strongly_connected,
)


def test_unknown_property_id():
    with pytest.raises(KeyError):
        run_campaign("no-such-property", CampaignParams())


def test_closure_lemma_exhaustive_n3_passes():
    report = run_campaign("closure-lemma", CampaignParams(n=3, exhaustive=True))
    assert report.result == "pass"
    assert report.instances_checked == 64
    assert report.failures == []


def per_subset_closure_failures(n, radius):
    """Reference: the closure lemma checked subset by subset with both
    predicates, against the `radius`-closure, as its failures list."""
    subsets = sorted(chain.from_iterable(combinations(range(n), r) for r in range(n + 1)))
    items = []
    for d in enumerate_labeled_digraphs(n):
        closed = k_closure(d, radius)
        for subset in subsets:
            left = is_kl_kernel(d, subset, THREE_KERNEL)
            right = is_kl_kernel(closed, subset, KERNEL)
            if left != right:
                detail = f"subset {list(subset)}: (3,2) {left} vs closure (2,1) {right}"
                items.append({"instance": format_digraph_text(d), "detail": detail})
    return items


def test_closure_lemma_reports_every_disagreeing_subset(monkeypatch):
    # the 1-closure breaks the lemma, which the 2-closure never does
    monkeypatch.setattr(campaigns, "k_closure", lambda d, k: k_closure(d, 1))
    params = CampaignParams(n=3, exhaustive=True, max_failures=10**6)
    report = run_campaign("closure-lemma", params)
    expected = per_subset_closure_failures(3, 1)
    assert expected and report.failures == expected
    assert report.failures_total == len(expected)


def test_reverse_path_reports_every_arc_without_a_short_return(monkeypatch):
    # accept every strongly connected digraph: the hypothesis is what keeps
    # the lemma's failures away (at minimum length 3, where the class check
    # searches; at length 2 it is the acyclicity peel)
    monkeypatch.setattr(
        campaigns, "check_cycle_hypothesis", lambda *args, **kw: HypothesisReport(None, 0)
    )
    params = CampaignParams(n=4, exhaustive=True, max_failures=10**6, min_cycle_len=3)
    report = run_campaign("reverse-path", params)
    # networkx gives the hop counts, since the campaign and `Digraph.distance`
    # share one mask walk
    expected = [
        {"instance": format_digraph_text(d), "detail": f"arc ({u}, {v}) with d({v}, {u}) = {back}"}
        for d in enumerate_labeled_digraphs(4)
        if d.is_strongly_connected()
        for u, v in sorted(d.arcs)
        if (back := nx.shortest_path_length(nx.DiGraph(d.arcs), v, u)) > 2
    ]
    assert expected and report.failures == expected


def test_duchet_exhaustive_n3():
    report = run_campaign("duchet", CampaignParams(n=3, exhaustive=True))
    assert report.result == "pass"
    # 18 strongly connected digraphs on 3 labeled vertices; the two bare
    # triangles are the only ones whose cycle lacks a symmetric arc
    assert report.occupancy == {"tried": 18, "accepted": 16}


def test_vacuous_is_flagged_distinctly():
    # sparse random strongly connected digraphs essentially never satisfy the
    # cycle-chord hypothesis, and the harness must say so rather than "pass"
    report = run_campaign(
        "theorem2", CampaignParams(n=6, trials=20, seed=3, extra_arc_prob=0.1)
    )
    assert report.occupancy["accepted"] == 0
    assert report.result == "vacuous"
    assert report.passed  # vacuous still exits zero; the flag carries the news


def test_report_body_is_byte_stable():
    params = CampaignParams(n=5, trials=25, seed=12)
    first = run_campaign("pre-kernel-props", params)
    second = run_campaign("pre-kernel-props", params)
    assert first.body_json() == second.body_json()
    assert first.to_json() != "" and "wall_time_s" in first.to_json()


def test_wall_time_excluded_from_body():
    report = run_campaign("closure-lemma", CampaignParams(n=2, exhaustive=True))
    body = json.loads(report.body_json())
    assert "wall_time" not in json.dumps(body)
    full = json.loads(report.to_json())
    assert set(full) == {"body", "footer"}


def test_failure_cap_keeps_counting():
    # pick parameters known to produce more violations than the cap
    params = CampaignParams(n=6, trials=100, seed=7, max_failures=2)
    report = run_campaign("pre-kernel-props", params)
    assert len(report.failures) <= 2
    assert report.failures_total >= len(report.failures)
    assert report.result == "fail"


def test_failures_carry_replayable_instances():
    params = CampaignParams(n=6, trials=100, seed=7)
    report = run_campaign("pre-kernel-props", params)
    assert report.failures, "seed 7 at n=6 is known to expose shape violations"
    from kernelkit import parse_digraph_text

    record = report.failures[0]
    d = parse_digraph_text(record["instance"])
    assert d.vertex_count == 6
    assert "x0=" in record["detail"]


def test_theorem4_accepts_canonical_cycle():
    report = run_campaign("theorem4", CampaignParams(n=6, trials=10, seed=0, extra_arc_prob=0.3))
    assert report.occupancy["canonical_cycle_accepted"] is True
    assert report.occupancy["accepted"] >= 1


def criterion_10_trial_14():
    """Trial 14 of criterion 10's theorem4 call: an m=22 digraph whose full
    circuit search exceeded even the default 10**6-step budget; its digons
    put it outside the circuit class."""
    d = random_strongly_connected(6, 0.3, derive_trial_seed(20260823, 14))
    assert len(d.arcs) == 22
    return d


def test_criterion_10_budget_instance_is_decided_by_its_first_layer():
    # the class is decided by the residue test; the circuit check, which
    # searches nothing, decides it too: its first violation is a digon
    d = criterion_10_trial_14()
    report = check_circuit_hypothesis(d, 22)
    assert report.satisfied is CLASSES["circuit"](d, 1000, 2) is False
    assert len(report.violation.subject) == 2
    params = CampaignParams(n=6, trials=30, seed=20260823, extra_arc_prob=0.3)
    occupancy = run_campaign("theorem4", params).occupancy
    assert occupancy["accepted"] == 2
    assert occupancy["skipped"] == {"circuit hypothesis": 29}


def test_the_circuit_class_ignores_the_budget():
    # the cyclic 3-partite digraph on parts of size 3: all 27 arcs from each
    # part to the next, every cycle of length = 0 mod 3, so a member
    parts = [range(0, 3), range(3, 6), range(6, 9)]
    d = build_digraph(9, [(u, v) for i in range(3) for u in parts[i] for v in parts[(i + 1) % 3]])
    assert len(d.arcs) == 27
    assert check_circuit_hypothesis(d, 27) == HypothesisReport(None, 0)
    assert CLASSES["circuit"](d, 1, 2) is True
    assert CLASSES["circuit"](criterion_10_trial_14(), 1, 2) is False


def complete_symmetric_occupancy(property_id, budget, min_cycle_len):
    """Occupancy of three K5* trials: the cycle search's length-5 pass
    extends 65 paths, every shorter pass fewer."""
    params = CampaignParams(
        n=5, trials=3, extra_arc_prob=1.0, budget=budget, min_cycle_len=min_cycle_len
    )
    return run_campaign(property_id, params).occupancy


@pytest.mark.parametrize("property_id, min_cycle_len", [("theorem2", 3), ("reverse-path", 3)])
def test_cycle_checks_past_the_budget_are_counted_as_budget_skips(property_id, min_cycle_len):
    # every cycle of K5* passes these hypotheses, so only the budget stops the search
    cut = complete_symmetric_occupancy(property_id, 64, min_cycle_len)
    assert cut["tried"] == 3 and cut["accepted"] == 0
    assert cut["skipped"] == {"budget": 3}
    whole = complete_symmetric_occupancy(property_id, 65, min_cycle_len)
    assert whole["accepted"] == 3 and "skipped" not in whole


def test_duchet_ignores_the_budget():
    # Duchet's class is decided without a cycle search: K5*, every arc of it
    # symmetric, is a member at a budget the reference cycle search runs out of
    k5 = build_digraph(5, [(u, v) for u in range(5) for v in range(5) if u != v])
    with pytest.raises(BudgetExceededError):
        list(enumerate_cycles(k5, budget=64))
    assert CLASSES["duchet"](k5, 64, 2) is True
    assert every_cycle_has_symmetric_arc(k5) == HypothesisReport(None, 0)
    assert CLASSES["duchet"](directed_cycle(3), 1, 3) is False
    assert complete_symmetric_occupancy("duchet", 64, 2) == {"tried": 3, "accepted": 3}


def test_cycle_classes_at_min_length_two_are_the_acyclic_digraphs(monkeypatch):
    # At minimum length 2 both cycle classes are the acyclic digraphs
    # (tests/test_cycles.py checks that against the search), so the table
    # peels every arc and neither searches nor reads the budget.
    def no_search(*args, **kw):
        raise AssertionError("a cycle search at minimum length 2")

    monkeypatch.setattr(campaigns, "check_cycle_hypothesis", no_search)
    members = 0
    for n in range(5):
        for d in enumerate_labeled_digraphs(n):
            acyclic = nx.is_directed_acyclic_graph(nx.DiGraph(list(d.arcs)))
            for name in ("theorem1", "two-consecutive"):
                assert CLASSES[name](d, 1, 2) is acyclic, (name, d.arcs)
            members += acyclic
    assert 0 < members < 4166  # positive control: both answers occur
    # K5*, whose length-2 search outruns a budget of 1, is decided: no skip
    assert complete_symmetric_occupancy("theorem2", 1, 2) == {"tried": 3, "accepted": 0}


@pytest.mark.parametrize("answer", [True, False, None])
def test_class_table_looks_its_checks_up_at_call_time(monkeypatch, answer):
    # a check replaced in the module's namespace reaches every table entry
    # backed by a search, which the cycle classes run past minimum length 2;
    # None stands for a search that runs out of budget
    def check(*args, **kw):
        if answer is None:
            raise BudgetExceededError("budget")
        return HypothesisReport(None if answer else Violation((0, 1, 2), "stub"), 0)

    monkeypatch.setattr(campaigns, "check_cycle_hypothesis", check)
    d = directed_cycle(3)
    for name in ("theorem1", "two-consecutive"):
        assert campaigns.CLASSES[name](d, 10**6, 3) is answer, name


@pytest.mark.parametrize("property_id", sorted(CAMPAIGNS))
def test_the_budget_reaches_every_class_check(property_id):
    # one search step decides no instance of these sizes, so a campaign that
    # reads the budget skips every instance for it at minimum cycle length 3
    # (length 2 needs no search), and the others ignore it
    cut = run_campaign(
        property_id, CampaignParams(n=5, trials=6, seed=1, budget=1, min_cycle_len=3)
    )
    if property_id in PARAMETER_READERS["budget"]:
        assert cut.occupancy["tried"] > 0
        assert cut.occupancy["skipped"]["budget"] == cut.occupancy["tried"]
    else:
        default = run_campaign(property_id, CampaignParams(n=5, trials=6, seed=1))
        assert (cut.occupancy, cut.failures) == (default.occupancy, default.failures)


def test_reverse_path_decided_at_its_own_length_is_no_budget_skip():
    # K5*'s digons violate the hypothesis at length 2 before the budget runs
    # out; the length-3 check is undecided, so it accepts nothing
    assert complete_symmetric_occupancy("reverse-path", 64, 2) == {
        "tried": 3, "accepted": 0, "accepted_min_cycle_len_2": 0, "accepted_min_cycle_len_3": 0,
    }


def test_additive_inverse_builds_traces_only_inside_the_class(monkeypatch):
    starts = []

    def counting_start(d, x0):
        starts.append(x0)
        return start_substitution(d, x0)

    monkeypatch.setattr(campaigns, "start_substitution", counting_start)
    report = run_campaign("additive-inverse", CampaignParams(n=6, trials=40, seed=7))
    assert report.occupancy["tried"] == 40
    assert len(starts) == report.occupancy["accepted"] == 1


def test_trace_campaigns_build_no_distance_matrix(monkeypatch):
    # the substitution layer reads in-ball masks and reverse-path hop counts
    # from one mask walk; `_raw_matrix` is a cached `_table`, so its `func`
    # runs once per digraph that builds a matrix
    raw_matrix = vars(Digraph)["_raw_matrix"]
    build = raw_matrix.func
    built = []

    def counting_build(self):
        built.append(self)
        return build(self)

    monkeypatch.setattr(raw_matrix, "func", counting_build)
    # accept every strongly connected digraph, so reverse-path writes the
    # hop count of every arc without a short return
    monkeypatch.setattr(
        campaigns, "check_cycle_hypothesis", lambda *args, **kw: HypothesisReport(None, 0)
    )
    for property_id, params in [
        ("roads", CampaignParams(n=6, trials=6, seed=1)),
        ("unique-chord", CampaignParams(n=7, trials=6, seed=1)),
        ("pre-kernel-props", CampaignParams(n=8, trials=6, seed=1)),
        ("additive-inverse", CampaignParams(n=6, trials=40, seed=7)),
        ("theorem4", CampaignParams(n=6, trials=4, seed=1)),
        ("reverse-path", CampaignParams(n=4, exhaustive=True, min_cycle_len=3)),
    ]:
        report = run_campaign(property_id, params)
        assert report.instances_checked > 0, property_id
    assert report.failures_total > 0  # reverse-path wrote hop counts
    assert built == []
    directed_cycle(3).distance(0, 2)
    assert len(built) == 1  # the counter sees a matrix when one is built


def test_all_campaigns_run_small():
    for property_id in CAMPAIGNS:
        params = CampaignParams(n=4, trials=8, seed=1)
        report = run_campaign(property_id, params)
        assert report.result in {"pass", "fail", "vacuous"}
        assert report.parameters["n"] == 4


# -- reference cycles --------------------------------------------------------

# `DIGRAPH_B` of the golden reports, the shape of criterion 08's missing
# roads: with x0 = 4 a vertex has no road.
DIGRAPH_B = "n 6\n0 1\n0 5\n1 3\n1 5\n2 0\n2 3\n3 5\n4 2\n5 1\n5 4\n"

# Each campaign at small parameters; the exhaustive entries at n <= 3.
SMALL_CALLS = [
    ("closure-lemma", CampaignParams(n=3, exhaustive=True)),
    ("duchet", CampaignParams(n=3, exhaustive=True)),
    ("reverse-path", CampaignParams(n=3, exhaustive=True, min_cycle_len=3)),
    ("theorem2", CampaignParams(n=3, exhaustive=True, min_cycle_len=3)),
    ("pre-kernel-props", CampaignParams(n=8, trials=6, seed=1)),
    ("roads", CampaignParams(n=6, trials=6, seed=1)),
    ("unique-chord", CampaignParams(n=7, trials=6, seed=1)),
    ("additive-inverse", CampaignParams(n=6, trials=40, seed=7)),
    ("theorem4", CampaignParams(n=6, trials=4, seed=1)),
]


@contextlib.contextmanager
def collector_off():
    """The cyclic collector disabled, and the garbage made so far collected,
    so that `gc.collect()` counts only what the block leaves; the
    collector's state is restored on the way out."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        yield
    finally:
        gc.collect()
        if enabled:
            gc.enable()


def kernelkit_garbage() -> list:
    """The functions of kernelkit and the instances of its classes among the
    objects that only the cyclic collector can free."""
    debug = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return [
            obj
            for obj in gc.garbage
            if (obj.__module__ if inspect.isfunction(obj) else type(obj).__module__)
            .startswith("kernelkit")
        ]
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()


def test_the_campaigns_leave_no_reference_cycles():
    # reference counting frees each search as soon as its caller returns,
    # so the cyclic collector finds nothing after a campaign
    assert sorted(property_id for property_id, _ in SMALL_CALLS) == sorted(CAMPAIGNS)
    with collector_off():
        for property_id, params in SMALL_CALLS:
            report = run_campaign(property_id, params)
            assert report.instances_checked > 0, property_id
            assert gc.collect() == 0, property_id


def test_the_early_exits_leave_no_reference_cycles():
    c4_chord = build_digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    k5 = build_digraph(5, [(u, v) for u in range(5) for v in range(5) if u != v])
    missing_road = start_substitution(parse_digraph_text(DIGRAPH_B), 4)
    with collector_off():
        # the first violation, the chordless triangle (0, 2, 3), comes in the
        # length-3 pass, before the length-4 pass of the cycle (0, 1, 2, 3),
        # so the check abandons the cycle search mid-way
        report = check_cycle_hypothesis(
            c4_chord, CycleHypothesisVariant.THREE_WITH_CROSSING, 3
        )
        assert report.violation.subject == (0, 2, 3) and report.cycles_examined == 1
        assert list(enumerate_cycles(c4_chord, 4)) == [(0, 1, 2, 3)]
        assert gc.collect() == 0
        with pytest.raises(BudgetExceededError, match="at length 3"):
            list(enumerate_cycles(k5, budget=10))
        assert gc.collect() == 0
        assert None in [road for _, _, road in roads_of(missing_road)]
        assert gc.collect() == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "FILE"],
        ["analyze", "FILE", "--format", "json"],
        ["kernel", "FILE", "--k", "3"],
        ["substitute", "FILE", "--x0", "4", "--trace", "TRACE"],
    ],
)
def test_the_commands_leave_no_reference_cycles_of_kernelkit(tmp_path, capsys, argv):
    # argparse's help formatters, on the process's first parser build, and the
    # indented json encoder leave cycles of the standard library's own; none
    # may be kernelkit's
    source = tmp_path / "digraph.txt"
    source.write_text(DIGRAPH_B)
    paths = {"FILE": str(source), "TRACE": str(tmp_path / "trace.json")}
    with collector_off():
        assert cli.main([paths.get(word, word) for word in argv]) == 0
        assert kernelkit_garbage() == []


@pytest.mark.parametrize("argv", [["kernel", "FILE", "--k", "3"], ["closure", "FILE", "--k", "2"]])
def test_the_text_commands_leave_no_reference_cycles_after_a_warm_up(tmp_path, capsys, argv):
    # the parser is built once per process, so after one call a text command
    # leaves no cycles at all, argparse's included
    source = tmp_path / "digraph.txt"
    source.write_text(DIGRAPH_B)
    argv = [str(source) if word == "FILE" else word for word in argv]
    assert cli.main(argv) == 0
    with collector_off():
        assert cli.main(argv) == 0
        assert gc.collect() == 0
