"""The record types: NamedTuples (with a validating `__new__` where the
fields have rules) and the plain `Digraph` class.  Assigning a field raises
AttributeError, the reprs keep their `Name(field=value, ...)` form, the
validation texts hold at construction and through `_replace`, and a
digraph's equality and hash read its two fields only."""

import pytest

from kernelkit import (
    THREE_KERNEL,
    CampaignParams,
    Digraph,
    KernelQuery,
    build_digraph,
    check_additive_inverse_property,
    check_pre_kernel_properties,
    check_unique_short_chord,
    directed_cycle,
    find_kl_kernel,
    find_road,
    run_campaign,
    run_substitution_method,
    validate_road,
)
from kernelkit.cycles import check_circuit_hypothesis


def records():
    """One instance of each record type."""
    outcome = run_substitution_method(directed_cycle(6), 0)
    trace = outcome.trace
    road = find_road(trace, 3, 3)
    hypothesis = check_circuit_hypothesis(directed_cycle(4), max_len=4)
    validation = validate_road(trace, road.path)
    return [
        directed_cycle(3),
        THREE_KERNEL,
        CampaignParams(),
        find_kl_kernel(directed_cycle(3), THREE_KERNEL),
        hypothesis,
        hypothesis.violation,
        outcome,
        trace,
        road,
        validation,
        validation.conditions[0],
        check_pre_kernel_properties(trace),
        check_unique_short_chord(trace, road),
        check_additive_inverse_property(trace, road),
        run_campaign("closure-lemma", CampaignParams(n=2, exhaustive=True)),
    ]


@pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
def test_assigning_a_field_raises(record):
    name = "vertex_count" if isinstance(record, Digraph) else record._fields[0]
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) is before


def test_a_digraph_takes_no_new_attribute():
    d = directed_cycle(3)
    with pytest.raises(AttributeError, match="cannot assign to field 'colour'"):
        d.colour = "red"
    assert set(vars(d)) == {"vertex_count", "arcs"}


def test_reprs_keep_their_form():
    assert repr(KernelQuery(3, 2)) == "KernelQuery(k=3, l=2)"
    assert repr(build_digraph(3, [(0, 1)])) == "Digraph(vertex_count=3, arcs=frozenset({(0, 1)}))"
    assert repr(CampaignParams(n=4, trials=7)) == (
        "CampaignParams(n=4, trials=7, seed=0, exhaustive=False, max_failures=10, "
        "budget=1000000, min_cycle_len=2, arc_prob=0.3, extra_arc_prob=0.15)"
    )


def test_digraph_equality_and_hash_read_the_two_fields():
    d = build_digraph(3, [(0, 1), (1, 2)])
    same = Digraph(3, frozenset({(1, 2), (0, 1)}))
    assert d == same and hash(d) == hash(same) == hash((3, d.arcs))
    assert d != build_digraph(4, [(0, 1), (1, 2)])
    assert d != build_digraph(3, [(0, 1)])
    assert d != (3, d.arcs)  # another type is never equal
    assert len({d, same, directed_cycle(3)}) == 2


@pytest.mark.parametrize("k, ell", [(1, 1), (2, 0), (0, 5)])
def test_a_bad_kernel_query_raises_also_through_replace(k, ell):
    message = rf"a \(k,l\)-kernel needs k >= 2 and l >= 1, got \({k},{ell}\)"
    with pytest.raises(ValueError, match=message):
        KernelQuery(k, ell)
    with pytest.raises(ValueError, match=message):
        THREE_KERNEL._replace(k=k, l=ell)
    with pytest.raises(ValueError, match=message):
        KernelQuery._make((k, ell))


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"trials": -1}, "trials must be >= 0"),
        ({"budget": 0}, "budget must be >= 1"),
        ({"max_failures": -1}, "max_failures must be >= 0"),
        ({"min_cycle_len": 1}, "min_cycle_len must be >= 2"),
        ({"arc_prob": 1.5}, r"arc_prob must be in \[0, 1\]"),
        ({"extra_arc_prob": -0.1}, r"extra_arc_prob must be in \[0, 1\]"),
    ],
)
def test_bad_campaign_params_raise_also_through_replace(changes, message):
    with pytest.raises(ValueError, match=message):
        CampaignParams(**changes)
    with pytest.raises(ValueError, match=message):
        CampaignParams()._replace(**changes)


def test_replace_keeps_the_type_and_the_other_fields():
    params = CampaignParams(n=5, seed=3)._replace(trials=7)
    assert type(params) is CampaignParams
    assert params == CampaignParams(n=5, trials=7, seed=3)
    query = THREE_KERNEL._replace(l=1)
    assert type(query) is KernelQuery and query == KernelQuery(3, 1)


def test_a_report_records_its_parameters_by_name():
    params = CampaignParams(n=2, exhaustive=True)
    report = run_campaign("closure-lemma", params)
    assert report.parameters == dict(zip(CampaignParams._fields, params))
    assert list(report.parameters) == list(CampaignParams._fields)
