"""Golden report bodies: every campaign, at fixed small parameters, must
reproduce its committed `body_json()` byte for byte, `substitute --trace`
its committed trace document, `analyze --format json` its committed
summary (each hypothesis check's first violation, or none), and
`kernel --format json` its committed payloads (witness and subsets examined).

The files in tests/golden/ lock the campaigns' observable behaviour, so a
refactor that changes any count, detail string, failure instance or road
shows up here.  To record them again after a deliberate, declared change:

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import json
from pathlib import Path

import pytest

import kernelkit.cycles
from kernelkit import CampaignParams, run_campaign
from kernelkit.campaigns import CAMPAIGNS
from kernelkit.cli import main
from kernelkit.generators import random_strongly_connected
from kernelkit.textio import format_digraph_text

GOLDEN = Path(__file__).parent / "golden"

PARAMETER_SETS = {
    "n4_t30_s1": dict(n=4, trials=30, seed=1),
    "n6_t40_s7": dict(n=6, trials=40, seed=7),
    # sparse n=9: inner skip arcs, theorem4 failures, roads on accepted instances
    "n9_t60_s2_p010": dict(n=9, trials=60, seed=2, arc_prob=0.1, extra_arc_prob=0.1),
    # dense n=7 with a small budget that still decides every instance (none of
    # these bodies has a budget skip), min_cycle_len=3, failure cap
    "n7_t40_s3_dense": dict(
        n=7, trials=40, seed=3, arc_prob=0.45, extra_arc_prob=0.35,
        budget=3000, min_cycle_len=3, max_failures=3,
    ),
}

CASES = {
    f"{property_id}__{tag}": (property_id, params)
    for tag, params in PARAMETER_SETS.items()
    for property_id in sorted(CAMPAIGNS)
}
for property_id in ("closure-lemma", "duchet"):
    for n in (1, 2, 3):
        CASES[f"{property_id}__exhaustive_n{n}"] = (property_id, dict(n=n, exhaustive=True))
# Duchet's class is decided without a search, so this budget cuts nothing:
# 14 of the 20 draws are accepted, as without a budget
CASES["duchet__n6_t20_s5_budget100"] = (
    "duchet", dict(n=6, trials=20, seed=5, extra_arc_prob=0.7, budget=100)
)
# a budget that cuts some instances but not all: 11 of the 20 draws are
# skipped with `skipped: {"budget": 11}`, 1 is accepted
CASES["theorem2__n6_t20_s5_p090_budget200"] = (
    "theorem2",
    dict(n=6, trials=20, seed=5, extra_arc_prob=0.9, budget=200, min_cycle_len=3),
)

C6 = "n 6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n"
# the frozen counterexamples of tests/test_substitution.py
DIGRAPH_A = "n 6\n0 1\n1 2\n2 0\n2 4\n3 5\n4 3\n4 5\n5 0\n"
DIGRAPH_B = "n 6\n0 1\n0 5\n1 3\n1 5\n2 0\n2 3\n3 5\n4 2\n5 1\n5 4\n"
DIGRAPH_C = "n 6\n0 3\n1 2\n2 5\n3 1\n3 4\n4 0\n5 1\n5 4\n"

# `substitute --trace` inputs: (digraph text, x0); the two `missing_road`
# ones have a vertex without a road.  n12_s0_x1 has p = 2, a round 0 that
# fills both removed sets and a 3-vertex M-set; n12_s39_x6 has p = 4.
TRACES = {
    "c6_x0": (C6, 0),
    "n6_x4_missing_road": (DIGRAPH_B, 4),
    "n9_x4_missing_road": (
        "n 9\n0 2\n1 3\n2 6\n3 0\n3 1\n3 5\n4 7\n5 3\n5 4\n6 8\n7 1\n7 3\n8 5\n", 4
    ),
    "n12_s0_x1": (format_digraph_text(random_strongly_connected(12, 0.08, 0)), 1),
    "n12_s39_x6": (format_digraph_text(random_strongly_connected(12, 0.08, 39)), 6),
}

# `analyze --format json` inputs: (digraph text, extra arguments).  The dense
# digraph (m=27) runs with both length options; its first circuit violation,
# a digon, is within the circuit length bound.
ANALYSES = {
    "c6": (C6, []),
    "digraph_a": (DIGRAPH_A, []),
    "digraph_b": (DIGRAPH_B, []),
    "digraph_c": (DIGRAPH_C, []),
    "dense_n6_p080_s1": (
        format_digraph_text(random_strongly_connected(6, 0.8, 1)),
        ["--min-cycle-len", "3", "--max-circuit-len", "5"],
    ),
}

# `kernel --format json` inputs, one golden file: each digraph with each
# argument list.  (3,3) is the l >= k case, where a superset of a kernel can
# be a kernel too.
KERNEL_DIGRAPHS = {"c6": C6, "digraph_a": DIGRAPH_A, "digraph_b": DIGRAPH_B, "digraph_c": DIGRAPH_C}
KERNEL_ARGS = (
    ["--k", "3", "--l", "2"],
    ["--k", "2", "--l", "1"],
    ["--k", "3", "--l", "3"],
    ["--k", "3", "--via-closure"],
)


def kernel_payloads(scratch: Path) -> str:
    source, payload = scratch / "digraph.txt", scratch / "kernel.json"
    payloads = {}
    for tag, text in KERNEL_DIGRAPHS.items():
        source.write_text(text, encoding="utf-8")
        for args in KERNEL_ARGS:
            argv = ["kernel", str(source), *args, "--format", "json", "--out", str(payload)]
            assert main(argv) == 0
            payloads[" ".join([tag, *args])] = json.loads(payload.read_text(encoding="utf-8"))
    return json.dumps(payloads, indent=2) + "\n"


def body(name: str, scratch: Path) -> str:
    if name == "kernel__payloads":
        return kernel_payloads(scratch)
    if name.startswith("analyze__"):
        text, extra = ANALYSES[name.removeprefix("analyze__")]
        source, summary = scratch / "digraph.txt", scratch / "analyze.json"
        source.write_text(text, encoding="utf-8")
        argv = ["analyze", str(source), "--format", "json", "--out", str(summary), *extra]
        assert main(argv) == 0
        return summary.read_text(encoding="utf-8")
    if name.startswith("substitute__"):
        text, x0 = TRACES[name.removeprefix("substitute__")]
        source, trace = scratch / "digraph.txt", scratch / "trace.json"
        source.write_text(text, encoding="utf-8")
        assert main(["substitute", str(source), "--x0", str(x0), "--trace", str(trace)]) == 0
        return trace.read_text(encoding="utf-8")
    property_id, params = CASES[name]
    return run_campaign(property_id, CampaignParams(**params)).body_json() + "\n"


NAMES = sorted(
    [
        *CASES,
        *(f"substitute__{tag}" for tag in TRACES),
        *(f"analyze__{tag}" for tag in ANALYSES),
        "kernel__payloads",
    ]
)


@pytest.mark.parametrize("name", NAMES)
def test_report_body_matches_golden(name, tmp_path):
    expected = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert body(name, tmp_path) == expected


@pytest.mark.parametrize(
    "name", [name for name in NAMES if name.startswith(("theorem4__", "additive-inverse__"))]
)
def test_the_circuit_class_campaigns_search_no_circuits(name, tmp_path, monkeypatch):
    # the circuit class is decided by its residue test: with the circuit
    # check gone, the campaigns that filter by it still match their goldens
    def no_search(*args, **kwargs):
        raise AssertionError("circuit check reached from a campaign")

    monkeypatch.setattr(kernelkit.cycles, "check_circuit_hypothesis", no_search)
    expected = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert body(name, tmp_path) == expected


def test_the_duchet_budget_golden_is_the_unbudgeted_call():
    property_id, params = CASES["duchet__n6_t20_s5_budget100"]
    unbudgeted = {key: value for key, value in params.items() if key != "budget"}
    occupancy = run_campaign(property_id, CampaignParams(**unbudgeted)).occupancy
    golden = json.loads((GOLDEN / "duchet__n6_t20_s5_budget100.json").read_text(encoding="utf-8"))
    assert golden["occupancy"] == occupancy == {"tried": 20, "accepted": 14}


def test_a_golden_pins_a_budget_skip():
    golden = json.loads(
        (GOLDEN / "theorem2__n6_t20_s5_p090_budget200.json").read_text(encoding="utf-8")
    )
    assert golden["occupancy"] == {"tried": 20, "accepted": 1, "skipped": {"budget": 11}}


@pytest.mark.parametrize("name", [name for name in NAMES if name.startswith("duchet__")])
def test_the_duchet_campaigns_search_no_cycles(name, tmp_path, monkeypatch):
    # Duchet's class is decided by one peeling pass: with the cycle search
    # gone, the duchet campaigns still match their goldens
    def no_search(*args, **kwargs):
        raise AssertionError("cycle search reached from a duchet campaign")

    monkeypatch.setattr(kernelkit.cycles, "enumerate_cycles", no_search)
    expected = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert body(name, tmp_path) == expected


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == NAMES


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch, contextlib.redirect_stdout(io.StringIO()):
        for name in NAMES:
            (GOLDEN / f"{name}.json").write_text(body(name, Path(scratch)), encoding="utf-8")
