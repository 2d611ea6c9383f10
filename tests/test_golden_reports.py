"""Golden report bodies: every campaign, at fixed small parameters, must
reproduce its committed `body_json()` byte for byte, and `substitute
--trace` its committed trace document.

The files in tests/golden/ lock the campaigns' observable behaviour, so a
refactor that changes any count, detail string, failure instance or road
shows up here.  To record them again after a deliberate, declared change:

    PYTHONPATH=src python tests/test_golden_reports.py
"""

from pathlib import Path

import pytest

from kernelkit import CampaignParams, run_campaign
from kernelkit.campaigns import CAMPAIGNS
from kernelkit.cli import main

GOLDEN = Path(__file__).parent / "golden"

PARAMETER_SETS = {
    "n4_t30_s1": dict(n=4, trials=30, seed=1),
    "n6_t40_s7": dict(n=6, trials=40, seed=7),
    # sparse n=9: inner skip arcs, theorem4 failures, roads on accepted instances
    "n9_t60_s2_p010": dict(n=9, trials=60, seed=2, arc_prob=0.1, extra_arc_prob=0.1),
    # dense n=7 with a small budget: budget skips, min_cycle_len=3, failure cap
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

# `substitute --trace` inputs: (digraph text, x0); the last two have a vertex
# without a road.
TRACES = {
    "c6_x0": ("n 6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n", 0),
    "n6_x4_missing_road": ("n 6\n0 1\n0 5\n1 3\n1 5\n2 0\n2 3\n3 5\n4 2\n5 1\n5 4\n", 4),
    "n9_x4_missing_road": (
        "n 9\n0 2\n1 3\n2 6\n3 0\n3 1\n3 5\n4 7\n5 3\n5 4\n6 8\n7 1\n7 3\n8 5\n", 4
    ),
}


def body(name: str, scratch: Path) -> str:
    if name.startswith("substitute__"):
        text, x0 = TRACES[name.removeprefix("substitute__")]
        source, trace = scratch / "digraph.txt", scratch / "trace.json"
        source.write_text(text, encoding="utf-8")
        assert main(["substitute", str(source), "--x0", str(x0), "--trace", str(trace)]) == 0
        return trace.read_text(encoding="utf-8")
    property_id, params = CASES[name]
    return run_campaign(property_id, CampaignParams(**params)).body_json() + "\n"


NAMES = sorted([*CASES, *(f"substitute__{tag}" for tag in TRACES)])


@pytest.mark.parametrize("name", NAMES)
def test_report_body_matches_golden(name, tmp_path):
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
