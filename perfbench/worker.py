"""One pass of a benchmark workload, run in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N [--spans PATH]

Imports kernelkit from the `src` directory of the checkout it sits in, makes
the workload's `run_campaign` calls, and prints one JSON object: the pass's
wall time from the first call to the last verdict (less the speed probes'
time), the mean time of a speed probe during the pass (`calibrate.py`), its
peak RSS, and for each call the report-body digest, the counts the
correctness gate compares and any problem found.  With `--spans`, the calls
run under span wrappers, per-layer metrics are added and the spans are
written to that file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [SRC, HERE]

import kernelkit  # noqa: E402
from calibrate import SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import call_label, calls_for  # noqa: E402

OCCUPANCY_COUNTS = ("tried", "accepted", "traces_built", "roads_checked")
PROBE_INTERVAL_S = 0.02


def check_report(report) -> list[str]:
    """Invariants every report must meet, whatever the seed."""
    problems = []
    body = report.body_dict()
    for failure in body["failures"]:
        text = failure["instance"]
        if kernelkit.format_digraph_text(kernelkit.parse_digraph_text(text)) != text:
            problems.append(f"failure instance does not round-trip: {text!r}")
    expected_items = min(body["failures_total"], report.parameters["max_failures"])
    if len(body["failures"]) != expected_items:
        problems.append(f"{len(body['failures'])} failures embedded, expected {expected_items}")
    if (body["result"] == "fail") != (body["failures_total"] > 0):
        problems.append(f"result {body['result']!r} with {body['failures_total']} failures")
    if body["instances_checked"] > body["occupancy"]["tried"]:
        problems.append("more instances checked than tried")
    return problems


def summarize(report) -> dict:
    body = report.body_dict()
    occupancy = body["occupancy"]
    summary = {
        "result": body["result"],
        "instances_checked": body["instances_checked"],
        "failures_total": body["failures_total"],
    }
    summary.update({key: occupancy[key] for key in OCCUPANCY_COUNTS if key in occupancy})
    summary["skipped_budget"] = occupancy.get("skipped", {}).get("budget", 0)
    return summary


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans", help="trace the pass and write its spans here")
    args = parser.parse_args()
    if not os.path.dirname(os.path.abspath(kernelkit.__file__)).startswith(SRC):
        print(f"kernelkit imported from {kernelkit.__file__}, not {SRC}", file=sys.stderr)
        return 2

    calls = calls_for(args.workload, args.seed)
    tracer = Tracer() if args.spans else None
    if tracer is not None:
        tracer.install()

    outcomes = []
    with SpeedProbe(PROBE_INTERVAL_S) as probe:
        for property_id, params in calls:
            try:
                outcomes.append((kernelkit.run_campaign(property_id, kernelkit.CampaignParams(**params)), None))
            except Exception:
                outcomes.append((None, traceback.format_exc()))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {"verdict_s": probe.elapsed, "probe_s": probe.probe_s, "peak_rss_mb": peak_rss_mb, "calls": []}
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
        result["tracer_missing"] = tracer.missing
        tracer.write(args.spans)
    for (property_id, params), (report, error) in zip(calls, outcomes):
        record = {"call": call_label(property_id, params), "error": error}
        if report is not None:
            record["body_sha256"] = hashlib.sha256(report.body_json().encode()).hexdigest()
            record["summary"] = summarize(report)
            record["problems"] = check_report(report)
        result["calls"].append(record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
