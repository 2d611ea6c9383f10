"""Rules on the metric names `BENCHMARK.json` declares."""

from __future__ import annotations

import json
import os
import re

NAME_RULE = re.compile(r"[A-Za-z0-9_.-]+")
MAX_END_TO_END = 16
MAX_PER_LAYER = 128

SPEC_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def load_spec(path: str = SPEC_PATH) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def spec_problems(spec: dict) -> list[str]:
    """Every way the metric lists break the naming and count rules."""
    problems = []
    end_to_end = [metric["name"] for metric in spec["end_to_end"]]
    per_layer = [metric["name"] for metric in spec["per_layer"]]
    if len(end_to_end) > MAX_END_TO_END:
        problems.append(f"{len(end_to_end)} end-to-end metrics, at most {MAX_END_TO_END}")
    if len(per_layer) > MAX_PER_LAYER:
        problems.append(f"{len(per_layer)} per-layer metrics, at most {MAX_PER_LAYER}")
    names = end_to_end + per_layer + [workload["name"] for workload in spec["workloads"]]
    for name in names:
        if not NAME_RULE.fullmatch(name) or len(name) > 64:
            problems.append(f"name {name!r} breaks the rule {NAME_RULE.pattern} (at most 64)")
    if len(set(end_to_end + per_layer)) != len(end_to_end + per_layer):
        problems.append("a metric name is used twice")
    return problems
