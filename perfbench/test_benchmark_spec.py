"""Checks on the benchmark's own declarations and its tracer.

Run with `PYTHONPATH=src python -m pytest perfbench`.
"""

from __future__ import annotations

import os
import signal
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import kernelkit  # noqa: E402
import kernelkit.cli  # noqa: E402
import run  # noqa: E402
from calibrate import REFERENCE_PROBE_S, SpeedProbe  # noqa: E402
from spec import MAX_END_TO_END, MAX_PER_LAYER, load_spec, spec_problems  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_declared_names_follow_the_rules():
    assert spec_problems(load_spec()) == []


def test_rules_reject_bad_names_and_too_many_metrics():
    spec = {
        "workloads": [{"name": "ok"}],
        "end_to_end": [{"name": f"e{i}"} for i in range(MAX_END_TO_END + 1)],
        "per_layer": [{"name": "bad name"}] + [{"name": f"p{i}"} for i in range(MAX_PER_LAYER)],
    }
    problems = spec_problems(spec)
    assert len(problems) == 3


def test_workloads_match_the_declaration():
    assert sorted(w["name"] for w in load_spec()["workloads"]) == sorted(WORKLOADS)


def test_per_layer_declaration_matches_the_tracer():
    produced = set(Tracer().layer_metrics()) | {"bench.trace_overhead_s"}
    assert {m["name"] for m in load_spec()["per_layer"]} == produced


def test_end_to_end_declaration_is_reported():
    fake_pass = {
        "verdict_s": 1.0,
        "probe_s": 2 * REFERENCE_PROBE_S,
        "peak_rss_mb": 20.0,
        "calls": [{"error": None, "summary": {"tried": 4, "skipped_budget": 1}}],
    }
    metrics, lines = run.end_to_end([fake_pass], [(0.03, REFERENCE_PROBE_S)], made=1, failed=0)
    assert {m["name"] for m in load_spec()["end_to_end"]} <= set(metrics)
    assert metrics["decided_ratio"] == 0.75
    assert metrics["verdict_s"] == 0.5  # measured at half the reference speed
    assert metrics["setup_s"] == 0.03
    assert len(lines) == len(metrics)


def test_speed_probe_samples_the_region_and_leaves_its_time_out():
    handler = signal.getsignal(signal.SIGALRM)
    with SpeedProbe(0.005) as probe:
        deadline = time.perf_counter() + 0.1
        while time.perf_counter() < deadline:
            pass
    assert len(probe.samples) >= 5
    assert probe.elapsed == pytest.approx(0.1 - sum(probe.samples), abs=0.01)
    assert probe.probe_s > 0
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile([1.0] * 19) is None
    percentile, value = run.tail_percentile([float(i) for i in range(1, 41)])
    assert (percentile, value) == (75, 30.0)


def test_tracer_sees_every_binding_and_restores_them():
    d = kernelkit.directed_cycle(6)
    untraced = kernelkit.run_campaign("theorem4", kernelkit.CampaignParams(n=6, trials=5, seed=3, extra_arc_prob=0.08))
    tracer = Tracer()
    tracer.install()
    try:
        for module in (kernelkit, kernelkit.substitution, kernelkit.campaigns, kernelkit.cli):
            assert module.find_kl_kernel is kernelkit.kernels.find_kl_kernel
        assert hasattr(kernelkit.kernels.find_kl_kernel, "__wrapped__")
        kernelkit.find_kl_kernel(d, kernelkit.THREE_KERNEL)
        traced = kernelkit.run_campaign("theorem4", kernelkit.CampaignParams(n=6, trials=5, seed=3, extra_arc_prob=0.08))
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert traced.body_json() == untraced.body_json()
    metrics = tracer.layer_metrics()
    assert metrics["kernels.search.calls"] > 1
    assert metrics["kernels.perfection.calls"] > 0
    assert metrics["generators.instances"] == 5
    assert metrics["campaigns.self_s"] >= 0
    assert not hasattr(kernelkit.kernels.find_kl_kernel, "__wrapped__")
    assert not hasattr(kernelkit.digraph.Digraph.induced, "__wrapped__")
    assert not hasattr(vars(kernelkit.digraph.Digraph)["_raw_matrix"].func, "__wrapped__")
