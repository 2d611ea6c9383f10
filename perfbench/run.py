"""Campaign benchmark for kernelkit.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  The load is a closed loop with one client:
passes of the workload run one after another, each in a fresh interpreter
(every `kernelkit verify` call starts cold, and a cache living across passes
must not show up as a speedup), until `--seconds` have been spent.  Before
each pass, `setup_s` spawns interpreters that import kernelkit and build the
CLI parser.  Every pass and every spawn samples the machine's speed with a
fixed probe workload while it is timed (`calibrate.py`), and the declared
times are rescaled by it to the reference speed, so that the speed of a
shared machine, which moves within seconds, does not show up as a change.

With `--trace 0` the last line of standard output is a JSON object holding
the end-to-end metrics of `BENCHMARK.json`; with `--trace 1`, traced and
untraced passes alternate and it holds the per-layer metrics instead.  Every
call's report is checked by the correctness gate; a call that raises or
fails the gate counts in `failed`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
from spec import load_spec  # noqa: E402
from workloads import ACCEPTANCE_SEED, WORKLOADS  # noqa: E402

PINS_PATH = os.path.join(HERE, "pins.json")
SPANS_DIR = os.path.join(ROOT, ".perfbench_out")
PASS_TIMEOUT_S = 120
SETUP_SPAWNS_PER_PASS = 6
SETUP_PROBE_INTERVAL_S = 0.005
MIN_PASSES = 3
MIN_TRACED_PASSES = 2

SETUP_CODE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "from calibrate import SpeedProbe\n"
    "with SpeedProbe(float(sys.argv[3])) as probe:\n"
    "    sys.path.insert(0, sys.argv[1])\n"
    "    import kernelkit, kernelkit.cli\n"
    "    kernelkit.cli.build_parser()\n"
    "print(probe.elapsed, probe.probe_s)\n"
)


class PassError(Exception):
    """A pass or set-up spawn exited badly or printed no result."""


def spawn(args: list[str]) -> str:
    """Run a fresh isolated interpreter from the checkout root; its stdout."""
    try:
        done = subprocess.run(
            [sys.executable, "-I", *args],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"timed out after {PASS_TIMEOUT_S} s: {args}") from exc
    if done.returncode != 0:
        raise PassError(f"exit {done.returncode}: {args}\n{done.stderr.strip()}")
    return done.stdout


def measure_setup() -> tuple[float, float]:
    """(set-up seconds, seconds per speed probe) of one fresh spawn."""
    setup_s, probe_s = spawn(["-c", SETUP_CODE, os.path.join(ROOT, "src"), HERE, str(SETUP_PROBE_INTERVAL_S)]).split()
    return float(setup_s), float(probe_s)


def run_pass(workload: str, seed: int, traced: bool) -> dict:
    args = [os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", str(seed)]
    if traced:
        os.makedirs(SPANS_DIR, exist_ok=True)
        spans = os.path.join(SPANS_DIR, f"{workload}-seed{seed}.spans.jsonl")
        args += ["--spans", spans]
    lines = spawn(args).strip().splitlines()
    if not lines:
        raise PassError(f"pass of {workload} printed nothing")
    return json.loads(lines[-1])


def run_passes(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list, list, list]:
    """Untraced and traced passes, alternating when tracing, for `seconds`,
    with set-up spawns spread between them so that a burst of load on the
    machine does not shift all set-up samples at once."""
    plain: list[dict] = []
    traced: list[dict] = []
    setup: list[tuple[float, float]] = []
    measure_setup()  # compiles the bytecode cache once
    start = time.perf_counter()
    while True:
        enough_plain = len(plain) >= (MIN_TRACED_PASSES if trace else MIN_PASSES)
        enough_traced = not trace or len(traced) >= MIN_TRACED_PASSES
        if enough_plain and enough_traced and time.perf_counter() - start >= seconds:
            return plain, traced, setup
        setup += [measure_setup() for _ in range(SETUP_SPAWNS_PER_PASS)]
        if trace and len(traced) <= len(plain):
            traced.append(run_pass(workload, seed, traced=True))
        else:
            plain.append(run_pass(workload, seed, traced=False))


# -- correctness gate -------------------------------------------------------


def gate(workload: str, seed: int, plain: list, traced: list) -> tuple[int, int, list[str]]:
    """(calls made, calls failed, problems).  A call fails when it raised,
    broke a report invariant, differs from the pinned counts, or its report
    body differs from the first untraced pass's."""
    pins = load_pins().get(str(seed), {}).get(workload)
    reference = plain[0]["calls"]
    problems: list[str] = []
    if pins is not None and [pin["call"] for pin in pins] != [c["call"] for c in reference]:
        problems.append(f"pins for seed {seed} do not list this workload's calls")
        pins = None
    made = failed = 0
    for number, result in enumerate(plain + traced):
        kind = "traced" if number >= len(plain) else "untraced"
        for index, call in enumerate(result["calls"]):
            made += 1
            found = []
            if call["error"] is not None:
                found.append(f"raised:\n{call['error']}")
            else:
                found += call["problems"]
                if call["body_sha256"] != reference[index].get("body_sha256"):
                    found.append(f"{kind} report body differs from the first untraced pass")
                if pins is not None:
                    pin = pins[index]
                    wrong = {
                        key: (call["summary"].get(key), value)
                        for key, value in pin.items()
                        if key != "call" and call["summary"].get(key) != value
                    }
                    if wrong:
                        found.append(f"differs from pins (got, pinned): {wrong}")
            if found:
                failed += 1
                problems += [f"{call['call']}: {problem}" for problem in found]
    counts = [
        {name: value for name, value in result["layers"].items() if not is_time(name)}
        for result in traced
    ]
    if any(other != counts[0] for other in counts[1:]):
        problems.append("per-layer counts differ between traced passes")
    return made, failed, problems


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def is_time(name: str) -> bool:
    return any(part == "s" or part.endswith("_s") for part in name.split("."))


# -- metrics ----------------------------------------------------------------


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest percentile with at least ten samples above it (nearest rank),
    when that is at or above the median."""
    ordered = sorted(samples)
    rank = len(ordered) - 10
    if rank < (len(ordered) + 1) // 2:
        return None
    return 100 * rank // len(ordered), ordered[rank - 1]


def decided(calls: list[dict]) -> tuple[int, int]:
    """(instances not skipped for a resource bound, instances tried)."""
    tried = sum(c["summary"]["tried"] for c in calls if c["error"] is None)
    budget = sum(c["summary"]["skipped_budget"] for c in calls if c["error"] is None)
    return tried - budget, tried


def rescaled(samples) -> list[float]:
    """Times from (seconds, seconds per speed probe) pairs, at the reference
    speed."""
    return [calibrate.rescaled(seconds, probe_s) for seconds, probe_s in samples]


def end_to_end(plain: list, setup: list[tuple[float, float]], made: int, failed: int) -> tuple[dict, list[str]]:
    verdicts = rescaled((result["verdict_s"], result["probe_s"]) for result in plain)
    done, tried = decided(plain[0]["calls"])
    metrics = {
        "verdict_s": statistics.median(verdicts),
        "decided_ratio": done / tried if tried else 0.0,
        "error_ratio": failed / made,
        "peak_rss_mb": statistics.median(result["peak_rss_mb"] for result in plain),
        "setup_s": statistics.median(rescaled(setup)),
    }
    tail = tail_percentile(verdicts)
    tail_text = f"p{tail[0]} {tail[1]:.4f} s" if tail else "no tail percentile with >=10 samples beyond it"
    wall_verdict = statistics.median(result["verdict_s"] for result in plain)
    wall_setup = statistics.median(seconds for seconds, _ in setup)
    notes = {
        "verdict_s": f"median of n={len(verdicts)} passes at reference speed; {tail_text}; wall {wall_verdict:.4f} s",
        "decided_ratio": f"{done}/{tried} instances",
        "error_ratio": f"{failed}/{made} calls",
        "peak_rss_mb": f"median of n={len(plain)} passes",
        "setup_s": f"median of n={len(setup)} spawns at reference speed; wall {wall_setup:.4f} s",
    }
    units = {"verdict_s": "s", "decided_ratio": "ratio", "error_ratio": "ratio", "peak_rss_mb": "MB", "setup_s": "s"}
    return metrics, [f"{name:<15} {metrics[name]:.6g} {units[name]} ({notes[name]})" for name in metrics]


def per_layer(plain: list, traced: list) -> tuple[dict, list[str]]:
    layers = [
        {
            name: calibrate.rescaled(value, result["probe_s"]) if is_time(name) else value
            for name, value in result["layers"].items()
        }
        for result in traced
    ]
    metrics = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
    traced_s = statistics.median(rescaled((result["verdict_s"], result["probe_s"]) for result in traced))
    untraced_s = statistics.median(rescaled((result["verdict_s"], result["probe_s"]) for result in plain))
    metrics["bench.trace_overhead_s"] = traced_s - untraced_s
    lines = [f"{name:<36} {metrics[name]:.6g}" for name in sorted(metrics)]
    lines.append(
        f"traced verdict_s {traced_s:.4f} s (n={len(traced)}), "
        f"untraced {untraced_s:.4f} s (n={len(plain)})"
    )
    missing = sorted({name for result in traced for name in result["tracer_missing"]})
    if missing:
        lines.append(f"warning: tracer found no {', '.join(missing)}; their metrics read 0")
    return metrics, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=ACCEPTANCE_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "kernelkit", "__init__.py")):
        print(f"error: no kernelkit sources under {ROOT}/src", file=sys.stderr)
        return 2
    spec = load_spec()

    try:
        plain, traced, setup = run_passes(args.workload, args.seed, args.seconds, bool(args.trace))
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    made, failed, problems = gate(args.workload, args.seed, plain, traced)

    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced and {len(traced)} traced passes")
    for call in plain[0]["calls"]:
        print(f"  {call['call']}: {call.get('summary', 'raised')}")
    e2e, lines = end_to_end(plain, setup, made, failed)
    wanted = spec["end_to_end"]
    if args.trace:
        layer, layer_lines = per_layer(plain, traced)
        lines += layer_lines
        values, wanted = layer, spec["per_layer"]
    else:
        values = e2e
    for line in lines + problems:
        print(line)

    absent = [metric["name"] for metric in wanted if metric["name"] not in values]
    if absent:
        print(f"error: no value for {absent}", file=sys.stderr)
        return 1
    print(
        json.dumps(
            {
                "correct": failed == 0 and not problems,
                "attempted": made,
                "failed": failed,
                "metrics": {
                    metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
                    for metric in wanted
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
