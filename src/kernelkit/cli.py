"""Command-line front end.

Subcommands: analyze | kernel | closure | substitute | verify | generate.
Exit codes: 0 pass, 1 property failure, 2 usage/parse error, 3 resource bound.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Iterator

from .campaigns import CAMPAIGNS, PARAMETER_READERS, CampaignParams, run_campaign
from .cycles import (
    DEFAULT_BUDGET,
    CycleHypothesisVariant,
    check_circuit_hypothesis,
    check_cycle_hypothesis,
    every_cycle_has_symmetric_arc,
)
from .digraph import Digraph, directed_cycle
from .errors import (
    BudgetExceededError,
    KernelKitError,
    NoBaseKernelError,
    SizeBoundError,
    SubkernelMissingError,
)
from .generators import (
    enumerate_labeled_digraphs,
    random_digraph,
    random_strongly_connected,
)
from .kernels import KernelQuery, find_kernel_via_closure, find_kl_kernel, k_closure
from .substitution import (
    check_additive_inverse_property,
    check_pre_kernel_properties,
    check_unique_short_chord,
    roads_of,
    run_substitution_method,
)
from .textio import format_digraph_text, parse_digraph_text

EXIT_PASS = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _load(path: str) -> Digraph:
    return parse_digraph_text(Path(path).read_text(encoding="utf-8"))


def _write(text: str, out: str | Path | None) -> None:
    """Write to the file `out`, or to stdout when it is not given."""
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _text_lines(prefix: str, value) -> Iterator[str]:
    """`key.subkey: value` for each leaf of the nested dict `value`."""
    if isinstance(value, dict):
        for key in value:
            yield from _text_lines(f"{prefix}{key}.", value[key])
    else:
        yield f"{prefix[:-1]}: {value}"


def _emit(payload: dict, fmt: str, out: str | None) -> None:
    if fmt == "json":
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        text = "\n".join(_text_lines("", payload)) + "\n"
    _write(text, out)


def _hypothesis_summary(report) -> dict:
    v = report.violation
    violations = [] if v is None else [{"vertices": list(v.subject), "reason": v.reason}]
    return {"satisfied": report.satisfied, "violations": violations}


def _cmd_analyze(args) -> int:
    if args.max_circuit_len is not None and args.max_circuit_len < 2:
        raise ValueError("--max-circuit-len must be >= 2")
    d = _load(args.file)
    max_len = len(d.arcs) if args.max_circuit_len is None else args.max_circuit_len
    # each check reports its first violation; only the cycle hypotheses past
    # minimum length 2 search, and past the budget nothing is written: exit 3
    payload = {
        "n": d.vertex_count,
        "m": len(d.arcs),
        "strongly_connected": d.is_strongly_connected(),
        "duchet": _hypothesis_summary(every_cycle_has_symmetric_arc(d)),
        **{
            f"cycle_hypothesis_{variant.name.lower()}": _hypothesis_summary(
                check_cycle_hypothesis(d, variant, args.min_cycle_len, budget=args.budget)
            )
            for variant in CycleHypothesisVariant
        },
        "circuit_hypothesis": _hypothesis_summary(check_circuit_hypothesis(d, max_len)),
    }
    _emit(payload, args.format, args.out)
    return EXIT_PASS


def _cmd_kernel(args) -> int:
    d = _load(args.file)
    ell = args.l if args.l is not None else args.k - 1
    if args.via_closure:
        if ell != args.k - 1:
            raise ValueError(f"--via-closure finds (k,k-1)-kernels only, got --l {ell}")
        result = find_kernel_via_closure(d, args.k)
    else:
        result = find_kl_kernel(d, KernelQuery(args.k, ell))
    if args.emit_closure:
        _write(format_digraph_text(k_closure(d, args.k - 1)), args.emit_closure)
    payload = {
        "k": args.k,
        "l": ell,
        "via_closure": args.via_closure,
        "found": result.found,
        "witness": list(result.witness) if result.found else None,
        "subsets_examined": result.subsets_examined,
    }
    _emit(payload, args.format, args.out)
    return EXIT_PASS


def _cmd_closure(args) -> int:
    _write(format_digraph_text(k_closure(_load(args.file), args.k)), args.out)
    return EXIT_PASS


def _trace_document(outcome) -> dict:
    trace = outcome.trace
    rounds = []
    for k in range(trace.p + 1):
        rounds.append(
            {
                "k": k,
                "added": list(trace.added[k]),
                "removed_one": list(trace.removed_one[k]),
                "removed_two": list(trace.removed_two[k]),
                "m_set": list(trace.m_sets[k]),
            }
        )
    intermediates = [
        {"k": k, "first": list(first), "second": list(second)}
        for k, (first, second) in enumerate(zip(trace.primed_one, trace.primed_two))
    ]
    roads = []
    road_checks = {"unique_chord": True, "additive_inverse": True}
    for s, v, road in roads_of(trace):
        if road is None:
            roads.append({"s": s, "v": v, "path": None, "labels": None})
            continue
        labels = [trace.label_of(w, s - j) for j, w in enumerate(road.path)]
        roads.append({"s": s, "v": v, "path": list(road.path), "labels": labels})
        if not check_unique_short_chord(trace, road).passed:
            road_checks["unique_chord"] = False
        if not check_additive_inverse_property(trace, road).passed:
            road_checks["additive_inverse"] = False
    pre_report = check_pre_kernel_properties(trace)
    return {
        "x0": trace.x0,
        "base_kernel": list(trace.base_kernel),
        "p": trace.p,
        "rounds": rounds,
        "intermediates": intermediates,
        "pre_3_kernel": list(outcome.pre_3_kernel),
        "is_3_kernel": outcome.is_3_kernel,
        "roads": roads,
        "checks": {
            "pre_kernel_2_absorbent": not pre_report.absorption_violations,
            "pre_kernel_path_shape": not pre_report.shape_violations,
            **road_checks,
        },
    }


def _cmd_substitute(args) -> int:
    d = _load(args.file)
    outcome = run_substitution_method(d, args.x0)
    payload = {
        "x0": args.x0,
        "pre_3_kernel": list(outcome.pre_3_kernel),
        "is_3_kernel": outcome.is_3_kernel,
        "failure_witness": (
            list(outcome.failure_witness) if outcome.failure_witness else None
        ),
        "p": outcome.trace.p,
    }
    if args.trace:
        _write(json.dumps(_trace_document(outcome), sort_keys=True, indent=2) + "\n", args.trace)
    _emit(payload, args.format, args.out)
    return EXIT_PASS


def _cmd_verify(args) -> int:
    # an omitted option keeps CampaignParams' own value
    given = {
        name: getattr(args, name) for name in PARAMETER_READERS
        if getattr(args, name) is not None
    }
    for name in given:
        readers = PARAMETER_READERS[name]
        if args.property_id not in readers:
            raise ValueError(
                f"unrecognized arguments: --{name.replace('_', '-')} "
                f"(read only by {', '.join(readers[:-1])} and {readers[-1]})"
            )
    if args.p is not None:
        given.update(arc_prob=args.p, extra_arc_prob=args.p)
    params = CampaignParams(
        n=args.n,
        trials=args.trials,
        seed=args.seed,
        exhaustive=args.exhaustive,
        max_failures=args.max_failures,
        **given,
    )
    report = run_campaign(args.property_id, params)
    _write(report.to_json() + "\n", args.out)
    return EXIT_PASS if report.passed else EXIT_FAILURE


def _cmd_generate(args) -> int:
    if args.kind == "exhaustive":
        out = Path(args.out)
        for index, d in enumerate(enumerate_labeled_digraphs(args.n)):
            if index == 0:  # a size bound is raised before the first digraph
                out.mkdir(parents=True, exist_ok=True)
            _write(format_digraph_text(d), out / f"digraph_{index:06d}.txt")
        return EXIT_PASS
    if args.kind == "cycle":
        d = directed_cycle(args.n)
    elif args.kind == "random":
        d = random_digraph(args.n, args.p, args.seed)
    else:
        d = random_strongly_connected(args.n, args.p, args.seed)
    _write(format_digraph_text(d), args.out)
    return EXIT_PASS


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: every caller shares
    it, and none may change it."""
    parser = argparse.ArgumentParser(
        prog="kernelkit",
        description="Digraph kernel workbench: kernels, closures, chord "
        "conditions, the 3-substitution method, and a verification harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, fmt: bool = True):
        """--out on every command; --format where it reads it."""
        if fmt:
            p.add_argument("--format", choices=["text", "json"], default="text")
        p.add_argument("--out", default=None)

    p = sub.add_parser("analyze", help="summarize a digraph file")
    p.add_argument("file")
    p.add_argument("--min-cycle-len", type=int, default=2)
    p.add_argument("--max-circuit-len", type=int, default=None)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="step budget of each length pass of the cycle search, "
                   "read only at --min-cycle-len >= 3")
    common(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("kernel", help="find a (k,l)-kernel")
    p.add_argument("file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--via-closure", action="store_true")
    p.add_argument("--emit-closure", default=None, help="also write C^(k-1)(D) here")
    common(p)
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("closure", help="emit the k-closure of a digraph")
    p.add_argument("file")
    p.add_argument("--k", type=int, required=True)
    common(p, fmt=False)
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser("substitute", help="run the 3-substitution method")
    p.add_argument("file")
    p.add_argument("--x0", type=int, required=True)
    p.add_argument("--trace", default=None, help="write the full trace document here")
    common(p)
    p.set_defaults(func=_cmd_substitute)

    p = sub.add_parser("verify", help="run a theorem-verification campaign")
    p.add_argument("property_id", choices=sorted(CAMPAIGNS))
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--min-cycle-len", type=int, default=None,
                   help="minimum cycle length (reverse-path and theorem2 only)")
    p.add_argument("--p", type=float, default=None,
                   help="arc probability (default: the campaign parameters' own)")
    p.add_argument("--max-failures", type=int, default=10)
    p.add_argument("--budget", type=int, default=None,
                   help="step budget of each length pass of the cycle search "
                   "(reverse-path and theorem2 only)")
    common(p, fmt=False)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("generate", help="write digraph documents")
    p.add_argument("--kind", choices=["cycle", "random", "random-sc", "exhaustive"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_PASS
    try:
        return args.func(args)
    except (SizeBoundError, BudgetExceededError, OverflowError, MemoryError) as exc:
        print(f"resource bound: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RESOURCE
    except (NoBaseKernelError, SubkernelMissingError) as exc:
        print(f"substitution cannot run: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except (KernelKitError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
