"""Span tracing of kernelkit's layers, installed from outside the package.

`Tracer.install()` replaces each traced function with a wrapper in every
`kernelkit` module namespace that binds it, so calls made through any import
(for example `find_kl_kernel` from `kernels`, `substitution`, `campaigns` or
`cli`, and the lookups `kernels._perfection_scan` makes in its own module)
are recorded.  Each span keeps its name, start, end and parent; spans stay in
memory and are written out once, after the timed pass.  The package's own
code is not changed.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from collections import Counter

# layer -> functions of that layer, as (module, attribute).
FUNCTIONS = {
    "cycles.circuits": [("kernelkit.cycles", "check_circuit_hypothesis")],
    "cycles.cycles": [
        ("kernelkit.cycles", "check_cycle_hypothesis"),
        ("kernelkit.cycles", "every_cycle_has_symmetric_arc"),
    ],
    "kernels.search": [("kernelkit.kernels", "find_kl_kernel")],
    "kernels.perfection": [
        ("kernelkit.kernels", "is_kernel_perfect"),
        ("kernelkit.kernels", "is_quasi_3_kernel_perfect"),
        ("kernelkit.kernels", "is_3_kernel_perfect"),
    ],
    "kernels.predicate": [
        ("kernelkit.kernels", "is_kl_kernel"),
        ("kernelkit.kernels", "is_k_independent"),
        ("kernelkit.kernels", "is_l_absorbent"),
    ],
    "kernels.closure": [("kernelkit.kernels", "k_closure")],
    "substitution.sequence": [("kernelkit.substitution", "build_substitution_sequence")],
    "substitution.road": [("kernelkit.substitution", "find_road")],
    "substitution.checks": [
        ("kernelkit.substitution", "check_pre_kernel_properties"),
        ("kernelkit.substitution", "check_unique_short_chord"),
        ("kernelkit.substitution", "check_additive_inverse_property"),
        ("kernelkit.substitution", "validate_road"),
    ],
    "substitution.method": [("kernelkit.substitution", "run_substitution_method")],
    "generators": [
        ("kernelkit.generators", "random_digraph"),
        ("kernelkit.generators", "random_strongly_connected"),
        ("kernelkit.generators", "enumerate_labeled_digraphs"),
    ],
    "textio.format": [("kernelkit.textio", "format_digraph_text")],
    "campaigns": [("kernelkit.campaigns", "run_campaign")],
}

# layer -> methods of `kernelkit.digraph.Digraph`.  The distance matrix is a
# cached property, so its span covers the first computation per digraph.
METHODS = {
    "digraph.matrix": ["_raw_matrix"],
    "digraph.induced": ["induced"],
    "digraph.neighborhood": ["in_neighborhood_at_distance", "out_cone"],
}


def _observe_circuits(tracer, args, result, exc):
    if result is not None:
        tracer.counts["cycles.circuits.examined"] += result.cycles_examined
    elif type(exc).__name__ == "BudgetExceededError":
        tracer.counts["cycles.circuits.budget_exceeded"] += 1


def _observe_cycles(tracer, args, result, exc):
    if result is not None:
        tracer.counts["cycles.cycles.examined"] += result.cycles_examined


def _observe_search(tracer, args, result, exc):
    if result is not None:
        d, query = args[0], args[1]
        tracer.counts["kernels.search.subsets_examined"] += result.subsets_examined
        tracer.counts["kernels.search.found"] += result.found
        tracer.distinct.add((d.vertex_count, d.arcs, query))


def _observe_sequence(tracer, args, result, exc):
    if result is not None:
        tracer.counts["substitution.sequence.rounds"] += result.p + 1


def _observe_road(tracer, args, result, exc):
    if type(exc).__name__ == "NoRoadFoundError":
        tracer.counts["substitution.road.not_found"] += 1


def _observe_instance(tracer, args, result, exc):
    if result is not None:
        tracer.counts["generators.instances"] += 1


OBSERVERS = {
    "check_circuit_hypothesis": _observe_circuits,
    "check_cycle_hypothesis": _observe_cycles,
    "every_cycle_has_symmetric_arc": _observe_cycles,
    "find_kl_kernel": _observe_search,
    "build_substitution_sequence": _observe_sequence,
    "find_road": _observe_road,
    "random_digraph": _observe_instance,
    "random_strongly_connected": _observe_instance,
}

# Span fields.
NAME, START, END, PARENT, INSTANCE = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.distinct: set = set()
        self.missing: list[str] = []
        self.layer_of: dict[str, str] = {}
        self._stack = [-1]
        self._undo: list = []

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, fn, observe):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1], False]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = clock()
                stack.pop()
                if observe is not None:
                    observe(self, args, None, exc)
                raise
            span[END] = clock()
            stack.pop()
            if observe is not None:
                observe(self, args, result, None)
            span[INSTANCE] = observe is _observe_instance
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        """Each `next()` on the generator is a span; spans that yield a
        digraph count as instances."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                span = [name, 0.0, 0.0, stack[-1], False]
                stack.append(len(spans))
                spans.append(span)
                span[START] = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    span[END] = clock()
                    stack.pop()
                span[INSTANCE] = True
                self.counts["generators.instances"] += 1
                yield item

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [
            module
            for module_name, module in sorted(sys.modules.items())
            if module is not None
            and (module_name == "kernelkit" or module_name.startswith("kernelkit."))
        ]
        for layer, targets in FUNCTIONS.items():
            for module_name, attribute in targets:
                original = getattr(sys.modules.get(module_name), attribute, None)
                name = f"{module_name.removeprefix('kernelkit.')}.{attribute}"
                if original is None:
                    self.missing.append(name)
                    continue
                self.layer_of[name] = layer
                if inspect.isgeneratorfunction(original):
                    wrapper = self._wrap_generator(name, original)
                else:
                    wrapper = self._wrap(name, original, OBSERVERS.get(attribute))
                for module in modules:
                    for bound_name, value in list(vars(module).items()):
                        if value is original:
                            self._undo.append((module, bound_name, value))
                            setattr(module, bound_name, wrapper)

        digraph_class = getattr(sys.modules.get("kernelkit.digraph"), "Digraph", None)
        for layer, attributes in METHODS.items():
            for attribute in attributes:
                name = f"digraph.Digraph.{attribute}"
                member = vars(digraph_class).get(attribute) if digraph_class else None
                if member is None:
                    self.missing.append(name)
                    continue
                self.layer_of[name] = layer
                if hasattr(member, "func"):  # functools.cached_property
                    self._undo.append((member, "func", member.func))
                    member.func = self._wrap(name, member.func, None)
                else:
                    self._undo.append((digraph_class, attribute, member))
                    setattr(digraph_class, attribute, self._wrap(name, member, None))

    def uninstall(self) -> None:
        for owner, attribute, value in reversed(self._undo):
            setattr(owner, attribute, value)
        self._undo.clear()

    # -- results ------------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for index, span in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span[NAME],
                            "layer": self.layer_of[span[NAME]],
                            "start": span[START],
                            "end": span[END],
                            "parent": span[PARENT],
                        }
                    )
                    + "\n"
                )

    def layer_metrics(self) -> dict[str, float]:
        """Per layer: calls, inclusive seconds (outermost spans of the layer)
        and self seconds (span time not covered by child spans), plus the
        observed counts."""
        spans = self.spans
        layer_of = [self.layer_of[span[NAME]] for span in spans]
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        calls: Counter = Counter()
        inclusive: Counter = Counter()
        self_time: Counter = Counter()
        for index, span in enumerate(spans):
            layer = layer_of[index]
            duration = span[END] - span[START]
            calls[layer] += 1
            self_time[layer] += duration - child_time[index]
            parent = span[PARENT]
            while parent >= 0 and layer_of[parent] != layer:
                parent = spans[parent][PARENT]
            if parent < 0:
                inclusive[layer] += duration

        metrics: dict[str, float] = {}
        for layer in list(FUNCTIONS) + list(METHODS):
            if layer not in ("generators", "campaigns"):
                metrics[f"{layer}.calls"] = calls[layer]
            metrics[f"{layer}.s"] = inclusive[layer]
            metrics[f"{layer}.self_s"] = self_time[layer]
        del metrics["campaigns.s"]
        for key in (
            "cycles.circuits.examined",
            "cycles.circuits.budget_exceeded",
            "cycles.cycles.examined",
            "kernels.search.subsets_examined",
            "substitution.sequence.rounds",
            "substitution.road.not_found",
            "generators.instances",
        ):
            metrics[key] = self.counts[key]
        searches = calls["kernels.search"]
        metrics["kernels.search.found_ratio"] = (
            self.counts["kernels.search.found"] / searches if searches else 0.0
        )
        metrics["kernels.search.distinct_ratio"] = (
            len(self.distinct) / searches if searches else 0.0
        )
        gaps = self._instance_gaps()
        metrics["campaigns.instance_s.p50"] = statistics.median(gaps) if gaps else 0.0
        metrics["campaigns.instance_s.max"] = max(gaps) if gaps else 0.0
        return metrics

    def _instance_gaps(self) -> list[float]:
        """Per campaign call, the time between successive generator calls that
        produced an instance (and from the call's start and to its end)."""
        boundaries: dict[int, list[float]] = {}
        for index, span in enumerate(self.spans):
            if self.layer_of[span[NAME]] == "campaigns":
                boundaries[index] = [span[START]]
        for span in self.spans:
            if span[INSTANCE] and span[PARENT] in boundaries:
                boundaries[span[PARENT]].append(span[START])
        gaps = []
        for index, points in boundaries.items():
            points.append(self.spans[index][END])
            gaps.extend(b - a for a, b in zip(points, points[1:]))
        return gaps
