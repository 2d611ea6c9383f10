"""Theorem-verification campaigns behind `verify`.

Each campaign draws or enumerates instances deterministically, filters by
the relevant hypothesis class (reporting occupancy, with vacuous passes
flagged distinctly), checks the property, and collects failures up to a cap
instead of aborting.  Report bodies are byte-stable for fixed parameters;
wall time lives in a separate footer.  Class membership is decided only by
the table `CLASSES`.  `_class_campaign` runs a verdict on each member of a
class (duchet, reverse-path, theorem2); `_trace_campaign` runs a check on
each substitution trace, of a class's members only when named one.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import asdict, dataclass
from functools import partial
from itertools import chain
from typing import Callable, Iterator

from .cycles import (
    DEFAULT_BUDGET,
    CycleHypothesisVariant,
    _acyclic,
    _cycle_lengths_0_mod_3,
    _one_way_arcs_acyclic,
    check_cycle_hypothesis,
)
from .digraph import Digraph, _hops, directed_cycle
from .errors import BudgetExceededError, NoBaseKernelError, SubkernelMissingError
from .generators import (
    SplitMix64,
    derive_trial_seed,
    enumerate_labeled_digraphs,
    random_digraph,
    random_strongly_connected,
)
from .kernels import (
    KERNEL,
    THREE_KERNEL,
    find_kl_kernel,
    is_kernel_perfect,
    is_quasi_3_kernel_perfect,
    k_closure,
    kl_kernels,
)
from .substitution import (
    Road,
    SubstitutionTrace,
    check_additive_inverse_property,
    check_pre_kernel_properties,
    check_unique_short_chord,
    roads_of,
    run_substitution_method,
    start_substitution,
    validate_road,
)
from .textio import format_digraph_text


@dataclass
class CampaignParams:
    n: int = 6
    trials: int = 100
    seed: int = 0
    exhaustive: bool = False
    max_failures: int = 10
    budget: int = DEFAULT_BUDGET
    min_cycle_len: int = 2
    arc_prob: float = 0.3
    extra_arc_prob: float = 0.15

    def __post_init__(self) -> None:
        for name, least in (
            ("budget", 1), ("trials", 0), ("max_failures", 0), ("min_cycle_len", 2)
        ):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}")
        for name in ("arc_prob", "extra_arc_prob"):
            if not 0 <= getattr(self, name) <= 1:
                raise ValueError(f"{name} must be in [0, 1]")


@dataclass
class VerificationReport:
    property_id: str
    parameters: dict
    instances_checked: int
    failures: list
    failures_total: int
    occupancy: dict
    vacuous: bool
    wall_time: float

    @property
    def result(self) -> str:
        if self.failures_total:
            return "fail"
        return "vacuous" if self.vacuous else "pass"

    @property
    def passed(self) -> bool:
        return self.failures_total == 0

    def body_dict(self) -> dict:
        return {
            "property_id": self.property_id,
            "parameters": self.parameters,
            "instances_checked": self.instances_checked,
            "failures": self.failures,
            "failures_total": self.failures_total,
            "occupancy": self.occupancy,
            "result": self.result,
        }

    def body_json(self) -> str:
        return json.dumps(self.body_dict(), sort_keys=True, indent=2)

    def to_json(self) -> str:
        doc = {
            "body": self.body_dict(),
            "footer": {"wall_time_s": round(self.wall_time, 6)},
        }
        return json.dumps(doc, sort_keys=True, indent=2)


class _Failures:
    def __init__(self, cap: int):
        self.cap = cap
        self.items: list = []
        self.total = 0

    def add(self, instance: Digraph, detail: str) -> None:
        self.total += 1
        if len(self.items) < self.cap:
            self.items.append(
                {"instance": format_digraph_text(instance), "detail": detail}
            )


def _sc_stream(params: CampaignParams) -> Iterator[Digraph]:
    if params.exhaustive:
        for d in enumerate_labeled_digraphs(params.n):
            if d.is_strongly_connected():
                yield d
    else:
        for trial in range(params.trials):
            yield random_strongly_connected(
                params.n, params.extra_arc_prob, derive_trial_seed(params.seed, trial)
            )


def _plain_stream(params: CampaignParams) -> Iterator[Digraph]:
    if params.exhaustive:
        yield from enumerate_labeled_digraphs(params.n)
    else:
        for trial in range(params.trials):
            yield random_digraph(params.n, params.arc_prob, derive_trial_seed(params.seed, trial))


# -- hypothesis classes ----------------------------------------------------


# A member test, `member(d, budget, min_cycle_len)`: whether d is in its
# class, or None when the class check's search exceeds the budget.
_Member = Callable[[Digraph, int, int], bool | None]


def _cycle_member(variant: CycleHypothesisVariant) -> _Member:
    """The member test of `variant`'s cycle-hypothesis class.  At minimum
    length 2 the class is the acyclic digraphs (README "Reported findings"),
    decided by one peel of every arc without a budget; at a longer minimum
    length `check_cycle_hypothesis` searches up to the first violation."""
    def member(d: Digraph, budget: int, min_cycle_len: int) -> bool | None:
        if min_cycle_len == 2:
            return _acyclic(d.in_masks)
        try:
            return check_cycle_hypothesis(d, variant, min_cycle_len, budget=budget).satisfied
        except BudgetExceededError:
            return None

    return member


# The hypothesis classes: theorem4's circuit hypothesis, the two cycle
# hypotheses (theorem2's and reverse-path's) and Duchet's.  The circuit class
# is the mod-3 class, decided by its residue test, and Duchet's class is the
# one whose one-way arcs are acyclic, decided by one peeling pass; neither
# searches, so both ignore the budget and min_cycle_len and are never None.
# The cycle classes search only past minimum length 2, and their search is
# looked up in this module at call time, so replacing it here reaches the
# table.
CLASSES: dict[str, _Member] = {
    "circuit": lambda d, budget, min_cycle_len: _cycle_lengths_0_mod_3(d),
    "theorem1": _cycle_member(CycleHypothesisVariant.THREE_WITH_CROSSING),
    "two-consecutive": _cycle_member(CycleHypothesisVariant.TWO_CONSECUTIVE),
    "duchet": lambda d, budget, min_cycle_len: _one_way_arcs_acyclic(d),
}


def _class_campaign(
    params: CampaignParams,
    failures: _Failures,
    member: _Member,
    verdict: Callable[[Digraph, _Failures], None],
) -> dict:
    """`verdict` on each strongly connected instance that `member` puts in
    its class.  An instance whose member test runs out of budget is skipped;
    the occupancy lists budget skips only when there are some."""
    tried = accepted = budget_skips = 0
    for d in _sc_stream(params):
        tried += 1
        is_member = member(d, params.budget, params.min_cycle_len)
        if is_member is None:
            budget_skips += 1
        elif is_member:
            accepted += 1
            verdict(d, failures)
    occupancy: dict = {"tried": tried, "accepted": accepted}
    if budget_skips:
        occupancy["skipped"] = {"budget": budget_skips}
    return {"instances_checked": accepted, "occupancy": occupancy, "vacuous": accepted == 0}


# -- individual campaigns ---------------------------------------------------


def _closure_lemma(params: CampaignParams, failures: _Failures) -> dict:
    checked = 0
    for d in _plain_stream(params):
        checked += 1
        left = set(kl_kernels(d, THREE_KERNEL))
        right = set(kl_kernels(k_closure(d, 2), KERNEL))
        for subset in sorted(left ^ right):
            detail = f"(3,2) {subset in left} vs closure (2,1) {subset in right}"
            failures.add(d, f"subset {list(subset)}: {detail}")
    return {"instances_checked": checked, "occupancy": {"tried": checked}, "vacuous": checked == 0}


def _kernel_perfect(d: Digraph, failures: _Failures) -> None:
    ok, counterexample = is_kernel_perfect(d)
    if not ok:
        failures.add(d, f"induced subdigraph {list(counterexample)} has no kernel")


def _has_3_kernel(d: Digraph, failures: _Failures) -> None:
    if not find_kl_kernel(d, THREE_KERNEL).found:
        failures.add(d, "hypothesis satisfied but no 3-kernel found")


def _short_returns(d: Digraph, failures: _Failures) -> None:
    balls = d.in_balls2
    for u, v in sorted(d.arcs):
        if not balls[u] >> v & 1:
            failures.add(d, f"arc ({u}, {v}) with d({v}, {u}) = {_hops(d.out_masks, v)[u]}")


def _reverse_path(params: CampaignParams, failures: _Failures) -> dict:
    if params.min_cycle_len not in (2, 3):
        raise ValueError("reverse-path needs min_cycle_len 2 or 3")
    accepted_by_len: Counter = Counter()

    def member(d: Digraph, budget: int, min_cycle_len: int) -> bool | None:
        """The two-consecutive class at min_cycle_len, after counting d at
        each length that decides it a member."""
        passing = {m: CLASSES["two-consecutive"](d, budget, m) for m in (2, 3)}
        accepted_by_len.update(m for m in (2, 3) if passing[m])
        return passing[min_cycle_len]

    summary = _class_campaign(params, failures, member, _short_returns)
    for m in (2, 3):
        summary["occupancy"][f"accepted_min_cycle_len_{m}"] = accepted_by_len[m]
    return summary


def _found_roads(
    d: Digraph, x0: int, trace: SubstitutionTrace, failures: _Failures, occupancy: Counter
) -> Iterator[Road]:
    """The roads of the trace, each counted as roads_checked; a vertex
    without a road is a failure."""
    for s, v, road in roads_of(trace):
        if road is None:
            failures.add(d, f"x0={x0}: no road of length {s} from {v}")
        else:
            occupancy["roads_checked"] += 1
            yield road


def _trace_campaign(
    params: CampaignParams,
    failures: _Failures,
    check: Callable[[Digraph, int, SubstitutionTrace, _Failures, Counter], None],
    counters: tuple[str, ...] = (),
    class_name: str | None = None,
) -> dict:
    """One (D, x0) attempt per trial, both drawn from the trial's derived
    seed: D is skipped when it is not a member of `CLASSES[class_name]` (a
    class decided without a budget), else its substitution starts and
    `check` runs on the trace.  `check` adds to the named counters; the
    campaign is vacuous when the last of them (traces_built when there are
    none) stays 0."""
    if params.exhaustive:
        raise ValueError("the trace campaigns have no exhaustive mode")
    occupancy = Counter(dict.fromkeys(("tried", "traces_built", *counters), 0))
    if class_name:
        occupancy["accepted"] = 0
    skips: Counter = Counter()
    for trial in range(params.trials):
        seed = derive_trial_seed(params.seed, trial)
        d = random_strongly_connected(params.n, params.extra_arc_prob, seed)
        x0 = SplitMix64(seed + 1).next_u64() % params.n
        occupancy["tried"] += 1
        if class_name:
            if not CLASSES[class_name](d, params.budget, params.min_cycle_len):
                skips[f"{class_name} hypothesis"] += 1
                continue
            occupancy["accepted"] += 1
        try:
            trace = start_substitution(d, x0)
        except NoBaseKernelError:
            skips["no base kernel"] += 1
            continue
        except SubkernelMissingError:
            skips["subkernel missing"] += 1
            continue
        occupancy["traces_built"] += 1
        check(d, x0, trace, failures, occupancy)
    return {
        "instances_checked": occupancy["traces_built"],
        "occupancy": {**occupancy, "skipped": skips},
        "vacuous": occupancy[("traces_built", *counters)[-1]] == 0,
    }


def _pre_kernel_props(d, x0, trace, failures, occupancy) -> None:
    report = check_pre_kernel_properties(trace)
    for u in report.absorption_violations:
        failures.add(d, f"x0={x0}: vertex {u} not 2-absorbed by the pre-3-kernel")
    for a, b, path, why in report.shape_violations:
        failures.add(d, f"x0={x0}: internal path {path} from {a} to {b}: {why}")


def _roads(d, x0, trace, failures, occupancy) -> None:
    # `find_road` checks each condition on a prefix as it descends; this
    # validation of the whole path is the cross-check of those prefix checks
    for road in _found_roads(d, x0, trace, failures, occupancy):
        validation = validate_road(trace, road.path)
        if not validation.passed:
            details = "; ".join(c.detail for c in validation.conditions if not c.ok)
            failures.add(d, f"x0={x0}: road {list(road.path)} invalid: {details}")


def _unique_chord(d, x0, trace, failures, occupancy) -> None:
    for road in _found_roads(d, x0, trace, failures, occupancy):
        report = check_unique_short_chord(trace, road)
        if report.inner_positions:
            occupancy["roads_with_inner_skip_arc"] += 1
        for violation in report.violations:
            failures.add(d, f"x0={x0}: road {list(road.path)}: {violation}")


def _additive_inverse(d, x0, trace, failures, occupancy) -> None:
    for road in _found_roads(d, x0, trace, failures, occupancy):
        report = check_additive_inverse_property(trace, road)
        for pos, dist in report.violations:
            failures.add(
                d,
                f"x0={x0}: road {list(road.path)} position {pos}: "
                f"d(x0, t_{pos}) = {dist} != -{pos} mod 3",
            )


def _theorem4(params: CampaignParams, failures: _Failures) -> dict:
    if params.exhaustive:
        raise ValueError("theorem4 has no exhaustive mode")
    tried = accepted = 0
    skips: Counter = Counter()
    canonical_accepted = False
    # The canonical directed n-cycle is checked first so the class, when
    # occupied at all, deterministically contains it.
    for d in chain([directed_cycle(params.n)], _sc_stream(params)):
        tried += 1
        if not CLASSES["circuit"](d, params.budget, params.min_cycle_len):
            skips["circuit hypothesis"] += 1
            continue
        if not is_quasi_3_kernel_perfect(d)[0]:
            skips["not quasi-3-kernel-perfect"] += 1
            continue
        accepted += 1
        if tried == 1:
            canonical_accepted = True

        # D is quasi-3-kernel-perfect, so it is 3-kernel-perfect iff D has a 3-kernel
        if not find_kl_kernel(d, THREE_KERNEL).found:
            failures.add(d, f"not 3-kernel-perfect: subset {list(d.vertices())}")
        for x0 in d.vertices():
            try:
                outcome = run_substitution_method(d, x0)
            except (NoBaseKernelError, SubkernelMissingError) as exc:
                failures.add(d, f"x0={x0}: substitution failed: {exc}")
                continue
            if not outcome.is_3_kernel:
                failures.add(
                    d,
                    f"x0={x0}: pre-3-kernel {list(outcome.pre_3_kernel)} is not a "
                    f"3-kernel (witness {outcome.failure_witness})",
                )
            for road in _found_roads(d, x0, outcome.trace, failures, Counter()):
                report = check_additive_inverse_property(outcome.trace, road)
                if not report.passed:
                    failures.add(
                        d, f"x0={x0}: additive-inverse fails on road {list(road.path)}"
                    )
    return {
        "instances_checked": accepted,
        "occupancy": {
            "tried": tried,
            "accepted": accepted,
            "canonical_cycle_accepted": canonical_accepted,
            "skipped": skips,
        },
        "vacuous": accepted == 0,
    }


CAMPAIGNS: dict[str, Callable[[CampaignParams, _Failures], dict]] = {
    "closure-lemma": _closure_lemma,
    "duchet": partial(_class_campaign, member=CLASSES["duchet"], verdict=_kernel_perfect),
    "reverse-path": _reverse_path,
    "theorem2": partial(_class_campaign, member=CLASSES["theorem1"], verdict=_has_3_kernel),
    "pre-kernel-props": partial(_trace_campaign, check=_pre_kernel_props),
    "roads": partial(_trace_campaign, check=_roads, counters=("roads_checked",)),
    "unique-chord": partial(
        _trace_campaign,
        check=_unique_chord,
        counters=("roads_checked", "roads_with_inner_skip_arc"),
    ),
    "additive-inverse": partial(
        _trace_campaign,
        check=_additive_inverse,
        counters=("roads_checked",),
        class_name="circuit",
    ),
    "theorem4": _theorem4,
}

# The campaigns that read each campaign-specific parameter; the others ignore it.
PARAMETER_READERS = {
    "budget": ("reverse-path", "theorem2"),
    "min_cycle_len": ("reverse-path", "theorem2"),
}


def run_campaign(property_id: str, params: CampaignParams) -> VerificationReport:
    if property_id not in CAMPAIGNS:
        raise KeyError(f"unknown property {property_id!r}; known: {sorted(CAMPAIGNS)}")
    failures = _Failures(params.max_failures)
    start = time.perf_counter()
    summary = CAMPAIGNS[property_id](params, failures)
    elapsed = time.perf_counter() - start
    return VerificationReport(
        property_id=property_id,
        parameters=asdict(params),
        instances_checked=summary["instances_checked"],
        failures=failures.items,
        failures_total=failures.total,
        occupancy=summary["occupancy"],
        vacuous=summary["vacuous"],
        wall_time=elapsed,
    )
