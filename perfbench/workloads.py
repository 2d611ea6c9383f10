"""The benchmark's workloads: each is a list of `kernelkit.run_campaign` calls
built from the workload seed.

A call is `(property_id, params)`, where `params` holds `CampaignParams`
fields.  The campaign seed of every seeded call is the workload seed itself,
exactly as `kernelkit verify --seed` passes it; `circuits` alone is fixed.
"""

from __future__ import annotations

# The seed of the acceptance suite (tests/test_acceptance.py).
ACCEPTANCE_SEED = 20260823

# Criterion 10's theorem4 call.  Trial 14 is an m=22 instance that exhausts
# the 10**6-step circuit budget: the instance the length-ordered circuit search
# is meant to decide.  The call keeps the acceptance seed whatever the workload
# seed: the circuit-search cost of a random instance of this shape has a long
# tail (of 600 instances drawn from independent seeds, the median took 0.8 ms
# while 7 exceeded 10**5 steps), so seeded calls made the pass time swing
# between seeds (IQR 31% of the median over ten seeds).
CRITERION_10 = dict(n=6, trials=30, seed=ACCEPTANCE_SEED, extra_arc_prob=0.3)

# `perfection` runs as many theorem4 trials as it takes to draw this many
# instances that satisfy the circuit hypothesis.  Nearly all of its time goes
# to the perfection scans of those instances, about 1,050 `find_kl_kernel`
# calls each at n=9 whatever the instance, so this keeps the work of a pass
# the same at every seed (its kernel-search calls spread by 0.07%).
# A fixed trial count does not: the number of such instances is binomial,
# and over ten seeds the kernel-search calls of a pass spread (IQR over
# median) by 17% at 200 trials and by 9% at 800.  Fifty takes about 200
# trials, the configuration the workload was first measured with.
PERFECTION_SCANNED = 50
PERFECTION_SHAPE = dict(n=9, extra_arc_prob=0.03)

# Criteria 04/05 batches: (n, trials, extra_arc_prob).
REVERSE_BATCHES = [(4, 200, 0.7), (5, 200, 0.7), (6, 100, 0.8)]


def _circuits(seed: int) -> list[tuple[str, dict]]:
    return [("theorem4", CRITERION_10)]


def _perfection(seed: int) -> list[tuple[str, dict]]:
    # Imported here: run.py loads this module before it checks for kernelkit.
    from kernelkit.cycles import check_circuit_hypothesis
    from kernelkit.generators import derive_trial_seed, random_strongly_connected

    n, prob = PERFECTION_SHAPE["n"], PERFECTION_SHAPE["extra_arc_prob"]
    scanned = trials = 0
    while scanned < PERFECTION_SCANNED:
        d = random_strongly_connected(n, prob, derive_trial_seed(seed, trials))
        scanned += check_circuit_hypothesis(d, max_len=len(d.arcs)).satisfied
        trials += 1
    return [("theorem4", dict(PERFECTION_SHAPE, trials=trials, seed=seed))]


def _traces(seed: int) -> list[tuple[str, dict]]:
    return [
        (property_id, dict(n=n, trials=400, seed=seed))
        for property_id in ("pre-kernel-props", "roads", "unique-chord")
        for n in (8, 12)
    ]


def _screening(seed: int) -> list[tuple[str, dict]]:
    calls = [
        (property_id, dict(n=n, exhaustive=True))
        for property_id in ("closure-lemma", "duchet")
        for n in range(1, 5)
    ]
    calls += [
        (property_id, dict(n=n, trials=trials, seed=seed, extra_arc_prob=prob, min_cycle_len=3))
        for property_id in ("reverse-path", "theorem2")
        for n, trials, prob in REVERSE_BATCHES
    ]
    return calls


WORKLOADS = {
    "circuits": _circuits,
    "perfection": _perfection,
    "traces": _traces,
    "screening": _screening,
}


def calls_for(workload: str, seed: int) -> list[tuple[str, dict]]:
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; known: {sorted(WORKLOADS)}")
    return WORKLOADS[workload](seed)


def call_label(property_id: str, params: dict) -> str:
    """Short stable name of a call, used in pins and in the printed summary."""
    parts = [property_id] + [f"{key}={params[key]}" for key in sorted(params)]
    return " ".join(parts)
