"""Cycle and circuit enumeration, chords, and chord-condition predicates.

Both are `ClosedWalk`s.  Cycles are simple directed cycles stored with their
smallest vertex first.  Circuits are closed trails (arcs pairwise distinct,
vertices may repeat) stored in their lexicographically least rotation;
every cycle is also a circuit.  Chords are position-indexed so repeated
vertices on a circuit contribute separately.

Every chord condition concerns only short chords (length 2), so the
hypothesis checks find them with `short_chords`, one arc test per position.
All three hypothesis checks take `stop_at_first`, which ends the check at
the first violation (the full report's first one) for callers that read
only `.satisfied`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .digraph import Digraph
from .errors import BudgetExceededError

DEFAULT_BUDGET = 10**6


@dataclass(frozen=True)
class ClosedWalk:
    """A simple cycle or closed trail, stored in its canonical rotation."""

    vertices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.vertices)

    def arcs(self) -> frozenset:
        n = len(self.vertices)
        return frozenset(
            (self.vertices[i], self.vertices[(i + 1) % n]) for i in range(n)
        )


@dataclass(frozen=True)
class Chord:
    """An off-cycle arc between positions of a cycle/circuit.

    length is the along-cycle distance (head_pos - tail_pos) mod n, always
    in 2..n-1.
    """

    tail_pos: int
    head_pos: int
    length: int


@dataclass(frozen=True)
class Violation:
    subject: tuple[int, ...]
    reason: str


@dataclass(frozen=True)
class HypothesisReport:
    satisfied: bool
    violations: tuple[Violation, ...]
    cycles_examined: int


class CycleHypothesisVariant(enum.Enum):
    TWO_CONSECUTIVE = "two-consecutive"
    THREE_WITH_CROSSING = "three-with-crossing"


def enumerate_cycles(
    d: Digraph, min_len: int = 2, max_len: int | None = None
) -> Iterator[ClosedWalk]:
    """Yield every simple directed cycle with min_len <= length <= max_len,
    sorted by length then lexicographically, each in canonical rotation.

    One path search per length L from min_len up, as in `enumerate_circuits`;
    each pass meets its cycles in lexicographic order and yields them before
    the next starts, and the search ends after a pass in which no path from
    a root through larger vertices reaches L vertices."""
    if max_len is None:
        max_len = d.vertex_count
    if min_len < 2:
        raise ValueError("min_len must be >= 2")
    adj, out_masks, in_masks = d.out_adj, d.out_masks, d.in_masks
    for length in range(min_len, max_len + 1):
        found: list[tuple[int, ...]] = []
        reached = False

        def extend(root: int, path: list[int], on_path: int) -> None:
            # on_path: the path and every vertex below the root, none of them free
            nonlocal reached
            u = path[-1]
            if len(path) == length - 1:
                ends = out_masks[u] & ~on_path
                reached = reached or ends != 0
                ends &= in_masks[root]
                while ends:
                    low = ends & -ends
                    found.append((*path, low.bit_length() - 1))
                    ends ^= low
                return
            for w in adj[u]:
                if not on_path >> w & 1:
                    path.append(w)
                    extend(root, path, on_path | 1 << w)
                    path.pop()

        for root in d.vertices():
            extend(root, [root], (2 << root) - 1)
        for seq in found:
            yield ClosedWalk(seq)
        if not reached:
            return


def _canonical_rotation(seq: tuple[int, ...]) -> tuple[int, ...]:
    n = len(seq)
    return min(seq[i:] + seq[:i] for i in range(n))


def enumerate_circuits(
    d: Digraph,
    max_len: int,
    min_len: int = 2,
    budget: int = DEFAULT_BUDGET,
) -> Iterator[ClosedWalk]:
    """Yield every closed trail up to max_len arcs, once per canonical
    rotation, sorted by length then lexicographically.

    The search is iterative deepening: one trail search per length L from
    min_len up, each yielding the closed trails of exactly L arcs before the
    next one starts, so a caller that stops early never pays for the longer
    layers.  The search ends after the first pass in which no trail reaches
    L arcs, since no longer trail can exist then.

    `budget` bounds the steps (arcs tried) of each pass, not their sum;
    BudgetExceededError is raised from the first pass that exceeds it.  A
    pass tries a subset of the arcs that one search to depth max_len tries,
    and the deepest pass tries exactly those, so the search exceeds the
    budget for the same digraphs that one such search does.  Consuming every
    layer repeats the shorter passes: on dense n=7 digraphs (m = 21-26) the
    full enumeration took 1.0x-2.7x the time of one search, and on five that
    exceed the default budget 2.0x in sum (6.2x on the worst one).
    """
    if min_len < 2:
        raise ValueError("min_len must be >= 2")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    adj = d.out_adj
    for length in range(min_len, max_len + 1):
        found: set[tuple[int, ...]] = set()
        steps = 0
        reached = False

        def extend(root: int, u: int, trail: list[int], used: set) -> None:
            nonlocal steps, reached
            last = len(trail) == length
            for w in adj[u]:
                if w < root or (u, w) in used:
                    continue
                steps += 1
                if steps > budget:
                    raise BudgetExceededError(
                        f"circuit enumeration exceeded {budget} steps at length {length}"
                    )
                if last:
                    reached = True
                    if w == root:
                        found.add(_canonical_rotation(tuple(trail)))
                else:
                    trail.append(w)
                    used.add((u, w))
                    extend(root, w, trail, used)
                    used.discard((u, w))
                    trail.pop()

        for root in d.vertices():
            extend(root, root, [root], set())
        for seq in sorted(found):
            yield ClosedWalk(seq)
        if not reached:
            return


def short_chords(d: Digraph, c: ClosedWalk) -> list[Chord]:
    """The chords of length 2, sorted by position, by one arc test per
    position.  The walk-arc test matters on circuits, whose vertices can
    repeat."""
    seq = c.vertices
    n = len(seq)
    if n < 3:
        return []
    walk_arcs = c.arcs()
    result = []
    for i in range(n):
        arc = (seq[i], seq[(i + 2) % n])
        if arc in d.arcs and arc not in walk_arcs:
            result.append(Chord(i, (i + 2) % n, 2))
    return result


def are_consecutive(a: Chord, b: Chord) -> bool:
    """True iff b starts where a ends (directional; test both orders for the
    unordered notion)."""
    return a.head_pos == b.tail_pos


def are_crossed(a: Chord, b: Chord, c: ClosedWalk) -> bool:
    """True iff some rotation lift satisfies j < j' < j+k < j'+k'."""
    n = len(c.vertices)
    gap_tail = (b.tail_pos - a.tail_pos) % n
    gap_head = (a.head_pos - b.tail_pos) % n
    return 0 < gap_tail < a.length and 0 < gap_head < b.length


def _cycle_ok(
    d: Digraph, cyc: ClosedWalk, variant: CycleHypothesisVariant
) -> Violation | None:
    shorts = short_chords(d, cyc)
    if len(cyc) % 3 == 0:
        if shorts:
            return None
        return Violation(cyc.vertices, "length = 0 mod 3 but no short chord")
    pairs = [(a, b) for a in shorts for b in shorts if a is not b and are_consecutive(a, b)]
    if not pairs:
        return Violation(cyc.vertices, "length != 0 mod 3 but no two consecutive short chords")
    if variant is CycleHypothesisVariant.TWO_CONSECUTIVE:
        return None
    # need, for some consecutive pair, a third short chord crossing either member
    for a, b in pairs:
        for third in shorts:
            if third is a or third is b:
                continue
            if (
                are_crossed(third, a, cyc)
                or are_crossed(a, third, cyc)
                or are_crossed(third, b, cyc)
                or are_crossed(b, third, cyc)
            ):
                return None
    return Violation(
        cyc.vertices, "length != 0 mod 3 but no third short chord crossing the consecutive pair"
    )


def _report(
    walks: Iterable[ClosedWalk],
    violation: Callable[[ClosedWalk], Violation | None],
    stop_at_first: bool,
) -> HypothesisReport:
    """Collect each walk's violation in order; stop_at_first ends at the first."""
    violations = []
    examined = 0
    for walk in walks:
        examined += 1
        bad = violation(walk)
        if bad is not None:
            violations.append(bad)
            if stop_at_first:
                break
    return HypothesisReport(not violations, tuple(violations), examined)


def check_cycle_hypothesis(
    d: Digraph,
    variant: CycleHypothesisVariant,
    min_cycle_len: int = 2,
    stop_at_first: bool = False,
) -> HypothesisReport:
    """Check the short-chord hypothesis over every simple cycle of length
    >= min_cycle_len (ValueError below 2).

    With stop_at_first the check ends at the first violation, which is the
    full report's first one.
    """
    cycles = enumerate_cycles(d, min_len=min_cycle_len)
    return _report(cycles, lambda cyc: _cycle_ok(d, cyc, variant), stop_at_first)


def _circuit_violation(d: Digraph, circ: ClosedWalk) -> Violation | None:
    if len(circ) % 3 == 0 or len(shorts := short_chords(d, circ)) >= 4:
        return None
    return Violation(circ.vertices, f"length != 0 mod 3 with only {len(shorts)} short chords")


def check_circuit_hypothesis(
    d: Digraph,
    max_len: int,
    budget: int = DEFAULT_BUDGET,
    stop_at_first: bool = False,
) -> HypothesisReport:
    """Every circuit of length != 0 mod 3 (within the bounds) must have at
    least four distinct short chords.

    With stop_at_first the check ends at the first violation, which is the
    full report's first one; circuits longer than it are never enumerated,
    so a digraph with a short violating circuit is decided even when the
    full enumeration would exceed `budget`.
    """
    circuits = enumerate_circuits(d, max_len=max_len, budget=budget)
    return _report(circuits, lambda circ: _circuit_violation(d, circ), stop_at_first)


def _asymmetric_cycle(d: Digraph, cyc: ClosedWalk) -> Violation | None:
    seq, n = cyc.vertices, len(cyc)
    if any((seq[(i + 1) % n], seq[i]) in d.arcs for i in range(n)):
        return None
    return Violation(seq, "cycle without symmetric arc")


def every_cycle_has_symmetric_arc(d: Digraph, stop_at_first: bool = False) -> HypothesisReport:
    """Duchet's hypothesis: each simple cycle contains an arc whose reverse
    is also present.  With stop_at_first the check ends at the first
    violation."""
    return _report(enumerate_cycles(d), lambda cyc: _asymmetric_cycle(d, cyc), stop_at_first)
