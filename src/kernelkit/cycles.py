"""Cycle enumeration and the chord-condition predicates.

Cycles are simple directed cycles, `ClosedWalk`s stored with their smallest
vertex first.  The cycle checks read the vertex tuples of `_cycle_tuples`,
the search behind `enumerate_cycles`; a `ClosedWalk` is made only where
`enumerate_cycles` yields one.

Every chord condition concerns only short chords (length 2), and the
hypothesis checks read them by position: position i holds one when
(seq[i], seq[i+2]) is an arc, one arc test each on the adjacency masks of
`Digraph`.  The cycle checks keep the chord positions as an n-bit mask,
where consecutive and crossing short chords are rotations of it.
`check_cycle_hypothesis` takes `stop_at_first`, which ends the check at
the first violation (the full report's first one) for callers that read
only `.satisfied`; every cycle check takes a `budget` of steps per length
pass of its search.

The circuit hypothesis searches nothing (README "Reported findings"): it
holds exactly on the digraphs whose cycle lengths are all = 0 mod 3, tested
by `_cycle_lengths_0_mod_3`, and its first violation is the least shortest
cycle of length != 0 mod 3, which `check_circuit_hypothesis` finds by a
greedy walk on reach masks.  Duchet's class holds exactly on the digraphs
whose one-way arcs form an acyclic digraph, tested by
`_one_way_arcs_acyclic` with the peel of `_acyclic`, which also decides
both cycle hypotheses at minimum length 2: there they hold exactly on the
acyclic digraphs.  `check_circuit_hypothesis` and
`every_cycle_has_symmetric_arc` serve the callers that list violations.

Each length pass's cycle search is a nested function that calls itself,
and a closure that holds itself is cyclic garbage; so the pass deletes its
name before it yields, since a caller may abandon the generator there, and
on the way out of a BudgetExceededError.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .digraph import Digraph, _ball
from .errors import BudgetExceededError

DEFAULT_BUDGET = 10**6


@dataclass(frozen=True)
class ClosedWalk:
    """A simple cycle, stored with its smallest vertex first."""

    vertices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.vertices)

    def arcs(self) -> frozenset:
        n = len(self.vertices)
        return frozenset(
            (self.vertices[i], self.vertices[(i + 1) % n]) for i in range(n)
        )


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
    d: Digraph, min_len: int = 2, max_len: int | None = None, budget: int = DEFAULT_BUDGET
) -> Iterator[ClosedWalk]:
    """Yield every simple directed cycle with min_len <= length <= max_len,
    sorted by length then lexicographically, each in canonical rotation.

    One path search per length L from min_len up; each pass meets its
    cycles in lexicographic order and yields them before the next starts,
    and the search ends after a pass in which no path from a root through
    larger vertices reaches L vertices.

    `budget` bounds the steps (paths extended) of each pass, not their sum;
    BudgetExceededError is raised from the first pass that exceeds it.  On a
    complete symmetric digraph every cycle passes the hypothesis checks, so
    only the budget ends a dense search early."""
    for seq in _cycle_tuples(d, min_len, max_len, budget):
        yield ClosedWalk(seq)


def _cycle_tuples(
    d: Digraph, min_len: int, max_len: int | None, budget: int
) -> Iterator[tuple[int, ...]]:
    """`enumerate_cycles` as vertex tuples, for the checks that read them.

    A path of L-1 vertices is a leaf of pass L.  Each leaf runs in its
    parent's loop, which counts its step where its own call would have, so
    the budget is checked at the same steps; a root that is its own leaf
    (L = 2) is handled at the root."""
    if max_len is None:
        max_len = d.vertex_count
    if min_len < 2:
        raise ValueError("min_len must be >= 2")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    out_masks, in_masks = d.out_masks, d.in_masks
    for length in range(min_len, max_len + 1):
        found: list[tuple[int, ...]] = []
        steps = 0
        reached = False

        def exceeded() -> BudgetExceededError:
            return BudgetExceededError(
                f"cycle enumeration exceeded {budget} steps at length {length}"
            )

        def extend(root: int, path: list[int], on_path: int) -> None:
            # on_path: the path and every vertex below the root, none of them free;
            # the path has at most length - 2 vertices
            nonlocal steps, reached
            steps += 1
            if steps > budget:
                raise exceeded()
            nexts = out_masks[path[-1]] & ~on_path
            if len(path) < length - 2:
                while nexts:
                    low = nexts & -nexts
                    path.append(low.bit_length() - 1)
                    extend(root, path, on_path | low)
                    path.pop()
                    nexts ^= low
                return
            # each next vertex ends a leaf path of length - 1 vertices
            closing = in_masks[root]
            while nexts:
                low = nexts & -nexts
                nexts ^= low
                steps += 1
                if steps > budget:
                    raise exceeded()
                u = low.bit_length() - 1
                ends = out_masks[u] & ~(on_path | low)
                if ends:
                    reached = True
                    ends &= closing
                    while ends:
                        end = ends & -ends
                        found.append((*path, u, end.bit_length() - 1))
                        ends ^= end

        try:
            for root in d.vertices():
                on_path = (2 << root) - 1
                if length > 2:
                    extend(root, [root], on_path)
                    continue
                steps += 1
                if steps > budget:
                    raise exceeded()
                ends = out_masks[root] & ~on_path
                if ends:
                    reached = True
                    ends &= in_masks[root]
                    while ends:
                        end = ends & -ends
                        found.append((root, end.bit_length() - 1))
                        ends ^= end
        finally:
            del extend
        yield from found
        if not reached:
            return


def _rotate(mask: int, j: int, n: int) -> int:
    """The n-bit mask rotated so that bit i holds bit (i + j) mod n."""
    j %= n
    return (mask >> j | mask << (n - j)) & ((1 << n) - 1)


def _short_chords(out_masks: tuple[int, ...], seq: tuple[int, ...]) -> int:
    """Bit i: the short chord (seq[i], seq[i+2]), never an arc of a simple cycle."""
    chords = 0
    n = len(seq)
    for i in range(n):
        if out_masks[seq[i]] >> seq[i + 2 - n] & 1:
            chords |= 1 << i
    return chords


def _cycle_ok(
    seq: tuple[int, ...], chords: int, variant: CycleHypothesisVariant
) -> Violation | None:
    """Whether the simple cycle `seq`, with the short-chord mask `chords`,
    meets the variant.  Short chords at positions i and j are consecutive
    when j = i + 2 and cross when j = i +- 1 (mod n)."""
    n = len(seq)
    if n % 3 == 0:
        if chords:
            return None
        return Violation(seq, "length = 0 mod 3 but no short chord")
    pairs = chords & _rotate(chords, 2, n)  # bit i: chords at i and i + 2
    if not pairs:
        return Violation(seq, "length != 0 mod 3 but no two consecutive short chords")
    if variant is CycleHypothesisVariant.TWO_CONSECUTIVE:
        return None
    # a third chord crosses the pair at i, i + 2 from i - 1, i + 1 or i + 3,
    # none of them i or i + 2 since n >= 4 here
    if pairs & (_rotate(chords, -1, n) | _rotate(chords, 1, n) | _rotate(chords, 3, n)):
        return None
    return Violation(
        seq, "length != 0 mod 3 but no third short chord crossing the consecutive pair"
    )


_Walk = TypeVar("_Walk")


def _report(
    walks: Iterable[_Walk],
    violation: Callable[[_Walk], Violation | None],
    stop_at_first: bool,
) -> HypothesisReport:
    """Collect each walk's violation in order (a walk may come with what its
    check reads); stop_at_first ends at the first."""
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
    budget: int = DEFAULT_BUDGET,
) -> HypothesisReport:
    """Check the short-chord hypothesis over every simple cycle of length
    >= min_cycle_len (ValueError below 2).

    With stop_at_first the check ends at the first violation, which is the
    full report's first one.  `budget` bounds each pass of
    `enumerate_cycles`.
    """
    cycles = _cycle_tuples(d, min_cycle_len, None, budget)
    out_masks = d.out_masks
    return _report(
        cycles, lambda seq: _cycle_ok(seq, _short_chords(out_masks, seq), variant), stop_at_first
    )


def check_circuit_hypothesis(d: Digraph, max_len: int) -> HypothesisReport:
    """Every circuit of length != 0 mod 3 and at most max_len arcs must have
    at least four short chords, counted by position.  None has them, and the
    first violation in length-then-lex order is the least shortest cycle of
    length != 0 mod 3 (README "Reported findings"), so the check returns that
    cycle alone, or nothing, and examines only it.

    For each such length L and each root r ascending, reach[j] holds the
    vertices above r that reach r in exactly j arcs through vertices above r.
    When r has an out-neighbour in reach[L - 1], the walk from r that moves to
    the least out-neighbour in reach[L - 1], reach[L - 2], ..., reach[1] and
    then closes at r is that cycle."""
    n = d.vertex_count
    out_masks, in_masks = d.out_masks, d.in_masks
    reaches = [[1 << r] for r in range(n)]
    for length in range(2, min(max_len, n) + 1):
        for root, reach in enumerate(reaches):
            step, last = 0, reach[-1]
            while last:
                low = last & -last
                step |= in_masks[low.bit_length() - 1]
                last ^= low
            reach.append(step & -2 << root)  # the vertices above root
            if length % 3 == 0 or not out_masks[root] & reach[-1]:
                continue
            seq = [root]
            for j in range(length - 1, 0, -1):
                nexts = out_masks[seq[-1]] & reach[j]
                seq.append((nexts & -nexts).bit_length() - 1)
            seq = tuple(seq)
            chords = _short_chords(out_masks, seq).bit_count()
            reason = f"length != 0 mod 3 with only {chords} short chords"
            return HypothesisReport(False, (Violation(seq, reason),), 1)
    return HypothesisReport(True, (), 0)


def _cycle_lengths_0_mod_3(d: Digraph) -> bool:
    """Whether every cycle of d has length = 0 mod 3, the circuit class:
    whether each strong component has a residue map r into Z_3 with
    r(v) = r(u) + 1 on each of its arcs u -> v.  A component is the out-ball
    and in-ball of its least unassigned vertex; one breadth-first walk per
    component gives each vertex its depth mod 3 and fails at the first arc
    inside it that breaks r.  Arcs between components lie on no cycle."""
    n = d.vertex_count
    out_masks = d.out_masks
    unassigned = (1 << n) - 1
    while unassigned:
        root = (unassigned & -unassigned).bit_length() - 1
        component = _ball(out_masks, root, unassigned, n) & _ball(d.in_masks, root, unassigned, n)
        unassigned ^= component
        levels = [1 << root, 0, 0]  # levels[r]: the vertices given residue r
        frontier, r = 1 << root, 0
        while frontier:
            step = 0
            while frontier:
                low = frontier & -frontier
                step |= out_masks[low.bit_length() - 1]
                frontier ^= low
            r = (r + 1) % 3
            step &= component
            if step & (levels[(r + 1) % 3] | levels[(r + 2) % 3]):
                return False
            frontier = step & ~levels[r]
            levels[r] |= frontier
    return True


def _acyclic(in_masks: Sequence[int]) -> bool:
    """Whether the digraph with these in-masks is acyclic.  Each pass peels
    every remaining vertex that no remaining vertex reaches by an arc, and
    the test fails at a pass that peels none."""
    remaining = (1 << len(in_masks)) - 1
    while remaining:
        left = remaining
        for v, arcs_in in enumerate(in_masks):
            if left >> v & 1 and not arcs_in & left:
                left ^= 1 << v
        if left == remaining:
            return False
        remaining = left
    return True


def _one_way_arcs_acyclic(d: Digraph) -> bool:
    """Whether every cycle of d has a symmetric arc, Duchet's class: whether
    the one-way arcs (u -> v without v -> u) form an acyclic digraph, since
    a cycle without a symmetric arc is a cycle of one-way arcs and a cycle
    of one-way arcs is one of d without a symmetric arc (README "Reported
    findings").  `_acyclic` peels the one-way arcs."""
    return _acyclic([ins & ~outs for outs, ins in zip(d.out_masks, d.in_masks)])


def _asymmetric_cycle(out_masks: tuple[int, ...], seq: tuple[int, ...]) -> Violation | None:
    for u, w in zip(seq, seq[1:] + seq[:1]):
        if out_masks[w] >> u & 1:
            return None
    return Violation(seq, "cycle without symmetric arc")


def every_cycle_has_symmetric_arc(d: Digraph, budget: int = DEFAULT_BUDGET) -> HypothesisReport:
    """Duchet's hypothesis: each simple cycle contains an arc whose reverse
    is also present, every violation listed.  `budget` bounds each pass of
    `enumerate_cycles`."""
    out_masks = d.out_masks
    return _report(
        _cycle_tuples(d, 2, None, budget), lambda seq: _asymmetric_cycle(out_masks, seq), False
    )


def _cycle_reports(d: Digraph, min_cycle_len: int, budget: int) -> list[HypothesisReport]:
    """Duchet's full report on every simple cycle, then each variant's on those
    of length >= min_cycle_len, from one `enumerate_cycles` run: a length pass
    takes the same steps at any min_len, so they are a min_cycle_len run's.
    Both variants read one short-chord mask per cycle."""
    cycles = list(enumerate_cycles(d, budget=budget))
    if min_cycle_len < 2:  # after the run, so its BudgetExceededError comes first
        raise ValueError("min_len must be >= 2")
    out_masks = d.out_masks
    chorded = [
        (cyc.vertices, _short_chords(out_masks, cyc.vertices))
        for cyc in cycles
        if len(cyc) >= min_cycle_len
    ]
    return [_report(cycles, lambda cyc: _asymmetric_cycle(out_masks, cyc.vertices), False)] + [
        _report(chorded, lambda pair: _cycle_ok(*pair, variant), False)
        for variant in CycleHypothesisVariant
    ]
