"""Cycle enumeration and the hypothesis checks.

Cycles are simple directed cycles, vertex tuples with their smallest vertex
first, which `enumerate_cycles` yields in length-then-lex order.  Every
hypothesis check reports its first violation in that order alone, or none.
For the circuit hypothesis, Duchet's and both cycle hypotheses at minimum
length 2 it is the lexicographically least shortest cycle of some digraph
(README "Reported findings"), found by the greedy walk of `_least_cycle`;
past length 2 `check_cycle_hypothesis` runs `enumerate_cycles` up to it,
within a `budget` of steps per length pass.

Every chord condition concerns only short chords (length 2), and the
hypothesis checks read them by position: position i holds one when
(seq[i], seq[i+2]) is an arc, one arc test each on the adjacency masks of
`Digraph`.  The cycle checks keep the chord positions as an n-bit mask,
where consecutive and crossing short chords are rotations of it.

Class membership is decided without a walk: the circuit class holds exactly
on the digraphs whose cycle lengths are all = 0 mod 3, tested by
`_cycle_lengths_0_mod_3`, and Duchet's class exactly on the digraphs whose
one-way arcs form an acyclic digraph, tested by `_one_way_arcs_acyclic` with
the peel of `_acyclic`, which also decides both cycle hypotheses at minimum
length 2: there they hold exactly on the acyclic digraphs.

Each length pass's cycle search is a nested function that calls itself,
and a closure that holds itself is cyclic garbage; so the pass deletes its
name before it yields, since a caller may abandon the generator there, and
on the way out of a BudgetExceededError.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Sequence

from .digraph import Digraph, _ball
from .errors import BudgetExceededError

DEFAULT_BUDGET = 10**6


@dataclass(frozen=True)
class Violation:
    subject: tuple[int, ...]
    reason: str


@dataclass(frozen=True)
class HypothesisReport:
    """A check's first violation, if any, and how many cycles it examined."""

    violation: Violation | None
    cycles_examined: int

    @property
    def satisfied(self) -> bool:
        return self.violation is None


class CycleHypothesisVariant(enum.Enum):
    TWO_CONSECUTIVE = "two-consecutive"
    THREE_WITH_CROSSING = "three-with-crossing"


def enumerate_cycles(
    d: Digraph, min_len: int = 2, max_len: int | None = None, budget: int = DEFAULT_BUDGET
) -> Iterator[tuple[int, ...]]:
    """Yield every simple directed cycle with min_len <= length <= max_len
    as a vertex tuple, sorted by length then lexicographically, each in
    canonical rotation.

    One path search per length L from min_len up; each pass meets its
    cycles in lexicographic order and yields them before the next starts,
    and the search ends after a pass in which no path from a root through
    larger vertices reaches L vertices.  A path of L-1 vertices is a leaf of
    pass L.  Each leaf runs in its parent's loop, which counts its step
    where its own call would have, so the budget is checked at the same
    steps; a root that is its own leaf (L = 2) is handled at the root.

    `budget` bounds the steps (paths extended) of each pass, not their sum;
    BudgetExceededError is raised from the first pass that exceeds it.  On a
    complete symmetric digraph every cycle passes the hypothesis checks, so
    only the budget ends a dense search early."""
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


def _least_cycle(
    out_masks: Sequence[int], in_masks: Sequence[int], max_len: int, not_0_mod_3: bool
) -> tuple[int, ...] | None:
    """The lexicographically least of the shortest cycles of at most max_len
    arcs of the digraph with these masks (of length != 0 mod 3 when
    `not_0_mod_3`), or None when it has none.

    For each such length L from 2 up and each root r ascending, reach[j]
    holds the vertices above r that reach r in exactly j arcs through
    vertices above r.  When r has an out-neighbour in reach[L - 1], the walk
    from r that moves to the least out-neighbour in reach[L - 1],
    reach[L - 2], ..., reach[1] and then closes at r is that cycle: at the
    first such L, a closed walk that repeats a vertex would split into two
    shorter closed walks, one of them of a length searched (README "Reported
    findings").  Keeping only the vertices above r saves work and changes no
    answer: at that L no closed walk of length L through r meets a vertex
    below r, or a lower root would have closed it first."""
    n = len(out_masks)
    reaches = [[1 << r] for r in range(n)]
    for length in range(2, min(max_len, n) + 1):
        for root, reach in enumerate(reaches):
            step, last = 0, reach[-1]
            while last:
                low = last & -last
                step |= in_masks[low.bit_length() - 1]
                last ^= low
            reach.append(step & -2 << root)  # the vertices above root
            if (not_0_mod_3 and length % 3 == 0) or not out_masks[root] & reach[-1]:
                continue
            seq = [root]
            for j in range(length - 1, 0, -1):
                nexts = out_masks[seq[-1]] & reach[j]
                seq.append((nexts & -nexts).bit_length() - 1)
            return tuple(seq)
    return None


def check_cycle_hypothesis(
    d: Digraph,
    variant: CycleHypothesisVariant,
    min_cycle_len: int = 2,
    *,
    budget: int = DEFAULT_BUDGET,
) -> HypothesisReport:
    """Check the short-chord hypothesis on the simple cycles of length
    >= min_cycle_len in length-then-lex order, up to the first violation,
    which the report holds alone.  At minimum length 2 that is D's least
    shortest cycle, from `_least_cycle`, since a shortest cycle has no short
    chord (README "Reported findings"); past it `enumerate_cycles` searches,
    each pass within `budget` steps.  Both arguments are checked first."""
    if min_cycle_len < 2:
        raise ValueError("min_len must be >= 2")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    out_masks = d.out_masks
    if min_cycle_len == 2:
        least = _least_cycle(out_masks, d.in_masks, d.vertex_count, False)
        cycles = () if least is None else (least,)
    else:
        cycles = enumerate_cycles(d, min_cycle_len, budget=budget)
    examined = 0
    for seq in cycles:
        examined += 1
        violation = _cycle_ok(seq, _short_chords(out_masks, seq), variant)
        if violation is not None:
            return HypothesisReport(violation, examined)
    return HypothesisReport(None, examined)


def check_circuit_hypothesis(d: Digraph, max_len: int) -> HypothesisReport:
    """Every circuit of length != 0 mod 3 and at most max_len arcs must have
    at least four short chords, counted by position.  None has them, and the
    first violation in length-then-lex order is the least shortest cycle of
    length != 0 mod 3 (README "Reported findings"), so the check returns that
    cycle alone, from `_least_cycle`, or nothing, and examines only it."""
    seq = _least_cycle(d.out_masks, d.in_masks, max_len, True)
    if seq is None:
        return HypothesisReport(None, 0)
    chords = _short_chords(d.out_masks, seq).bit_count()
    return HypothesisReport(Violation(seq, f"length != 0 mod 3 with only {chords} short chords"), 1)


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


def every_cycle_has_symmetric_arc(d: Digraph) -> HypothesisReport:
    """Duchet's hypothesis: each simple cycle contains an arc whose reverse
    is also present.  The violations are the cycles of the one-way arcs
    (u -> v without v -> u), so the check returns their least shortest
    cycle alone, from `_least_cycle`, or nothing, and examines only it."""
    pairs = list(zip(d.out_masks, d.in_masks))
    one_way_out = [outs & ~ins for outs, ins in pairs]
    seq = _least_cycle(one_way_out, [ins & ~outs for outs, ins in pairs], d.vertex_count, False)
    if seq is None:
        return HypothesisReport(None, 0)
    return HypothesisReport(Violation(seq, "cycle without symmetric arc"), 1)
