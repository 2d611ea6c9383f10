"""The 3-substitution method: sequences, pre-3-kernels, roads, and the
per-lemma checkers the verification harness runs on concrete traces.

Every walk reads int masks, never adjacency lists or a distance matrix:
each round's sets are unions of in-neighbour masks and of
`Digraph.in_balls2` (u reaches v within 2 exactly when bit u of v's ball is
set), a witness path between two such vertices is an arc or runs through
the least vertex of u's out-mask and v's in-mask, and hop counts from x0
come from one `digraph._hops` walk per trace.  The trace stores each set
once, in its labels: one (N_i, N'_i) mask pair per index i = 0..3p+2, the
masks the construction computes each round.  Its set tuples (`added`,
`removed_one`, ...) are read from those masks, the trace invariants are
checked on them, and the road layer (`find_road`, `validate_road`,
`label_of`, `check_unique_short_chord`) tests their bits and the arc bits
of the out-masks.  A road is its path only; `label_of` gives a position's
display label on request.

A road search extends a path by the out-mask bits off the path, lowest
first, and drops each candidate as soon as the positions a road condition
reads are placed, so the first full path is the first road:
- condition 9 (t_s in N_s) is checked at entry;
- condition 11 when a position q = 0 mod 3 is placed (t_q in N_q);
- condition 10 when a position q = 3i+1 is placed
  (t_q in N_q exactly when t_{q+1} in N'_{q+1});
- condition 12 when a position q is placed and (t_{q+2}, t_q) is an arc:
  some j = 1..p-1 with 3j < s has t_{q+2} in N'_{3j+1} and t_q in
  N'_{3j-1}.  j is not tied to q.

Index conventions: set i of a sequence is N_i, with i = 3k, 3k+1, 3k+2 for
round k; positions on a road count from x0 (position 0) to the far end
(position s).

The road search is a nested function that calls itself, and a closure that
holds itself is cyclic garbage; `_road_search`, which `find_road` and
`roads_of` share, deletes its name in a `finally`, so reference counting
frees the search when it returns.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .digraph import Digraph, VertexSet, _hops, _mask, _members, _table, as_vertex_set
from .errors import (
    NoBaseKernelError,
    NoRoadFoundError,
    NotAKernelError,
    SubkernelMissingError,
    TraceInvariantError,
)
from .kernels import (
    THREE_KERNEL,
    _check_search_bound,
    find_kl_kernel,
    is_kernel_within,
)


def _sets_of(r: int, primed: int) -> property:
    """The read-only tuple of N_{3k+r} (of N'_{3k+r} when `primed`) over
    the rounds k that have one: k = 0..p, or k = 0..p-1 for the primed sets."""
    return property(
        lambda trace: tuple(
            _members(trace.labels[3 * k + r][primed]) for k in range(trace.p + 1 - primed)
        )
    )


class _TraceFields(NamedTuple):
    digraph: Digraph
    x0: int
    base_kernel: VertexSet
    labels: tuple[tuple[int, int], ...]
    m_sets: tuple[VertexSet, ...]


class SubstitutionTrace(_TraceFields):
    """Full record of one 3-substitution run.

    labels[i] = (N_i, N'_i) as vertex masks, i = 0..3p+2, as the
    construction computes them, and m_sets[k] = M_{3k}, k = 0..p.  The
    terminal round p has empty removed sets, and N'_i is empty at i = 3k and
    in round p.  The set tuples are read from the masks: added[k] = N_{3k},
    removed_one[k] = N_{3k+1}, removed_two[k] = N_{3k+2} for k = 0..p, and
    primed_one[k] = N'_{3k+1}, primed_two[k] = N'_{3k+2} for k = 0..p-1.
    The fields are a NamedTuple's; unlike the other records, this subclass
    keeps an instance `__dict__`, where `_hops_from_x0` is stored.
    """

    added = _sets_of(0, 0)
    removed_one = _sets_of(1, 0)
    removed_two = _sets_of(2, 0)
    primed_one = _sets_of(1, 1)
    primed_two = _sets_of(2, 1)

    @property
    def p(self) -> int:
        return len(self.labels) // 3 - 1

    def _labels_at(self, i: int) -> tuple[int, int]:
        """The masks of N_i and N'_i, empty beyond the sequence."""
        return self.labels[i] if 0 <= i < len(self.labels) else (0, 0)

    def set_at(self, i: int) -> VertexSet:
        """N_i, empty beyond the sequence."""
        return _members(self._labels_at(i)[0])

    def intermediate_at(self, i: int) -> VertexSet:
        """N'_i (i = 3k+1 or 3k+2 with k < p), empty outside that range."""
        return _members(self._labels_at(i)[1])

    def added_round(self, v: int) -> int | None:
        """k such that v is in N_{3k}, if any."""
        rounds = enumerate(self.labels[::3])
        return next((k for k, (n_i, _) in rounds if v >= 0 and n_i >> v & 1), None)

    @_table
    def _hops_from_x0(self) -> tuple[int | None, ...]:
        """Entry v: d(x0, v), or None when x0 does not reach v."""
        return _hops(self.digraph.out_masks, self.x0)

    def label_of(self, v: int, i: int) -> str:
        """Display label of v relative to position/index i."""
        n_i, primed_i = self._labels_at(i)
        if n_i >> v & 1:
            return f"N{i}"
        if primed_i >> v & 1:
            return f"N'{i}"
        return "-"


def _union(masks: tuple[int, ...], vs: int) -> int:
    """The union of masks[v] over the vertices v of the mask `vs`."""
    out = 0
    while vs:
        low = vs & -vs
        out |= masks[low.bit_length() - 1]
        vs ^= low
    return out


def build_substitution_sequence(d: Digraph, x0: int, kernel: VertexSet) -> SubstitutionTrace:
    """Run the iterative set construction from x0 and a verified 3-kernel of
    D - x0 until the first round with nothing left to remove.  M_{3k+3} is
    every vertex outside the earlier M-sets that the kept set (K minus the
    removed vertices, plus the added ones) neither holds nor 2-absorbs."""
    d.check_vertex(x0)
    kernel = as_vertex_set(kernel)
    for v in kernel:
        d.check_vertex(v)
    rest = ((1 << d.vertex_count) - 1) ^ (1 << x0)
    if x0 in kernel or not is_kernel_within(d, kernel, rest, THREE_KERNEL):
        raise NotAKernelError(f"{kernel} is not a 3-kernel of D - {x0}")

    in_masks, balls = d.in_masks, d.in_balls2
    kernel_mask = _mask(kernel)
    m_sets: list[VertexSet] = [(x0,)]
    labels: list[tuple[int, int]] = []  # (N_i, N'_i), i = 0..3p+2
    removed = 0
    current = added_union = 1 << x0
    outside_m = rest

    while True:
        labels.append((current, 0))
        near = _union(in_masks, current) & ~current
        far, members = 0, current
        while members:
            low = members & -members
            members ^= low
            v = low.bit_length() - 1
            far |= balls[v] & ~in_masks[v] & ~current
        n1 = near & kernel_mask & ~removed
        n2 = far & kernel_mask & ~removed & ~n1
        if not n1 | n2:
            labels += ((0, 0), (0, 0))
            break
        labels += ((n1, near & ~n1), (n2, far & ~n2))
        removed |= n1 | n2

        reach = _union(balls, kernel_mask & ~removed | added_union)
        m_next = _members(outside_m & ~reach)
        n_next = find_kl_kernel(d, THREE_KERNEL, within=m_next).witness
        if n_next is None:
            raise SubkernelMissingError(f"D[{m_next}] has no 3-kernel")
        m_sets.append(m_next)
        outside_m &= reach
        current = _mask(n_next)
        added_union |= current

    trace = SubstitutionTrace(d, x0, kernel, tuple(labels), tuple(m_sets))
    _check_trace_invariants(trace)
    return trace


def _check_trace_invariants(trace: SubstitutionTrace) -> None:
    """The five invariants of a trace, read from its label masks.  The sets
    are disjoint exactly when their sizes add up to the size of the union of
    their masks."""
    labels, p = trace.labels, trace.p
    union = size = 0
    for n_i, _ in labels:
        union |= n_i
        size += n_i.bit_count()
    if size != union.bit_count():
        raise TraceInvariantError("substitution sets must be disjoint")
    if labels[0][0] != 1 << trace.x0 or trace.m_sets[0] != (trace.x0,):
        raise TraceInvariantError("round 0 must add exactly x0")
    kernel_mask = _mask(trace.base_kernel)
    for k in range(p + 1):
        if (labels[3 * k + 1][0] | labels[3 * k + 2][0]) & ~kernel_mask:
            raise TraceInvariantError(f"round {k} removes vertices outside the base kernel")
        if k >= 1 and labels[3 * k][0] & kernel_mask:
            raise TraceInvariantError(f"round {k} adds base-kernel vertices")
    if labels[3 * p + 1][0] | labels[3 * p + 2][0]:
        raise TraceInvariantError(f"terminal round {p} removes vertices")


def _pre_3_kernel(trace: SubstitutionTrace) -> int:
    """The mask of (K minus all removed sets) union all added sets."""
    added = removed = 0
    for i, (n_i, _) in enumerate(trace.labels):
        if i % 3:
            removed |= n_i
        else:
            added |= n_i
    return _mask(trace.base_kernel) & ~removed | added


def assemble_pre_3_kernel(trace: SubstitutionTrace) -> VertexSet:
    """(K minus all removed sets) union all added sets."""
    return _members(_pre_3_kernel(trace))


# -- roads ------------------------------------------------------------------


class Road(NamedTuple):
    """A (v, x0)-path, stored far-end first."""

    path: tuple[int, ...]  # (t_s, ..., t_0)

    @property
    def length(self) -> int:
        return len(self.path) - 1

    def vertex_at(self, i: int) -> int:
        """t_i; IndexError outside positions 0..length."""
        if not 0 <= i <= self.length:
            raise IndexError(f"road position {i} not in 0..{self.length}")
        return self.path[self.length - i]


class ConditionResult(NamedTuple):
    ok: bool
    detail: str = ""


class RoadValidation(NamedTuple):
    conditions: tuple[ConditionResult, ConditionResult, ConditionResult, ConditionResult]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.conditions)


def _grant_skips(allowed: list[int], labels: tuple[tuple[int, int], ...], j: int) -> None:
    """Add round j's skip arcs to `allowed`: a skip arc (u, w) with u in
    N'_{3j+1} and w in N'_{3j-1} meets condition 12."""
    for u in _members(labels[3 * j + 1][1]):
        allowed[u] |= labels[3 * j - 1][1]


def _allowed_skips(trace: SubstitutionTrace, s: int) -> list[int]:
    """Entry u: the vertices w for which a skip arc (t_i, t_{i-2}) = (u, w)
    on a length-s road meets condition 12, that is w in N'_{3j-1} for some
    j = 1..p-1 with 3j < s and u in N'_{3j+1}, whatever i is."""
    allowed = [0] * trace.digraph.vertex_count
    for j in range(1, min(trace.p, (s + 2) // 3)):
        _grant_skips(allowed, trace.labels, j)
    return allowed


def validate_road(trace: SubstitutionTrace, path: tuple[int, ...]) -> RoadValidation:
    """Evaluate the four road conditions independently; reports, never raises."""
    path = tuple(path)
    d = trace.digraph
    n, out_masks = d.vertex_count, d.out_masks
    s = len(path) - 1
    bits = [1 << v if 0 <= v < n else 0 for v in reversed(path)]  # bits[i]: t_i's bit
    labels = trace.labels
    labels += ((0, 0),) * (s + 1 - len(labels))  # empty beyond the sequence

    bad_arcs = []
    for j in range(s):
        if not (bits[s - j] and out_masks[path[j]] & bits[s - j - 1]):
            bad_arcs.append((path[j], path[j + 1]))
    if not path or bad_arcs or len(set(path)) != len(path):
        why = bad_arcs or ("repeated vertex" if path else "no vertex")
        broken = ConditionResult(False, f"not a path: {why}")
        return RoadValidation((broken, broken, broken, broken))

    if s <= 3 * trace.p and labels[s][0] & bits[s]:
        c9 = ConditionResult(True)
    else:
        c9 = ConditionResult(False, f"t_{s}={path[0]} not in N_{s}")

    bad10, bad11 = [], []
    for q in range(0, s + 1, 3):
        if not labels[q][0] & bits[q]:
            bad11.append(q)
        if q + 2 <= s:
            if bool(labels[q + 1][0] & bits[q + 1]) != bool(labels[q + 2][1] & bits[q + 2]):
                bad10.append(q + 1)
    c10 = ConditionResult(not bad10, f"biconditional fails at positions {bad10}" if bad10 else "")
    c11 = ConditionResult(not bad11, f"t_i not in N_i at positions {bad11}" if bad11 else "")

    bad12 = []
    allowed = None  # built at the first skip arc
    for i in range(2, s + 1):
        if out_masks[path[s - i]] & bits[i - 2]:
            if allowed is None:
                allowed = _allowed_skips(trace, s)
            if not allowed[path[s - i]] & bits[i - 2]:
                bad12.append(i)
    c12 = ConditionResult(not bad12, f"skip-arc label fails at positions {bad12}" if bad12 else "")

    return RoadValidation((c9, c10, c11, c12))


def _road_search(
    trace: SubstitutionTrace, v: int, s: int, allowed: list[int]
) -> tuple[int, ...] | None:
    """The first length-s road from v down to x0, far-end first, or None;
    `allowed` is `_allowed_skips(trace, s)`."""
    out_masks, labels = trace.digraph.out_masks, trace.labels
    path = [v]  # built far-end first

    def descend(pos: int, on_path: int):
        if pos == 0:
            return tuple(path)
        q, tail = pos - 1, path[-1]
        nexts = out_masks[tail] & ~on_path
        if q % 3 == 0:  # condition 11
            nexts &= labels[q][0]
        elif q % 3 == 1:  # condition 10
            nexts &= labels[q][0] if labels[pos][1] >> tail & 1 else ~labels[q][0]
        if pos < s:  # condition 12, on the arc from t_{q+2}
            skipper = path[-2]
            nexts &= ~out_masks[skipper] | allowed[skipper]
        while nexts:
            low = nexts & -nexts
            nexts ^= low
            path.append(low.bit_length() - 1)
            hit = descend(q, on_path | low)
            if hit is not None:
                return hit
            path.pop()
        return None

    try:
        return descend(s, 1 << v)
    finally:
        del descend


def find_road(trace: SubstitutionTrace, v: int, s: int) -> Road:
    """Backtracking search for a length-s road from v down to x0.

    Each candidate for position q is dropped as soon as a road condition
    fails on the placed positions (see the module docstring), so the first
    full path is the first road in depth-first, lowest-vertex-first order.
    Raises NoRoadFoundError when no labeled path satisfies the conditions;
    for a valid trace that is itself a lemma violation worth reporting.
    """
    if not trace._labels_at(s)[0] >> v & 1:
        raise ValueError(f"vertex {v} is not in N_{s}")
    found = _road_search(trace, v, s, _allowed_skips(trace, s))
    if found is None:
        raise NoRoadFoundError(f"no road of length {s} from {v} to {trace.x0}")
    return Road(found)


def roads_of(trace: SubstitutionTrace) -> Iterator[tuple[int, int, Road | None]]:
    """(s, v, road) for every v in N_s, s = 0..3p; road is `find_road`'s,
    or None when it finds none.  The skips allowed at length s change only
    where s passes 3j, so one table serves every s and takes round j's
    skips at s = 3j + 1."""
    labels = trace.labels
    allowed = [0] * trace.digraph.vertex_count
    for s in range(3 * trace.p + 1):
        if s % 3 == 1 and 1 <= s // 3 < trace.p:
            _grant_skips(allowed, labels, s // 3)
        for v in trace.set_at(s):
            found = _road_search(trace, v, s, allowed)
            yield s, v, None if found is None else Road(found)


# -- lemma checkers ---------------------------------------------------------


def _close_path(d: Digraph, a: int, b: int) -> tuple[int, ...]:
    """A shortest a -> b path when 0 < d(a, b) <= 2, through the least
    middle vertex (the one a breadth-first search from a meets first)."""
    if d.out_masks[a] >> b & 1:
        return a, b
    middle = d.out_masks[a] & d.in_masks[b]
    return a, (middle & -middle).bit_length() - 1, b


class PreKernelReport(NamedTuple):
    absorption_violations: tuple[int, ...]
    shape_violations: tuple[tuple, ...]  # (a, b, path, reason)

    @property
    def passed(self) -> bool:
        return not self.absorption_violations and not self.shape_violations


def check_pre_kernel_properties(trace: SubstitutionTrace) -> PreKernelReport:
    """2-absorbence of the pre-3-kernel, plus the restricted shape of
    internal paths of length at most two."""
    d = trace.digraph
    pre_mask = _pre_3_kernel(trace)
    balls = d.in_balls2
    absorbed = _union(balls, pre_mask)
    absorption = tuple(u for u in d.vertices() if not absorbed >> u & 1)
    pre = _members(pre_mask)

    shape = []
    for a in pre:
        for b in pre:
            if a == b or not balls[b] >> a & 1:
                continue
            witness = _close_path(d, a, b)
            ka, kb = trace.added_round(a), trace.added_round(b)
            if ka is None or kb is None:
                shape.append((a, b, witness, "endpoint outside the added sets"))
            elif ka > kb:
                shape.append((a, b, witness, f"rounds out of order: {ka} > {kb}"))
    return PreKernelReport(absorption, tuple(shape))


class UniqueChordReport(NamedTuple):
    skip_positions: tuple[int, ...]  # all i with (t_i, t_{i-2}) an arc
    inner_positions: tuple[int, ...]  # those with 2 < i < s
    violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def check_unique_short_chord(trace: SubstitutionTrace, road: Road) -> UniqueChordReport:
    """When a road carries an inner position-skip arc, it must be the only
    skip arc, and positions 3k'+2 beyond it must carry plain N labels."""
    out_masks = trace.digraph.out_masks
    s, t = road.length, road.path[::-1]  # t[i] = t_i
    skips = tuple(i for i in range(2, s + 1) if out_masks[t[i]] >> t[i - 2] & 1)
    inner = tuple(i for i in skips if 2 < i < s)
    violations = []
    if inner:
        i = inner[0]
        if len(skips) > 1:
            violations.append(f"multiple skip arcs at positions {list(skips)}")
        q = 2
        while q <= s:
            if q > i and not trace._labels_at(q)[0] >> t[q] & 1:
                violations.append(f"t_{q}={t[q]} beyond the skip arc not in N_{q}")
            q += 3
    return UniqueChordReport(skips, inner, tuple(violations))


class AdditiveInverseReport(NamedTuple):
    violations: tuple[tuple[int, int | None], ...]  # (position, distance or None)

    @property
    def passed(self) -> bool:
        return not self.violations


def check_additive_inverse_property(
    trace: SubstitutionTrace, road: Road
) -> AdditiveInverseReport:
    """For every road position s != 1, the shortest x0 -> t_s path has length
    congruent to -s mod 3."""
    hops = trace._hops_from_x0
    violations = []
    for pos, v in enumerate(reversed(road.path)):
        if pos == 1:
            continue
        dist = hops[v]
        if dist is None or dist % 3 != (-pos) % 3:
            violations.append((pos, dist))
    return AdditiveInverseReport(tuple(violations))


# -- end-to-end -------------------------------------------------------------


class MethodOutcome(NamedTuple):
    pre_3_kernel: VertexSet
    is_3_kernel: bool
    trace: SubstitutionTrace
    failure_witness: tuple[int, ...] | None


def start_substitution(d: Digraph, x0: int) -> SubstitutionTrace:
    """The trace from x0 and the least 3-kernel of D - x0; NoBaseKernelError
    when D - x0 has none, SubkernelMissingError when some D[M_i] has none."""
    d.check_vertex(x0)
    _check_search_bound(d.vertex_count - 1)
    rest = ((1 << d.vertex_count) - 1) ^ (1 << x0)
    base = find_kl_kernel(d, THREE_KERNEL, within=_members(rest)).witness
    if base is None:
        raise NoBaseKernelError(f"D - {x0} has no 3-kernel")
    return build_substitution_sequence(d, x0, base)


def run_substitution_method(d: Digraph, x0: int) -> MethodOutcome:
    """Full pipeline: base kernel of D - x0, substitution trace, pre-3-kernel,
    and the (3,2)-kernel verdict with a witness path on failure."""
    trace = start_substitution(d, x0)
    pre_mask = _pre_3_kernel(trace)
    pre = _members(pre_mask)
    balls = d.in_balls2
    close = next(((a, b) for a in pre for b in pre if a != b and balls[b] >> a & 1), None)
    witness = None if close is None else _close_path(d, *close)
    absorbing = _union(balls, pre_mask) == (1 << d.vertex_count) - 1
    return MethodOutcome(pre, witness is None and absorbing, trace, witness)
