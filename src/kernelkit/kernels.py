"""k-closures, (k,l)-kernel predicates, the kernel engine and perfection scans.

One search engine serves `find_kl_kernel`, which stops at the first kernel,
and `kl_kernels`, which lists every kernel.  It searches D or its induced
subdigraph D[within] on int masks in lexicographic order with independence
pruning, tractable to roughly 24 vertices, and reports kernels in D's
labels.  It reads the adjacency masks D caches once per digraph and builds
a vertex's conflict and absorbed-by balls only when the search first picks
that vertex: a search usually stops after a few nodes, long before it has
picked every vertex.  When l = k-1 one in-ball is both the vertex's
in-conflict and what the vertex absorbs.  Each search level walks the low
bits of a mask of the candidates still free.  `k_closure` reads out-balls
instead of distances.

Kernel-perfection is decided in one walk over D's independent sets.  D[S]
keeps exactly D's arcs among S, so I is a kernel of D[S] exactly when I is
independent in D and I <= S <= I | N-(I): the induced subdigraphs with a
kernel are a union of intervals, one per independent set, which the walk
marks in a table of 2**n flags.  This holds only at radius 1: distances in
D[S] depend on S, so 3-kernel-perfection has no such intervals.  D[S] has a
kernel exactly when each of its weak components does, so one walk over the
weakly connected vertex sets of D, each enumerated once (Wernicke's ESU) on
the undirected masks, decides and names for all three scans: the 3-kernel
scans run the engine's recursion once per set, kernel-perfection reads its
marks, and the first set without a kernel is the counterexample.  The walk
carries each set's conflict and absorbed-by balls: a set is its parent plus
one vertex, so a few mask operations update the parent's balls where the
engine's own set-up would rebuild every member's from scratch.  The scans
hand the recursion those complete lists, so it never builds a ball there.

Each recursion here is a nested function that calls itself through its own
closure cell, and a closure that holds itself is cyclic garbage, which only
the cyclic collector frees; so its owner deletes the name in a `finally`,
and reference counting frees the search as soon as the owner returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .digraph import Digraph, VertexSet, _ball, _mask, _members, as_vertex_set
from .errors import SizeBoundError

SUBSET_SEARCH_BOUND = 24
PERFECTION_BOUND = 16


@dataclass(frozen=True)
class KernelQuery:
    """Independence radius k and absorption radius l."""

    k: int
    l: int

    def __post_init__(self) -> None:
        if self.k < 2 or self.l < 1:
            raise ValueError(f"a (k,l)-kernel needs k >= 2 and l >= 1, got ({self.k},{self.l})")


KERNEL = KernelQuery(2, 1)
THREE_KERNEL = KernelQuery(3, 2)


@dataclass(frozen=True)
class KernelResult:
    found: bool
    witness: VertexSet | None
    subsets_examined: int


def k_closure(d: Digraph, k: int) -> Digraph:
    """Same vertices; arc (u, v) whenever 0 < d(u, v) <= k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    n, whole = d.vertex_count, (1 << d.vertex_count) - 1
    reached = [_ball(d.out_masks, u, whole, min(k, n)) ^ 1 << u for u in range(n)]
    return Digraph(n, frozenset((u, v) for u in range(n) for v in range(n) if reached[u] >> v & 1))


def is_k_independent(d: Digraph, subset: Iterable[int], k: int) -> bool:
    """Every ordered pair of distinct members lies at distance >= k
    (unreachable counts as >= k)."""
    vs = as_vertex_set(subset)
    for v in vs:
        d.check_vertex(v)
    raw = d._raw_matrix
    for u in vs:
        for v in vs:
            if u != v and raw[u][v] is not None and raw[u][v] < k:
                return False
    return True


def is_l_absorbent(d: Digraph, subset: Iterable[int], ell: int) -> bool:
    """Every non-member reaches some member within distance l."""
    vs = as_vertex_set(subset)
    for v in vs:
        d.check_vertex(v)
    members = set(vs)
    raw = d._raw_matrix
    for u in d.vertices():
        if u in members:
            continue
        if not any(raw[u][v] is not None and raw[u][v] <= ell for v in vs):
            return False
    return True


def is_kl_kernel(d: Digraph, subset: Iterable[int], query: KernelQuery) -> bool:
    return is_k_independent(d, subset, query.k) and is_l_absorbent(d, subset, query.l)


def _kernel_balls(
    d: Digraph, within: int, query: KernelQuery
) -> tuple[list[int], list[int], Callable[[int], int]]:
    """Empty conflict and absorbed-by ball lists for D[within], and their
    filler: fill(v) builds, inside the mask `within`, v's conflict ball (v
    and the vertices at distance < k from or to v) and its absorbed-by ball
    (v and the vertices reaching v within l), stores both at v and returns
    the conflict ball.  A ball holds its own vertex, so 0 marks one not
    built yet."""
    out_masks, in_masks = d.out_masks, d.in_masks
    k, ell = query.k, query.l
    conflict = [0] * d.vertex_count
    absorbed_by = [0] * d.vertex_count

    def fill(v: int) -> int:
        reaching = _ball(in_masks, v, within, k - 1)
        absorbed_by[v] = reaching if ell == k - 1 else _ball(in_masks, v, within, ell)
        conflict[v] = _ball(out_masks, v, within, k - 1) | reaching
        return conflict[v]

    return conflict, absorbed_by, fill


def is_kernel_within(d: Digraph, members: VertexSet, within: int, query: KernelQuery) -> bool:
    """Whether `members`, vertices of the mask `within`, form a (k,l)-kernel
    of D[within]; the same verdict as `is_kl_kernel` on D[within] relabelled."""
    chosen = _mask(members)
    _, absorbed_by, fill = _kernel_balls(d, within, query)
    absorbed = 0
    for v in members:
        if fill(v) & chosen != 1 << v:
            return False
        absorbed |= absorbed_by[v]
    return absorbed == within


def _check_search_bound(n: int) -> None:
    """SizeBoundError past the subset-search bound; checked before anything
    of size n is built, since a huge n fits in no list."""
    if n > SUBSET_SEARCH_BOUND:
        raise SizeBoundError(f"{n} vertices exceeds subset-search bound {SUBSET_SEARCH_BOUND}")


def _kernel_search(
    d: Digraph, query: KernelQuery, within: Iterable[int] | None, first: bool
) -> tuple[list[VertexSet], int]:
    """`_search_balls` on D, or on D[within], with balls built on demand."""
    if within is None:
        _check_search_bound(d.vertex_count)
        whole = (1 << d.vertex_count) - 1
    else:
        vs, n, whole = tuple(within), d.vertex_count, 0  # `within` may be an iterator
        for v in vs:
            if not 0 <= v < n:  # name the least out-of-range vertex
                d.check_vertex(min(u for u in vs if not 0 <= u < n))
            whole |= 1 << v
        _check_search_bound(whole.bit_count())
    conflict, absorbed_by, fill = _kernel_balls(d, whole, query)
    return _search_balls(whole, conflict, absorbed_by, first, fill)


def _search_balls(
    whole: int,
    conflict: list[int],
    absorbed_by: list[int],
    first: bool,
    fill: Callable[[int], int] | None = None,
) -> tuple[list[VertexSet], int]:
    """The (k,l)-kernels of D[whole], for the kernel balls of its members, in
    lexicographic order, and the number of search nodes visited; with
    `first`, the search stops at the first kernel.  Otherwise it descends
    past each kernel, since for l >= k a superset of a kernel can be one too.
    A ball may hold vertices outside `whole`: the search picks members only
    from `whole` and asks only that `whole` be absorbed.  A member whose
    conflict ball is still 0 gets both its balls from fill(v) when the
    search first picks it; lists that hold every member's balls need no
    `fill`."""
    examined = 0
    found: list[VertexSet] = []
    members: list[int] = []

    def search(free: int, absorbed: int) -> bool:
        """Extend `members` by candidates of `free`, lowest first; True once
        the first kernel is found and `first` is set."""
        nonlocal examined
        examined += 1
        if absorbed & whole == whole:
            found.append(tuple(members))
            if first:
                return True
        while free:
            low = free & -free
            free ^= low
            v = low.bit_length() - 1
            members.append(v)
            ball = conflict[v] or fill(v)
            if search(free & ~ball, absorbed | absorbed_by[v]):
                return True
            members.pop()
        return False

    try:
        search(whole, 0)
    finally:
        del search
    return found, examined


def find_kl_kernel(
    d: Digraph, query: KernelQuery, within: Iterable[int] | None = None
) -> KernelResult:
    """Lexicographically least (k,l)-kernel of D, or of D[within], by pruned
    subset search; the witness is in D's labels."""
    found, examined = _kernel_search(d, query, within, True)
    return KernelResult(bool(found), found[0] if found else None, examined)


def kl_kernels(d: Digraph, query: KernelQuery) -> list[VertexSet]:
    """Every (k,l)-kernel of D, as sorted tuples in lexicographic order:
    `find_kl_kernel`'s search run to completion."""
    return _kernel_search(d, query, None, False)[0]


def find_kernel_via_closure(d: Digraph, k: int) -> KernelResult:
    """k-kernel of D via a classic kernel of its (k-1)-closure."""
    if k < 3:
        raise ValueError("closure reduction applies for k >= 3")
    _check_search_bound(d.vertex_count)  # before the closure is built
    return find_kl_kernel(k_closure(d, k - 1), KERNEL)


def _check_perfection_bound(n: int) -> None:
    if n > PERFECTION_BOUND:
        raise SizeBoundError(f"{n} vertices exceeds perfection bound {PERFECTION_BOUND}")


# A scan's callback: ok(C, conflict, absorbed_by), with C a vertex mask.
_SetCheck = Callable[[int, list[int], list[int]], bool]


def _every_connected_set(
    d: Digraph, query: KernelQuery, ok: _SetCheck
) -> tuple[bool, VertexSet | None]:
    """(False, the first nonempty weakly connected vertex set C of D without
    ok(C as a mask, conflict, absorbed_by)), or (True, None) when every such
    set is ok; each C is asked once, and the walk stops at the first no.
    The sets whose least vertex is v grow from v by the neighbours above v
    that are not yet adjacent to the set (Wernicke's ESU), so no set is
    reached twice and no disconnected set is visited.  The order: sets by
    least vertex, ascending; each set before its extensions; extensions
    lowest vertex first.

    `conflict` and `absorbed_by` hold, for each member of C, its balls in
    D[C] for `query` (l = k - 1 <= 2), as `_kernel_balls`'s filler builds
    them but unmasked: a ball may hold vertices outside C.  At radius 1 they
    are the adjacency masks, the same for every C.  At radius 2 a member's
    ball is its 1-step reach joined with the reach of its neighbours in C,
    so when w joins C, a member with an arc to w takes in w's out-neighbours,
    a member with an arc from w takes in w's in-neighbours, and w's own balls
    take in those of its neighbours in C; a child set gets an updated copy
    of its parent's lists."""
    radius = query.k - 1
    if query.l != radius or radius > 2:
        raise ValueError(f"the walk carries balls of radius 1 or 2 with l = k - 1, not {query}")
    out_masks, in_masks = d.out_masks, d.in_masks
    linked = [out | in_ for out, in_ in zip(out_masks, in_masks)]

    def grow(
        subset: int, extension: int, reached: int, conflict: list[int], absorbed_by: list[int]
    ) -> int | None:
        """Ask `subset`, then each extension of it by one vertex of
        `extension`, lowest first; `reached` holds the subset, its
        neighbours and every vertex up to the least one."""
        if not ok(subset, conflict, absorbed_by):
            return subset
        while extension:
            low = extension & -extension
            extension ^= low
            w = low.bit_length() - 1
            fresh = linked[w] & ~reached
            grown_conflict, grown_absorbed_by = conflict, absorbed_by
            if radius == 2:
                grown_conflict, grown_absorbed_by = conflict.copy(), absorbed_by.copy()
                out_w, in_w = out_masks[w], in_masks[w]
                tails = in_w & subset
                while tails:  # v -> w
                    bit = tails & -tails
                    tails ^= bit
                    v = bit.bit_length() - 1
                    grown_conflict[v] |= out_w
                    grown_conflict[w] |= in_masks[v]
                    grown_absorbed_by[w] |= in_masks[v]
                heads = out_w & subset
                while heads:  # w -> v
                    bit = heads & -heads
                    heads ^= bit
                    v = bit.bit_length() - 1
                    grown_conflict[v] |= in_w
                    grown_absorbed_by[v] |= in_w
                    grown_conflict[w] |= out_masks[v]
            failing = grow(
                subset | low, extension | fresh, reached | fresh, grown_conflict, grown_absorbed_by
            )
            if failing is not None:
                return failing
        return None

    conflict = [link | 1 << v for v, link in enumerate(linked)]
    absorbed_by = [in_ | 1 << v for v, in_ in enumerate(in_masks)]
    try:
        for v, neighbours in enumerate(linked):
            below = (2 << v) - 1  # v and the vertices below it
            failing = grow(1 << v, neighbours & ~below, neighbours | below, conflict, absorbed_by)
            if failing is not None:
                return False, _members(failing)
    finally:
        del grow
    return True, None


def _perfection_scan(
    d: Digraph, query: KernelQuery, proper_only: bool
) -> tuple[bool, VertexSet | None]:
    """(False, the first weakly connected vertex set C, in
    `_every_connected_set`'s order, whose D[C] has no (k,l)-kernel), or
    (True, None); with `proper_only`, C is never the whole vertex set.
    `query` has l = k - 1 <= 2, so `KERNEL` as well as `THREE_KERNEL`: the
    tests take the scan at `KERNEL` as the reference for
    `is_kernel_perfect`'s interval walk.

    D[S] has a kernel exactly when each weak component of D[S] has one:
    members of different components are unreachable from each other, so
    they are k-independent and never absorb each other.  So one run of the
    engine's recursion, `_search_balls`, per weakly connected vertex set, on
    the balls the walk carries, decides the verdict, and the first set
    without a kernel is a counterexample that is its own weak component."""
    _check_perfection_bound(d.vertex_count)
    whole = (1 << d.vertex_count) - 1
    return _every_connected_set(
        d,
        query,
        lambda c, conflict, absorbed_by: proper_only and c == whole
        or bool(_search_balls(c, conflict, absorbed_by, True)[0]),
    )


def is_kernel_perfect(d: Digraph) -> tuple[bool, VertexSet | None]:
    """Every nonempty induced subdigraph has a classic kernel: (True, None),
    or (False, the first weakly connected vertex set C whose D[C] has none),
    the answer of `_perfection_scan(d, KERNEL, False)`.

    I is a kernel of D[S] exactly when I is independent in D and
    I <= S <= I | N-(I).  The kernel engine's free-candidate recursion, on
    its conflict and absorbed-by balls, walks every independent set I and
    marks that interval.  The interval walk has no early exit; a digraph with
    an unmarked subset is named by the scans' connected-set walk, which
    reads the marks.  At radius 2 distances in D[S] depend on S, so the
    3-kernel scans have no such intervals."""
    n = d.vertex_count
    _check_perfection_bound(n)
    whole = (1 << n) - 1
    conflict, absorbed_by, fill = _kernel_balls(d, whole, KERNEL)
    for v in d.vertices():
        fill(v)
    has_kernel = bytearray(1 << n)

    def walk(chosen: int, free: int, absorbed: int) -> None:
        """Mark every S with chosen <= S <= absorbed, then extend `chosen`
        by candidates of `free`, lowest first."""
        outside = absorbed ^ chosen
        extra = outside
        while extra:
            has_kernel[chosen | extra] = 1
            extra = (extra - 1) & outside
        has_kernel[chosen] = 1
        while free:
            low = free & -free
            free ^= low
            v = low.bit_length() - 1
            walk(chosen | low, free & ~conflict[v], absorbed | absorbed_by[v])

    try:
        walk(0, whole, 0)
    finally:
        del walk
    if 0 not in has_kernel:
        return True, None
    return _every_connected_set(d, KERNEL, lambda c, *balls: has_kernel[c])


def is_quasi_3_kernel_perfect(d: Digraph) -> tuple[bool, VertexSet | None]:
    """Every proper nonempty induced subdigraph has a 3-kernel."""
    return _perfection_scan(d, THREE_KERNEL, proper_only=True)


def is_3_kernel_perfect(d: Digraph) -> tuple[bool, VertexSet | None]:
    """Every nonempty induced subdigraph (including D itself) has a 3-kernel."""
    return _perfection_scan(d, THREE_KERNEL, proper_only=False)
