"""Deterministic digraph generation: seeded random models and exhaustive
labeled enumeration.  The campaigns decide hypothesis-class membership
themselves.

The PRNG is splitmix64 (published constants), so corpora are bit-identical
across platforms and runs.  `SplitMix64._packed(count)` mixes the values of
`count` `next_u64()` calls at once: it packs the states s + i·γ, i = 1..count,
into lanes 128 bits apart of one Python int and applies each xor-shift and
multiply of the mix once to the packed int.  Each lane is masked to its low
64 bits before it is multiplied, so a 64 × 64-bit product stays inside its
128-bit lane and no lane carries into the next.  After the last xor-shift a
lane's value is its low 64 bits, bits 64–96 are zero and bits 97–127 hold
bits of the next lane.  `next_u64s` decodes the low 64 bits of each lane in
an explicit little-endian byte order, never the native one.

A pair is an arc when its draw z has z / 2**64 < p.  `_threshold(p)` is the
least z with z / 2**64 >= p, found once per p by bisection, so the integer
test z < threshold is the same test without a float division.  It holds at
p = 0 and p = 1 too: draws z >= 2**64 - 2**10 round to 1.0 and are never
arcs, even at p = 1.

The random models make that test inside the packed word (`_split`), so no
Python loop runs over the pairs.  Adding 2**64 - cut to a lane carries into
its bit 64 exactly when z >= cut; bit 64 was zero and the sum is below
2**65, so the carry stops there and never reaches the lane above.  Bit 64 is
the low bit of byte 8 of the lane's 16 little-endian bytes, and that byte is
0 or 1, so one `to_bytes`, a slice and a `translate` give a 0/1 selector of
the arcs, and `itertools.compress` picks them from the candidate pairs.  A
random instance is one `_packed` call: `random_digraph` draws one lane per
ordered pair, and `random_strongly_connected` n(n − 1) − 1 for n >= 2, whose
backbone shuffle reads the first n − 1 lanes unlifted and whose extra arcs
are the selected later lanes.

Generated arcs are loopless, in range and distinct by construction (they
come from `iter_arc_pairs`), so the models build `Digraph` directly.
`build_digraph` and `add_arc` stay the one validation path for arcs from
outside the program.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from itertools import compress
from typing import Iterator

from .digraph import Arc, Digraph, iter_arc_pairs
from .errors import SizeBoundError, VertexOutOfRangeError

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_BELOW = bytes.maketrans(b"\x00\x01", b"\x01\x00")  # carry byte -> z < cut
EXHAUSTIVE_BOUND = 4


@lru_cache(maxsize=64)
def _lanes(count: int) -> tuple[int, int, int, struct.Struct]:
    """For `count` lanes 128 bits apart: a 1 in each lane, the low 64 bits of
    each lane set, lane i holding (i + 1)·γ mod 2**64, and the little-endian
    layout that reads each lane's low 64 bits."""
    ones = sum(1 << 128 * i for i in range(count))
    steps = sum(((i + 1) * _GAMMA & _MASK64) << 128 * i for i in range(count))
    return ones, _MASK64 * ones, steps, struct.Struct("<" + "Q8x" * count)


@lru_cache(maxsize=64)
def _threshold(p: float) -> int:
    """The least z in [0, 2**64] with z / 2**64 >= p, for 0 <= p <= 1."""
    lo, hi = 0, 1 << 64
    while lo < hi:
        mid = (lo + hi) // 2
        if mid / 2**64 >= p:
            hi = mid
        else:
            lo = mid + 1
    return lo


@lru_cache(maxsize=128)
def _lift(count: int, skip: int, cut: int) -> int:
    """2**64 - cut in each of lanes skip..count - 1 of `count` lanes, and 0 in
    the first `skip`."""
    return ((1 << 64) - cut) * _lanes(count - skip)[0] << 128 * skip


def _split(z: int, count: int, skip: int, cut: int) -> tuple[tuple[int, ...], bytes]:
    """For a packed int z of `count` lanes as `SplitMix64._packed` leaves
    them: the values of its first `skip` lanes, and a selector holding 1 for
    each later lane whose value is below cut and 0 for the rest."""
    raw = (z + _lift(count, skip, cut)).to_bytes(16 * count, "little")
    return _lanes(skip)[3].unpack_from(raw), raw[16 * skip + 8 :: 16].translate(_BELOW)


@lru_cache(maxsize=64)
def _arc_pairs(n: int) -> tuple[Arc, ...]:
    """The candidate arcs on n vertices; a negative n is rejected as
    `build_digraph` rejects it."""
    if n < 0:
        raise VertexOutOfRangeError("vertex_count must be non-negative")
    return tuple(iter_arc_pairs(n))


class SplitMix64:
    """splitmix64 with the published increment and mixing constants."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def _packed(self, count: int) -> int:
        """The values of `count` calls to `next_u64()` in lanes 128 bits
        apart of one int, lane i in bits 128i..128i + 63, leaving the same
        state; every lane goes through the mix at once."""
        ones, low, steps, _ = _lanes(count)
        z = (self._state * ones + steps) & low
        z = ((z ^ (z >> 30)) & low) * 0xBF58476D1CE4E5B9 & low
        z = ((z ^ (z >> 27)) & low) * 0x94D049BB133111EB & low
        z ^= z >> 31
        self._state = (self._state + count * _GAMMA) & _MASK64
        return z

    def next_u64s(self, count: int) -> tuple[int, ...]:
        """The values of `count` calls to `next_u64()`, leaving the same
        state: the lanes of one `_packed` int, decoded."""
        if count <= 0:
            return ()
        return _lanes(count)[3].unpack(self._packed(count).to_bytes(16 * count, "little"))


def derive_trial_seed(seed: int, trial: int) -> int:
    """Per-trial seed: one splitmix64 step of seed XOR trial index."""
    return SplitMix64(seed ^ trial).next_u64()


def random_digraph(n: int, arc_prob: float, seed: int) -> Digraph:
    """Each ordered pair included independently with probability arc_prob,
    visited in lexicographic order."""
    if not 0 <= arc_prob <= 1:
        raise ValueError("arc_prob must be in [0, 1]")
    pairs = _arc_pairs(n)
    count = len(pairs)
    _, arcs = _split(SplitMix64(seed)._packed(count), count, 0, _threshold(arc_prob))
    return Digraph(n, frozenset(compress(pairs, arcs)))


def random_strongly_connected(n: int, extra_arc_prob: float, seed: int) -> Digraph:
    """A seeded random Hamiltonian cycle plus independent extra arcs; strongly
    connected by construction."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= extra_arc_prob <= 1:
        raise ValueError("extra_arc_prob must be in [0, 1]")
    pairs = _arc_pairs(n)
    count = max(len(pairs) - 1, 0)
    shuffle, extras = _split(
        SplitMix64(seed)._packed(count), count, n - 1, _threshold(extra_arc_prob)
    )
    perm = list(range(n))
    for i, z in zip(range(n - 1, 0, -1), shuffle):
        j = z % (i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    backbone = [(perm[i - 1], perm[i]) for i in range(n)] if n >= 2 else []
    candidates = bytearray(b"\x01") * len(pairs)
    for u, v in backbone:
        candidates[u * (n - 1) + v - (v > u)] = 0
    arcs = frozenset(compress(compress(pairs, candidates), extras))
    return Digraph(n, arcs.union(backbone))


@lru_cache(maxsize=EXHAUSTIVE_BOUND + 1)
def _half_arc_sets(n: int) -> tuple[tuple[frozenset, ...], tuple[frozenset, ...]]:
    """The arc sets of the low half of `_arc_pairs(n)` and of its high half,
    each indexed by its bits of the arc bitmask (2 x 64 sets at n = 4)."""
    pairs = _arc_pairs(n)
    half = len(pairs) // 2

    def subsets(part: tuple[Arc, ...]) -> tuple[frozenset, ...]:
        return tuple(
            frozenset([pair for i, pair in enumerate(part) if mask >> i & 1])
            for mask in range(1 << len(part))
        )

    return subsets(pairs[:half]), subsets(pairs[half:])


def enumerate_labeled_digraphs(n: int) -> Iterator[Digraph]:
    """All labeled loopless digraphs on n vertices, in arc-bitmask order:
    each arc set is the union of a cached low-half and high-half set, the
    high half in the outer loop."""
    if n > EXHAUSTIVE_BOUND:
        raise SizeBoundError(f"exhaustive enumeration capped at n = {EXHAUSTIVE_BOUND}")
    lows, highs = _half_arc_sets(n)
    for high in highs:
        for low in lows:
            yield Digraph(n, low | high)
