"""Deterministic digraph generation: seeded random models and exhaustive
labeled enumeration.  The campaigns decide hypothesis-class membership
themselves.

The PRNG is splitmix64 (published constants), so corpora are bit-identical
across platforms and runs.
"""

from __future__ import annotations

from typing import Iterator

from .digraph import Digraph, build_digraph, iter_arc_pairs
from .errors import SizeBoundError

_MASK64 = (1 << 64) - 1
EXHAUSTIVE_BOUND = 4


class SplitMix64:
    """splitmix64 with the published increment and mixing constants."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def unit(self) -> float:
        """Uniform in [0, 1)."""
        return self.next_u64() / 2**64

    def units(self, count: int) -> list[float]:
        """The values of `count` calls to `unit()`, leaving the same state;
        `next_u64`'s steps in one loop on a local state."""
        state = self._state
        values = []
        for _ in range(count):
            state = (state + 0x9E3779B97F4A7C15) & _MASK64
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            values.append((z ^ (z >> 31)) / 2**64)
        self._state = state
        return values

    def below(self, bound: int) -> int:
        return self.next_u64() % bound


def derive_trial_seed(seed: int, trial: int) -> int:
    """Per-trial seed: one splitmix64 step of seed XOR trial index."""
    return SplitMix64(seed ^ trial).next_u64()


def random_digraph(n: int, arc_prob: float, seed: int) -> Digraph:
    """Each ordered pair included independently with probability arc_prob,
    visited in lexicographic order."""
    if not 0 <= arc_prob <= 1:
        raise ValueError("arc_prob must be in [0, 1]")
    pairs = list(iter_arc_pairs(n))
    draws = SplitMix64(seed).units(len(pairs))
    return build_digraph(n, [pair for pair, x in zip(pairs, draws) if x < arc_prob])


def random_strongly_connected(n: int, extra_arc_prob: float, seed: int) -> Digraph:
    """A seeded random Hamiltonian cycle plus independent extra arcs; strongly
    connected by construction."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= extra_arc_prob <= 1:
        raise ValueError("extra_arc_prob must be in [0, 1]")
    rng = SplitMix64(seed)
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    backbone = set()
    if n >= 2:
        backbone = {(perm[i], perm[(i + 1) % n]) for i in range(n)}
    candidates = [pair for pair in iter_arc_pairs(n) if pair not in backbone]
    draws = rng.units(len(candidates))
    extras = [pair for pair, x in zip(candidates, draws) if x < extra_arc_prob]
    return build_digraph(n, sorted(backbone) + extras)


def enumerate_labeled_digraphs(n: int) -> Iterator[Digraph]:
    """All labeled loopless digraphs on n vertices, in arc-bitmask order."""
    if n > EXHAUSTIVE_BOUND:
        raise SizeBoundError(f"exhaustive enumeration capped at n = {EXHAUSTIVE_BOUND}")
    pairs = list(iter_arc_pairs(n))
    for mask in range(1 << len(pairs)):
        arcs = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        yield build_digraph(n, arcs)

