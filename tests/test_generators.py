"""Seeded generation: PRNG reference vectors, determinism, and enumeration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelkit import (
    SplitMix64,
    enumerate_labeled_digraphs,
    random_digraph,
    random_strongly_connected,
)
from kernelkit.generators import derive_trial_seed
from kernelkit.errors import SizeBoundError


def test_splitmix64_reference_vector():
    # published reference outputs for seed 0
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(4)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
        0xF88BB8A8724C81EC,
    ]


def test_splitmix64_frozen_local_vector():
    rng = SplitMix64(1234567)
    assert [rng.next_u64() for _ in range(3)] == [
        0x599ED017FB08FC85,
        0x2C73F08458540FA5,
        0x883EBCE5A3F27C77,
    ]


def test_splitmix64_masks_seed_to_64_bits():
    assert SplitMix64(1 << 64).next_u64() == SplitMix64(0).next_u64()


def test_unit_is_in_range():
    rng = SplitMix64(99)
    for _ in range(100):
        assert 0.0 <= rng.unit() < 1.0


def test_derive_trial_seed_spreads():
    seeds = {derive_trial_seed(5, t) for t in range(100)}
    assert len(seeds) == 100
    assert derive_trial_seed(5, 3) == SplitMix64(5 ^ 3).next_u64()


# -- random models -----------------------------------------------------------


def test_random_digraph_deterministic():
    a = random_digraph(8, 0.3, 17)
    b = random_digraph(8, 0.3, 17)
    assert a.arcs == b.arcs
    assert a.arcs != random_digraph(8, 0.3, 18).arcs


def test_random_digraph_extremes():
    assert random_digraph(5, 0.0, 1).arcs == frozenset()
    assert len(random_digraph(5, 1.0, 1).arcs) == 20
    with pytest.raises(ValueError):
        random_digraph(5, 1.5, 1)


@given(st.integers(1, 9), st.integers(0, 2 ** 32))
@settings(max_examples=50, deadline=None)
def test_random_strongly_connected_is_strongly_connected(n, seed):
    assert random_strongly_connected(n, 0.2, seed).is_strongly_connected()


def test_random_strongly_connected_deterministic():
    a = random_strongly_connected(7, 0.25, 3)
    assert a.arcs == random_strongly_connected(7, 0.25, 3).arcs


def test_random_strongly_connected_validates():
    with pytest.raises(ValueError):
        random_strongly_connected(0, 0.2, 1)
    with pytest.raises(ValueError):
        random_strongly_connected(4, -0.1, 1)


# -- exhaustive enumeration --------------------------------------------------


@pytest.mark.parametrize("n,count", [(0, 1), (1, 1), (2, 4), (3, 64), (4, 4096)])
def test_enumeration_counts(n, count):
    assert sum(1 for _ in enumerate_labeled_digraphs(n)) == count


def test_enumeration_order_and_uniqueness():
    seen = [d.arcs for d in enumerate_labeled_digraphs(3)]
    assert seen[0] == frozenset()  # bitmask order starts edgeless
    assert len(set(seen)) == len(seen)


def test_enumeration_size_cap():
    with pytest.raises(SizeBoundError):
        next(iter(enumerate_labeled_digraphs(5)))
