"""Seeded generation: PRNG reference vectors, determinism, and enumeration.

Batched draws (`SplitMix64.next_u64s`, the decoder of `_packed`) are checked
against repeated `next_u64()` calls, the integer arc threshold against the
float compare it replaces, the threshold test inside the packed word
(`_split`) at its boundary lanes, both random models against per-pair-draw
references, and enumeration, which joins cached half arc sets, against one
comprehension per arc bitmask and against `build_digraph`.
"""

import inspect

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kernelkit import (
    SplitMix64,
    build_digraph,
    enumerate_labeled_digraphs,
    random_digraph,
    random_strongly_connected,
)
from kernelkit.digraph import iter_arc_pairs
from kernelkit.generators import (
    _half_arc_sets,
    _split,
    _threshold,
    derive_trial_seed,
)
from kernelkit.errors import SizeBoundError, VertexOutOfRangeError


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


def unit(rng):
    """Reference: one draw as a float uniform in [0, 1), the per-pair draw
    the integer arc threshold replaced."""
    return rng.next_u64() / 2**64


def test_unit_is_in_range():
    rng = SplitMix64(99)
    for _ in range(100):
        assert 0.0 <= unit(rng) < 1.0


@given(st.integers(0, 2**64 - 1))
@example(0)
@example(2**64 - 1)
@settings(max_examples=10, deadline=None)
def test_next_u64s_are_repeated_next_u64_calls(seed):
    for count in range(201):
        batched, single = SplitMix64(seed), SplitMix64(seed)
        assert batched.next_u64s(count) == tuple(single.next_u64() for _ in range(count))
        assert batched.next_u64() == single.next_u64()  # same state afterwards


@given(st.floats(0, 1))
@example(0.0)
@example(5e-324)
@example(0.15)
@example(0.3)
@example(1 - 2**-53)
@example(1.0)
@settings(max_examples=200, deadline=None)
def test_threshold_is_the_float_compare(p):
    cut = _threshold(p)
    for z in (cut - 1, cut):
        if 0 <= z < 2**64:  # the range of a draw
            assert (z < cut) == (z / 2**64 < p)


def test_threshold_excludes_draws_that_round_to_one():
    assert _threshold(0.0) == 0
    assert _threshold(1.0) == 2**64 - 2**10


@given(st.integers(0, 2**64 - 1), st.integers(1, 40))
@settings(max_examples=30, deadline=None)
def test_packed_lanes_hold_the_draws_with_bits_64_to_96_clear(seed, count):
    z = SplitMix64(seed)._packed(count)
    for i, value in enumerate(SplitMix64(seed).next_u64s(count)):
        lane = z >> 128 * i & 2**128 - 1
        assert lane & 2**64 - 1 == value
        assert lane >> 64 & 2**33 - 1 == 0
    assert z >> 128 * count - 31 == 0  # nothing above the last lane's value


def packed(values):
    """Lanes 128 bits apart holding `values`, with bits 97-127 of each lane
    set, where `SplitMix64._packed` leaves bits of the next lane."""
    return sum((value | (2**31 - 1) << 97) << 128 * i for i, value in enumerate(values))


@pytest.mark.parametrize("cut", [0, 1, 2**63, _threshold(1.0)])
def test_the_lane_threshold_test_is_z_below_cut_with_no_carry_between_lanes(cut):
    values = [z for z in (0, cut - 1, cut, 2**64 - 1) if 0 <= z < 2**64]
    arc_lanes = values + values[::-1]  # each value next to every other
    skip, count = len(values), len(values) + len(arc_lanes)
    shuffle, selector = _split(packed(values + arc_lanes), count, skip, cut)
    assert shuffle == tuple(values)  # lanes below `skip` are not lifted
    assert list(selector) == [int(z < cut) for z in arc_lanes]
    for z, verdict in zip(arc_lanes, selector):  # the same verdict alone
        assert _split(packed([z]), 1, 0, cut) == ((), bytes([verdict]))


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


def test_negative_vertex_count_is_rejected():
    # generated digraphs skip build_digraph, so the generators reject it
    with pytest.raises(VertexOutOfRangeError):
        random_digraph(-1, 0.5, 1)
    with pytest.raises(VertexOutOfRangeError):
        next(iter(enumerate_labeled_digraphs(-1)))


def test_random_strongly_connected_validates():
    with pytest.raises(ValueError):
        random_strongly_connected(0, 0.2, 1)
    with pytest.raises(ValueError):
        random_strongly_connected(4, -0.1, 1)


def per_pair_random_digraph(n, arc_prob, seed):
    """Reference: one `unit` draw per ordered pair."""
    rng = SplitMix64(seed)
    return build_digraph(n, [pair for pair in iter_arc_pairs(n) if unit(rng) < arc_prob])


def per_pair_random_strongly_connected(n, extra_arc_prob, seed):
    """Reference: the shuffled backbone, then one `unit` draw per other pair."""
    rng = SplitMix64(seed)
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.next_u64() % (i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    backbone = {(perm[i], perm[(i + 1) % n]) for i in range(n)} if n >= 2 else set()
    extras = [
        pair
        for pair in iter_arc_pairs(n)
        if pair not in backbone and unit(rng) < extra_arc_prob
    ]
    return build_digraph(n, sorted(backbone) + extras)


def boundary_examples(test):
    for n in (1, 2, 24):
        for p in (0.0, 5e-324, 1 - 2**-53, 1.0):
            test = example(n, p, 20260823 + n)(test)
    return test


@given(st.integers(1, 24), st.floats(0, 1), st.integers(0, 2**64 - 1))
@boundary_examples
@settings(max_examples=150, deadline=None)
def test_random_models_match_per_pair_draws(n, p, seed):
    assert random_digraph(n, p, seed) == per_pair_random_digraph(n, p, seed)
    assert random_strongly_connected(n, p, seed) == per_pair_random_strongly_connected(n, p, seed)


@pytest.mark.parametrize("model", [random_digraph, random_strongly_connected])
def test_a_random_instance_is_one_batched_draw(model, monkeypatch):
    calls = []
    for name in ("next_u64", "next_u64s", "_packed"):
        method = getattr(SplitMix64, name)

        def counted(self, *args, _name=name, _method=method):
            calls.append(_name)
            return _method(self, *args)

        monkeypatch.setattr(SplitMix64, name, counted)
    for n in range(1, 13):
        calls.clear()
        model(n, 0.3, 20260823 + n)
        assert calls == ["_packed"]


# -- exhaustive enumeration --------------------------------------------------


@pytest.mark.parametrize("n,count", [(0, 1), (1, 1), (2, 4), (3, 64), (4, 4096)])
def test_enumeration_counts(n, count):
    assert sum(1 for _ in enumerate_labeled_digraphs(n)) == count


def per_mask_arc_sets(n):
    """Reference: one comprehension per arc bitmask, in bitmask order."""
    pairs = list(iter_arc_pairs(n))
    return [
        frozenset([pair for i, pair in enumerate(pairs) if mask >> i & 1])
        for mask in range(1 << len(pairs))
    ]


@pytest.mark.parametrize("n", range(5))
def test_enumeration_matches_build_digraph(n):
    reference = [build_digraph(n, sorted(arcs)) for arcs in per_mask_arc_sets(n)]
    assert list(enumerate_labeled_digraphs(n)) == reference


@pytest.mark.parametrize("n", range(5))
def test_half_set_unions_give_the_per_mask_arc_sets_in_order(n):
    assert inspect.isgenerator(enumerate_labeled_digraphs(n))
    assert [d.arcs for d in enumerate_labeled_digraphs(n)] == per_mask_arc_sets(n)
    lows, highs = _half_arc_sets(n)
    assert len(lows) == len(highs) == 2 ** (n * (n - 1) // 2)


def test_enumeration_order_and_uniqueness():
    seen = [d.arcs for d in enumerate_labeled_digraphs(3)]
    assert seen[0] == frozenset()  # bitmask order starts edgeless
    assert len(set(seen)) == len(seen)


def test_enumeration_size_cap():
    with pytest.raises(SizeBoundError):
        next(iter(enumerate_labeled_digraphs(5)))
