"""Batch stream derivation against one SeedSequence per stream."""

import numpy as np
import pytest

from hamsim._rng import derived_rng, derived_rngs, derived_states

SEEDS = [0, 2**32 - 1, 2**32, 2**64 + 1, 0xB6E3_9A01_F2C4_5D78_1E0F_3]
INDICES = [0, 1, 2**32 - 1, 2**32]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("sub", [0, 1])
def test_derived_states_match_seed_sequence(seed, sub):
    """derived_states replays SeedSequence's hash constants and PCG64's
    seeding step, so it must agree with the NumPy at hand: CI's floors job
    runs this test against NumPy 2.0's SeedSequence. Indices of one and two
    words share one call, and a 100-bit seed spans four words."""
    indices = INDICES + list(range(2, 40)) + [2**33 + 7, 2**64 + 3]
    got = derived_states((seed, 3), indices, (sub,))
    assert got == [derived_rng(seed, 3, i, sub).bit_generator.state for i in indices]


def test_derived_states_label_layouts():
    # labels of any length before and after the index, and none at all
    for prefix, suffix in (((), ()), ((5,), ()), ((), (9, 2**40)), ((1, 2, 3, 4, 5), (6,))):
        got = derived_states(prefix, [0, 7, 2**32], suffix)
        assert got == [derived_rng(*prefix, i, *suffix).bit_generator.state
                       for i in (0, 7, 2**32)]
    assert derived_states((1,), [], (0,)) == []


def test_derived_rngs_draw_as_derived_rng():
    # one Generator reseeded per index draws what a fresh one per index draws
    got = [rng.random(3).tolist() for rng in derived_rngs((42, 3), range(5), (1,))]
    assert got == [derived_rng(42, 3, i, 1).random(3).tolist() for i in range(5)]
    # a reseed also drops the half of a 64-bit output that an odd number
    # of 32-bit draws leaves buffered
    ours = []
    for rng in derived_rngs((8,), [0, 1], ()):
        ours.append(rng.integers(0, 2**32, size=3, dtype=np.uint32).tolist())
        assert rng.bit_generator.state["has_uint32"] == 1
    want = [derived_rng(8, i).integers(0, 2**32, size=3, dtype=np.uint32).tolist()
            for i in (0, 1)]
    assert ours == want


@pytest.mark.parametrize("prefix, indices, suffix", [
    ((-1, 3), [0], (0,)),
    ((1, 3), [0, -2], (0,)),
    ((1, 3), [0], (-1,)),
])
def test_negative_entropy_raises_as_seed_sequence_does(prefix, indices, suffix):
    with pytest.raises(ValueError) as ours:
        derived_states(prefix, indices, suffix)
    with pytest.raises(ValueError) as theirs:
        derived_rng(*prefix, min(indices), *suffix)
    assert str(ours.value) == str(theirs.value)
