"""derived_rng streams against one SeedSequence per label tuple."""

import numpy as np
import pytest

from hamsim._rng import derived_rng

SEEDS = [0, 2**32 - 1, 2**32, 2**64 + 1, 0xB6E3_9A01_F2C4_5D78_1E0F_3]
INDICES = [0, 1, 2**32 - 1, 2**32]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("sub", [0, 1])
def test_derived_states_match_seed_sequence(seed, sub):
    """derived_rng(*labels) is PCG64 seeded by SeedSequence(labels), for
    seeds of one to four 32-bit words and indices of one and two; NumPy
    integer labels give the Python int's stream, and distinct labels give
    distinct states."""
    indices = INDICES + list(range(2, 40)) + [2**33 + 7, 2**64 + 3]
    got = [derived_rng(seed, 3, i, sub).bit_generator.state for i in indices]
    want = [np.random.PCG64(np.random.SeedSequence((seed, 3, i, sub))).state for i in indices]
    assert got == want
    assert len({state["state"]["state"] for state in got}) == len(indices)
    small = [(i, state) for i, state in zip(indices, got) if i < 2**63]
    assert [derived_rng(seed, np.int64(3), np.int64(i), np.uint8(sub)).bit_generator.state
            for i, _ in small] == [state for _, state in small]


@pytest.mark.parametrize("prefix, indices, suffix", [
    ((-1, 3), [0], (0,)),
    ((1, 3), [0, -2], (0,)),
    ((1, 3), [0], (-1,)),
])
def test_negative_entropy_raises_as_seed_sequence_does(prefix, indices, suffix):
    # a negative label is refused with SeedSequence's message, never
    # wrapped onto some other stream's labels
    for i in indices:
        labels = (*prefix, i, *suffix)
        if min(labels) >= 0:
            derived_rng(*labels)
            continue
        with pytest.raises(ValueError) as ours:
            derived_rng(*labels)
        with pytest.raises(ValueError) as theirs:
            np.random.SeedSequence(labels)
        assert str(ours.value) == str(theirs.value)
