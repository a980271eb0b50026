"""Seed derivation for reproducible, worker-count-independent sampling.

Every random draw in the package flows through a Generator built from an
explicit integer entropy tuple, so per-sample streams are pure functions of
(master seed, stream labels, sample index) and parallel scheduling cannot
change results.

`derived_rng` builds one such Generator. `derived_states` derives the
streams of many indices under one label tuple at once: it replays NumPy's
`SeedSequence` (entropy words, a pool of four, `generate_state(4, uint64)`)
on uint32 arrays over the index, then PCG64's seeding step on Python ints,
and returns the bit-generator states that `derived_rng` would build;
`derived_rngs` reseeds one Generator from them in turn, so a caller takes
many streams without building a `SeedSequence` per index.
"""

from __future__ import annotations

import numpy as np

_MASK32 = 0xFFFFFFFF
# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def derived_rng(*entropy: int) -> np.random.Generator:
    """Generator for the stream named by an integer tuple."""
    return np.random.default_rng(np.random.SeedSequence(tuple(int(e) for e in entropy)))


def _words(n: int) -> list[int]:
    """SeedSequence's entropy words of one int: little-endian uint32, 0 -> [0]."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _hashmix(value: np.ndarray, hash_const: list, mult: int = _MULT_A) -> np.ndarray:
    """SeedSequence's hashmix on uint32 arrays, advancing hash_const[0] by
    mult (`generate_state` hashes its output words the same way with
    _MULT_B)."""
    value = value ^ np.uint32(hash_const[0])
    hash_const[0] = (hash_const[0] * mult) & _MASK32
    value *= np.uint32(hash_const[0])
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(16))


def _pcg64_states(entropy: np.ndarray) -> list[dict]:
    """PCG64 states seeded from SeedSequence(row) for each column of the
    (words, m) uint32 entropy array."""
    m = entropy.shape[1]
    hash_const = [_INIT_A]
    pool = [_hashmix(entropy[i] if i < len(entropy) else np.zeros(m, np.uint32), hash_const)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], hash_const))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, hash_const))
    # generate_state(4, uint64): eight uint32 words cycling over the pool,
    # paired little-endian into four uint64 words
    hash_const = [_INIT_B]
    out = np.stack([_hashmix(pool[i % _POOL_SIZE], hash_const, _MULT_B) for i in range(8)])
    w = out[0::2].astype(np.uint64) | (out[1::2].astype(np.uint64) << np.uint64(32))
    states = []
    for w0, w1, w2, w3 in zip(*w.tolist()):
        # pcg64_set_seed: state 0, inc = 2 * initseq + 1, step, add the seed, step
        inc = ((((w2 << 64) | w3) << 1) | 1) & _MASK128
        state = (((inc + ((w0 << 64) | w1)) * _PCG64_MULT) + inc) & _MASK128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


def derived_states(prefix, indices, suffix=()) -> list[dict]:
    """`derived_rng(*prefix, i, *suffix).bit_generator.state` for every i in
    indices, derived in one vectorized pass per index word count."""
    head = [w for e in prefix for w in _words(int(e))]
    tail = [w for e in suffix for w in _words(int(e))]
    index_words = [_words(int(i)) for i in indices]
    states: list = [None] * len(index_words)
    for n_words in sorted({len(words) for words in index_words}):
        rows = [k for k, words in enumerate(index_words) if len(words) == n_words]
        entropy = np.empty((len(head) + n_words + len(tail), len(rows)), dtype=np.uint32)
        entropy[: len(head)] = np.array(head, dtype=np.uint32)[:, None]
        entropy[len(head) : len(head) + n_words] = np.array(
            [index_words[k] for k in rows], dtype=np.uint32).T
        entropy[len(head) + n_words :] = np.array(tail, dtype=np.uint32)[:, None]
        for k, state in zip(rows, _pcg64_states(entropy)):
            states[k] = state
    return states


def derived_rngs(prefix, indices, suffix=()):
    """`derived_rng(*prefix, i, *suffix)` for every i in indices, as one
    Generator reseeded in turn from `derived_states`: use each stream
    before taking the next."""
    rng = np.random.Generator(np.random.PCG64(0))
    for state in derived_states(prefix, indices, suffix):
        rng.bit_generator.state = state
        yield rng


def as_rng(seed_or_rng) -> np.random.Generator:
    """Accept either a seed (int/SeedSequence/None) or an existing Generator."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)
