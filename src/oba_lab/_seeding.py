"""Block seeding: the generators `np.random.default_rng(seed)` builds, for a whole block of seeds.

`default_rng(seed)` hashes the seed through a `SeedSequence` (NEP 19) into
four 64-bit words and seeds PCG64 from them.  Building one `SeedSequence` per
seed costs about 8 µs of the 9 µs a `default_rng` takes.  Here the hash runs
as uint32 array arithmetic across the whole block (about 0.6 µs per seed in a
block of 128), and numpy seeds each seed's PCG64 from its words, so
`seeded_draws` returns bit for bit the draws of a fresh `default_rng(seed)`.

Seeds of up to four uint32 words (0 <= seed < 2**128) fill the hash pool
exactly; a shorter seed is its zero-padded form, since a missing entropy word
hashes like a zero one.  Larger seeds would need `SeedSequence`'s extra
mixing rounds and are refused.
"""

from __future__ import annotations

import functools

import numpy as np

from .operators import _integer

# SeedSequence's hash constants, as in numpy/random/bit_generator.pyx
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_POOL_SIZE = 4
_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1


def _hash_constants(init: int, mult: int, calls: int) -> tuple[np.ndarray, np.ndarray]:
    """(xor, multiplier) columns of successive hashmix calls, each of shape (calls, 1).

    The running constant is xored in, then advanced, and the advanced value
    multiplies; it never depends on the data, so it is a fixed table, built
    with masked Python ints (a numpy uint32 scalar product warns on overflow).
    """
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _MASK32)
    table = np.array(consts, dtype=np.uint32)[:, np.newaxis]
    return table[:-1], table[1:]


# mix_entropy: one call per pool word, then one per ordered pair of words
_MIX_XOR, _MIX_MULT = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)
# generate_state(4, np.uint64): eight uint32 words
_STATE_XOR, _STATE_MULT = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)


def _hashmix(words: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    words = (words ^ xor) * mult
    return words ^ (words >> _XSHIFT)


def _seed_bytes(seed) -> bytes:
    value = _integer("seed", seed)
    if not 0 <= value <= _MASK128:
        raise ValueError(f"seed must be an integer in [0, 2**128), got {value}")
    return value.to_bytes(16, "little")


def _seed_words(seeds) -> np.ndarray:
    """`SeedSequence(seed).generate_state(4, np.uint64)` for each seed, as a (count, 4) array."""
    entropy = np.frombuffer(b"".join(map(_seed_bytes, seeds)), dtype="<u4")
    entropy = entropy.reshape(-1, _POOL_SIZE)
    # SeedSequence.mix_entropy on a (pool word, seed) array.  Every operand
    # is an array, whose products wrap silently where scalar ones would warn.
    pool = _hashmix(entropy.T, _MIX_XOR[:_POOL_SIZE], _MIX_MULT[:_POOL_SIZE])
    for src in range(_POOL_SIZE):
        # the three updates from one source word read it and write only the
        # other words, so they run as one (3, count) step
        dst = [i for i in range(_POOL_SIZE) if i != src]
        calls = slice(_POOL_SIZE + src * len(dst), _POOL_SIZE + (src + 1) * len(dst))
        hashed = _hashmix(pool[src], _MIX_XOR[calls], _MIX_MULT[calls])
        mixed = pool[dst] * _MIX_MULT_L - hashed * _MIX_MULT_R
        pool[dst] = mixed ^ (mixed >> _XSHIFT)
    # generate_state(4, np.uint64): uint32 word i hashes pool word i % 4, and
    # uint64 j is words 2j (low) and 2j + 1 (high)
    words = _hashmix(np.concatenate((pool, pool)), _STATE_XOR, _STATE_MULT)
    return words.T.astype("<u4", order="C").view("<u8").astype(np.uint64, copy=False)


@functools.cache
def _hashed_sequence() -> type:
    """The `ISeedSequence` that gives PCG64 one seed's words, built on the first
    draw: importing `numpy.random.bit_generator` loads all of `numpy.random`."""
    from numpy.random.bit_generator import ISeedSequence

    class HashedSequence(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words  # PCG64 asks for generate_state(4, np.uint64)

    return HashedSequence


def seeded_draws(seeds, normals: int, uniforms: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Each seed's draws: `normals` standard normals, then `uniforms` uniforms on [0, 1).

    Row i of the (count, normals) and (count, uniforms) arrays holds what a
    fresh `default_rng(seeds[i])` returns from one `standard_normal(normals)`
    call and then one `random(uniforms)` call, bit for bit.  This is the one
    draw path of every seeded trial.  A generator fills an array element by
    element, so consecutive parts of a row (say the real, then the imaginary
    parts of a matrix) are also the draws of consecutive calls, and
    `low + (high - low) * u` of a uniform u is bitwise `uniform(low, high)`.
    Every seed is validated before the first draw: TypeError unless it is an
    integer, ValueError unless 0 <= seed < 2**128.  The first call loads
    `numpy.random` (numpy 2 imports it on first attribute access); a pooled
    suite loads it in the parent before forking, so its workers share it.
    """
    words = _seed_words(seeds)
    gauss = np.empty((len(words), normals))
    unit = np.empty((len(words), uniforms))
    hashed = _hashed_sequence()
    for row, normal, uniform in zip(words, gauss, unit):
        rng = np.random.Generator(np.random.PCG64(hashed(row)))
        rng.standard_normal(out=normal)
        rng.random(out=uniform)
    return gauss, unit
