"""Closed-form seeding: the state `np.random.default_rng(seed)` starts in, for a block of seeds.

`default_rng(seed)` hashes the seed through a `SeedSequence` (NEP 19) into
four 64-bit words and seeds PCG64 from them by PCG's set-sequence rule
(O'Neill 2014).  Building one `SeedSequence` and one `PCG64` per seed costs
about 15 µs.  Here the hash runs as uint32 array arithmetic across the whole
block, the PCG set-up as Python 128-bit integers, and one reused generator is
re-stated for each seed, so `seeded_draws` returns bit for bit the draws of a
fresh `default_rng(seed)`.

Seeds of up to four uint32 words (0 <= seed < 2**128) fill the hash pool
exactly; a shorter seed is its zero-padded form, since a missing entropy word
hashes like a zero one.  Larger seeds would need `SeedSequence`'s extra
mixing rounds and are refused.
"""

from __future__ import annotations

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
# PCG_DEFAULT_MULTIPLIER_128, the multiplier of PCG64's step
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


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


def _pcg64_states(seeds) -> list[tuple[int, int]]:
    """PCG64 (state, inc) that `default_rng(seed)` starts in, for each seed."""
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
    # SeedSequence.generate_state(4, np.uint64): uint32 word i hashes pool word i % 4
    words = _hashmix(np.concatenate((pool, pool)), _STATE_XOR, _STATE_MULT)
    # uint64 j is words 2j (low) and 2j + 1 (high); PCG64 seeds from
    # initstate = (u64[0] << 64) | u64[1] and initseq = (u64[2] << 64) | u64[3]
    u64 = words.T.astype("<u4", order="C").view("<u8")
    states = []
    for state_hi, state_lo, seq_hi, seq_lo in u64.tolist():
        # pcg_setseq_128_srandom_r: state 0, step, add initstate, step
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
        state = (inc + (state_hi << 64 | state_lo)) * _PCG_MULT + inc
        states.append((state & _MASK128, inc))
    return states


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
    integer, ValueError unless 0 <= seed < 2**128.
    """
    states = _pcg64_states(seeds)
    gauss = np.empty((len(states), normals))
    unit = np.empty((len(states), uniforms))
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)
    # the setter copies the values out, so one dict is rewritten for every seed
    full = {"bit_generator": "PCG64", "state": {}, "has_uint32": 0, "uinteger": 0}
    pcg = full["state"]
    for (state, inc), normal, uniform in zip(states, gauss, unit):
        pcg["state"], pcg["inc"] = state, inc
        bitgen.state = full
        rng.standard_normal(out=normal)
        rng.random(out=uniform)
    return gauss, unit
