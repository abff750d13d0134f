"""Deterministic seed derivation and key material.

All randomness in the package flows from 64-bit seeds mixed with splitmix64,
so every run is exactly reproducible and verifier-side key reconstruction
only needs the token sequence and the master seed. ``key_seed`` gives the
seed of a position's key; ``key_seeds`` is the same over an array of
contexts.

Each scheme turns a key seed into key material in one of two ways, and both
have an array form that scores a whole stream with no generator built:

* Gumbel keys are ``uniform_open(generator(seed), V)``, numpy's PCG64 seeded
  through a SeedSequence. ``pcg64_states`` reproduces numpy's seeding of
  ``PCG64(seed)`` (SeedSequence hashing, pool mixing,
  ``generate_state(4, uint64)`` and ``srandom``) for every seed at once, as
  128-bit (state, inc) pairs in hi/lo uint64 arrays, and ``uniform_open_at``
  reads coordinate ``index`` of the key from it: a jump of ``index + 1``
  LCG steps, then PCG64's XSL-RR output, bit for bit.
* Inverse and red_green keys are a uniform ``u`` and a keyed affine
  permutation of the vocabulary: token w has rank ``(a*w + c) mod V``, with
  ``a`` a unit mod V. ``affine_key`` derives (u, a, c) from keyed splitmix64
  hashes of the seed and ``affine_keys`` does the same over an array of
  seeds. ``c`` is the high word of a 64x64-bit product, so it is uniform
  on 0..V-1 to within 2^-64 per value, and so is the rank of any fixed
  token, whatever ``a``. A pivot's null law, which depends on one token's
  rank alone, is thus that of a uniformly drawn permutation.
"""

from __future__ import annotations

import functools

import numpy as np

_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Domain tags keep independent random streams (keys, NTPs, null draws, ...)
# from colliding even when they share a master seed.
TAG_KEY = 0x01
TAG_NTP = 0x02
TAG_NULL_DRAW = 0x03
TAG_REPLICATION = 0x05

# Context token used to derive the key of the first position (no predecessor).
CONTEXT_SENTINEL = -1

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx) and
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

_U32 = np.uint64(0xFFFFFFFF)


def splitmix64(x: int) -> int:
    """One round of the splitmix64 mixer (acts on the low 64 bits of x)."""
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def splitmix64_array(x: np.ndarray) -> np.ndarray:
    """``splitmix64`` of each entry of a uint64 array (wrapping arithmetic)."""
    x = x + np.uint64(_GOLDEN)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def mix(*parts: int) -> int:
    """Fold integers into one 64-bit seed; order-sensitive, avalanching."""
    state = _GOLDEN
    for part in parts:
        state = splitmix64(state ^ splitmix64(part & _MASK64))
    return state


def key_seed(master_seed: int, prev_token: int) -> int:
    """Seed of the pseudo-random key at a position, from its predecessor token.

    Context window is a single token; the first position passes
    CONTEXT_SENTINEL. Anyone holding the master seed can recompute this from
    the token sequence alone.
    """
    return mix(master_seed, TAG_KEY, prev_token + 1)


def key_seeds(master_seed: int, prev_tokens: np.ndarray) -> np.ndarray:
    """``key_seed`` of each context in an integer array, as uint64.

    ``mix`` folds its parts in order, so the context folds last onto the
    seed of (master_seed, TAG_KEY).
    """
    parts = (np.asarray(prev_tokens, dtype=np.int64) + 1).astype(np.uint64)
    return splitmix64_array(np.uint64(mix(master_seed, TAG_KEY)) ^ splitmix64_array(parts))


def generator(seed: int) -> np.random.Generator:
    """PCG64 generator for a derived 64-bit seed."""
    return np.random.Generator(np.random.PCG64(seed))


def uniform_open(rng: np.random.Generator, size=None):
    """Uniform draws strictly inside (0, 1).

    Half-shifted 53-bit grid: never returns 0.0 or 1.0, so downstream
    log-transforms stay finite.
    """
    return (rng.integers(0, 1 << 53, size=size) + 0.5) * 2.0**-53


# ---------------------------------------------------------------------------
# Counter layer: numpy's PCG64 seeding and draws over arrays of seeds
# ---------------------------------------------------------------------------


def _split128(value: int) -> tuple[np.uint64, np.uint64]:
    return np.uint64(value >> 64), np.uint64(value & _MASK64)


def _mulhi64(x, y):
    """High 64 bits of the 128-bit products x * y (x an array)."""
    x0, x1, y0, y1 = x & _U32, x >> np.uint64(32), y & _U32, y >> np.uint64(32)
    p01, p10 = x0 * y1, x1 * y0
    mid = ((x0 * y0) >> np.uint64(32)) + (p01 & _U32) + (p10 & _U32)
    return x1 * y1 + (p01 >> np.uint64(32)) + (p10 >> np.uint64(32)) + (mid >> np.uint64(32))


def _mul128(a, b):
    """a * b mod 2^128 for (hi, lo) pairs whose ``a`` parts are arrays."""
    return _mulhi64(a[1], b[1]) + a[0] * b[1] + a[1] * b[0], a[1] * b[1]


def _add128(a, b):
    """a + b mod 2^128 for (hi, lo) pairs whose ``a`` parts are arrays."""
    lo = a[1] + b[1]
    return a[0] + b[0] + (lo < a[1]).astype(np.uint64), lo


def _hashmix_constants(init: int, mult: int):
    """The (xor, multiply) constant pairs of successive SeedSequence hashes."""
    const = init
    while True:
        nxt = const * mult & 0xFFFFFFFF
        yield np.uint32(const), np.uint32(nxt)
        const = nxt


def _hashmix(value: np.ndarray, consts) -> np.ndarray:
    xor, mult = next(consts)
    value = (value ^ xor) * mult
    return value ^ (value >> np.uint32(16))


def pcg64_states(seeds) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The state of ``np.random.PCG64(seed)`` for each 64-bit seed, as
    (state_hi, state_lo, inc_hi, inc_lo) uint64 arrays.

    SeedSequence(seed) takes the seed's 32-bit words, low first: one word
    below 2^32, two above. Its pool has 4 words and hashes absent entropy
    words as 0, so both cases are the words (lo, hi, 0, 0).
    """
    seeds = np.asarray(seeds, dtype=np.uint64).reshape(-1)
    lo, hi = (seeds & _U32).astype(np.uint32), (seeds >> np.uint64(32)).astype(np.uint32)
    zero = np.zeros_like(lo)
    consts = _hashmix_constants(_INIT_A, _MULT_A)
    pool = [_hashmix(word, consts) for word in (lo, hi, zero, zero)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                hashed = _hashmix(pool[src], consts)
                mixed = pool[dst] * np.uint32(_MIX_MULT_L) - hashed * np.uint32(_MIX_MULT_R)
                pool[dst] = mixed ^ (mixed >> np.uint32(16))
    consts = _hashmix_constants(_INIT_B, _MULT_B)
    words = [_hashmix(pool[i % _POOL_SIZE], consts).astype(np.uint64) for i in range(8)]
    # generate_state(4, uint64): uint64 j is words 2j (low) and 2j + 1 (high);
    # PCG64 reads uint64s 0-1 as (hi, lo) of the initial state and 2-3 as
    # those of the stream selector.
    init_hi, init_lo, seq_hi, seq_lo = (
        words[2 * j] | (words[2 * j + 1] << np.uint64(32)) for j in range(4)
    )
    # pcg64_srandom: inc = seq << 1 | 1, state = (inc + init) * MULT + inc.
    one = np.uint64(1)
    inc = (seq_hi << one) | (seq_lo >> np.uint64(63)), (seq_lo << one) | one
    state = _add128(_mul128(_add128(inc, (init_hi, init_lo)), _split128(_PCG_MULT)), inc)
    return state[0], state[1], inc[0], inc[1]


@functools.lru_cache(maxsize=None)
def _pcg64_jumps(bits: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Jump-ahead constants (A_k hi, A_k lo, G_k hi, G_k lo) for k < 2^bits.

    k steps of PCG64's LCG take a state S with increment c to
    A_k S + G_k c, where A_k = MULT^k and G_k = sum over i < k of MULT^i
    (mod 2^128). The table doubles in length each round, since
    A_{m+k} = A_m A_k and G_{m+k} = A_m G_k + G_m. Tables are kept per
    power-of-two length and are read-only, since every caller shares them.
    """
    a = [np.zeros(1, dtype=np.uint64), np.ones(1, dtype=np.uint64)]  # A_0 = 1
    g = [np.zeros(1, dtype=np.uint64), np.zeros(1, dtype=np.uint64)]  # G_0 = 0
    step_a, step_g = _PCG_MULT, 1  # A_m and G_m for the current length m
    for _ in range(bits):
        shifted_a = _mul128(a, _split128(step_a))
        shifted_g = _add128(_mul128(g, _split128(step_a)), _split128(step_g))
        a = [np.concatenate(pair) for pair in zip(a, shifted_a)]
        g = [np.concatenate(pair) for pair in zip(g, shifted_g)]
        step_a, step_g = step_a * step_a & _MASK128, (step_a * step_g + step_g) & _MASK128
    for part in (*a, *g):
        part.flags.writeable = False
    return a[0], a[1], g[0], g[1]


def uniform_open_at(seeds, index) -> np.ndarray:
    """``uniform_open(generator(seed), size)[index]`` for each (seed, index)
    pair of two equal-length arrays, for any ``size > index``, with no
    generator built.

    ``integers(0, 2^53)`` is numpy's Lemire draw over a range of 2^53, which
    never rejects: draw i reads the (i+1)-th 64-bit output and keeps its top
    53 bits.
    """
    index = np.asarray(index, dtype=np.int64)
    # The table must reach index.max() + 1 steps.
    jumps = _pcg64_jumps((int(index.max(initial=0)) + 1).bit_length())
    state_hi, state_lo, inc_hi, inc_lo = pcg64_states(seeds)
    steps = index + 1
    a = jumps[0][steps], jumps[1][steps]
    g = jumps[2][steps], jumps[3][steps]
    hi, lo = _add128(_mul128(a, (state_hi, state_lo)), _mul128(g, (inc_hi, inc_lo)))
    # XSL-RR: rotate hi ^ lo right by the top 6 bits of the state.
    folded, rot = hi ^ lo, hi >> np.uint64(58)
    out = (folded >> rot) | (folded << ((np.uint64(64) - rot) & np.uint64(63)))
    return ((out >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def group_by_seed(seeds: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """The distinct seeds of an array, ascending, and for each the array of
    positions holding it, ascending."""
    distinct, group = np.unique(seeds, return_inverse=True)
    order = np.argsort(group, kind="stable")
    return distinct, np.split(order, np.cumsum(np.bincount(group))[:-1])


# ---------------------------------------------------------------------------
# Keyed affine permutations of the vocabulary
# ---------------------------------------------------------------------------

# splitmix64 of the tags t = 1, 2, 3 that key the hashes of u, c and a.
_AFFINE_TAGS = tuple(splitmix64(tag) for tag in (1, 2, 3))


def units_mod(vocab_size: int) -> np.ndarray:
    """The residues in 0..V-1 coprime to V, ascending: the multipliers a for
    which w -> (a*w + c) mod V is a permutation."""
    residues = np.arange(vocab_size, dtype=np.int64)
    return residues[np.gcd(residues, vocab_size) == 1]


def affine_key(seed: int, vocab_size: int, units: np.ndarray) -> tuple[float, int, int]:
    """The (u, a, c) of a key seed: u = ((h_1 >> 11) + 0.5) 2^-53,
    c = floor(h_2 V / 2^64) and a = units[floor(h_3 |units| / 2^64)], where
    h_t = splitmix64(seed ^ splitmix64(t)) and ``units = units_mod(V)``."""
    h_u, h_c, h_a = (splitmix64(seed ^ tag) for tag in _AFFINE_TAGS)
    u = ((h_u >> 11) + 0.5) * 2.0**-53
    return u, int(units[h_a * units.size >> 64]), h_c * vocab_size >> 64


def affine_keys(seeds, vocab_size: int, units: np.ndarray):
    """``affine_key`` of each seed in a uint64 array, as (u, a, c) arrays."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    h_u, h_c, h_a = (splitmix64_array(seeds ^ np.uint64(tag)) for tag in _AFFINE_TAGS)
    u = ((h_u >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    a = units[_mulhi64(h_a, np.uint64(units.size)).astype(np.int64)]
    return u, a, _mulhi64(h_c, np.uint64(vocab_size)).astype(np.int64)
