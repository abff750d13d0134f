"""Deterministic seed derivation and key material.

All randomness in the package flows from 64-bit seeds mixed with splitmix64,
so every run is exactly reproducible and verifier-side key reconstruction
only needs the token sequence and the master seed. ``key_seed`` gives the
seed of a position's key; ``key_seeds`` is the same over an array of
contexts. Both fold the context onto the seed of (master_seed, TAG_KEY),
which ``key_seed`` caches per master seed.

Every key is read from keyed hashes h_t = splitmix64(seed ^ splitmix64(t))
of its seed, one per tag t, and every key uniform is ``unit(h_t)``, on the
half-shifted 2^52 grid strictly inside (0, 1). Each hash is one array
operation over any number of (seed, tag) pairs, so a whole stream is scored
with no key and no generator built:

* A gumbel key has one uniform per token: coordinate w is ``unit(h_{4+w})``
  (``coordinate_tags``). For a fixed token the coordinate is a
  pseudo-random function of the seed, so the pivot of a token drawn
  independently of the key is Uniform(0, 1).
* Inverse and red_green keys are a uniform ``u`` and a keyed affine
  permutation of the vocabulary: token w has rank ``(a*w + c) mod V``, with
  ``a`` a unit mod V. ``affine_key`` derives (u, a, c) from h_1, h_2 and
  h_3 and ``affine_keys`` does the same over an array of seeds, hashing
  every seed under the three tags in one pass over a stacked (3, n) array.
  ``c`` is the high word of the 128-bit product h_2 * V, so it is uniform on
  0..V-1 to within 2^-64 per value, and so is the rank of any fixed token,
  whatever ``a``. A pivot's null law, which depends on one token's rank
  alone, is thus that of a uniformly drawn permutation. ``SchemeSpec``
  admits only V < 2^32, so both multipliers fit in 32 bits and the high
  word is exact in uint64 arithmetic (``mulhi``).
"""

from __future__ import annotations

import functools

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Domain tags keep independent random streams (keys, NTPs, null draws, ...)
# from colliding even when they share a master seed.
TAG_KEY = 0x01
TAG_NTP = 0x02
TAG_NULL_DRAW = 0x03
TAG_REPLICATION = 0x05

# Context token used to derive the key of the first position (no predecessor).
CONTEXT_SENTINEL = -1

_U32 = np.uint64(0xFFFFFFFF)
# (shift, multiplier) of the two xorshift-multiply rounds of splitmix64.
_SPLITMIX_ROUNDS = ((np.uint64(30), np.uint64(0xBF58476D1CE4E5B9)),
                    (np.uint64(27), np.uint64(0x94D049BB133111EB)))


def splitmix64(x: int) -> int:
    """One round of the splitmix64 mixer (acts on the low 64 bits of x)."""
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def splitmix64_array(x: np.ndarray) -> np.ndarray:
    """``splitmix64`` of each entry of a uint64 array (wrapping arithmetic).

    The input is copied once and left unchanged; every later step works in
    place on the copy and one shift buffer.
    """
    x = x + np.uint64(_GOLDEN)
    shifted = np.empty_like(x)
    for shift, multiplier in _SPLITMIX_ROUNDS:
        np.right_shift(x, shift, out=shifted)
        x ^= shifted
        x *= multiplier
    np.right_shift(x, np.uint64(31), out=shifted)
    x ^= shifted
    return x


def mix(*parts: int) -> int:
    """Fold integers into one 64-bit seed; order-sensitive, avalanching."""
    state = _GOLDEN
    for part in parts:
        state = splitmix64(state ^ splitmix64(part & _MASK64))
    return state


def check_seed(seed: int) -> int:
    """Return a stream seed if it is a Python int in [0, 2^64), and raise
    ValueError otherwise: ``mix`` reduces every part mod 2^64, so seeds -1
    and 2^64 - 1 would hold one key stream; a numpy int overflows ``mix``,
    and a bool would be written as true."""
    if type(seed) is not int:
        raise ValueError(f"seed must be an int, not {type(seed).__name__}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), not {seed!r}")
    return seed


@functools.lru_cache(maxsize=16)
def _key_seed_prefix(master_seed: int) -> int:
    """``mix(master_seed, TAG_KEY)``, the part of every key seed of a stream
    that does not depend on the context."""
    return mix(master_seed, TAG_KEY)


def key_seed(master_seed: int, prev_token: int) -> int:
    """Seed of the pseudo-random key at a position, from its predecessor token.

    Context window is a single token; the first position passes
    CONTEXT_SENTINEL. Anyone holding the master seed can recompute this from
    the token sequence alone. The value is ``mix(master_seed, TAG_KEY,
    prev_token + 1)``; ``mix`` folds its parts in order, so the context folds
    last onto the cached ``_key_seed_prefix`` of the master seed.
    """
    return splitmix64(_key_seed_prefix(master_seed) ^ splitmix64((prev_token + 1) & _MASK64))


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


# ---------------------------------------------------------------------------
# Keys from keyed hashes
# ---------------------------------------------------------------------------

# splitmix64 of the tags t = 1, 2, 3 that key the hashes of an affine key's
# u, c and a. Gumbel coordinate w takes tag 4 + w, so no two hashes of one
# seed share a tag.
_AFFINE_TAGS = tuple(splitmix64(tag) for tag in (1, 2, 3))
_AFFINE_TAG_ROWS = np.array(_AFFINE_TAGS, dtype=np.uint64)


def unit(h):
    """The uniform of a 64-bit hash (an int or a uint64 array):
    ((h >> 12) + 0.5) 2^-52. Every point of this half-shifted 2^52 grid is a
    float64, so the value lies strictly inside (0, 1) and logs stay finite.
    An array is converted to float once, then shifted and scaled in place;
    each step is exact, so both forms give the same bits.
    """
    if not isinstance(h, np.ndarray):
        return ((h >> 12) + 0.5) * 2.0**-52
    out = (h >> np.uint64(12)).astype(np.float64)
    out += 0.5
    out *= 2.0**-52
    return out


def mulhi(h: np.ndarray, m) -> np.ndarray:
    """floor(h * m / 2^64) for a uint64 array h and multipliers m < 2^32
    (an int, or a uint64 array that broadcasts against h).

    With h = hi * 2^32 + lo, floor(h m / 2^64) = (hi m + (lo m >> 32)) >> 32
    exactly, since floor((A + r) / N) = floor((A + floor(r)) / N) for
    integers A and N. Every partial product fits in 64 bits: hi m and lo m
    are below 2^64 - 2^32 and their sum below (2^32 - 1) 2^32, so nothing
    wraps.
    """
    m = np.asarray(m, dtype=np.uint64)
    out = h >> np.uint64(32)
    out *= m
    low = h & _U32
    low *= m
    low >>= np.uint64(32)
    out += low
    out >>= np.uint64(32)
    return out


@functools.lru_cache(maxsize=16)
def coordinate_tags(vocab_size: int) -> np.ndarray:
    """splitmix64 of the tag 4 + w of each gumbel coordinate w < V, as uint64:
    coordinate w of a seed's key is ``unit(splitmix64(seed ^ tags[w]))``.
    Built once per V into one read-only array that every caller shares."""
    tags = splitmix64_array(np.arange(4, 4 + vocab_size, dtype=np.uint64))
    tags.flags.writeable = False
    return tags


@functools.lru_cache(maxsize=16)
def units_mod(vocab_size: int) -> np.ndarray:
    """The residues in 0..V-1 coprime to V, ascending: the multipliers a for
    which w -> (a*w + c) mod V is a permutation. Built once per V into one
    read-only array that every caller shares."""
    residues = np.arange(vocab_size, dtype=np.int64)
    units = residues[np.gcd(residues, vocab_size) == 1]
    units.flags.writeable = False
    return units


def affine_key(seed: int, vocab_size: int, units: np.ndarray) -> tuple[float, int, int]:
    """The (u, a, c) of a key seed: u = unit(h_1),
    c = floor(h_2 V / 2^64) and a = units[floor(h_3 |units| / 2^64)], where
    h_t = splitmix64(seed ^ splitmix64(t)) and ``units = units_mod(V)``."""
    h_u, h_c, h_a = (splitmix64(seed ^ tag) for tag in _AFFINE_TAGS)
    return unit(h_u), int(units[h_a * units.size >> 64]), h_c * vocab_size >> 64


def affine_keys(seeds, vocab_size: int, units: np.ndarray):
    """``affine_key`` of each seed in a uint64 array, as (u, a, c) arrays.

    One ``splitmix64_array`` call hashes the seeds against all three tags,
    stacked as the rows of a (3, *seeds.shape) array, and one ``mulhi``
    call scales h_2 by V and h_3 by |units| (both below 2^32).
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    rows = (3,) + (1,) * seeds.ndim
    hashes = splitmix64_array(seeds ^ _AFFINE_TAG_ROWS.reshape(rows))
    scales = np.array([vocab_size, units.size], dtype=np.uint64).reshape((2,) + rows[1:])
    c, index = mulhi(hashes[1:], scales).astype(np.int64)
    return unit(hashes[0]), units[index], c
