"""Deterministic seed derivation and key material.

All randomness in the package flows from 64-bit seeds mixed with splitmix64,
so every run is exactly reproducible and verifier-side key reconstruction
only needs the token sequence and the master seed. ``key_seed`` gives the
seed of a position's key; ``key_seeds`` is the same over an array of
contexts.

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
  h_3 and ``affine_keys`` does the same over an array of seeds. ``c`` is
  the high word of a 64x64-bit product, so it is uniform on 0..V-1 to
  within 2^-64 per value, and so is the rank of any fixed token, whatever
  ``a``. A pivot's null law, which depends on one token's rank alone, is
  thus that of a uniformly drawn permutation.
"""

from __future__ import annotations

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


# ---------------------------------------------------------------------------
# Keys from keyed hashes
# ---------------------------------------------------------------------------

# splitmix64 of the tags t = 1, 2, 3 that key the hashes of an affine key's
# u, c and a. Gumbel coordinate w takes tag 4 + w, so no two hashes of one
# seed share a tag.
_AFFINE_TAGS = tuple(splitmix64(tag) for tag in (1, 2, 3))


def unit(h):
    """The uniform of a 64-bit hash (an int or a uint64 array):
    ((h >> 12) + 0.5) 2^-52. Every point of this half-shifted 2^52 grid is a
    float64, so the value lies strictly inside (0, 1) and logs stay finite.
    """
    return ((h >> 12) + 0.5) * 2.0**-52


def _mulhi64(x, y):
    """High 64 bits of the 128-bit products x * y (x an array)."""
    x0, x1, y0, y1 = x & _U32, x >> np.uint64(32), y & _U32, y >> np.uint64(32)
    p01, p10 = x0 * y1, x1 * y0
    mid = ((x0 * y0) >> np.uint64(32)) + (p01 & _U32) + (p10 & _U32)
    return x1 * y1 + (p01 >> np.uint64(32)) + (p10 >> np.uint64(32)) + (mid >> np.uint64(32))


def coordinate_tags(vocab_size: int) -> np.ndarray:
    """splitmix64 of the tag 4 + w of each gumbel coordinate w < V, as uint64:
    coordinate w of a seed's key is ``unit(splitmix64(seed ^ tags[w]))``."""
    return splitmix64_array(np.arange(4, 4 + vocab_size, dtype=np.uint64))


def units_mod(vocab_size: int) -> np.ndarray:
    """The residues in 0..V-1 coprime to V, ascending: the multipliers a for
    which w -> (a*w + c) mod V is a permutation."""
    residues = np.arange(vocab_size, dtype=np.int64)
    return residues[np.gcd(residues, vocab_size) == 1]


def affine_key(seed: int, vocab_size: int, units: np.ndarray) -> tuple[float, int, int]:
    """The (u, a, c) of a key seed: u = unit(h_1),
    c = floor(h_2 V / 2^64) and a = units[floor(h_3 |units| / 2^64)], where
    h_t = splitmix64(seed ^ splitmix64(t)) and ``units = units_mod(V)``."""
    h_u, h_c, h_a = (splitmix64(seed ^ tag) for tag in _AFFINE_TAGS)
    return unit(h_u), int(units[h_a * units.size >> 64]), h_c * vocab_size >> 64


def affine_keys(seeds, vocab_size: int, units: np.ndarray):
    """``affine_key`` of each seed in a uint64 array, as (u, a, c) arrays."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    h_u, h_c, h_a = (splitmix64_array(seeds ^ np.uint64(tag)) for tag in _AFFINE_TAGS)
    a = units[_mulhi64(h_a, np.uint64(units.size)).astype(np.int64)]
    return unit(h_u), a, _mulhi64(h_c, np.uint64(vocab_size)).astype(np.int64)
