"""Deterministic seed derivation and RNG plumbing.

All randomness in the package flows from 64-bit seeds mixed with splitmix64,
so every run is exactly reproducible and verifier-side key reconstruction
only needs the token sequence and the master seed.
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
TAG_BENCH = 0x06

# Context token used to derive the key of the first position (no predecessor).
CONTEXT_SENTINEL = -1


def splitmix64(x: int) -> int:
    """One round of the splitmix64 mixer (acts on the low 64 bits of x)."""
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


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


def generator(seed: int) -> np.random.Generator:
    """PCG64 generator for a derived 64-bit seed."""
    return np.random.Generator(np.random.PCG64(seed))


def uniform_open(rng: np.random.Generator, size=None):
    """Uniform draws strictly inside (0, 1).

    Half-shifted 53-bit grid: never returns 0.0 or 1.0, so downstream
    log-transforms stay finite.
    """
    return (rng.integers(0, 1 << 53, size=size) + 0.5) * 2.0**-53
