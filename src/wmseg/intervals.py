"""Ordered disjoint token intervals (1-based, inclusive endpoints)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

Interval = tuple[int, int]


@dataclass(frozen=True)
class Segments:
    """An ordered set of disjoint inclusive intervals over token positions.

    Positions are 1-based everywhere outside numpy internals; ``(3, 5)``
    covers tokens 3, 4 and 5. Construction sorts and rejects overlaps.
    """

    intervals: tuple[Interval, ...]

    def __init__(self, intervals: Iterable[Iterable[int]] = (), n: int | None = None):
        pairs = sorted((int(l), int(r)) for l, r in intervals)
        for left, right in pairs:
            if not 1 <= left <= right:
                raise ValueError(f"invalid interval [{left}, {right}]")
            if n is not None and right > n:
                raise ValueError(f"interval [{left}, {right}] exceeds n={n}")
        for (_, r1), (l2, _) in zip(pairs, pairs[1:]):
            if l2 <= r1:
                raise ValueError("intervals overlap")
        object.__setattr__(self, "intervals", tuple(pairs))

    def __len__(self) -> int:
        return len(self.intervals)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.intervals)

    def __bool__(self) -> bool:
        return bool(self.intervals)

    @property
    def union_size(self) -> int:
        return sum(r - l + 1 for l, r in self.intervals)

    def mask(self, n: int) -> np.ndarray:
        """Boolean membership array of length n (index 0 is position 1)."""
        out = np.zeros(n, dtype=bool)
        for left, right in self.intervals:
            out[left - 1 : right] = True
        return out

    def intersection_size(self, other: "Segments") -> int:
        total = 0
        for iv in self.intervals:
            total += interval_overlap(iv, other)
        return total

    def to_pairs(self) -> list[list[int]]:
        return [[l, r] for l, r in self.intervals]


def interval_overlap(iv: Interval, segments: Segments) -> int:
    """Number of positions of ``iv`` covered by ``segments``."""
    left, right = iv
    total = 0
    for sl, sr in segments:
        lo, hi = max(left, sl), min(right, sr)
        if lo <= hi:
            total += hi - lo + 1
        if sl > right:
            break
    return total
