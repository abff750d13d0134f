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
    covers tokens 3, 4 and 5. Construction sorts and rejects overlaps; an
    end that is not a Python or numpy integer raises TypeError.
    """

    intervals: tuple[Interval, ...]

    def __init__(self, intervals: Iterable[Iterable[int]] = (), n: int | None = None):
        pairs = sorted((_end(l), _end(r)) for l, r in intervals)
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

    def to_pairs(self) -> list[list[int]]:
        return [[l, r] for l, r in self.intervals]


def _end(value) -> int:
    """An interval end as a Python int: a Python or numpy integer, never a
    bool (true is no position) and never a float (100.7 is not rounded).
    Anything else raises TypeError, which a JSON reader (``read_fields``)
    reports under its key."""
    if type(value) is int:
        return value
    if isinstance(value, np.integer):
        return int(value)
    raise TypeError(f"interval end {value!r} is not an integer")

