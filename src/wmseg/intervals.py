"""Ordered disjoint token intervals (1-based, inclusive endpoints)."""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

Interval = tuple[int, int]


@dataclass(frozen=True)
class Segments:
    """An ordered set of disjoint inclusive intervals over token positions.

    Positions are 1-based everywhere outside numpy internals; ``(3, 5)``
    covers tokens 3, 4 and 5. Construction sorts, checks that every
    interval has 1 <= l <= r and only then rejects overlaps; an interval that
    is not a two-element list, tuple or array of Python or numpy integers
    raises TypeError, which ``read_fields`` reports under its key. A tuple of
    two Python ints, as the segmenter builds, is taken as is; any other pair
    is read end by end.
    """

    intervals: tuple[Interval, ...]

    def __init__(self, intervals: Iterable[Sequence[int]] = (), n: int | None = None):
        # Concrete types: an isinstance check against an ABC costs about 4x as much.
        if isinstance(intervals, (str, bytes, dict)) or not hasattr(intervals, "__iter__"):
            raise TypeError(f"{intervals!r} is not a list of [l, r] pairs")
        pairs = []
        for interval in intervals:
            if not (type(interval) is tuple and len(interval) == 2
                    and type(interval[0]) is type(interval[1]) is int):
                if not isinstance(interval, (list, tuple, np.ndarray)) or len(interval) != 2:
                    raise TypeError(f"interval {interval!r} is not an [l, r] pair")
                interval = (_end(interval[0]), _end(interval[1]))
            pairs.append(interval)
        pairs.sort()
        overlap, last = False, 0
        for left, right in pairs:
            if not 1 <= left <= right:
                raise ValueError(f"invalid interval [{left}, {right}]")
            overlap |= left <= last
            last = right
        if overlap:
            raise ValueError("intervals overlap")
        object.__setattr__(self, "intervals", tuple(pairs))
        if n is not None:
            self.check_within(n)

    def __len__(self) -> int:
        return len(self.intervals)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.intervals)

    @property
    def union_size(self) -> int:
        return sum(r - l + 1 for l, r in self.intervals)

    def check_within(self, n: int) -> "Segments":
        """Self, or ValueError if its last (sorted) interval ends past n."""
        if self.intervals and self.intervals[-1][1] > n:
            left, right = self.intervals[-1]
            raise ValueError(f"interval [{left}, {right}] exceeds n={n}")
        return self

    def mask(self, n: int) -> np.ndarray:
        """Boolean membership array of length n (index 0 is position 1); an
        interval past n raises ValueError."""
        self.check_within(n)
        out = np.zeros(n, dtype=bool)
        for left, right in self.intervals:
            out[left - 1 : right] = True
        return out

    def to_pairs(self) -> list[list[int]]:
        return [[l, r] for l, r in self.intervals]


def _end(value) -> int:
    """An interval end as a Python int: a Python or numpy integer, never a
    bool (true is no position) and never a float (100.7 is not rounded).
    Anything else raises TypeError."""
    if type(value) is int:
        return value
    if isinstance(value, np.integer):
        return int(value)
    raise TypeError(f"interval end {value!r} is not an integer")

