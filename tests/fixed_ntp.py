"""A deterministic NTP model for tests that check something other than the
NTP law: position i reads vector ``i mod len(vectors)``.

``generate_stream`` calls only ``sample`` and ``null_tokens`` of its NTP
model, so a ``StreamSpec`` takes a ``FixedNtp`` where it takes a
``wmseg.streams.NtpModel``. The vectors are not validated: generation checks
the rows ``sample`` returns (``schemes.check_decodable``).
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FixedNtp:
    vectors: tuple[tuple[float, ...], ...]

    def sample(self, rng, vocab_size: int, positions) -> np.ndarray:
        """The vector of each position, as rows; draws nothing from ``rng``."""
        vectors = np.asarray(self.vectors, dtype=float)
        return vectors[np.asarray(positions, dtype=np.int64) % len(vectors)]

    def null_tokens(self, rng: np.random.Generator, vocab_size: int, positions) -> np.ndarray:
        """Each position's token by inverse CDF of its vector: the first index
        whose cumulative mass reaches one ``rng.random`` uniform times the
        vector's total, one uniform per position, in order, clipped to V - 1."""
        which = np.asarray(positions, dtype=np.int64) % len(self.vectors)
        cdfs = np.cumsum(np.asarray(self.vectors, dtype=float), axis=1)
        targets = rng.random(which.size) * cdfs[which, -1]
        tokens = np.empty(which.size, dtype=np.int64)
        for j, cdf in enumerate(cdfs):  # one cdf per vector, not a row per position
            at = which == j
            tokens[at] = np.searchsorted(cdf, targets[at], side="left")
        return np.minimum(tokens, vocab_size - 1)
