"""Monte Carlo calibration of the block-sum screening threshold.

The screening stage keeps a block when its score sum exceeds a threshold
chosen so that, on a fully unwatermarked stream, the maximum block sum
exceeds it with probability alpha. Because every scheme's score null law is
known in closed form, the threshold is calibrated by direct simulation and
shipped as a certificate alongside its calibration inputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .keys import TAG_CALIBRATION, generator, mix
from .schemes import SchemeSpec

_CHUNK_BUDGET = 4_000_000  # draws per simulation chunk, keeps memory flat


class CertMismatch(ValueError):
    """Raised when a certificate is applied to a stream it was not built for."""


@dataclass(frozen=True)
class ThresholdCert:
    """A calibrated screening threshold plus the inputs that produced it.

    ``q`` is the empirical (1 - alpha)-quantile, taken as the order
    statistic at the (conservative) ceiling index, of the maximum block sum
    over ceil(n / block_len) blocks of i.i.d. null scores.
    """

    q: float
    alpha: float
    n: int
    block_len: int
    scheme_id: str
    scheme_params: dict
    mc_reps: int
    seed: int

    @property
    def quantile_level(self) -> float:
        return 1.0 - self.alpha

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "alpha": self.alpha,
            "n": self.n,
            "b": self.block_len,
            "scheme": self.scheme_id,
            "scheme_params": self.scheme_params,
            "mc_reps": self.mc_reps,
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, data: dict) -> "ThresholdCert":
        return cls(
            q=float(data["q"]),
            alpha=float(data["alpha"]),
            n=int(data["n"]),
            block_len=int(data["b"]),
            scheme_id=str(data["scheme"]),
            scheme_params=dict(data["scheme_params"]),
            mc_reps=int(data["mc_reps"]),
            seed=int(data["seed"]),
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=2) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "ThresholdCert":
        return cls.from_json(json.loads(Path(path).read_text(encoding="utf-8")))


def block_starts(n: int, block_len: int) -> np.ndarray:
    """0-based start offsets of consecutive blocks; the last may be short."""
    return np.arange(0, n, block_len)


def simulate_max_block_sums(
    scheme, n: int, block_len: int, reps: int, rng: np.random.Generator
) -> np.ndarray:
    """Maximum block sum of n i.i.d. null scores, repeated reps times."""
    starts = block_starts(n, block_len)
    rows_per_chunk = max(1, _CHUNK_BUDGET // n)
    maxima = np.empty(reps, dtype=float)
    done = 0
    while done < reps:
        rows = min(rows_per_chunk, reps - done)
        draws = scheme.null_scores(rng, (rows, n))
        sums = np.add.reduceat(draws, starts, axis=1)
        maxima[done : done + rows] = sums.max(axis=1)
        done += rows
    return maxima


def calibrate_threshold(
    scheme,
    n: int,
    block_len: int,
    alpha: float,
    mc_reps: int = 10_000,
    seed: int = 0,
) -> ThresholdCert:
    """Calibrate the screening threshold for a scheme's score null law.

    ``scheme`` is anything exposing scheme_id, null_scores(rng, size) and
    to_json() — normally a SchemeSpec. Certified pipeline use expects
    mc_reps >= 10^4.
    """
    if not 1 <= block_len <= n:
        raise ValueError("block length must lie in [1, n]")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if mc_reps < 1:
        raise ValueError("mc_reps must be positive")
    rng = generator(mix(seed, TAG_CALIBRATION))
    maxima = simulate_max_block_sums(scheme, n, block_len, mc_reps, rng)
    maxima.sort()
    # Exact ceiling of (1 - alpha) * mc_reps; Fraction avoids the float
    # product landing an ulp above an integer and shifting the index.
    rank = math.ceil((1 - Fraction(alpha)) * mc_reps)
    rank = min(max(rank, 1), mc_reps)
    return ThresholdCert(
        q=float(maxima[rank - 1]),
        alpha=alpha,
        n=n,
        block_len=block_len,
        scheme_id=scheme.scheme_id,
        scheme_params=scheme.to_json(),
        mc_reps=mc_reps,
        seed=seed,
    )


def null_fpr_estimate(
    cert: ThresholdCert, reps: int, seed: int, scheme=None
) -> float:
    """Fraction of fresh null streams whose max block sum exceeds the cert's
    threshold; validates that the certificate holds its alpha level."""
    if reps < 1_000:
        raise ValueError("need at least 10^3 replications for a usable estimate")
    if scheme is None:
        scheme = SchemeSpec.from_json(cert.scheme_params)
    rng = generator(mix(seed, TAG_CALIBRATION, 1))
    maxima = simulate_max_block_sums(scheme, cert.n, cert.block_len, reps, rng)
    return float(np.mean(maxima > cert.q))
