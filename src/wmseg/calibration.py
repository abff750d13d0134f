"""Exact calibration of the block-sum screening threshold.

The screening stage keeps a block when its score sum exceeds a threshold
chosen so that, on a fully unwatermarked stream, the maximum block sum
exceeds it with probability at most alpha. Null scores are i.i.d., so with
m blocks of which the last holds r <= b tokens, the maximum has the CDF
F_b(q)^(m-1) F_r(q), where F_k is the scheme's CDF of a sum of k null
scores. The threshold is the smallest q at which that CDF reaches
1 - alpha; it ships as a certificate alongside its calibration inputs.
``simulate_max_block_sums`` draws the same maximum by Monte Carlo, as the
reference the exact laws are tested against.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .schemes import read_fields

_CHUNK_BUDGET = 4_000_000  # draws per simulation chunk, keeps memory flat

# Defaults of calibrate_threshold, shared by the experiment plan (both) and
# run_bench (alpha).
DEFAULT_ALPHA = 0.05
DEFAULT_MC_REPS = 10_000


class CertMismatch(ValueError):
    """Raised when a certificate is applied to a stream it was not built for."""


@dataclass(frozen=True)
class ThresholdCert:
    """A calibrated screening threshold plus the inputs that produced it.

    ``q`` is the (1 - alpha)-quantile of the maximum block sum over
    ceil(n / block_len) blocks of i.i.d. null scores. ``method`` says how it
    was found: ``"exact"`` from the scheme's null law (``mc_reps`` and
    ``seed`` are then 0, as nothing was drawn), or ``"mc"`` as an order
    statistic of ``mc_reps`` simulated maxima, which is how certificates
    without a ``method`` key were made.
    """

    q: float
    alpha: float
    n: int
    block_len: int
    scheme_id: str
    scheme_params: dict
    mc_reps: int
    seed: int
    method: str = "mc"

    def __post_init__(self):
        if self.method not in ("exact", "mc"):
            raise ValueError(f"certificate method {self.method!r} is neither 'exact' nor 'mc'")

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
            "method": self.method,
        }

    @classmethod
    def from_json(cls, data: dict) -> "ThresholdCert":
        """Read ``to_json`` output; an unknown or missing key, or a ``scheme``
        other than the id in ``scheme_params``, raises ValueError. Without a
        ``method`` key the certificate reads as ``"mc"``."""
        readers = {"q": float, "alpha": float, "n": int, "b": int, "scheme": str,
                   "scheme_params": dict, "mc_reps": int, "seed": int, "method": str}
        fields = read_fields(data, readers, "certificate",
                             required=[key for key in readers if key != "method"])
        fields["block_len"], fields["scheme_id"] = fields.pop("b"), fields.pop("scheme")
        if fields["scheme_id"] != fields["scheme_params"].get("id"):
            raise ValueError(f"certificate scheme {fields['scheme_id']!r} differs from its "
                             f"scheme_params {fields['scheme_params']}")
        return cls(**fields)

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
    """Maximum block sum of n i.i.d. null scores, repeated reps times.

    Calibration does not draw; this is the Monte Carlo reference that the
    exact laws are tested against."""
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
    alpha: float = DEFAULT_ALPHA,
    mc_reps: int = DEFAULT_MC_REPS,
    seed: int = 0,
) -> ThresholdCert:
    """Calibrate the screening threshold from the scheme's exact null law.

    ``scheme`` is anything exposing scheme_id, block_sum_cdf(k) and
    to_json() — normally a SchemeSpec. ``mc_reps`` and ``seed`` do not
    change q; they are accepted for callers that still pass them.
    """
    if not 1 <= block_len <= n:
        raise ValueError("block length must lie in [1, n]")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    blocks = math.ceil(n / block_len)
    last_len = n - (blocks - 1) * block_len
    full = scheme.block_sum_cdf(block_len)
    last = full if last_len == block_len else scheme.block_sum_cdf(last_len)
    q = _smallest_covering_q(lambda x: full(x) ** (blocks - 1) * last(x), 1.0 - alpha)
    return ThresholdCert(q, alpha, n, block_len, scheme.scheme_id, scheme.to_json(),
                         mc_reps=0, seed=0, method="exact")


def _smallest_covering_q(cover, level: float) -> float:
    """The smallest float q >= 0 with cover(q) >= level.

    ``cover`` is the CDF of a nonnegative maximum: nondecreasing and
    right-continuous, continuous (gumbel) or a step function (red_green,
    the inverse lattice). Nonnegative floats sort as their bit patterns, so
    bisecting the patterns lands on the exact float in 63 steps, at a jump
    of a step CDF as well as at the root of a continuous one.
    """
    if cover(0.0) >= level:
        return 0.0
    def as_float(bits: int) -> float:
        return float(np.int64(bits).view(np.float64))

    lo, hi = 0, int(np.float64(1e300).view(np.int64))
    if not cover(as_float(hi)) >= level:
        raise ValueError(f"the null law does not reach coverage {level}")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if cover(as_float(mid)) >= level else (mid, hi)
    return as_float(hi)
