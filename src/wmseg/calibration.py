"""Exact calibration of the block-sum screening threshold.

The screening stage keeps a block when its score sum exceeds a threshold
chosen so that, on a fully unwatermarked stream, the maximum block sum
exceeds it with probability at most alpha. Null scores are i.i.d., so with
m blocks of which the last holds r <= b tokens, the maximum has the CDF
F_b(q)^(m-1) F_r(q), where F_k is the scheme's CDF of a sum of k null
scores. The threshold is the smallest q at which that CDF reaches
1 - alpha. ``calibrate_threshold`` returns it as a ``ThresholdCert`` with
its calibration inputs, computed when a stream is segmented; the segmenter
screens with it and its trace records it. Bisection reads F_b and F_r only
at the points it probes, and neither is tabulated: gumbel and red_green
evaluate closed forms, and inverse sums its lattice law from the few bins
of its spectrum above 1e-16, all below a bin that the total variation of
its mass function bounds (``schemes.Inverse.block_sum_cdf``). Bisection
runs on the index j of the points j·h of the scheme's lattice (red_green's
integers, inverse's step 2^-11) up to b, at most log2(b/h) + 1 probes, and
on the bit patterns of nonnegative floats for gumbel's continuous law.
``simulate_max_block_sums`` draws the same maximum by Monte Carlo, as the
reference the exact laws are tested against.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .schemes import SchemeSpec

_CHUNK_BUDGET = 4_000_000  # draws per simulation chunk, keeps memory flat

# Defaults of calibrate_threshold, shared with the experiment plan.
DEFAULT_ALPHA = 0.05
DEFAULT_MC_REPS = 10_000


class CertMismatch(ValueError):
    """Raised when a certificate is applied to a stream it was not built for."""


@dataclass(frozen=True)
class ThresholdCert:
    """A calibrated screening threshold plus the inputs that produced it.

    ``q`` is the (1 - alpha)-quantile of the maximum block sum over
    ceil(n / block_len) blocks of i.i.d. null scores, found exactly from the
    scheme's null law.
    """

    q: float
    alpha: float
    n: int
    block_len: int
    scheme_id: str
    scheme_params: dict

    def to_json(self) -> dict:
        """The certificate, its scheme as the ``SchemeSpec`` JSON object."""
        return {"q": self.q, "alpha": self.alpha, "n": self.n, "b": self.block_len,
                "scheme": self.scheme_params}

    @functools.cached_property
    def null_mean(self) -> float:
        """The null mean of the scheme in ``scheme_params``, read once per
        certificate: a series with another null mean has another null law."""
        return SchemeSpec.from_json(self.scheme_params).null_mean


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

    ``scheme`` is anything exposing scheme_id, block_sum_cdf(k), lattice
    (the step h of the lattice its block sums lie on, or None) and
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
    last = None if last_len == block_len else scheme.block_sum_cdf(last_len)

    def cover(x: float) -> float:  # reads F_b once per probe
        f = full(x)
        return f ** (blocks - 1) * (f if last is None else last(x))

    q = _smallest_covering_q(cover, 1.0 - alpha, scheme.lattice, block_len)
    return ThresholdCert(q, alpha, n, block_len, scheme.scheme_id, scheme.to_json())


def _smallest_covering_q(cover, level: float, step: float | None, top: int) -> float:
    """The smallest q >= 0 with cover(q) >= level, by bisection of an index.

    ``cover`` is the CDF of a nonnegative maximum: nondecreasing and
    right-continuous. A law on the lattice of step ``step`` (red_green,
    inverse) steps only at its points j·step and is 1 from ``top``, the
    block length, on, so bisecting j in [0, top/step] reads each point at
    most once. For a continuous law (gumbel, ``step`` None) it bisects the
    bit patterns of nonnegative floats up to 1e300, which sort as the floats
    do, and lands on the exact float in 63 steps.

    The inverse lattice law is summed from a truncated spectrum, so it is
    nondecreasing only to within rounding: it may fall by about 1e-15
    between neighbouring lattice points. Bisection still returns a q with
    cover(q) >= level whose neighbour below falls short. That q is the
    smallest one, and does not depend on the points the search reads,
    unless level lies within about 1e-15 of cover below q. At V = 1000, n =
    10^6, b = 1000 and alpha = 1e-15 the float search gave 721.57958984375
    and this one gives 721.5693359375, both locally minimal; on the tests'
    grid of n, b and alpha >= 1e-6 the two agree to the bit.
    """
    if step is None:  # floats by their bit patterns
        point = lambda bits: struct.unpack("<d", struct.pack("<q", bits))[0]
        hi = struct.unpack("<q", struct.pack("<d", 1e300))[0]
    else:
        point, hi = (lambda j: j * step), round(top / step)
    if cover(0.0) >= level:
        return 0.0
    if step is None and not cover(point(hi)) >= level:
        raise ValueError(f"the null law does not reach coverage {level}")
    lo = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if cover(point(mid)) >= level else (mid, hi)
    return point(hi)
