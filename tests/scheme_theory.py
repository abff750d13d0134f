"""Closed forms of the schemes' laws that only the tests compare against,
the probability-vector check they take, the open-interval uniform draws of
their Monte Carlo checks, and the one-row inverse CDF that red_green's
decoder is held to."""

import math

import numpy as np
from scipy.special import digamma

from wmseg.schemes import InvalidDistribution


def validate_probs(probs: np.ndarray) -> np.ndarray:
    """Check a probability vector: finite nonnegative entries summing to 1
    within 1e-9."""
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 1 or probs.size == 0:
        raise InvalidDistribution("probability vector must be 1-D and nonempty")
    if not np.isfinite(probs).all():  # a NaN passes every comparison below
        raise InvalidDistribution("non-finite probability entry")
    if np.any(probs < 0):
        raise InvalidDistribution("negative probability entry")
    total = float(probs.sum())
    if abs(total - 1.0) > 1e-9:
        raise InvalidDistribution(f"probabilities sum to {total!r}, not 1")
    return probs


def uniform_open(rng: np.random.Generator, size=None):
    """Uniform draws strictly inside (0, 1), on the half-shifted 2^52 grid
    of ``keys.unit``, so logs stay finite."""
    return (rng.integers(0, 1 << 52, size=size) + 0.5) * 2.0**-52


def inverse_cdf_1d(weights, u: float) -> int:
    """The first index whose cumulative weight reaches ``u`` times the
    total, clipped to the last index, by binary search on one row."""
    cdf = np.cumsum(weights)
    return min(int(np.searchsorted(cdf, u * cdf[-1], side="left")), cdf.size - 1)


def gumbel_watermarked_score_mean(probs: np.ndarray) -> float:
    """Exact mean of the scored Gumbel pivot when decoding a given NTP.

    Closed form: sum_w P_w * (digamma(1/P_w + 1) + euler_gamma), equal to the
    series sum_{n>=1} (1/n - sum_w P_w/(n + 1/P_w)).
    """
    probs = validate_probs(probs)
    live = probs[probs > 0]
    return float(np.sum(live * (digamma(1.0 / live + 1.0) + np.euler_gamma)))


def capped_extremal_probs(delta: float) -> np.ndarray:
    """The probability vector minimizing the watermarked score mean under a
    max-probability cap of 1 - delta: as many entries as possible at the cap
    plus one remainder entry."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    q = 1.0 - delta
    m = math.floor(1.0 / q + 1e-12)
    r = 1.0 - q * m
    coords = [q] * m
    if r > 1e-12:
        coords.append(r)
    return np.asarray(coords)


def gumbel_separation_lower_bound(delta: float, tol: float = 1e-10) -> float:
    """Guaranteed elevation of the mean Gumbel score over its null mean 1,
    valid for every NTP whose largest probability is at most 1 - delta.

    Evaluates the per-coordinate series sum_{n>=1} 1/(n (n + 1/p)) at the
    extremal capped vector, truncating once the integral-sandwich tail bound
    drops below ``tol`` and adding the midpoint tail estimate.
    """
    coords = capped_extremal_probs(delta)
    values, counts = np.unique(coords, return_counts=True)
    budget = tol / max(1, len(values))
    total = 0.0
    for p, count in zip(values, counts):
        total += count * _coordinate_series(1.0 / p, budget)
    return total - 1.0


def _coordinate_series(a: float, tol: float) -> float:
    """sum_{n>=1} 1/(n(n+a)) with truncation error below tol."""
    # Tail sandwich: integral from N+1 <= tail <= integral from N, and the
    # gap shrinks like 1/N^2, so N ~ 1/sqrt(tol) suffices.
    n_terms = max(1024, int(math.ceil(math.sqrt(1.0 / tol))))
    k = np.arange(1, n_terms + 1, dtype=float)
    partial = float(np.sum(1.0 / (k * (k + a))))
    hi = math.log1p(a / n_terms) / a
    lo = math.log1p(a / (n_terms + 1)) / a
    return partial + 0.5 * (hi + lo)


def inverse_null_pivot_cdf(y, vocab_size: int):
    """CDF of the null pivot |U - G/(V-1)|, G uniform on {0,...,V-1}/(V-1)."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    grid = np.arange(vocab_size) / (vocab_size - 1)
    hi = np.minimum(grid[None, :] + y[:, None], 1.0)
    lo = np.maximum(grid[None, :] - y[:, None], 0.0)
    out = np.clip(hi - lo, 0.0, None).mean(axis=1)
    return out if out.size > 1 else float(out[0])
