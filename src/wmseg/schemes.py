"""Watermarking schemes: decoders, pivot statistics and score functions.

Each scheme couples a token choice to a pseudo-random key so that, on
unwatermarked positions (token independent of key), the pivot follows a
fixed null law, while on watermarked positions the scored pivot has an
elevated mean. Supported schemes:

* ``gumbel``     — exponential-race decoder ``argmax_w log(U_w)/P_w``;
                   pivot is the winning coordinate ``U_token`` (null law
                   Uniform(0,1)); score ``h(y) = -log(1-y)`` (null law Exp(1),
                   null mean 1).
* ``inverse``    — inverse-CDF decoder over a permuted vocabulary; pivot is
                   ``|U - rank(token)/(V-1)|``; score ``h(y) = 1 - y`` (null
                   mean 2/3 as V grows).
* ``red_green``  — sampling from the NTP re-weighted by ``exp(bias)`` on a
                   key-selected green subset; pivot is the green-membership
                   indicator (null mean = green fraction); score is identity.

Decoders are deterministic functions of (probs, key, params); all sampling
randomness lives inside the key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.special import digamma

from .keys import generator, uniform_open

GUMBEL = "gumbel"
INVERSE = "inverse"
RED_GREEN = "red_green"
SCHEME_IDS = (GUMBEL, INVERSE, RED_GREEN)


class InvalidDistribution(ValueError):
    """Raised when a next-token probability vector is unusable."""


def validate_probs(probs: np.ndarray, atol: float = 1e-9) -> np.ndarray:
    """Check a probability vector: nonnegative entries summing to 1."""
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 1 or probs.size == 0:
        raise InvalidDistribution("probability vector must be 1-D and nonempty")
    if np.any(probs < 0):
        raise InvalidDistribution("negative probability entry")
    total = float(probs.sum())
    if total <= 0.0:
        raise InvalidDistribution("all-zero probability vector")
    if abs(total - 1.0) > atol:
        raise InvalidDistribution(f"probabilities sum to {total!r}, not 1")
    return probs


def check_tokens(tokens, vocab_size: int) -> None:
    """Raise IndexError unless every token lies in [0, vocab_size).

    Array pivots index key arrays with the tokens, and numpy would silently
    wrap a negative index, so this runs before any gather.
    """
    if np.ndim(tokens) == 0:
        if not 0 <= tokens < vocab_size:
            raise IndexError(f"token {tokens} outside vocabulary of {vocab_size}")
        return
    tokens = np.asarray(tokens)
    if tokens.size and (tokens.min() < 0 or tokens.max() >= vocab_size):
        bad = tokens[(tokens < 0) | (tokens >= vocab_size)][0]
        raise IndexError(f"token {bad} outside vocabulary of {vocab_size}")


def _float_or_array(token, pivot):
    """A float for a scalar token, a float array for an array of tokens."""
    return float(pivot) if np.ndim(token) == 0 else pivot.astype(float, copy=False)


# ---------------------------------------------------------------------------
# Pseudo-random keys
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GumbelKey:
    """One uniform in (0,1) per vocabulary entry."""

    uniforms: np.ndarray


@dataclass(frozen=True)
class InverseKey:
    """A single uniform plus a permutation; perm[w] is the rank of token w."""

    u: float
    perm: np.ndarray


@dataclass(frozen=True)
class RedGreenKey:
    """Green-subset membership mask plus the sampling uniform."""

    green: np.ndarray
    u: float


PseudoKey = Union[GumbelKey, InverseKey, RedGreenKey]


def gumbel_key(seed: int, vocab_size: int) -> GumbelKey:
    return GumbelKey(uniforms=uniform_open(generator(seed), vocab_size))


def inverse_key(seed: int, vocab_size: int) -> InverseKey:
    rng = generator(seed)
    u = float(uniform_open(rng))
    return InverseKey(u=u, perm=rng.permutation(vocab_size))


def red_green_key(seed: int, vocab_size: int, green_frac: float) -> RedGreenKey:
    n_green = green_subset_size(vocab_size, green_frac)
    rng = generator(seed)
    green = np.zeros(vocab_size, dtype=bool)
    green[rng.permutation(vocab_size)[:n_green]] = True
    return RedGreenKey(green=green, u=float(uniform_open(rng)))


def green_subset_size(vocab_size: int, green_frac: float) -> int:
    if not 0.0 < green_frac < 1.0:
        raise ValueError("green fraction must lie in (0, 1)")
    n_green = math.floor(green_frac * vocab_size)
    if n_green < 1:
        raise ValueError("green subset would be empty; increase vocab or fraction")
    return n_green


# ---------------------------------------------------------------------------
# Gumbel scheme
# ---------------------------------------------------------------------------


def gumbel_decode(probs: np.ndarray, key: GumbelKey) -> int:
    """Token maximizing log(U_w)/P_w; zero-probability tokens never win.

    Ties break toward the lowest token index (measure-zero under continuous
    keys, but keeps the decoder a pure function).
    """
    probs = np.asarray(probs, dtype=float)
    if np.any(probs < 0):
        raise InvalidDistribution("negative probability entry")
    if not np.any(probs > 0):
        raise InvalidDistribution("all-zero probability vector")
    ratios = np.full(probs.shape, -np.inf)
    live = probs > 0
    ratios[live] = np.log(key.uniforms[live]) / probs[live]
    return int(np.argmax(ratios))


def gumbel_pivot(token, key: GumbelKey, check: bool = True):
    """The uniform coordinate of the emitted token.

    Accepts one token (returns a float) or an array of tokens under the same
    key (returns an array). ``check=False`` skips the vocabulary bounds
    check, for callers that checked the whole sequence once already.
    """
    if check:
        check_tokens(token, key.uniforms.size)
    return _float_or_array(token, key.uniforms[token])


def gumbel_score(y):
    """h(y) = -log(1 - y) on [0, 1); Exp(1) under the null.

    Out-of-domain values raise instead of being clipped: a pivot outside
    [0, 1) always indicates a generator bug.
    """
    arr = np.asarray(y, dtype=float)
    if np.any(arr < 0.0) or np.any(arr >= 1.0):
        raise ValueError("gumbel score domain is [0, 1)")
    out = -np.log1p(-arr)
    return float(out) if np.isscalar(y) or arr.ndim == 0 else out


def gumbel_watermarked_score_mean(probs: np.ndarray) -> float:
    """Exact mean of the scored pivot when decoding a given NTP.

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


# ---------------------------------------------------------------------------
# Inverse-transform scheme
# ---------------------------------------------------------------------------


def _check_perm(perm: np.ndarray) -> np.ndarray:
    perm = np.asarray(perm)
    if perm.ndim != 1 or not np.array_equal(np.sort(perm), np.arange(perm.size)):
        raise ValueError("key permutation is not a bijection on the vocabulary")
    return perm


def inverse_decode(probs: np.ndarray, key: InverseKey) -> int:
    """Generalized-inverse sampling through the key's permuted CDF.

    Returns the token whose rank is the smallest index at which the
    rank-ordered cumulative mass reaches the key uniform.
    """
    probs = np.asarray(probs, dtype=float)
    perm = _check_perm(key.perm)
    if probs.shape != perm.shape:
        raise InvalidDistribution("probability vector and permutation size differ")
    if np.any(probs < 0) or not np.any(probs > 0):
        raise InvalidDistribution("invalid probability vector")
    by_rank = np.empty_like(probs)
    by_rank[perm] = probs
    cdf = np.cumsum(by_rank)
    rank = min(int(np.searchsorted(cdf, key.u, side="left")), probs.size - 1)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)
    return int(inv[rank])


def inverse_pivot(token, key: InverseKey, check: bool = True):
    """|U - eta(rank)| with eta spreading ranks evenly over [0, 1].

    Accepts one token (returns a float) or an array of tokens under the same
    key (returns an array); ``check`` as in ``gumbel_pivot``.
    """
    perm = key.perm
    vocab = perm.size
    if vocab < 2:
        raise ValueError("inverse pivot needs a vocabulary of at least 2")
    if check:
        check_tokens(token, vocab)
    eta = perm[token] / (vocab - 1)
    return _float_or_array(token, np.abs(key.u - eta))


def inverse_score(y):
    """h(y) = 1 - y; larger means the token hugged its key uniform."""
    arr = np.asarray(y, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError("inverse score domain is [0, 1]")
    out = 1.0 - arr
    return float(out) if np.isscalar(y) or arr.ndim == 0 else out


def inverse_null_score_mean(vocab_size: int) -> float:
    """Exact null mean of 1 - |U - G/(V-1)| with G uniform on the rank grid.

    Converges to 2/3 as the vocabulary grows; the 2/3 convention used for
    the series null mean is accurate to ~1/(3V).
    """
    if vocab_size < 2:
        raise ValueError("vocabulary must have at least 2 entries")
    return 1.0 - (2 * vocab_size - 1) / (6.0 * (vocab_size - 1))


def inverse_null_pivot_cdf(y, vocab_size: int):
    """CDF of the null pivot |U - G/(V-1)|, G uniform on {0,...,V-1}/(V-1)."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    grid = np.arange(vocab_size) / (vocab_size - 1)
    hi = np.minimum(grid[None, :] + y[:, None], 1.0)
    lo = np.maximum(grid[None, :] - y[:, None], 0.0)
    out = np.clip(hi - lo, 0.0, None).mean(axis=1)
    return out if out.size > 1 else float(out[0])


# ---------------------------------------------------------------------------
# Red-green scheme
# ---------------------------------------------------------------------------


def red_green_decode(probs: np.ndarray, key: RedGreenKey, bias: float) -> int:
    """Sample from the NTP re-weighted by exp(bias) on the green subset.

    bias = 0 reproduces the NTP exactly; the draw itself comes from the
    key's uniform, keeping the decoder deterministic given (probs, key).
    """
    if bias < 0:
        raise ValueError("bias must be nonnegative")
    probs = np.asarray(probs, dtype=float)
    if probs.shape != key.green.shape:
        raise InvalidDistribution("probability vector and green mask size differ")
    if np.any(probs < 0) or not np.any(probs > 0):
        raise InvalidDistribution("invalid probability vector")
    weights = np.where(key.green, probs * math.exp(bias), probs)
    cdf = np.cumsum(weights)
    return min(int(np.searchsorted(cdf, key.u * cdf[-1], side="left")), probs.size - 1)


def red_green_pivot(token, key: RedGreenKey, check: bool = True):
    """Green-membership indicator; Bernoulli(green fraction) under the null.

    Accepts one token (returns a float) or an array of tokens under the same
    key (returns a float array); ``check`` as in ``gumbel_pivot``.
    """
    if check:
        check_tokens(token, key.green.size)
    return _float_or_array(token, key.green[token])


# ---------------------------------------------------------------------------
# Scored pivot sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PivotSeries:
    """Per-token scored pivots with their null mean and scheme provenance."""

    scores: np.ndarray
    null_mean: float
    scheme_id: str

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=float)
        if scores.ndim != 1 or scores.size == 0:
            raise ValueError("scores must be a nonempty 1-D array")
        object.__setattr__(self, "scores", scores)

    def __len__(self) -> int:
        return self.scores.size

    @property
    def n(self) -> int:
        return self.scores.size


# ---------------------------------------------------------------------------
# Scheme bundle used by the stream generator, calibrator and CLI
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SchemeSpec:
    """A watermarking scheme with its parameters, as used on the wire.

    ``green_frac`` and ``bias`` only matter for red_green. The score null
    law exposed by ``null_scores`` is what threshold calibration draws from.
    """

    scheme_id: str
    vocab_size: int
    green_frac: float = 0.5
    bias: float = 2.0

    def __post_init__(self):
        if self.scheme_id not in SCHEME_IDS:
            raise ValueError(f"unsupported scheme {self.scheme_id!r}")
        if self.vocab_size < 2:
            raise ValueError("vocabulary must have at least 2 entries")
        if self.scheme_id == RED_GREEN:
            green_subset_size(self.vocab_size, self.green_frac)
            if self.bias < 0:
                raise ValueError("bias must be nonnegative")

    @property
    def null_mean(self) -> float:
        if self.scheme_id == GUMBEL:
            return 1.0
        if self.scheme_id == INVERSE:
            return 2.0 / 3.0
        return green_subset_size(self.vocab_size, self.green_frac) / self.vocab_size

    def key_at(self, seed: int) -> PseudoKey:
        if self.scheme_id == GUMBEL:
            return gumbel_key(seed, self.vocab_size)
        if self.scheme_id == INVERSE:
            return inverse_key(seed, self.vocab_size)
        return red_green_key(seed, self.vocab_size, self.green_frac)

    def decode(self, probs: np.ndarray, key: PseudoKey) -> int:
        if self.scheme_id == GUMBEL:
            return gumbel_decode(probs, key)
        if self.scheme_id == INVERSE:
            return inverse_decode(probs, key)
        return red_green_decode(probs, key, self.bias)

    def pivot(self, token, key: PseudoKey, check: bool = True):
        """Pivot of one token (a float) or of a token array (an array) under
        one key; ``check=False`` skips the vocabulary bounds check."""
        if self.scheme_id == GUMBEL:
            return gumbel_pivot(token, key, check)
        if self.scheme_id == INVERSE:
            return inverse_pivot(token, key, check)
        return red_green_pivot(token, key, check)

    def score(self, y):
        if self.scheme_id == GUMBEL:
            return gumbel_score(y)
        if self.scheme_id == INVERSE:
            return inverse_score(y)
        return y  # identity score for the indicator pivot

    def pivot_score(self, token: int, key: PseudoKey) -> float:
        return float(self.score(self.pivot(token, key)))

    def null_scores(self, rng: np.random.Generator, size) -> np.ndarray:
        """Draw i.i.d. samples from the score's null law."""
        if self.scheme_id == GUMBEL:
            return rng.standard_exponential(size)
        if self.scheme_id == INVERSE:
            u = rng.random(size)
            eta = rng.integers(0, self.vocab_size, size) / (self.vocab_size - 1)
            return 1.0 - np.abs(u - eta)
        return (rng.random(size) < self.null_mean).astype(float)

    def to_json(self) -> dict:
        out = {"id": self.scheme_id, "vocab_size": self.vocab_size}
        if self.scheme_id == RED_GREEN:
            out["green_frac"] = self.green_frac
            out["bias"] = self.bias
        return out

    @classmethod
    def from_json(cls, data: dict) -> "SchemeSpec":
        return cls(
            scheme_id=data["id"],
            vocab_size=int(data["vocab_size"]),
            green_frac=float(data.get("green_frac", 0.5)),
            bias=float(data.get("bias", 2.0)),
        )
