"""Watermarking schemes: one class per scheme, each with one null law.

A scheme couples a token choice to a pseudo-random key so that, on
unwatermarked positions (token independent of key), the scored pivot
follows a fixed null law, while on watermarked positions its mean is
elevated. Each scheme class holds its key (derived from a 64-bit key
seed), how the pivots of a token array come from per-position key seeds in
array operations, its decoder, pivot, score, a sampler for the score's null
law, the CDF of a sum of k null scores, and the exact mean of that same law:

* ``Gumbel``    — exponential-race decoder ``argmax_w log(U_w)/P_w``; the
                  pivot is the winning coordinate ``U_token`` (Uniform(0,1)
                  under the null); score ``h(y) = -log(1-y)``, so the null
                  law is Exp(1) with mean 1.
* ``Inverse``   — inverse-CDF decoder over a permuted vocabulary; the pivot
                  is ``|U - rank(token)/(V-1)|`` with the rank uniform on
                  the V-point grid under the null; score ``h(y) = 1 - y``,
                  with null mean exactly ``1 - (2V-1)/(6(V-1))``. A block
                  sum's CDF is that of the scores rounded up onto a
                  lattice of step 2^-11, summed at each point asked for
                  from the few bins of its spectrum above 1e-16, all of
                  them below a bin that the mass function's total
                  variation bounds.
* ``RedGreen``  — sampling from the NTP re-weighted by ``exp(bias)`` on a
                  key-selected green subset of ``floor(green_frac * V)``
                  tokens; the pivot is the green-membership indicator,
                  Bernoulli(|G|/V) under the null; the score is identity,
                  so a block of k null scores sums to a Binomial(k, |G|/V).

Every key is read from keyed splitmix64 hashes of its 64-bit key seed
(``keys``). A gumbel key is V uniforms, coordinate w hashed under its own
tag, so a token drawn independently of the key reads a Uniform(0,1)
coordinate. An inverse or red_green key is a uniform ``u`` and a keyed
affine permutation: token w has rank ``(a*w + c) mod V``, where ``u``, the
unit ``a`` and the shift ``c`` come from three more hashes
(``keys.affine_key``). Inverse decodes through the ranks and red_green's
green subset is the tokens of rank below ``floor(green_frac * V)``. Under
the null a token's rank is uniform on 0..V-1 to within 2^-64, as under a
uniformly drawn permutation, so the null laws above hold.

``SchemeSpec`` is the scheme as named on the wire (id plus parameters) and
forwards every operation to its scheme's class. Decoders are deterministic
functions of (probs, key, params); all sampling randomness lives inside the
key. A scheme's ``decoder(seed)`` does the work of one key once (gumbel's V
logs, inverse's token of each rank, red_green's weight scale), then decodes rows.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.fft import next_fast_len
from scipy.special import bdtr, gammainc

from .keys import affine_key, affine_keys, coordinate_tags, splitmix64_array, unit, units_mod

# Lattice step h onto which Inverse.block_sum_cdf rounds each null score up.
INVERSE_STEP = 2.0 ** -11
# Inverse.block_sum_cdf drops the spectrum bins of a block sum below this.
INVERSE_BAND_EPS = 1e-16


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
    tokens = np.asarray(tokens)
    if tokens.size and (tokens.min() < 0 or tokens.max() >= vocab_size):
        bad = tokens[(tokens < 0) | (tokens >= vocab_size)][0]
        raise IndexError(f"token {bad} outside vocabulary of {vocab_size}")


def check_keys(data: dict, known, what: str, required=()) -> None:
    """Raise ValueError naming every key of ``data`` not in ``known``, so a
    misspelled key is an error rather than a silent fall-back to a default,
    and every ``required`` key that ``data`` lacks; and ValueError if
    ``data`` is not a JSON object at all."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(data).__name__}")
    for problem, keys in (("unknown", sorted(set(data) - set(known))),
                          ("missing", [key for key in required if key not in data])):
        if keys:
            raise ValueError(f"{problem} {what} key(s): {', '.join(map(repr, keys))}")


def read_fields(data: dict, readers: dict, what: str, required=()) -> dict:
    """Each key of ``data`` converted by its reader; unknown keys, missing
    ``required`` keys and a TypeError of a reader raise ValueError naming
    the JSON key."""
    check_keys(data, readers, what, required)
    fields = {}
    for name, value in data.items():
        try:
            fields[name] = readers[name](value)
        except TypeError as exc:
            raise ValueError(f"{what} key {name!r}: {exc}") from None
    return fields


# Strict readers of JSON values: each returns its value only if it already
# has the JSON type, and raises TypeError otherwise. type() rather than
# isinstance(): bool is an int subclass, and true is not a number.
def json_int(value) -> int:
    if type(value) is not int:
        raise TypeError(f"{value!r} is not a JSON integer")
    return value


def json_float(value) -> float:
    if type(value) not in (int, float):
        raise TypeError(f"{value!r} is not a JSON number")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range, about 1.8e308
        raise TypeError(f"an integer of {len(str(abs(value)))} digits is too large "
                        "for a float") from None


def json_bool(value) -> bool:
    if type(value) is not bool:
        raise TypeError(f"{value!r} is not a JSON boolean")
    return value


def check_decodable(probs: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Check an NTP vector, shape (V,), or a block of NTP rows, shape
    (count, V), for decoding: no negative or NaN entry and positive mass in
    every row. Raise InvalidDistribution otherwise. If the least entry is 0,
    the only case with a -0.0, the result is a copy with +0.0 there, so
    that a zero entry never wins the gumbel decoder's log(U)/P; else ``probs``."""
    probs = np.asarray(probs, dtype=float)
    if probs.shape != shape:
        raise InvalidDistribution(f"probabilities of shape {probs.shape} differ from "
                                  f"the key size, {shape}")
    low = probs.min()  # NaN if any entry is NaN
    probs = probs + 0.0 if low == 0 else probs
    if not (low > 0 or low == 0 and np.all(np.any(probs > 0, axis=-1))):
        raise InvalidDistribution("invalid probability vector")
    return probs


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


# ---------------------------------------------------------------------------
# Schemes
# ---------------------------------------------------------------------------


class _Scheme:
    """What every scheme class provides, for one validated vocabulary size
    and the values of the ``params`` it names.

    ``key(seed)`` derives the key of a 64-bit key seed; ``pivots(tokens,
    seeds)`` is ``pivot(tokens[i], key(seeds[i]))`` for every position, in
    array operations with no key built; ``decoder_of(key)`` is the decoder
    of a key, the function NTP row -> token, which does the key's own work
    once and takes rows already passed by ``check_decodable``, and
    ``decoder(seed)`` is that of ``key(seed)``; a decoder may divide by zero
    or overflow, so it is called only inside an ``np.errstate`` that ignores
    both (``SchemeSpec.decode``, ``streams._decode_rows``); ``pivot`` takes
    a token or a token array already bounds-checked by the caller;
    ``block_sum_cdf(k)`` returns the CDF of a sum of k null scores, a
    function of one float q;
    ``params`` names the ``SchemeSpec`` fields the scheme reads beyond the
    vocabulary size, in the order its constructor takes them. Its arrays are
    read-only, since equal specs share one instance (``SchemeSpec``).
    """

    params: tuple[str, ...] = ()
    null_mean: float

    def __init__(self, vocab_size: int):
        self.vocab_size = vocab_size

    def decoder(self, seed: int):
        return self.decoder_of(self.key(seed))


class _AffineKeyed(_Scheme):
    """A scheme whose key is a uniform ``u`` and a keyed affine permutation
    of the vocabulary: token w has rank ``(a*w + c) mod V`` (``keys.affine_key``).
    """

    def __init__(self, vocab_size: int):
        super().__init__(vocab_size)
        self.units = _read_only(units_mod(vocab_size))

    def _key(self, seed: int) -> tuple[float, np.ndarray]:
        """The key uniform and the rank of every token."""
        u, a, c = affine_key(seed, self.vocab_size, self.units)
        return u, (a * np.arange(self.vocab_size) + c) % self.vocab_size

    def _ranks(self, tokens: np.ndarray, seeds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The key uniform at each position and the rank of its token."""
        u, a, c = affine_keys(seeds, self.vocab_size, self.units)
        return u, (a * tokens + c) % self.vocab_size


class Gumbel(_Scheme):
    """Coordinate w of a key is ``unit(splitmix64(seed ^ tags[w]))`` over the
    hashed coordinate tags ``keys.coordinate_tags(V)``. A decoder holds the
    logs of its key's uniforms, taken once per key, not per decoded row."""

    null_mean = 1.0

    def __init__(self, vocab_size: int):
        super().__init__(vocab_size)
        self.tags = _read_only(coordinate_tags(vocab_size))

    def key(self, seed: int) -> GumbelKey:
        return GumbelKey(uniforms=unit(splitmix64_array(np.uint64(seed) ^ self.tags)))

    def pivots(self, tokens: np.ndarray, seeds: np.ndarray) -> np.ndarray:
        """Coordinate ``token`` of each seed's key: one hash per position."""
        return unit(splitmix64_array(seeds ^ self.tags[tokens]))

    @staticmethod
    def decoder_of(key: GumbelKey):
        """Token maximizing log(U_w)/P_w, from the V logs taken once;
        tokens of probability +0.0, the only zero that ``check_decodable``
        passes on, never win.

        Ties break toward the lowest token index (measure-zero under
        continuous keys, but keeps the decoder a pure function).
        """
        log_u = np.log(key.uniforms)
        return lambda probs: int((log_u / probs).argmax())

    @staticmethod
    def pivot(token, key: GumbelKey):
        """The uniform coordinate of the emitted token."""
        return key.uniforms[token]

    @staticmethod
    def score(y):
        """h(y) = -log(1 - y) on [0, 1); Exp(1) under the null.

        Out-of-domain values raise instead of being clipped: a pivot outside
        [0, 1) always indicates a generator bug.
        """
        arr = np.asarray(y, dtype=float)
        if np.any(arr < 0.0) or np.any(arr >= 1.0):
            raise ValueError("gumbel score domain is [0, 1)")
        out = -np.log1p(-arr)
        return float(out) if arr.ndim == 0 else out

    @staticmethod
    def null_scores(rng: np.random.Generator, size) -> np.ndarray:
        return rng.standard_exponential(size)

    @staticmethod
    def block_sum_cdf(k: int):
        """CDF of the Gamma(k, 1) sum of k null scores."""
        return lambda q: float(gammainc(k, q)) if q > 0 else 0.0


class Inverse(_AffineKeyed):
    def __init__(self, vocab_size: int):
        super().__init__(vocab_size)
        # E[1 - |U - g|] = 1 - (g^2 + (1-g)^2)/2, averaged over g = k/(V-1).
        v = self.vocab_size
        self.null_mean = 1.0 - (2 * v - 1) / (6.0 * (v - 1))
        # The mass function p of one null score rounded up onto the lattice
        # 0, h, ..., 1: P(score <= 1 - y) = 2 T(y) / V, T as in block_sum_cdf.
        steps, v1 = round(1.0 / INVERSE_STEP), v - 1
        y = 1.0 - np.arange(steps + 1) * INVERSE_STEP
        below = np.floor(y * v1)  # grid points i <= below have g <= y
        tail = (v1 * (v1 + 1) - below * (below + 1)) / (2 * v1) - y * (v1 - below)
        self.pmf = _read_only(np.diff(2.0 * tail / v, prepend=0.0))
        # The total variation of p, zero past both ends, bounds |P(theta)|
        # away from theta = 0 (see block_sum_cdf).
        self.variation = float(np.abs(np.diff(self.pmf, prepend=0.0, append=0.0)).sum())

    def key(self, seed: int) -> InverseKey:
        u, perm = self._key(seed)
        return InverseKey(u=u, perm=perm)

    def pivots(self, tokens: np.ndarray, seeds: np.ndarray) -> np.ndarray:
        u, rank = self._ranks(tokens, seeds)
        return np.abs(u - rank / (self.vocab_size - 1))

    @staticmethod
    def decoder_of(key: InverseKey):
        """Generalized-inverse sampling through the key's permuted CDF.

        Returns the token whose rank is the smallest index at which the
        rank-ordered cumulative mass reaches the key uniform. The token of
        each rank, ``order[perm] = arange(V)``, is found once per key.
        """
        order = np.empty_like(key.perm)
        order[key.perm] = np.arange(order.size)
        u, last = key.u, order.size - 1
        return lambda probs: int(order[min(int(probs[order].cumsum().searchsorted(u)), last)])

    @staticmethod
    def pivot(token, key: InverseKey):
        """|U - eta(rank)| with eta spreading ranks evenly over [0, 1]."""
        eta = key.perm[token] / (key.perm.size - 1)
        return np.abs(key.u - eta)

    @staticmethod
    def score(y):
        """h(y) = 1 - y; larger means the token hugged its key uniform."""
        arr = np.asarray(y, dtype=float)
        if np.any(arr < 0.0) or np.any(arr > 1.0):
            raise ValueError("inverse score domain is [0, 1]")
        out = 1.0 - arr
        return float(out) if arr.ndim == 0 else out

    def null_scores(self, rng: np.random.Generator, size) -> np.ndarray:
        u = rng.random(size)
        eta = rng.integers(0, self.vocab_size, size) / (self.vocab_size - 1)
        return 1.0 - np.abs(u - eta)

    def band(self, k: int) -> tuple[int, np.ndarray, np.ndarray]:
        """(L, bins, P[bins]): the spectrum length L a sum of k null scores
        needs, the bins f in [1, L/2] of P = rfft(pmf, L) with |P(f)| >
        eps^(1/k), and P at those bins. Every such bin lies in 1..top by the
        bound in ``block_sum_cdf``; P at 1..top is a slice of the rfft of
        length L, or direct sums (``_spectrum_at``) where those cost less."""
        fft_len = next_fast_len(round(k / INVERSE_STEP) + 1, real=True)
        thr = INVERSE_BAND_EPS ** (1.0 / k)
        # The last bin where variation / (2 sin(pi f/L)) can exceed thr, plus
        # one for rounding: all of them when that bound never drops to thr.
        reach = math.asin(min(self.variation / (2 * thr), 1.0))
        top = min(math.floor(fft_len * reach / math.pi) + 1, fft_len // 2)
        # Direct sums cost about len(p) per bin, the rfft about 3 per point.
        if top * self.pmf.size < 3 * fft_len:
            values = _spectrum_at(self.pmf, np.arange(1, top + 1), fft_len)
        else:
            values = np.fft.rfft(self.pmf, fft_len)[1 : top + 1]
        inside = np.flatnonzero(np.abs(values) > thr)
        return fft_len, inside + 1, values[inside]

    def block_sum_cdf(self, k: int):
        """CDF of the sum of k null scores, each first rounded *up* onto the
        lattice of step h = ``INVERSE_STEP``, as a function of one float q.

        A score's CDF is P(1 - |U - g| <= x) = 2 T(1 - x) / V, where
        T(y) = sum_g max(g - y, 0) over the grid g = i/(V-1) is piecewise
        linear in y. The rounded sum is the k-fold convolution of that mass
        function p on 1/h + 1 points. Its spectrum P = rfft(p) is taken on
        the first 5-smooth length L of at least k/h + 1, the values 0, h,
        ..., k a sum can take (a shorter circular convolution would wrap the
        top ones onto the bottom). P^k is the spectrum of the sum, and it is
        band-limited: at V = 1000 and k = 127 only 65 of its 131073 bins
        exceed 1e-16. So only the bins f with |P(f)| > thr = eps^(1/k), eps
        = ``INVERSE_BAND_EPS``, are raised to the k-th power (square-and-
        multiply over the bits of k), giving S(f), and the CDF at lattice
        point j is summed from them directly, with no table:

            F(j) = [S(0)(j+1) + 2 Re sum_f A_f (w^(f(j+1)) - 1)] / L,
            A_f = S(f) / (2i sin(pi f/L) e^(i pi f/L)),  w = e^(2 pi i/L),

        the Nyquist bin's A halved, and S(0) = (sum p)^k. The phases f(j+1)
        are reduced mod L in integer arithmetic; A_f is never divided by the
        cancelling w^f - 1. A dropped bin has |S(f)| <= eps, so all of them
        together move F by at most eps (ln L + 1), about 1.3e-15 at k = 127. F is
        clipped to [0, 1] and is exactly 1 from j = k/h on, where every sum
        lies. Rounding up never lowers a sum, so this CDF lies at or below
        the exact one and a threshold solved on it covers at least 1 -
        alpha; each sum grows by less than k·h, so that threshold exceeds
        the exact one by at most b·h for blocks of b tokens (0.0625 at b =
        128). Floating-point rounding moves F by under 1e-13 and lets it
        fall by under 1e-14 between neighbouring lattice points (tested up
        to k = 300 in ``test_calibration.py``, on this function at sampled
        lattice points and at the points bisection probes).

        The band lies below one bin, ``top``, that a bound gives (``band``).
        Summation by parts gives (1 - e^(-i theta)) P(theta) = sum_j (p_j -
        p_(j-1)) e^(-i j theta) with p zero past both ends, so |P(theta)|
        <= TV / (2 sin(theta/2)) on (0, pi], where TV = ``variation`` is the
        total variation of p (2h at V = 2, 4h at V = 1000). Every band bin
        f thus has sin(pi f/L) < TV / (2 thr) and lies in 1..top, top about
        L TV / (2 pi thr): 109 bins at V = 1000 and k = 127, 64 of them kept.
        When top len(p) < 3L (k above about 20), P is summed directly at
        1..top (``_spectrum_at``), as two short nested sums that stay within
        1.1e-15 of the rfft, in ``einsum`` loops rather than a BLAS product,
        which may start a thread pool that costs more than the sums.
        Otherwise the rfft of length L costs less, and P is sliced from it.

        The returned CDF keeps the value of each lattice point it was
        asked for, since bisection asks for the same cell many times; it
        keeps nothing between calls of ``block_sum_cdf``.
        """
        top = round(k / INVERSE_STEP)  # the lattice index of the largest sum, k
        fft_len, bins, base = self.band(k)
        spectrum = base.copy()
        for bit in bin(k)[3:]:  # the bits of k below its leading 1
            spectrum *= spectrum
            if bit == "1":
                spectrum *= base
        half = np.pi * bins / fft_len
        coef = spectrum / (2j * np.sin(half) * np.exp(1j * half))
        coef[2 * bins == fft_len] /= 2  # the Nyquist bin has no mirror image
        mass, offset = self.pmf.sum() ** k, coef.sum()
        memo: dict[int, float] = {}

        def cdf(q: float) -> float:
            j = math.floor(q / INVERSE_STEP)  # the last lattice point <= q
            if not 0 <= j < top:
                return 1.0 if j >= top else 0.0
            if j not in memo:  # F(j) from the sum of A_f w^(f(j+1)) over the kept bins
                sums = coef @ np.exp((2j * np.pi / fft_len) * (bins * (j + 1) % fft_len))
                f = float(mass * (j + 1) + 2.0 * (sums - offset).real) / fft_len
                memo[j] = min(max(f, 0.0), 1.0)
            return memo[j]

        return cdf


class RedGreen(_AffineKeyed):
    params = ("green_frac", "bias")

    def __init__(self, vocab_size: int, green_frac: float, bias: float):
        super().__init__(vocab_size)
        if not 0.0 < green_frac < 1.0:
            raise ValueError("green fraction must lie in (0, 1)")
        self.n_green = math.floor(green_frac * vocab_size)
        if self.n_green < 1:
            raise ValueError("green subset would be empty; increase vocab or fraction")
        # A NaN bias fails every comparison, so test for a finite value first.
        if not (math.isfinite(bias) and bias >= 0):
            raise ValueError(f"bias must be finite and nonnegative, not {bias!r}")
        self.green_weight = math.exp(bias)
        self.null_mean = self.n_green / self.vocab_size

    def key(self, seed: int) -> RedGreenKey:
        """The green subset is the ``n_green`` tokens of lowest rank."""
        u, perm = self._key(seed)
        return RedGreenKey(green=perm < self.n_green, u=u)

    def pivots(self, tokens: np.ndarray, seeds: np.ndarray) -> np.ndarray:
        return self._ranks(tokens, seeds)[1] < self.n_green

    def decoder_of(self, key: RedGreenKey):
        """Sample from the NTP re-weighted by exp(bias) on the green subset:
        the first token whose cumulative weight reaches u times the total,
        clipped to the last token, with the key's weight scale (exp(bias)
        on green, 1.0 elsewhere) built once.

        bias = 0 reproduces the NTP exactly; the draw itself comes from the
        key's uniform, keeping the decoder deterministic given (probs, key).
        """
        scale, u, last = np.where(key.green, self.green_weight, 1.0), key.u, self.vocab_size - 1

        def decode(probs: np.ndarray) -> int:
            cdf = (probs * scale).cumsum()
            return min(int(cdf.searchsorted(u * cdf[-1])), last)

        return decode

    @staticmethod
    def pivot(token, key: RedGreenKey):
        """Green-membership indicator; Bernoulli(|G|/V) under the null."""
        return key.green[token]

    @staticmethod
    def score(y):
        return y  # identity score for the indicator pivot

    def null_scores(self, rng: np.random.Generator, size) -> np.ndarray:
        return (rng.random(size) < self.null_mean).astype(float)

    def block_sum_cdf(self, k: int):
        """CDF of the Binomial(k, |G|/V) count of green tokens in k null
        positions. The count is clamped to k, where ``bdtr`` returns nan."""
        p = self.null_mean
        return lambda q: float(bdtr(min(math.floor(q), k), k, p)) if q >= 0 else 0.0


SCHEMES: dict[str, type[_Scheme]] = {"gumbel": Gumbel, "inverse": Inverse, "red_green": RedGreen}
SCHEME_IDS = tuple(SCHEMES)


def _spectrum_at(pmf: np.ndarray, bins: np.ndarray, fft_len: int) -> np.ndarray:
    """``np.fft.rfft(pmf, fft_len)[bins]`` by direct sums.

    With j = aB + c and B = isqrt(len(pmf)) + 1, e^(-2 pi i f j/L) =
    e^(-2 pi i f aB/L) e^(-2 pi i f c/L), so each bin takes about 2B
    exponentials instead of len(pmf); the phases are reduced mod L in
    integer arithmetic. The sum runs over c and then over a: one pass over
    all aB + c terms drifts up to 2.5e-15 from the rfft, where the two short
    nested sums stay within 1.1e-15 (1.03e-15 at V = 2 and k = 844-854).
    """
    width = math.isqrt(pmf.size) + 1
    grid = np.zeros(-(-pmf.size // width) * width)
    grid[: pmf.size] = pmf
    grid = grid.reshape(-1, width)  # grid[a, c] = pmf[a * width + c]

    def twiddle(steps: np.ndarray) -> np.ndarray:
        return np.exp((-2j * np.pi / fft_len) * (np.outer(bins, steps) % fft_len))

    inner = np.einsum("fc,ac->fa", twiddle(np.arange(width)), grid)
    return np.einsum("fa,fa->f", twiddle(np.arange(grid.shape[0]) * width), inner)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@functools.lru_cache(maxsize=16)
def _scheme_object(scheme_id: str, vocab_size: int, *params) -> _Scheme:
    """The one scheme instance of (scheme, V, params); a constructor that
    raises caches nothing."""
    return SCHEMES[scheme_id](vocab_size, *params)


# ---------------------------------------------------------------------------
# Scored pivot sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PivotSeries:
    """Per-token scored pivots with their null mean and scheme provenance.

    Scores must be finite: a NaN compares false against every threshold, so
    it would read as "no watermark" instead of as a broken input.
    """

    scores: np.ndarray
    null_mean: float
    scheme_id: str

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=float)
        if scores.ndim != 1 or scores.size == 0:
            raise ValueError("scores must be a nonempty 1-D array")
        if not np.isfinite(scores).all():
            raise ValueError("scores must be finite (no NaN or infinity)")
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

    ``green_frac`` and ``bias`` only matter for red_green; another scheme
    rejects a value other than their defaults, so that no parameter is
    silently ignored and ``from_json(to_json(spec)) == spec``. Threshold
    calibration solves on ``block_sum_cdf``, the law of a block of null
    scores; ``null_scores`` draws from the same score law and ``null_mean``
    is its exact mean.

    The vocabulary size lies in [2, 2^32): the affine keys scale 64-bit
    hashes by V with a 32-bit multiply-high (``keys.mulhi``), and a larger V
    would only ask for a 32 GiB table per scheme. Specs equal in the fields
    their scheme reads share one read-only scheme object from a small LRU
    cache, so rebuilding a spec per stream file costs no ``units_mod`` or
    ``coordinate_tags`` pass.
    """

    scheme_id: str
    vocab_size: int
    green_frac: float = 0.5
    bias: float = 2.0

    def __post_init__(self):
        if self.scheme_id not in SCHEMES:
            raise ValueError(f"unsupported scheme {self.scheme_id!r}")
        if not 2 <= self.vocab_size < 2**32:
            raise ValueError(f"vocab_size must lie in [2, 2**32), not {self.vocab_size!r}")
        params = SCHEMES[self.scheme_id].params
        for field in dataclasses.fields(self)[2:]:  # the parameters after scheme_id, V
            value = getattr(self, field.name)
            if field.name not in params and value != field.default:  # NaN included
                raise ValueError(f"scheme {self.scheme_id!r} does not read {field.name}, "
                                 f"so it must keep its default {field.default!r}, not {value!r}")
        scheme = _scheme_object(self.scheme_id, self.vocab_size,
                                *(getattr(self, name) for name in params))
        object.__setattr__(self, "_scheme", scheme)

    @property
    def null_mean(self) -> float:
        return self._scheme.null_mean

    def key_at(self, seed: int) -> PseudoKey:
        return self._scheme.key(seed)

    def pivots(self, tokens: np.ndarray, seeds: np.ndarray) -> np.ndarray:
        """Pivots of a bounds-checked token array, each under the key of the
        uint64 seed at its position: ``pivot(tokens[i], key_at(seeds[i]))``."""
        return self._scheme.pivots(tokens, seeds)

    def decode(self, probs: np.ndarray, key: PseudoKey) -> int:
        """The token the scheme emits for the NTP vector ``probs`` under
        ``key``; an unusable vector raises InvalidDistribution."""
        probs = check_decodable(probs, (self.vocab_size,))
        with np.errstate(divide="ignore", over="ignore"):
            return self._scheme.decoder_of(key)(probs)

    def pivot(self, token: int, key: PseudoKey) -> float:
        """Pivot of one token under one key; a token outside the vocabulary
        raises IndexError."""
        check_tokens(token, self.vocab_size)
        return float(self._scheme.pivot(token, key))

    def score(self, y):
        return self._scheme.score(y)

    def pivot_score(self, token: int, key: PseudoKey) -> float:
        return float(self.score(self.pivot(token, key)))

    def null_scores(self, rng: np.random.Generator, size) -> np.ndarray:
        """Draw i.i.d. samples from the score's null law."""
        return self._scheme.null_scores(rng, size)

    def block_sum_cdf(self, k: int):
        """The CDF q -> P(sum of k i.i.d. null scores <= q) of one float q."""
        return self._scheme.block_sum_cdf(k)

    def to_json(self) -> dict:
        out = {"id": self.scheme_id, "vocab_size": self.vocab_size}
        out.update((name, getattr(self, name)) for name in self._scheme.params)
        return out

    @classmethod
    def from_json(cls, data: dict) -> "SchemeSpec":
        """Read ``to_json`` output; ``id`` and ``vocab_size`` are required,
        other keys left out take the field defaults."""
        fields = read_fields(
            data, {"id": str, "vocab_size": json_int, "green_frac": json_float,
                   "bias": json_float}, "scheme",
            required=("id", "vocab_size"),
        )
        return cls(fields.pop("id"), **fields)
