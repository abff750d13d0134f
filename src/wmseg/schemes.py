"""Watermarking schemes: one class per scheme, each with one null law.

A scheme couples a token choice to a pseudo-random key so that, on
unwatermarked positions (token independent of key), the scored pivot
follows a fixed null law, while on watermarked positions its mean is
elevated. Each scheme class holds its key (derived from a 64-bit key
seed), how the pivots of a token array come from per-position key seeds in
array operations, its decoder, pivot, score, a sampler for the score's null
law and the exact mean of that law. The law of a sum of k null scores is in
``calibration`` (``block_sum_cdf``, ``band``), its one reader:

* ``Gumbel``    — exponential-race decoder ``argmax_w log(U_w)/P_w``; the
                  pivot is the winning coordinate ``U_token`` (Uniform(0,1)
                  under the null); score ``h(y) = -log(1-y)``, so the null
                  law is Exp(1) with mean 1.
* ``Inverse``   — inverse-CDF decoder over a permuted vocabulary; the pivot
                  is ``|U - rank(token)/(V-1)|`` with the rank uniform on
                  the V-point grid under the null; score ``h(y) = 1 - y``,
                  with null mean exactly ``1 - (2V-1)/(6(V-1))``.
* ``RedGreen``  — sampling from the NTP re-weighted by ``exp(bias)`` on a
                  key-selected green subset of ``floor(green_frac * V)``
                  tokens; the pivot is the green-membership indicator,
                  Bernoulli(|G|/V) under the null; the score is identity,
                  so a block of k null scores sums to a Binomial(k, |G|/V).

Every key is read from keyed splitmix64 hashes of its 64-bit key seed
(``keys``). A gumbel key is V uniforms, coordinate w hashed under its own
tag, so a token drawn independently of the key reads a Uniform(0,1)
coordinate. An inverse or red_green key is one ``AffineKey``: a uniform ``u``
and the ranks ``ranks[w] = (a*w + c) mod V`` of a keyed affine permutation,
where ``u``, the unit ``a`` and the shift ``c`` come from three more hashes
(``keys.affine_key``). Inverse decodes through the ranks and red_green's
green subset is the tokens of rank below ``floor(green_frac * V)``. Under
the null a token's rank is uniform on 0..V-1 to within 2^-64, as under a
uniformly drawn permutation, so the null laws above hold.

``SchemeSpec`` is the scheme as named on the wire (id plus parameters), and
each scheme class is a subclass of it: ``SchemeSpec(id, ...)`` builds the
instance of the class the id names. Decoders are deterministic
functions of (probs, key, params); all sampling randomness lives inside the
key. A scheme's ``decoder(seed)`` does the work of one key once (gumbel's V
logs, inverse's token of each rank, red_green's weight scale), then decodes rows.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .keys import affine_key, affine_keys, coordinate_tags, splitmix64_array, unit, units_mod


class InvalidDistribution(ValueError):
    """Raised when a next-token probability vector is unusable."""


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


def check_unread(spec, read, what: str) -> None:
    """Raise ValueError for a parameter of the dataclass ``spec`` (a field
    after its first two) that is not in ``read`` but differs from its
    default, NaN included, so that no parameter is silently ignored."""
    for field in dataclasses.fields(spec)[2:]:
        value = getattr(spec, field.name)
        if field.name not in read and value != field.default:
            raise ValueError(f"{what} does not read {field.name}, "
                             f"so it must keep its default {field.default!r}, not {value!r}")


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
    that a zero entry never wins the gumbel decoder's log(U)/P; else ``probs``.
    Only a ``SchemeSpec.decode`` caller passes a -0.0: ``streams.NtpModel`` draws none."""
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
class AffineKey:
    """A single uniform plus a permutation; ranks[w] is the rank of token w."""

    u: float
    ranks: np.ndarray


PseudoKey = Union[GumbelKey, AffineKey]


# ---------------------------------------------------------------------------
# Schemes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SchemeSpec:
    """A watermarking scheme with its parameters, as used on the wire.

    ``SchemeSpec(id, V, ...)`` is an instance of the scheme class
    ``SCHEMES[id]``; a scheme class given another id raises. ``green_frac``
    and ``bias`` only matter for red_green; another scheme rejects a value
    other than their defaults, so that no parameter is silently ignored and
    ``from_json(to_json(spec)) == spec``.

    The vocabulary size lies in [2, 2^32): the affine keys scale 64-bit
    hashes by V with a 32-bit multiply-high (``keys.mulhi``), and a larger V
    would only ask for a 32 GiB table per scheme. ``keys`` caches the option-free
    tables, ``coordinate_tags(V)`` and ``units_mod(V)``, as read-only arrays
    shared by every spec of one V, so a spec rebuilt per stream file rebuilds none.

    What every scheme class provides (an affine one through ``_AffineKeyed``,
    from its pivot ``_of_rank(u, rank)``): ``_key(seed)`` derives the key of a
    64-bit key seed; ``pivots(tokens, seeds)`` is ``pivot(tokens[i],
    key_at(seeds[i]))`` for every position of a bounds-checked token array,
    in array operations with no key built; ``decoder_of(key)`` is the
    decoder of a key, the function NTP row -> token, which does the key's
    own work once and takes rows already passed by ``check_decodable``; a
    decoder may divide by zero or overflow, so it is called only inside an
    ``np.errstate`` that ignores both (``decode``, ``streams._decode_rows``);
    ``_pivot`` takes a token or a token array already bounds-checked;
    ``score`` maps pivots to scores; ``null_scores(rng, size)`` draws i.i.d.
    scores from the null law, and ``null_mean`` is its exact mean;
    ``params`` names the fields read beyond V, and ``key_type`` is the key class.
    """

    scheme_id: str
    vocab_size: int
    green_frac: float = 0.5
    bias: float = 2.0

    params = ()

    def __new__(cls, *args, **kwargs):
        """The instance of the class the id names; pickle and copy call a
        scheme class itself, with no arguments."""
        if cls is SchemeSpec:
            cls = SCHEMES.get(args[0] if args else kwargs.get("scheme_id"), cls)
        return super().__new__(cls)

    def __post_init__(self):
        if SCHEMES.get(self.scheme_id) is not type(self):
            raise ValueError(f"unsupported scheme {self.scheme_id!r} for {type(self).__name__}")
        if type(self.vocab_size) is not int or not 2 <= self.vocab_size < 2**32:
            raise ValueError(f"vocab_size must be an int in [2, 2**32), not {self.vocab_size!r}")
        check_unread(self, self.params, f"scheme {self.scheme_id!r}")

    def key_at(self, seed: int) -> PseudoKey:
        return self._key(seed)

    def decoder(self, seed: int):
        """The decoder of the key of ``seed``."""
        return self.decoder_of(self._key(seed))

    def decode(self, probs: np.ndarray, key: PseudoKey) -> int:
        """The token for the NTP vector ``probs`` under ``key``; an unusable
        vector raises InvalidDistribution, a key of another kind or size ValueError."""
        self._check_key(key)
        probs = check_decodable(probs, (self.vocab_size,))
        with np.errstate(divide="ignore", over="ignore"):
            return self.decoder_of(key)(probs)

    def pivot(self, token: int, key: PseudoKey) -> float:
        """Pivot of one token under one key; a token outside the vocabulary
        raises IndexError and a key of another kind or size ValueError."""
        check_tokens(token, self.vocab_size)
        self._check_key(key)
        return float(self._pivot(token, key))

    def _check_key(self, key: PseudoKey) -> None:
        if not isinstance(key, self.key_type):
            raise ValueError(f"a {type(key).__name__} for scheme {self.scheme_id!r}")
        size = len(key.ranks if isinstance(key, AffineKey) else key.uniforms)
        if size != self.vocab_size:
            raise ValueError(f"a key of {size} entries for a vocabulary of {self.vocab_size}")

    def pivot_score(self, token: int, key: PseudoKey) -> float:
        return float(self.score(self.pivot(token, key)))

    def to_json(self) -> dict:
        out = {"id": self.scheme_id, "vocab_size": self.vocab_size}
        out.update((name, getattr(self, name)) for name in self.params)
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


class _AffineKeyed(SchemeSpec):
    """A scheme whose key is a uniform ``u`` and a keyed affine permutation
    of the vocabulary: token w has rank ``(a*w + c) mod V`` (``keys.affine_key``).
    Each subclass writes its pivot once, as ``_of_rank(u, rank)`` of the key
    uniform and the token's rank, arrays or scalars."""

    key_type = AffineKey

    def _key(self, seed: int) -> AffineKey:
        u, a, c = affine_key(seed, self.vocab_size, units_mod(self.vocab_size))
        return AffineKey(u, (a * np.arange(self.vocab_size) + c) % self.vocab_size)

    def pivots(self, tokens: np.ndarray, seeds: np.ndarray) -> np.ndarray:
        u, a, c = affine_keys(seeds, self.vocab_size, units_mod(self.vocab_size))
        return self._of_rank(u, (a * tokens + c) % self.vocab_size)

    def _pivot(self, token, key: AffineKey):
        return self._of_rank(key.u, key.ranks[token])


class Gumbel(SchemeSpec):
    """Coordinate w of a key is ``unit(splitmix64(seed ^ tags[w]))`` over the
    hashed coordinate tags ``keys.coordinate_tags(V)``. A decoder holds the
    logs of its key's uniforms, taken once per key, not per decoded row."""

    key_type = GumbelKey
    null_mean = 1.0

    def _key(self, seed: int) -> GumbelKey:
        return GumbelKey(unit(splitmix64_array(np.uint64(seed) ^ coordinate_tags(self.vocab_size))))

    def pivots(self, tokens: np.ndarray, seeds: np.ndarray) -> np.ndarray:
        """Coordinate ``token`` of each seed's key: one hash per position."""
        return unit(splitmix64_array(seeds ^ coordinate_tags(self.vocab_size)[tokens]))

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
    def _pivot(token, key: GumbelKey):
        """The uniform coordinate of the emitted token."""
        return key.uniforms[token]

    @staticmethod
    def score(y):
        """h(y) = -log(1 - y) on [0, 1); Exp(1) under the null.

        Out-of-domain values raise instead of being clipped: a pivot outside
        [0, 1) always indicates a generator bug; ``PivotSeries`` rejects a NaN.
        """
        arr = np.asarray(y, dtype=float)
        if arr.size and (arr.min() < 0.0 or arr.max() >= 1.0):
            raise ValueError("gumbel score domain is [0, 1)")
        out = -np.log1p(-arr)
        return float(out) if arr.ndim == 0 else out

    @staticmethod
    def null_scores(rng: np.random.Generator, size) -> np.ndarray:
        return rng.standard_exponential(size)


class Inverse(_AffineKeyed):
    @property
    def null_mean(self) -> float:
        # E[1 - |U - g|] = 1 - (g^2 + (1-g)^2)/2, averaged over g = k/(V-1).
        v = self.vocab_size
        return 1.0 - (2 * v - 1) / (6.0 * (v - 1))

    @staticmethod
    def decoder_of(key: AffineKey):
        """Generalized-inverse sampling through the key's permuted CDF.

        Returns the token whose rank is the smallest index at which the
        rank-ordered cumulative mass reaches the key uniform. The token of
        each rank, ``order[ranks] = arange(V)``, is found once per key.
        """
        order = np.empty_like(key.ranks)
        order[key.ranks] = np.arange(order.size)
        u, last = key.u, order.size - 1
        return lambda probs: int(order[min(int(probs[order].cumsum().searchsorted(u)), last)])

    def _of_rank(self, u, rank):
        """|U - eta(rank)| with eta spreading ranks evenly over [0, 1]."""
        return np.abs(u - rank / (self.vocab_size - 1))

    @staticmethod
    def score(y):
        """h(y) = 1 - y; larger means the token hugged its key uniform."""
        arr = np.asarray(y, dtype=float)
        if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
            raise ValueError("inverse score domain is [0, 1]")
        out = 1.0 - arr
        return float(out) if arr.ndim == 0 else out

    def null_scores(self, rng: np.random.Generator, size) -> np.ndarray:
        # 1 - pivot is score's h without its domain check, which these pivots pass.
        return 1.0 - self._of_rank(rng.random(size), rng.integers(0, self.vocab_size, size))


class RedGreen(_AffineKeyed):
    params = ("green_frac", "bias")

    def __post_init__(self):
        super().__post_init__()
        for name in self.params:  # a numpy float would not survive json.dumps
            if type(value := getattr(self, name)) not in (int, float):
                raise ValueError(f"{name} must be an int or a float, not {type(value).__name__}")
        if not 0.0 < self.green_frac < 1.0:
            raise ValueError("green fraction must lie in (0, 1)")
        if self.n_green < 1:
            raise ValueError("green subset would be empty; increase vocab or fraction")
        # A NaN bias fails every comparison, so test for a finite value first.
        if not (math.isfinite(self.bias) and self.bias >= 0):
            raise ValueError(f"bias must be finite and nonnegative, not {self.bias!r}")

    @property
    def n_green(self) -> int:
        return math.floor(self.green_frac * self.vocab_size)

    @property
    def null_mean(self) -> float:
        return self.n_green / self.vocab_size

    def decoder_of(self, key: AffineKey):
        """Sample from the NTP re-weighted by exp(bias) on the green subset:
        the first token whose cumulative weight reaches u times the total,
        clipped to the last token, with the key's weight scale (exp(bias)
        on green, 1.0 elsewhere) built once.

        bias = 0 reproduces the NTP exactly; the draw itself comes from the
        key's uniform, keeping the decoder deterministic given (probs, key).
        """
        scale = np.where(key.ranks < self.n_green, math.exp(self.bias), 1.0)
        u, last = key.u, self.vocab_size - 1

        def decode(probs: np.ndarray) -> int:
            cdf = (probs * scale).cumsum()
            return min(int(cdf.searchsorted(u * cdf[-1])), last)

        return decode

    def _of_rank(self, u, rank):
        """Green-membership indicator: the green subset is the ``n_green``
        tokens of lowest rank; Bernoulli(|G|/V) under the null."""
        return rank < self.n_green

    @staticmethod
    def score(y):
        return y  # identity score for the indicator pivot

    def null_scores(self, rng: np.random.Generator, size) -> np.ndarray:
        return (rng.random(size) < self.null_mean).astype(float)


SCHEMES: dict[str, type[SchemeSpec]] = {"gumbel": Gumbel, "inverse": Inverse, "red_green": RedGreen}
SCHEME_IDS = tuple(SCHEMES)


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

    @property
    def n(self) -> int:
        return self.scores.size
