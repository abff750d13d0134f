"""Synthetic mixed-source token streams with planted watermarked intervals.

Every position of a stream has a next-token probability (NTP) vector from a
constrained model class and a pseudo-random key derived by hashing the
previous token with the master seed (context window of one token). Its
token is the scheme's decode of (NTP, key) inside a planted segment and an
independent sample from the NTP outside. A ``Stream`` is those tokens with
the master seed and scheme that key them and the planted segments. A JSONL
stream file carries a ``Stream`` between tools: a header record ``{"n",
"seed", "true_segments", "scheme"}`` (the segments as [l, r] pairs, the
scheme as its ``SchemeSpec`` JSON object), then one body record holding the
token list, which the verifier rescores. A body line spelled
exactly as ``write_stream_jsonl`` writes it, ``{"tokens": [`` then decimal
integers below 10^18 without leading zeros joined by ``", "`` then ``]}``
and a newline, is read in a few whole-string and whole-array passes, with
no Python int per token; any other body line is read by ``json``, to the
same tokens or the same error.

Generation draws NTP rows only for the positions inside a segment, which
decode with them. Each position's row is drawn independently of every other
draw, and the token of a position outside the segments reads only its own
row and a fresh uniform, so that token is Categorical(E[row]) and
independent of the rest of the stream. ``NtpModel.null_tokens`` draws it
from that mean directly: the ``dirichlet`` and ``zipf`` row laws are
exchangeable over the tokens, so their mean is uniform and the null tokens
are one ``integers(0, V)`` array. The positions inside the segments run in
blocks of at most 2^15 NTP entries (32 rows at V=1000): one ``NtpModel.sample``
call draws the rows of a block and one check validates them, then its
positions decode one at a time, since each decodes with the key of the
token before it. Every draw is taken in position order from the two
generators, so the outputs do not depend on the block size.

A key depends only on the master seed and the previous token, so a stream
of n tokens over a vocabulary of V has at most min(n, V + 1) distinct keys.
Generation builds a decoder (the scheme's ``decoder``) only for the context
of a position inside a segment, once per distinct context, so a decoder's
work for its key (gumbel's V logs, for one) is paid once per context; it
calls no ``SchemeSpec.key_at``. ``Stream.keys`` derives every context's key
when it is first read, once per distinct context, so positions that share
a context share one key object; a caller that reads only the tokens never
pays for them. Neither ``generate_stream`` nor ``read_stream_jsonl`` scores
its ``Stream``: every consumer scores one with ``score_tokens``, which calls
no ``key_at`` and builds no key and no generator, for any scheme. It derives
every position's key seed in one array pass and the scheme reads its pivots
from the seeds through the keyed hashes of ``keys``, one per position.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .intervals import Segments
from .keys import (
    CONTEXT_SENTINEL,
    TAG_NTP,
    TAG_NULL_DRAW,
    check_seed,
    generator,
    key_seed,
    key_seeds,
    mix,
)
from .schemes import (PivotSeries, PseudoKey, SchemeSpec, check_decodable, check_keys,
                      check_tokens, check_unread, json_float, json_int, read_fields)

# Each NTP model kind and the one parameter it reads besides delta_cap.
NTP_PARAMS = {"dirichlet": "concentration", "zipf": "exponent"}
_REJECTION_LIMIT = 10_000
# Most NTP entries in one block of generated positions: 32 rows at V=1000.
_BLOCK_ENTRIES = 2**15


def _feasible_cap(delta: float, vocab_size: int) -> float:
    """The cap 1 - delta; ValueError if it admits no vector of size V."""
    cap = 1.0 - delta
    if cap * vocab_size < 1.0 - 1e-12:
        raise ValueError(f"cap {cap} infeasible for vocabulary of {vocab_size}")
    return cap


def cap_probs(probs: np.ndarray, delta: float) -> np.ndarray:
    """Project a probability vector onto {max entry <= 1 - delta}.

    Entries above the cap are pinned to it and the remaining mass is spread
    proportionally over the free entries, repeating until feasible, or evenly
    if no free entry has mass; ``cap * V >= 1`` keeps those below the cap.
    """
    probs = np.asarray(probs, dtype=float)
    cap = _feasible_cap(delta, probs.size)
    out = probs / probs.sum()
    while out.max() > cap + 1e-15:
        pinned = out >= cap
        free = ~pinned
        remaining = 1.0 - cap * np.count_nonzero(pinned)
        free_mass = out[free].sum()
        if free_mass <= 0.0:  # max: all entries are pinned only within _feasible_cap's slack
            out = np.where(pinned, cap, remaining / max(np.count_nonzero(free), 1))
            break
        out = np.where(pinned, cap, out * (remaining / free_mass))
    return out


@dataclass(frozen=True)
class NtpModel:
    """Generator of next-token probability vectors with a max-probability cap.

    ``dirichlet`` draws concentration-alpha vectors (rejection-sampled into
    the cap, then capped outright after 10^4 failures) and reads
    ``concentration``; ``zipf`` permutes a capped power-law shape and reads
    ``exponent``. A kind rejects a value other than the default for the
    parameter it does not read, so that no parameter is silently ignored and
    ``from_json(to_json(model)) == model``. ``sample`` returns the vectors of
    given positions, for decoding; ``null_tokens`` returns tokens drawn from
    them independently of any key without drawing a vector.

    The law of a vector is exchangeable over the tokens, so its mean is the
    uniform vector: the Dirichlet is symmetric, the cap test and
    ``cap_probs`` are permutation-equivariant, a zipf vector is the capped
    shape under a uniform permutation, and the uniform-only cap gives the
    uniform vector.
    """

    kind: str = "dirichlet"
    delta_cap: float = 0.5
    concentration: float = 0.3
    exponent: float = 1.5

    def __post_init__(self):
        if self.kind not in NTP_PARAMS:
            raise ValueError(f"unknown NTP model kind {self.kind!r}")
        for name in ("delta_cap", "concentration", "exponent"):  # each is written to JSON
            if type(value := getattr(self, name)) not in (int, float):
                raise ValueError(f"{name} must be an int or a float, not {type(value).__name__}")
        check_unread(self, (NTP_PARAMS[self.kind],), f"NTP model kind {self.kind!r}")
        if not 0.0 < self.delta_cap < 1.0:
            raise ValueError("delta_cap must lie in (0, 1)")
        if not (math.isfinite(self.concentration) and self.concentration > 0.0):
            raise ValueError(f"concentration must be finite and positive, "
                             f"not {self.concentration!r}")
        if not math.isfinite(self.exponent):
            raise ValueError(f"exponent must be finite, not {self.exponent!r}")

    def sample(self, rng: np.random.Generator, vocab_size: int,
               positions: np.ndarray) -> np.ndarray:
        """The NTP vectors of the given increasing positions, as
        ``(len(positions), vocab_size)`` rows.

        One vector per position is drawn from ``rng``, in order, so the rows
        do not depend on how the positions are cut into calls. A dirichlet
        position takes the first of its candidates within the cap, or
        ``cap_probs`` of its 10^4-th; when every position's first candidate
        fits, the block of candidates is returned as drawn. A cap that admits
        no vector raises ValueError, and one that admits only the uniform
        vector (``(1 - delta_cap) * vocab_size == 1``) gives uniform rows;
        neither draws from ``rng``.
        """
        count = np.size(positions)
        cap = _feasible_cap(self.delta_cap, vocab_size)
        if cap * vocab_size <= 1.0 + 1e-12:
            return np.full((count, vocab_size), 1.0 / vocab_size)
        if self.kind == "zipf":
            # Ranks over the rank of largest weight (V for a negative
            # exponent), so that no power exceeds 1 and overflows.
            ranks = np.arange(1, vocab_size + 1, dtype=float)
            base = (ranks / (vocab_size if self.exponent < 0 else 1)) ** -self.exponent
            base /= base.sum()
            if base.max() > cap:
                base = cap_probs(base, self.delta_cap)
            return np.array([base[rng.permutation(vocab_size)] for _ in range(count)])
        alpha = np.full(vocab_size, self.concentration)
        candidates = rng.dirichlet(alpha, size=count)
        fits = candidates.max(axis=1) <= cap
        if fits.all():  # every row takes its first candidate
            return candidates
        return self._capped_rows(rng, alpha, candidates, fits)

    def _capped_rows(self, rng: np.random.Generator, alpha: np.ndarray,
                     candidates: np.ndarray, fits: np.ndarray) -> np.ndarray:
        """``sample``'s dirichlet rows when some of their first candidates,
        one per row, exceed the cap (``fits`` is false there): each row takes
        the first of its candidates within the cap, or ``cap_probs`` of its
        10^4-th. Every row takes at least one candidate, so drawing one
        candidate per row still to fill draws none beyond the last one the
        rows take."""
        cap = 1.0 - self.delta_cap
        count = len(candidates)
        rows = np.empty_like(candidates)
        filled = rejected = 0  # rejected: consecutive candidates of the current row
        while True:
            for candidate, fit in zip(candidates, fits.tolist()):
                if fit or rejected == _REJECTION_LIMIT - 1:
                    rows[filled] = candidate if fit else cap_probs(candidate, self.delta_cap)
                    filled, rejected = filled + 1, 0
                else:
                    rejected += 1
            if filled == count:
                return rows
            candidates = rng.dirichlet(alpha, size=count - filled)
            fits = candidates.max(axis=1) <= cap

    def null_tokens(self, rng: np.random.Generator, vocab_size: int,
                    positions: np.ndarray) -> np.ndarray:
        """Tokens at the given positions, each drawn from its position's NTP
        vector independently of every other draw: Categorical(E[vector]),
        uniform on 0..V-1, so no vector is drawn and the tokens are one
        ``rng.integers`` array. A cap that admits no vector raises
        ValueError, as in ``sample``."""
        _feasible_cap(self.delta_cap, vocab_size)
        return rng.integers(0, vocab_size, np.size(positions))

    def to_json(self) -> dict:
        param = NTP_PARAMS[self.kind]
        return {"kind": self.kind, "delta_cap": self.delta_cap, param: getattr(self, param)}

    @classmethod
    def from_json(cls, data: dict) -> "NtpModel":
        """Read ``to_json`` output; keys left out take the field defaults. An
        unknown kind is named before any key it would read."""
        if isinstance(data, dict) and data.get("kind", cls.kind) not in tuple(NTP_PARAMS):
            raise ValueError(f"unknown NTP model kind {data['kind']!r}")
        numbers = dict.fromkeys(("delta_cap", "concentration", "exponent"), json_float)
        return cls(**read_fields(data, {"kind": str, **numbers}, "ntp_model"))

    def describe(self) -> str:
        return f"{self.kind}({getattr(self, NTP_PARAMS[self.kind])})"


@dataclass(frozen=True)
class StreamSpec:
    """Everything needed to generate one stream, replayable from the seed.

    The generator does not require planted segments to respect any minimum
    length or separation; harness-level checks can enforce that when a
    benchmark calls for it.
    """

    n: int
    true_segments: Segments
    scheme: SchemeSpec
    ntp_model: NtpModel
    seed: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("stream length must be positive")
        self.true_segments.check_within(self.n)
        check_seed(self.seed)


@dataclass(frozen=True, eq=False)
class Stream:
    """A token stream, the master seed and scheme that key it, and its
    planted segments: what detection reads and what a stream file holds.
    ``generate_stream`` and ``read_stream_jsonl`` both return one. It holds
    no scores; its consumer scores it with ``score_tokens``.

    ``keys`` is derived on first read, one key per distinct context, so
    positions that share a context share one key object. Generation keeps
    no key: it decodes through per-context decoders, which it drops.
    """

    tokens: np.ndarray
    seed: int
    scheme: SchemeSpec
    true_segments: Segments

    @functools.cached_property
    def keys(self) -> tuple[PseudoKey, ...]:
        """Every position's key: that of the token before it, or of
        CONTEXT_SENTINEL at the first position."""
        contexts = [CONTEXT_SENTINEL, *self.tokens[:-1].tolist()]
        key_of = {prev: self.scheme.key_at(key_seed(self.seed, prev))
                  for prev in dict.fromkeys(contexts)}
        return tuple(map(key_of.__getitem__, contexts))


def generate_stream(spec: StreamSpec) -> Stream:
    """The stream of a spec: its generated tokens, with the spec's seed,
    scheme and segments.

    Inside a planted segment the token is the scheme's decode of (NTP, key);
    outside it is sampled from the NTP independently of the key, which is
    exactly the coupling the pivot statistics detect. Generation runs in two
    phases. First every position outside the segments takes its token from
    ``NtpModel.null_tokens``, in position order, with no NTP vector drawn
    (the module docstring says why). Then the positions inside the segments
    run in blocks of at most ``_BLOCK_ENTRIES`` NTP entries: a block's rows
    come from one ``NtpModel.sample`` call and pass ``check_decodable``
    once, and its positions, in order, decode their rows with the decoder
    of the token before (``_decode_rows``). Each context of such a position
    builds its decoder once, into a memo of one decoder per context; no
    ``SchemeSpec.key_at`` is called here, and ``Stream.keys`` derives the
    keys when it is first read. Nothing is scored (``score_tokens``).
    """
    n, vocab_size = spec.n, spec.scheme.vocab_size
    rng_ntp = generator(mix(spec.seed, TAG_NTP))
    rng_null = generator(mix(spec.seed, TAG_NULL_DRAW))
    inside = spec.true_segments.mask(n)
    decoder_of = {}
    tokens = np.empty(n, dtype=np.int64)
    null = np.flatnonzero(~inside)
    tokens[null] = spec.ntp_model.null_tokens(rng_null, vocab_size, null)
    marked = np.flatnonzero(inside)
    block_rows = max(1, _BLOCK_ENTRIES // vocab_size)
    for start in range(0, marked.size, block_rows):
        positions = marked[start:start + block_rows]
        probs = check_decodable(spec.ntp_model.sample(rng_ntp, vocab_size, positions),
                                (positions.size, vocab_size))
        _decode_rows(spec, decoder_of, tokens, positions, probs)
    return Stream(tokens, spec.seed, spec.scheme, spec.true_segments)


def _decode_rows(spec: StreamSpec, decoder_of: dict, tokens: np.ndarray,
                 positions: np.ndarray, rows: np.ndarray) -> None:
    """Set ``tokens`` at ``positions``, in order, each to the decode of its
    checked row with the decoder of the token before it, built once per
    context into the memo ``decoder_of``. Generation builds and calls its
    decoders only here, inside one ``np.errstate``: gumbel's log(U)/P is
    -inf where P is +0.0 or denormal, and that token never wins."""
    with np.errstate(divide="ignore", over="ignore"):
        for i, row in zip(positions.tolist(), rows):
            prev = int(tokens[i - 1]) if i else CONTEXT_SENTINEL
            decode = decoder_of.get(prev)
            if decode is None:
                decode = decoder_of[prev] = spec.scheme.decoder(key_seed(spec.seed, prev))
            tokens[i] = decode(row)


def score_tokens(tokens: Sequence[int], master_seed: int, scheme: SchemeSpec) -> PivotSeries:
    """Verifier-side scored pivots for an arbitrary (possibly edited) stream.

    Tokens that are not a 1-D array raise ValueError, tokens that are not
    integers TypeError, tokens outside [0, V) IndexError and a seed outside
    [0, 2^64) ValueError. Every position's key seed, that of the token before
    it or of CONTEXT_SENTINEL at the first position, comes from one array
    pass and the scheme reads the pivots from the seeds (``scheme.pivots``);
    the pivot array is scored in one call.
    """
    tokens = np.asarray(tokens)
    if tokens.ndim != 1:
        raise ValueError(f"tokens must be a 1-D array, not one of shape {tokens.shape}")
    if tokens.size == 0:
        raise ValueError("token sequence is empty")
    if tokens.dtype.kind not in "iu":  # a float or bool array would be truncated to ints
        raise TypeError(f"tokens are not an integer array: dtype {tokens.dtype}")
    check_tokens(tokens, scheme.vocab_size)
    tokens = tokens.astype(np.int64, copy=False)
    seeds = key_seeds(check_seed(master_seed), np.concatenate(([CONTEXT_SENTINEL], tokens[:-1])))
    pivots = scheme.pivots(tokens, seeds)
    return PivotSeries(
        scores=scheme.score(pivots), null_mean=scheme.null_mean, scheme_id=scheme.scheme_id
    )


# ---------------------------------------------------------------------------
# JSONL stream files: one header record, then one body record of the tokens
# ---------------------------------------------------------------------------


# Every key of a stream file's header record, each required on reading, and
# its reader.
_HEADER_READERS = {"n": json_int, "seed": json_int, "true_segments": Segments,
                   "scheme": SchemeSpec.from_json}


# The body line ``write_stream_jsonl`` writes: these around the tokens, which
# are joined by ", ".
_BODY_HEAD, _BODY_TAIL = '{"tokens": [', "]}\n"
_DROP_DIGITS = str.maketrans("", "", "0123456789")


def _writer_tokens(line: str) -> np.ndarray | None:
    """The tokens of a body line spelled exactly as ``write_stream_jsonl``
    writes it, each below 10^18, parsed in whole-string and whole-array
    passes; None for any other line, which ``json`` reads.

    The text is checked before the parse, since ``np.fromstring`` also reads
    an empty token as 0, reads 01, +1 and extra spaces, and saturates a
    value beyond int64 at 2^63 - 1.
    """
    if not (line.startswith(_BODY_HEAD) and line.endswith(_BODY_TAIL)):
        return None
    inner = line[len(_BODY_HEAD):-len(_BODY_TAIL)]
    gaps = inner.translate(_DROP_DIGITS)
    count = len(gaps) // 2 + 1
    # Only ", " separators, each between two non-empty tokens.
    if (gaps != ", " * (count - 1) or inner.count(", ") != count - 1
            or not inner[:1].isdigit() or not inner[-1:].isdigit() or ", , " in inner):
        return None
    tokens = np.fromstring(inner, dtype=np.int64, sep=",")
    if tokens.size != count:
        return None
    top = int(tokens.max())
    if top >= 10**18:  # a token of 19 digits or more, which the parse may saturate
        return None
    # A token's text is at least as long as its value's decimal digits, and
    # exactly as long only without leading zeros.
    digits = count + sum(int(np.count_nonzero(tokens >= 10**j)) for j in range(1, len(str(top))))
    return tokens if digits + 2 * (count - 1) == len(inner) else None


def write_stream_jsonl(path: str | Path, stream: Stream) -> None:
    """Write the header record ``{"n", "seed", "true_segments", "scheme"}``,
    then the body record ``{"tokens": [...]}``; ``n`` is the token count."""
    header = {"n": stream.tokens.size, "seed": stream.seed,
              "true_segments": stream.true_segments.to_pairs(), "scheme": stream.scheme.to_json()}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        fh.write(json.dumps({"tokens": stream.tokens.tolist()}) + "\n")


def read_stream_jsonl(path: str | Path) -> Stream:
    """Read a stream file written by ``write_stream_jsonl`` into a ``Stream``.

    The file holds exactly two records, the header and the body. The header
    must hold exactly the keys the writer puts there and the body only
    ``tokens``; a record that is not a JSON object, and an unknown or
    missing key, raise ValueError naming it, as do
    a header value of another JSON type than the writer's (a ``seed`` of
    7.0, "7" or true), a segment that is not an [l, r] pair of integers, a
    seed outside [0, 2^64), a number too large for a float, a token count
    other than the header's ``n``, a token that is not a JSON integer and a
    record after the body. The scheme's null mean and id come from its
    ``scheme`` object alone. Nothing is scored here: the consumer scores the
    tokens (``score_tokens``).

    A body line in the writer's exact spelling, its tokens below 10^18 with
    no leading zeros, is parsed as one array (``_writer_tokens``); every
    other body line goes through ``json``, which reads any other spelling of
    the same record to the same tokens and gives every error above.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        line = fh.readline()
        tokens = _writer_tokens(line)
        body = {"tokens": tokens} if tokens is not None else json.loads(line or "{}")
        trailing = fh.read().strip()
    fields = read_fields(header, _HEADER_READERS, "stream header", required=_HEADER_READERS)
    check_keys(body, ("tokens",), "stream body", required=("tokens",))
    if trailing:
        raise ValueError(f"{path}: records follow the body record")
    n = fields["n"]
    tokens = body["tokens"]
    if not isinstance(tokens, (list, np.ndarray)):  # json gives no array
        raise ValueError(f"{path}: body tokens must be a JSON list, not {type(tokens).__name__}")
    if len(tokens) != n:
        raise ValueError(f"{path}: header says n={n} but the body has {len(tokens)} tokens")
    if isinstance(tokens, list):
        # type(), not isinstance(): a JSON true reads as a bool, an int subclass.
        if set(map(type, tokens)) - {int}:
            i = next(i for i, token in enumerate(tokens) if type(token) is not int)
            raise ValueError(f"{path}: token {tokens[i]!r} at t={i + 1} is not an integer")
        try:
            tokens = np.array(tokens, dtype=np.int64)
        except OverflowError:
            raise ValueError(f"{path}: a token lies outside the int64 range") from None
    return Stream(tokens, check_seed(fields["seed"]), fields["scheme"],
                  fields["true_segments"].check_within(n))
