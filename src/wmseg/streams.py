"""Synthetic mixed-source token streams with planted watermarked intervals.

Every position of a stream has a next-token probability (NTP) vector from a
constrained model class and a pseudo-random key derived by hashing the
previous token with the master seed (context window of one token). Its
token is the scheme's decode of (NTP, key) inside a planted segment and an
independent sample from the NTP outside. The scored pivots of the resulting
stream are what the segmenter consumes. A JSONL stream file carries the
tokens between tools, with the seed and scheme that score them: a header
record, then one body record holding the token list, which the verifier
rescores. A body line spelled exactly as ``write_stream_jsonl`` writes it,
``{"tokens": [`` then decimal integers below 10^18 without leading zeros
joined by ``", "`` then ``]}`` and a newline, is read in a few whole-string
and whole-array passes, with no Python int per token; any other body line
is read by ``json``, to the same tokens or the same error.

Generation draws NTP rows only for the positions inside a segment, which
decode with them. Each position's row is drawn independently of every other
draw, and the token of a position outside the segments reads only its own
row and a fresh uniform, so that token is Categorical(E[row]) and
independent of the rest of the stream. ``NtpModel.null_tokens`` draws it
from that mean directly: the ``dirichlet`` and ``zipf`` row laws are
exchangeable over the tokens, so their mean is uniform and the null tokens
are one ``integers(0, V)`` array, while a ``fixed`` row is its own mean and
keeps its per-position inverse-CDF draw. The positions inside the segments
run in blocks of at most 2^15 NTP entries (32 rows at V=1000): one
``NtpModel.sample`` call draws the rows of a block and one check validates
them, then its positions decode one at a time, since each decodes with the
key of the token before it. Every draw is taken in position order from the
two generators, so the outputs do not depend on the block size.

A key depends only on the master seed and the previous token, so a stream
of n tokens over a vocabulary of V has at most min(n, V + 1) distinct keys.
Generation builds a decoder (the scheme's ``decoder``) only for the context
of a position inside a segment, once per distinct context, so a decoder's
work for its key (gumbel's V logs, for one) is paid once per context; it
calls no ``SchemeSpec.key_at``. ``Stream.keys`` derives every context's key
when it is first read, once per distinct context, so positions that share
a context share one key object; a caller that reads only the tokens or the
pivots never pays for them. The verifier calls no ``SchemeSpec.key_at``
and builds no key and no generator, for any scheme: ``score_tokens``
derives every position's key seed in one array pass and the scheme reads
its pivots from the seeds through the keyed hashes of ``keys``, one per
position. Generation scores through ``score_tokens`` too, so both give
the same bits.
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
                      check_tokens, json_float, json_int, read_fields, validate_probs)

NTP_KINDS = ("dirichlet", "zipf", "fixed")
_REJECTION_LIMIT = 10_000
# Most NTP entries in one block of generated positions: 32 rows at V=1000.
_BLOCK_ENTRIES = 2**15


def cap_probs(probs: np.ndarray, delta: float) -> np.ndarray:
    """Project a probability vector onto {max entry <= 1 - delta}.

    Entries above the cap are pinned to it and the remaining mass is spread
    proportionally over the free entries, repeating until feasible.
    """
    cap = 1.0 - delta
    probs = np.asarray(probs, dtype=float)
    if cap * probs.size < 1.0 - 1e-12:
        raise ValueError(f"cap {cap} infeasible for vocabulary of {probs.size}")
    out = probs / probs.sum()
    while out.max() > cap + 1e-15:
        pinned = out >= cap
        free = ~pinned
        remaining = 1.0 - cap * np.count_nonzero(pinned)
        free_mass = out[free].sum()
        if free_mass <= 0.0:
            out = np.where(pinned, cap, 0.0)
            break
        out = np.where(pinned, cap, out * (remaining / free_mass))
    return out


@dataclass(frozen=True)
class NtpModel:
    """Generator of next-token probability vectors with a max-probability cap.

    ``dirichlet`` draws concentration-alpha vectors (rejection-sampled into
    the cap, then capped outright after 10^4 failures); ``zipf`` permutes a
    capped power-law shape; ``fixed`` cycles through user-supplied vectors.
    ``sample`` returns the vectors of given positions, for decoding;
    ``null_tokens`` returns tokens drawn from them independently of any key
    without drawing a vector.

    The law of a ``dirichlet`` or ``zipf`` vector is exchangeable over the
    tokens: the Dirichlet is symmetric, the cap test and ``cap_probs`` are
    permutation-equivariant, a zipf vector is the capped shape under a
    uniform permutation, and the uniform-only cap gives the uniform vector.
    Its mean is thus the uniform vector. A ``fixed`` vector is its own mean.
    """

    kind: str = "dirichlet"
    delta_cap: float = 0.5
    concentration: float = 0.3
    exponent: float = 1.5
    vectors: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self):
        if self.kind not in NTP_KINDS:
            raise ValueError(f"unknown NTP model kind {self.kind!r}")
        if not 0.0 < self.delta_cap < 1.0:
            raise ValueError("delta_cap must lie in (0, 1)")
        if not (math.isfinite(self.concentration) and self.concentration > 0.0):
            raise ValueError(f"concentration must be finite and positive, "
                             f"not {self.concentration!r}")
        if not math.isfinite(self.exponent):
            raise ValueError(f"exponent must be finite, not {self.exponent!r}")
        if self.kind == "fixed":
            if not self.vectors:
                raise ValueError("fixed NTP model needs at least one vector")
            for vec in self.vectors:
                probs = validate_probs(np.asarray(vec))
                if probs.max() > 1.0 - self.delta_cap + 1e-12:
                    raise ValueError("fixed NTP vector violates the probability cap")

    def _check_cap(self, vocab_size: int) -> float:
        """The cap 1 - delta_cap; ValueError if it admits no vector of size V."""
        cap = 1.0 - self.delta_cap
        if cap * vocab_size < 1.0 - 1e-12:  # the tolerance of cap_probs
            raise ValueError(f"cap {cap} infeasible for vocabulary of {vocab_size}")
        return cap

    def sample(self, rng: np.random.Generator, vocab_size: int,
               positions: np.ndarray) -> np.ndarray:
        """The NTP vectors of the given increasing positions, as
        ``(len(positions), vocab_size)`` rows.

        ``fixed`` row j is vector ``positions[j] mod len(vectors)``. The
        other kinds draw one vector per position from ``rng``, in order, so
        the rows do not depend on how the positions are cut into calls. A
        dirichlet position takes the first of its candidates within the cap,
        or ``cap_probs`` of its 10^4-th; when every position's first
        candidate fits, the block of candidates is returned as drawn. A cap
        that admits no vector raises ValueError, and one that admits only
        the uniform vector (``(1 - delta_cap) * vocab_size == 1``) gives
        uniform rows; neither draws from ``rng``.
        """
        positions = np.asarray(positions, dtype=np.int64)
        count = positions.size
        if self.kind == "fixed":
            vectors = np.asarray(self.vectors, dtype=float)
            return vectors[positions % len(vectors)]
        cap = self._check_cap(vocab_size)
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
        """Tokens at the given increasing positions, each drawn from its
        position's NTP vector independently of every other draw.

        Such a token is Categorical(E[vector]), so no vector is drawn: a
        ``dirichlet`` or ``zipf`` token is uniform on 0..V-1, one
        ``rng.integers`` array, and a ``fixed`` token is the first index
        whose cumulative mass reaches one ``rng.random`` uniform times the
        vector's total, one uniform per position, in order. A cap that
        admits no vector raises ValueError, as in ``sample``.
        """
        positions = np.asarray(positions, dtype=np.int64)
        if self.kind != "fixed":
            self._check_cap(vocab_size)
            return rng.integers(0, vocab_size, positions.size)
        # One cdf per vector instead of a row per position.
        cdfs = np.cumsum(check_decodable(np.asarray(self.vectors, dtype=float),
                                         (len(self.vectors), vocab_size)), axis=1)
        which = positions % len(cdfs)
        targets = rng.random(positions.size) * cdfs[which, -1]
        tokens = np.empty(positions.size, dtype=np.int64)
        for j, cdf in enumerate(cdfs):
            at = which == j
            tokens[at] = np.searchsorted(cdf, targets[at], side="left")
        return np.minimum(tokens, vocab_size - 1)

    def to_json(self) -> dict:
        out = {"kind": self.kind, "delta_cap": self.delta_cap}
        if self.kind == "dirichlet":
            out["concentration"] = self.concentration
        elif self.kind == "zipf":
            out["exponent"] = self.exponent
        else:
            out["vectors"] = [list(v) for v in self.vectors]
        return out

    @classmethod
    def from_json(cls, data: dict) -> "NtpModel":
        """Read ``to_json`` output; keys left out take the field defaults."""
        return cls(**read_fields(data, {
            "kind": str, "delta_cap": json_float, "concentration": json_float,
            "exponent": json_float,
            "vectors": lambda vectors: tuple(tuple(v) for v in vectors),
        }, "ntp_model"))

    def describe(self) -> str:
        if self.kind == "dirichlet":
            return f"dirichlet({self.concentration})"
        if self.kind == "zipf":
            return f"zipf({self.exponent})"
        return f"fixed({len(self.vectors)})"


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
        Segments(self.true_segments.intervals, n=self.n)  # bounds check
        check_seed(self.seed)

    @property
    def vocab_size(self) -> int:
        return self.scheme.vocab_size


@dataclass(frozen=True)
class Stream:
    """A generated stream: tokens, scored pivots and per-position keys.

    ``keys`` is derived on first read, one key per distinct context, so
    positions that share a context share one key object. Generation keeps
    no key: it decodes through per-context decoders, which it drops.
    """

    spec: StreamSpec
    tokens: np.ndarray
    pivots: PivotSeries

    @functools.cached_property
    def keys(self) -> tuple[PseudoKey, ...]:
        """Every position's key: that of the token before it, or of
        CONTEXT_SENTINEL at the first position."""
        contexts = [CONTEXT_SENTINEL, *self.tokens[:-1].tolist()]
        key_of = {prev: self.spec.scheme.key_at(key_seed(self.spec.seed, prev))
                  for prev in dict.fromkeys(contexts)}
        return tuple(map(key_of.__getitem__, contexts))


def generate_stream(spec: StreamSpec) -> Stream:
    """Generate the tokens and scored pivots of a stream spec.

    Inside a planted segment the token is the scheme's decode of (NTP, key);
    outside it is sampled from the NTP independently of the key, which is
    exactly the coupling the pivot statistics detect. Generation runs in two
    phases. First every position outside the segments takes its token from
    ``NtpModel.null_tokens``, in position order, with no NTP vector drawn:
    each position's vector is drawn independently of every other draw and
    only that position's token reads it, so the token is Categorical of the
    vector's mean. Then the positions inside the segments run in blocks of
    at most ``_BLOCK_ENTRIES`` NTP entries: a block's rows come from one
    ``NtpModel.sample`` call and pass ``check_decodable`` once, and its
    positions, in order, decode their rows with the decoder of the token
    before (``_decode_rows``). Each context of such a position builds its
    decoder once, into a memo of one decoder per context; no
    ``SchemeSpec.key_at`` is called here, and
    ``Stream.keys`` derives the keys when it is first read. The pivots are
    scored by the verifier's own scorer, ``score_tokens``, so both give the
    same bits.
    """
    scheme, n, vocab_size = spec.scheme, spec.n, spec.vocab_size
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
    return Stream(spec=spec, tokens=tokens, pivots=score_tokens(tokens, spec.seed, scheme))


def _decode_rows(spec: StreamSpec, decoder_of: dict, tokens: np.ndarray,
                 positions: np.ndarray, rows: np.ndarray) -> None:
    """Set ``tokens`` at ``positions``, in order, each to the decode of its
    checked row with the decoder of the token before it, built once per
    context into the memo ``decoder_of``. Generation builds and calls its
    decoders only here, inside one ``np.errstate``: gumbel's log(U)/P is
    -inf where P is +0.0 or denormal, and that token never wins."""
    scheme = spec.scheme._scheme
    with np.errstate(divide="ignore", over="ignore"):
        for i, row in zip(positions.tolist(), rows):
            prev = int(tokens[i - 1]) if i else CONTEXT_SENTINEL
            decode = decoder_of.get(prev)
            if decode is None:
                decode = decoder_of[prev] = scheme.decoder(key_seed(spec.seed, prev))
            tokens[i] = decode(row)


def _key_seeds(tokens: np.ndarray, master_seed: int) -> np.ndarray:
    """The key seed of every position of a token array: that of the token
    before it, or of CONTEXT_SENTINEL at the first position."""
    if tokens.size == 0:
        raise ValueError("token sequence is empty")
    return key_seeds(master_seed, np.concatenate(([CONTEXT_SENTINEL], tokens[:-1])))


def score_tokens(tokens: Sequence[int], master_seed: int, scheme: SchemeSpec) -> PivotSeries:
    """Verifier-side scored pivots for an arbitrary (possibly edited) stream.

    Tokens outside [0, V) raise IndexError. Every position's key seed comes
    from one array pass and the scheme reads the pivots from the seeds
    (``SchemeSpec.pivots``); the pivot array is scored in one call.
    """
    tokens = np.asarray(tokens, dtype=np.int64)
    check_tokens(tokens, scheme.vocab_size)
    pivots = scheme.pivots(tokens, _key_seeds(tokens, master_seed))
    return PivotSeries(
        scores=scheme.score(pivots), null_mean=scheme.null_mean, scheme_id=scheme.scheme_id
    )


# ---------------------------------------------------------------------------
# JSONL stream files: one header record, then one body record of the tokens
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StreamFile:
    """Contents of a stream JSONL file, as read back by consumers."""

    true_segments: Segments
    tokens: np.ndarray
    seed: int
    scheme: SchemeSpec


# Every key of a stream file's header record, each required on reading, and
# its reader.
_HEADER_READERS = {"n": json_int, "scheme": str, "mu0": json_float, "seed": json_int,
                   "true_segments": Segments, "scheme_params": SchemeSpec.from_json}


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
    """Write the header record, then the body record ``{"tokens": [...]}``."""
    spec = stream.spec
    header = {
        "n": spec.n,
        "scheme": spec.scheme.scheme_id,
        "mu0": spec.scheme.null_mean,
        "seed": spec.seed,
        "true_segments": spec.true_segments.to_pairs(),
        "scheme_params": spec.scheme.to_json(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        fh.write(json.dumps({"tokens": stream.tokens.tolist()}) + "\n")


def read_stream_jsonl(path: str | Path) -> StreamFile:
    """Read a stream file written by ``write_stream_jsonl``.

    The file holds exactly two records, the header and the body. The header
    must hold exactly the keys the writer puts there and the body only
    ``tokens``; a record that is not a JSON object, and an unknown or
    missing key, raise ValueError naming it, as do
    a header value of another JSON type than the writer's (a ``seed`` of
    7.0, "7" or true), a seed outside [0, 2^64), a number too large for a
    float, a token count other than the header's ``n``, a token that is
    not a JSON integer, a record after the body and a file of per-token
    records. A header ``scheme`` or ``mu0`` that disagrees with
    ``scheme_params`` raises ValueError. The verifier scores the tokens
    (``score_tokens``).

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
    # The second line of a file in the old format.
    if isinstance(body, dict) and {"t", "token"} & set(body):
        raise ValueError(f"{path}: per-token `t`/`token` records are no longer read; "
                         f"regenerate the stream")
    check_keys(body, ("tokens",), "stream body", required=("tokens",))
    if trailing:
        raise ValueError(f"{path}: records follow the body record")
    n, scheme = fields["n"], fields["scheme_params"]
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
    if fields["scheme"] != scheme.scheme_id:
        raise ValueError(
            f"{path}: header scheme {fields['scheme']!r} differs from "
            f"scheme_params scheme {scheme.scheme_id!r}"
        )
    if not math.isclose(fields["mu0"], scheme.null_mean, rel_tol=1e-12):
        raise ValueError(
            f"{path}: header mu0={fields['mu0']!r} differs from the null mean "
            f"{scheme.null_mean!r} of its scheme_params"
        )
    return StreamFile(
        true_segments=Segments(fields["true_segments"], n=n),
        tokens=tokens,
        seed=check_seed(fields["seed"]),
        scheme=scheme,
    )
