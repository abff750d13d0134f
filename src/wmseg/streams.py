"""Synthetic mixed-source token streams with planted watermarked intervals.

Every position of a stream has a next-token probability (NTP) vector from a
constrained model class and a pseudo-random key derived by hashing the
previous token with the master seed (context window of one token). Its
token is the scheme's decode of (NTP, key) inside a planted segment and an
independent sample from the NTP outside. The scored pivots of the resulting
stream are what the segmenter consumes. A JSONL stream file carries the
tokens between tools, with the seed and scheme that score them: a header
record, then one body record holding the token list, which the verifier
rescores.

Generation works on blocks of positions, each holding at most 2^15 NTP
entries (32 rows at V=1000). One ``NtpModel.sample`` call draws the NTP
rows of a block and one check validates them. The positions outside the
segments need no key: they take their tokens from one array of null
uniforms through one row-wise ``inverse_cdf``. Only the positions inside a
segment run one at a time, since each decodes with the key of the token
before it. Every draw is taken in position order from the same two
generators, so the tokens, keys and pivots are the bits a loop over single
positions gives, whatever the block size.

A key depends only on the master seed and the previous token, so a stream
of n tokens over a vocabulary of V has at most min(n, V + 1) distinct keys.
Generation derives each key once per distinct context, to decode with it
and to list it in ``Stream.keys``; positions that share a context share one
key object. The verifier calls no ``SchemeSpec.key_at`` and builds no key
and no generator, for any scheme: ``score_tokens`` derives every position's
key seed in one array pass and the scheme reads its pivots from the seeds
through the keyed hashes of ``keys``, one per position. Generation scores
through ``score_tokens`` too, so it draws no key twice and both give the
same bits.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .intervals import Segments
from .keys import (
    CONTEXT_SENTINEL,
    TAG_NTP,
    TAG_NULL_DRAW,
    generator,
    key_seed,
    key_seeds,
    mix,
)
from .schemes import (PivotSeries, PseudoKey, SchemeSpec, check_decodable, check_keys,
                      check_tokens, inverse_cdf, read_fields, validate_probs)

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
    ``sample`` returns the vectors of a block of consecutive positions.
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
        if self.kind == "fixed":
            if not self.vectors:
                raise ValueError("fixed NTP model needs at least one vector")
            for vec in self.vectors:
                probs = validate_probs(np.asarray(vec))
                if probs.max() > 1.0 - self.delta_cap + 1e-12:
                    raise ValueError("fixed NTP vector violates the probability cap")

    def sample(self, rng: np.random.Generator, vocab_size: int, start: int,
               count: int) -> np.ndarray:
        """The NTP vectors of positions start, ..., start + count - 1, as
        ``(count, vocab_size)`` rows.

        ``fixed`` row j is vector ``(start + j) mod len(vectors)``. The other
        kinds draw from ``rng`` in position order, so the rows of a stream
        do not depend on how its positions are cut into calls. A dirichlet
        position takes the first of its candidates within the cap, or
        ``cap_probs`` of its 10^4-th. A cap that admits no vector raises
        ValueError, and one that admits only the uniform vector
        (``(1 - delta_cap) * vocab_size == 1``) gives uniform rows; neither
        draws from ``rng``.
        """
        if self.kind == "fixed":
            vectors = np.asarray(self.vectors, dtype=float)
            return vectors[(start + np.arange(count)) % len(vectors)]
        cap = 1.0 - self.delta_cap
        if cap * vocab_size < 1.0 - 1e-12:  # the tolerance of cap_probs
            raise ValueError(f"cap {cap} infeasible for vocabulary of {vocab_size}")
        if cap * vocab_size <= 1.0 + 1e-12:
            return np.full((count, vocab_size), 1.0 / vocab_size)
        if self.kind == "zipf":
            base = np.arange(1, vocab_size + 1, dtype=float) ** -self.exponent
            base /= base.sum()
            if base.max() > cap:
                base = cap_probs(base, self.delta_cap)
            return np.array([base[rng.permutation(vocab_size)] for _ in range(count)])
        # Every row takes at least one candidate, so drawing one candidate per
        # row still to fill draws none beyond the last one the rows take.
        alpha = np.full(vocab_size, self.concentration)
        rows = np.empty((count, vocab_size))
        candidates = rng.dirichlet(alpha, size=count)
        filled = rejected = 0  # rejected: consecutive candidates of the current row
        while True:
            for candidate, fits in zip(candidates, (candidates.max(axis=1) <= cap).tolist()):
                if fits or rejected == _REJECTION_LIMIT - 1:
                    rows[filled] = candidate if fits else cap_probs(candidate, self.delta_cap)
                    filled, rejected = filled + 1, 0
                else:
                    rejected += 1
            if filled == count:
                return rows
            candidates = rng.dirichlet(alpha, size=count - filled)

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
            "kind": str, "delta_cap": float, "concentration": float, "exponent": float,
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

    @property
    def vocab_size(self) -> int:
        return self.scheme.vocab_size


@dataclass(frozen=True)
class Stream:
    """A generated stream: tokens, per-position keys, and scored pivots."""

    spec: StreamSpec
    tokens: np.ndarray
    keys: tuple[PseudoKey, ...]
    pivots: PivotSeries


def generate_stream(spec: StreamSpec) -> Stream:
    """Generate tokens, keys and scored pivots for a stream spec.

    Inside a planted segment the token is the scheme's decode of (NTP, key);
    outside it is sampled from the NTP independently of the key, which is
    exactly the coupling the pivot statistics detect. The positions run in
    blocks of at most ``_BLOCK_ENTRIES`` NTP entries: a block's NTP rows come
    from one ``NtpModel.sample`` call and pass ``check_decodable`` once; its
    positions outside the segments take their tokens from one
    ``rng_null.random`` array through one ``inverse_cdf``; and its positions
    inside, in order, decode their rows with ``SchemeSpec.decode_row`` under
    the key of the token before. Each distinct context derives its key
    once, so positions with the same previous token share one key object in
    ``Stream.keys``. The pivots are then scored by the verifier's own
    scorer, ``score_tokens``, so both give the same bits.
    """
    scheme, n, vocab_size = spec.scheme, spec.n, spec.vocab_size
    rng_ntp = generator(mix(spec.seed, TAG_NTP))
    rng_null = generator(mix(spec.seed, TAG_NULL_DRAW))
    inside = spec.true_segments.mask(n)
    key_of: dict[int, PseudoKey] = {}

    def key_after(prev: int) -> PseudoKey:
        key = key_of.get(prev)
        if key is None:
            key = key_of[prev] = scheme.key_at(key_seed(spec.seed, prev))
        return key

    tokens = np.empty(n, dtype=np.int64)
    block_rows = max(1, _BLOCK_ENTRIES // vocab_size)
    for start in range(0, n, block_rows):
        count = min(block_rows, n - start)
        probs = check_decodable(spec.ntp_model.sample(rng_ntp, vocab_size, start, count),
                                (count, vocab_size))
        block, marked = tokens[start:start + count], inside[start:start + count]
        null = ~marked
        block[null] = inverse_cdf(probs[null], rng_null.random(np.count_nonzero(null)))
        for j in np.flatnonzero(marked).tolist():
            prev = int(tokens[start + j - 1]) if start + j else CONTEXT_SENTINEL
            block[j] = scheme.decode_row(probs[j], key_after(prev))
    keys = tuple(map(key_after, [CONTEXT_SENTINEL, *tokens[:-1].tolist()]))
    series = score_tokens(tokens, spec.seed, scheme)
    return Stream(spec=spec, tokens=tokens, keys=keys, pivots=series)


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
# Edits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Substitution:
    position: int  # 1-based
    token: int


@dataclass(frozen=True)
class Insertion:
    position: int  # new token ends up at this 1-based position
    token: int


@dataclass(frozen=True)
class Deletion:
    position: int  # 1-based


Edit = Substitution | Insertion | Deletion


def apply_edits(tokens: Sequence[int], edits: Sequence[Edit]) -> np.ndarray:
    """Apply substitutions, insertions and deletions in order.

    Positions refer to the sequence as it stands when each edit applies, so
    a deletion shifts everything after it left by one.
    """
    out = list(np.asarray(tokens, dtype=np.int64))
    for edit in edits:
        if isinstance(edit, Substitution):
            if not 1 <= edit.position <= len(out):
                raise IndexError(f"substitution position {edit.position} out of bounds")
            out[edit.position - 1] = edit.token
        elif isinstance(edit, Insertion):
            if not 1 <= edit.position <= len(out) + 1:
                raise IndexError(f"insertion position {edit.position} out of bounds")
            out.insert(edit.position - 1, edit.token)
        elif isinstance(edit, Deletion):
            if not 1 <= edit.position <= len(out):
                raise IndexError(f"deletion position {edit.position} out of bounds")
            del out[edit.position - 1]
        else:
            raise TypeError(f"unknown edit {edit!r}")
    return np.asarray(out, dtype=np.int64)


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


# Every key of a stream file's header record, each required on reading.
_HEADER_KEYS = ("n", "scheme", "mu0", "seed", "true_segments", "scheme_params")


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
    ``tokens``; an unknown or missing key raises ValueError naming it, as do
    a token count other than the header's ``n``, a token that is not a JSON
    integer, a record after the body and a file of per-token records. A
    header ``scheme`` or ``mu0`` that disagrees with ``scheme_params``
    raises ValueError. The verifier scores the tokens (``score_tokens``).
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        body = json.loads(fh.readline() or "{}")
        trailing = fh.read().strip()
    check_keys(header, _HEADER_KEYS, "stream header", required=_HEADER_KEYS)
    if {"t", "token"} & set(body):  # the second line of a file in the old format
        raise ValueError(f"{path}: per-token `t`/`token` records are no longer read; "
                         f"regenerate the stream")
    check_keys(body, ("tokens",), "stream body", required=("tokens",))
    if trailing:
        raise ValueError(f"{path}: records follow the body record")
    n = int(header["n"])
    tokens = body["tokens"]
    if not isinstance(tokens, list):
        raise ValueError(f"{path}: body tokens must be a JSON list, not {type(tokens).__name__}")
    if len(tokens) != n:
        raise ValueError(f"{path}: header says n={n} but the body has {len(tokens)} tokens")
    # type(), not isinstance(): a JSON true reads as a bool, an int subclass.
    if set(map(type, tokens)) - {int}:
        i = next(i for i, token in enumerate(tokens) if type(token) is not int)
        raise ValueError(f"{path}: token {tokens[i]!r} at t={i + 1} is not an integer")
    try:
        tokens = np.array(tokens, dtype=np.int64)
    except OverflowError:
        raise ValueError(f"{path}: a token lies outside the int64 range") from None
    scheme = SchemeSpec.from_json(header["scheme_params"])
    if header["scheme"] != scheme.scheme_id:
        raise ValueError(
            f"{path}: header scheme {header['scheme']!r} differs from "
            f"scheme_params scheme {scheme.scheme_id!r}"
        )
    if not math.isclose(float(header["mu0"]), scheme.null_mean, rel_tol=1e-12):
        raise ValueError(
            f"{path}: header mu0={header['mu0']!r} differs from the null mean "
            f"{scheme.null_mean!r} of its scheme_params"
        )
    return StreamFile(
        true_segments=Segments(header["true_segments"], n=n),
        tokens=tokens,
        seed=int(header["seed"]),
        scheme=scheme,
    )
