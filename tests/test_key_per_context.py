"""Keys derived once per distinct context, streams generated in blocks:
equivalence, golden outputs and call counts.

Verifier scoring and generation derive each key once per distinct previous
token, and generation draws its NTP rows and null tokens a block of
positions at a time. These tests hold both to the per-position definition,
bit for bit.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scheme_theory import inverse_cdf_1d
from wmseg import streams
from wmseg.intervals import Segments
from wmseg.keys import CONTEXT_SENTINEL, TAG_NTP, TAG_NULL_DRAW, generator, key_seed, mix
from wmseg.schemes import SCHEME_IDS, SchemeSpec
from wmseg.streams import (
    Deletion,
    Insertion,
    NtpModel,
    StreamSpec,
    Substitution,
    apply_edits,
    cap_probs,
    generate_stream,
    score_tokens,
)


def reference_scores(tokens, seed, scheme):
    """Per-position definition: one key and one scored pivot per position."""
    out = np.empty(len(tokens))
    prev = CONTEXT_SENTINEL
    for i, t in enumerate(tokens):
        out[i] = scheme.pivot_score(int(t), scheme.key_at(key_seed(seed, prev)))
        prev = int(t)
    return out


def reference_ntp(model, rng, vocab_size, position):
    """Per-position definition of ``NtpModel.sample``: one NTP vector."""
    if model.kind == "fixed":
        return np.asarray(model.vectors[position % len(model.vectors)], dtype=float)
    if model.kind == "zipf":
        base = np.arange(1, vocab_size + 1, dtype=float) ** -model.exponent
        base /= base.sum()
        if base.max() > 1.0 - model.delta_cap:
            base = cap_probs(base, model.delta_cap)
        return base[rng.permutation(vocab_size)]
    for _ in range(streams._REJECTION_LIMIT):
        probs = rng.dirichlet(np.full(vocab_size, model.concentration))
        if probs.max() <= 1.0 - model.delta_cap:
            return probs
    return cap_probs(probs, model.delta_cap)


def reference_stream(spec):
    """Per-position definition of ``generate_stream``: one NTP draw, one key
    and one token per position. Returns the tokens, scores and keys."""
    scheme = spec.scheme
    rng_ntp = generator(mix(spec.seed, TAG_NTP))
    rng_null = generator(mix(spec.seed, TAG_NULL_DRAW))
    inside = spec.true_segments.mask(spec.n)
    tokens, keys = [], []
    prev = CONTEXT_SENTINEL
    for i in range(spec.n):
        probs = reference_ntp(spec.ntp_model, rng_ntp, spec.vocab_size, i)
        key = scheme.key_at(key_seed(spec.seed, prev))
        if inside[i]:
            prev = scheme.decode(probs, key)
        else:
            prev = inverse_cdf_1d(probs, rng_null.random())
        tokens.append(prev)
        keys.append(key)
    return np.array(tokens), reference_scores(tokens, spec.seed, scheme), keys


def ntp_models(vocab_size):
    """Dirichlet at a small and a moderate concentration, zipf, and fixed
    vectors of this vocabulary size within the default cap."""
    rng = np.random.default_rng(vocab_size)
    vectors = tuple(tuple(cap_probs(rng.dirichlet(np.ones(vocab_size)), 0.5)) for _ in range(3))
    return {
        "dirichlet-0.05": NtpModel(kind="dirichlet", concentration=0.05),
        "dirichlet-0.3": NtpModel(kind="dirichlet", concentration=0.3),
        "zipf": NtpModel(kind="zipf"),
        "fixed": NtpModel(kind="fixed", vectors=vectors),
    }


def assert_matches_reference(spec, stream):
    tokens, scores, keys = reference_stream(spec)
    assert np.array_equal(stream.tokens, tokens)
    assert np.array_equal(stream.pivots.scores, scores)
    assert len(stream.keys) == len(keys)
    for got, expected in zip(stream.keys, keys):
        for name, value in vars(expected).items():
            assert np.array_equal(getattr(got, name), value)


@pytest.mark.parametrize("ntp", ("dirichlet-0.05", "dirichlet-0.3", "zipf", "fixed"))
@pytest.mark.parametrize("vocab_size", (3, 20, 1000))
@pytest.mark.parametrize("scheme_id", SCHEME_IDS)
def test_generate_stream_matches_the_per_position_reference(scheme_id, vocab_size, ntp,
                                                            monkeypatch):
    n = 300
    spec = StreamSpec(n, Segments([(40, 140), (200, 260)], n=n), SchemeSpec(scheme_id, vocab_size),
                      ntp_models(vocab_size)[ntp], seed=vocab_size + 11)
    assert_matches_reference(spec, generate_stream(spec))
    # Blocks of 64 entries: 1 to 21 rows, so most streams span many blocks.
    monkeypatch.setattr(streams, "_BLOCK_ENTRIES", 64)
    assert_matches_reference(spec, generate_stream(spec))


@pytest.mark.parametrize("block_entries", (2**15, 16))
def test_the_dirichlet_cap_fallback_matches_the_reference(block_entries, monkeypatch):
    """At V=3 and concentration 0.05 most candidates exceed the cap, so with
    the rejection limit at 3 most positions take ``cap_probs`` of their third
    candidate, and runs of rejections cross the batches of candidates."""
    monkeypatch.setattr(streams, "_REJECTION_LIMIT", 3)
    monkeypatch.setattr(streams, "_BLOCK_ENTRIES", block_entries)
    spec = StreamSpec(200, Segments([(30, 120)], n=200), SchemeSpec("gumbel", 3),
                      NtpModel(kind="dirichlet", concentration=0.05), seed=17)
    assert_matches_reference(spec, generate_stream(spec))


@st.composite
def edited_streams(draw):
    """A random token array for a random scheme and V, then a few in-range
    substitutions, insertions and deletions through ``apply_edits``."""
    scheme = SchemeSpec(draw(st.sampled_from(SCHEME_IDS)), draw(st.sampled_from((2, 20, 1000))))
    token = st.integers(0, scheme.vocab_size - 1)
    tokens = np.asarray(draw(st.lists(token, min_size=1, max_size=200)), dtype=np.int64)
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from((Substitution, Insertion, Deletion)))
        if kind is Insertion:
            edit = Insertion(draw(st.integers(1, tokens.size + 1)), draw(token))
        elif kind is Substitution:
            edit = Substitution(draw(st.integers(1, tokens.size)), draw(token))
        elif tokens.size > 1:
            edit = Deletion(draw(st.integers(1, tokens.size)))
        else:
            continue
        tokens = apply_edits(tokens, [edit])
    return scheme, tokens, draw(st.integers(0, 2**63 - 1))


@given(edited_streams())
@settings(max_examples=60)
def test_score_tokens_matches_the_per_position_definition(case):
    scheme, tokens, seed = case
    series = score_tokens(tokens, seed, scheme)
    assert np.array_equal(series.scores, reference_scores(tokens, seed, scheme))


@pytest.mark.parametrize("scheme_id", SCHEME_IDS)
def test_reconstructed_keys_match_per_position_keys(scheme_id):
    """The keys generation shares per context are those a verifier
    reconstructs per position from the tokens and the master seed."""
    spec = StreamSpec(300, Segments([(50, 250)], n=300), SchemeSpec(scheme_id, 20), NtpModel(), 9)
    stream = generate_stream(spec)
    prevs = [CONTEXT_SENTINEL, *stream.tokens[:-1].tolist()]
    for key, prev in zip(stream.keys, prevs):
        expected = spec.scheme.key_at(key_seed(spec.seed, prev))
        for name, value in vars(expected).items():
            assert np.array_equal(getattr(key, name), value)


# ---------------------------------------------------------------------------
# Golden outputs of generate_stream: SHA-256 of tokens, of pivots.scores and
# of every position's key arrays (int64 / float64 / bool bytes). They pin
# numpy's PCG64, Dirichlet and permutation bit streams, which draw the NTPs
# and the unwatermarked tokens, as well as this package's keys: keyed
# splitmix64 hashes per coordinate for gumbel, keyed affine permutations for
# inverse and red_green, and every key uniform on the 2^52 grid of
# ``keys.unit``.
# ---------------------------------------------------------------------------

NTPS = {"dirichlet": NtpModel(kind="dirichlet"), "zipf": NtpModel(kind="zipf")}
GOLDEN = {
    ("gumbel", "dirichlet", 20): (
        "bc9ccc41d1fc1a9bf9d12f6c3591e4c63568e86ee746838d2b1ec019371e8307",
        "7dfcfa43d5f99e22838c392edc79fe7ded4188e22f5696fd90665d6489fd92b2",
        "3e24b6de8094fe36ee0428d0cdb00a3ac3aaf21e9e99084de9440c4156da8b4b",
    ),
    ("gumbel", "dirichlet", 1000): (
        "0d7cbddc9812482af7f79a832698726b8d22f0968ac4960df498525a76569d2d",
        "8e6a08cde392c52cebbfc485b437d6e818eb5b6c8018f9cc1e1626cd3dcb7457",
        "b223927ddda77aa088af27a4ac78246e18c7af6853f0cba0a719f3a8a7cae69c",
    ),
    ("gumbel", "zipf", 20): (
        "ecc0ceefaefcf9aff9779624c845f74f804007739894d1e22647831098de946c",
        "ca31522ee10c4f84600e4d4fd80c4f25a46632c8d1debb972dfb5e9a0191b92e",
        "1a1961f1f0a1fa08b5cd22cbee76355436226b70366c63bc175bddf19aa7c554",
    ),
    ("gumbel", "zipf", 1000): (
        "56d708abad62dc87e37eadc424b4316918dbd66b4ff36697e5ef6038cc717f07",
        "a5d9328853806e96f98b80d839db09361e4c6c9972ba555987bf155e2c901ba2",
        "45a51226fff54cf5a37afa7637f9f66a920976477dcca0aa70a75b001e339271",
    ),
    ("inverse", "dirichlet", 20): (
        "4098320edefa54348cb014d1570ab02ee68734baaf5f21f478ea878633dff697",
        "1761c63f0c223124068ebd5839afed56b7d3de0d25b05ae4ff3c4e3b427811f4",
        "a08117f73a1ff13c712824377acb2bff20d3865a8c79fb1a125886c54cbeb753",
    ),
    ("inverse", "dirichlet", 1000): (
        "dc2dd8feef099973f0dd74d954ca5bacaae0ad0a03fe654ceb22e0694ace8bdc",
        "5869bbee11cbb01310e1cce566c0517558c0d826710dfe32f07aab49b344ee41",
        "8d8dea1cca2342ae79e45dc4024598ea6cdb4a85cadc78a4ad857464dbb4035d",
    ),
    ("inverse", "zipf", 20): (
        "3d6bad098c3ba3c8f4288ad1bf164c704cbf7c7b4d10eccce6e4c99dce706551",
        "8b168d118df6fbc7575665016a3f5ef0a4c1dd86deed74ffd9f79a59c690e6fc",
        "e1cec6206e8ab2a93a49133a90cdae253d0e27f5179d97525f3b056686b65bcf",
    ),
    ("inverse", "zipf", 1000): (
        "24c5db75e2e580c8019cbf24e0d848b2d1aa2b328acc5757394d75700e767895",
        "e30f9595f97645c323dbaef489bb242914f9811733832f2297d3fa3f83db2895",
        "2afb0b3b3c95c5319f0c1495bb6bbb3c6d611afe118132b95649767478928d40",
    ),
    ("red_green", "dirichlet", 20): (
        "da2887a5ce674d6cb70d0580d6e95872440a5ded95b5d1be01e427f7719503ef",
        "b7829d1691400e50cf25177f5c5922990eb29665524149590655cdff930d1cd2",
        "436b68a61bae5d39ebfb292477792e51741d8d089bdb8985b5c470cced126c52",
    ),
    ("red_green", "dirichlet", 1000): (
        "ddb44bcc9ad53333d0198830f94e766e10b437d3b8ca4738a7d841dd4fd0f17a",
        "cd227db6bd7a8474e8e8c151a6723aa09024bdf3b6616447eb69b51d602eca39",
        "b94871cb4febeb8af7022f405277fe87a3540b471d0589f4098ff29fe9bd69f8",
    ),
    ("red_green", "zipf", 20): (
        "9cb46f5ee8f969206ca82a5d9fb344041b3605dc88be392042dd4a0a6d6d23de",
        "091526a879937b33c632b4f177e9115f6aeaabab2ff27bfeb61381c99a5a8434",
        "62176c33ca1ca704b00c4f45ac4d14f9cab1b1a88e50e002114b0952cb9cb621",
    ),
    ("red_green", "zipf", 1000): (
        "7c581b2144ac27296cea8095dca3c845c280b6a6447e1dc6a8940a471a296164",
        "c6142d4441c08df859a4c3542173989b0bdbfa881c792cb08b567bef7ce076e3",
        "a420fb4350a5341438039899bdcc8d9d5f4734b90754e5ce7282fc2bcf3f078c",
    ),
}


def _sha256(*arrays) -> str:
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def golden_spec(scheme_id, ntp, vocab):
    n = 300
    return StreamSpec(
        n, Segments([(40, 140), (200, 260)], n=n), SchemeSpec(scheme_id, vocab), NTPS[ntp],
        seed=vocab + 7,
    )


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_generate_stream_golden_digests(case):
    stream = generate_stream(golden_spec(*case))
    tokens, scores, keys = GOLDEN[case]
    assert _sha256(stream.tokens) == tokens
    assert _sha256(stream.pivots.scores) == scores
    key_arrays = (np.asarray(v) for key in stream.keys for v in vars(key).values())
    assert _sha256(*key_arrays) == keys


# ---------------------------------------------------------------------------
# Deterministic regression guard: key derivations counted, not timed
# ---------------------------------------------------------------------------


@pytest.fixture
def key_at_calls(monkeypatch):
    calls = []
    original = SchemeSpec.key_at

    def counting(self, seed):
        calls.append(seed)
        return original(self, seed)

    monkeypatch.setattr(SchemeSpec, "key_at", counting)
    return calls


@pytest.mark.parametrize("scheme_id", SCHEME_IDS)
def test_score_tokens_derives_at_most_one_key_per_context(scheme_id, key_at_calls):
    tokens = np.random.default_rng(2).integers(0, 20, 2000)
    score_tokens(tokens, 5, SchemeSpec(scheme_id, 20))
    assert len(key_at_calls) <= 21
    assert len(set(key_at_calls)) == len(key_at_calls)


@pytest.fixture
def generator_calls(monkeypatch):
    """Seeds of every PCG64 bit generator built, by ``keys.generator`` or
    any other caller."""
    calls = []
    original = np.random.PCG64

    def counting(seed=None):
        calls.append(seed)
        return original(seed)

    monkeypatch.setattr(np.random, "PCG64", counting)
    return calls


def test_generate_stream_builds_only_the_ntp_and_null_draw_generators(generator_calls):
    spec = StreamSpec(
        600, Segments([(100, 400)], n=600), SchemeSpec("gumbel", 20), NtpModel(), seed=3
    )
    generate_stream(spec)
    assert len(generator_calls) == 2


@pytest.mark.parametrize("scheme_id", SCHEME_IDS)
def test_score_tokens_calls_no_key_at_and_at_most_one_generator(
    scheme_id, key_at_calls, generator_calls
):
    spec = StreamSpec(
        1000, Segments([(200, 700)], n=1000), SchemeSpec(scheme_id, 1000), NtpModel(), seed=6
    )
    stream = generate_stream(spec)
    key_at_calls.clear()
    generator_calls.clear()
    series = score_tokens(stream.tokens, spec.seed, spec.scheme)
    assert key_at_calls == []
    assert generator_calls == []
    assert np.array_equal(series.scores, reference_scores(stream.tokens, spec.seed, spec.scheme))


@pytest.mark.parametrize("scheme_id", SCHEME_IDS)
def test_generate_stream_derives_one_key_per_distinct_context(scheme_id, key_at_calls):
    spec = StreamSpec(
        600, Segments([(100, 400)], n=600), SchemeSpec(scheme_id, 20), NtpModel(), seed=3
    )
    stream = generate_stream(spec)
    contexts = {CONTEXT_SENTINEL, *stream.tokens[:-1].tolist()}
    assert len(key_at_calls) == len(contexts)


@pytest.mark.parametrize("derive", ("generate",))
def test_positions_with_one_context_share_one_key_object(derive):
    spec = StreamSpec(400, Segments([(50, 300)], n=400), SchemeSpec("gumbel", 20), NtpModel(), 4)
    stream = generate_stream(spec)
    keys = stream.keys
    prevs = [CONTEXT_SENTINEL, *stream.tokens[:-1].tolist()]
    first = {}
    for i, prev in enumerate(prevs):
        j = first.setdefault(prev, i)
        assert keys[i] is keys[j]
    assert len({id(key) for key in keys}) == len(first)


@pytest.mark.parametrize("scheme_id", SCHEME_IDS)
@pytest.mark.parametrize("bad", (-1, 20))
def test_score_tokens_rejects_out_of_vocabulary_tokens(scheme_id, bad):
    tokens = np.arange(10) % 20
    tokens[6] = bad
    with pytest.raises(IndexError, match=f"token {bad} outside vocabulary of 20"):
        score_tokens(tokens, 1, SchemeSpec(scheme_id, 20))
