"""Keys derived once per distinct context: equivalence, golden outputs and
call counts.

Verifier scoring and generation derive each key once per distinct previous
token. These tests hold them to the per-position definition, bit for bit.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wmseg import keys, schemes, streams
from wmseg.intervals import Segments
from wmseg.keys import CONTEXT_SENTINEL, key_seed
from wmseg.schemes import SCHEME_IDS, SchemeSpec
from wmseg.streams import (
    Deletion,
    Insertion,
    NtpModel,
    StreamSpec,
    Substitution,
    apply_edits,
    generate_stream,
    reconstruct_keys,
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
    scheme = SchemeSpec(scheme_id, 20)
    tokens = np.random.default_rng(1).integers(0, 20, 300)
    prevs = [CONTEXT_SENTINEL, *tokens[:-1].tolist()]
    for key, prev in zip(reconstruct_keys(tokens, 9, scheme), prevs):
        expected = scheme.key_at(key_seed(9, prev))
        for name, value in vars(expected).items():
            assert np.array_equal(getattr(key, name), value)


# ---------------------------------------------------------------------------
# Golden outputs of generate_stream, computed with per-position key
# derivation: SHA-256 of tokens, of pivots.scores and of every position's key
# arrays (int64 / float64 / bool bytes). They pin numpy's PCG64, Dirichlet and
# permutation bit streams as well as this package's key scheme: PCG64 draws
# for gumbel keys, keyed affine permutations for inverse and red_green keys.
# ---------------------------------------------------------------------------

NTPS = {"dirichlet": NtpModel(kind="dirichlet"), "zipf": NtpModel(kind="zipf")}
GOLDEN = {
    ("gumbel", "dirichlet", 20): (
        "517a4747d69e497fa7ecc81a461c141cc446d3caae23d468ec6f8302415f2b38",
        "1320e65d26f11e3e68deb40142c3c49fd0ff79816a967488d704788102bb57c2",
        "9a6949bcccf5f1ab60cf3a49029fd4124ca21ee5496bce1e2786d1a8efb07099",
    ),
    ("gumbel", "dirichlet", 1000): (
        "376043de38adb2d35453d70aed303e81be62ea9466e75756ae9fb50061a4b528",
        "0423bfcd9c5d662e93e9359319bea00479508c6a119bc4620db31d4b321bdeaa",
        "6a9be63bc34c186346bb65e8e983bf43f4486e47a4a239cb90547e1b06754169",
    ),
    ("gumbel", "zipf", 20): (
        "35356d10cc84798b257cdcf22d6834a17ca64e6c80b4a174d5c9de6ad11996d9",
        "81eb9ecfd6a58762abbf85d23355472b7db30450895133a98c1019ad416cfc95",
        "fcfbce03fa9b518fa2a701d24aab4ebea133330b4cfc0257a68a5608eb97262d",
    ),
    ("gumbel", "zipf", 1000): (
        "56db9fc0fe8e972cba2b76d851507f7e668d848a865e7e7004b561345f980ffa",
        "5cf3d9268fc3fccf8f146c8d43582c59a1901224975127a17c0bd9021e3fb085",
        "8c8851029419757cd7b4a05be611871a2cfe745636d85b5dcb361b9c97d25698",
    ),
    ("inverse", "dirichlet", 20): (
        "4098320edefa54348cb014d1570ab02ee68734baaf5f21f478ea878633dff697",
        "4499e0814d3b3bb251bb58de93830418bedf0929bae7669beb8b5f548d0ad4b2",
        "60eb3f8f9c279f00b049f2d835d93e4e50fd52a3398729dd60f1ca7f61168abf",
    ),
    ("inverse", "dirichlet", 1000): (
        "dc2dd8feef099973f0dd74d954ca5bacaae0ad0a03fe654ceb22e0694ace8bdc",
        "c7d2b5620ae5db870d35fefea100f1113144364ce9029e27c67f2c723d218b7e",
        "fffdc6629b3724dd274f2422080aa29a00451f5859b381212d394f9d049d77a4",
    ),
    ("inverse", "zipf", 20): (
        "3d6bad098c3ba3c8f4288ad1bf164c704cbf7c7b4d10eccce6e4c99dce706551",
        "9d529e18976fd54d67dafa4883cb7005ab09df1b23adf6c45e7d94ba002723f9",
        "e9d7ccb1594592fdb48ffa78ad14be119bfd289e8ee579d87a252365875e6aeb",
    ),
    ("inverse", "zipf", 1000): (
        "24c5db75e2e580c8019cbf24e0d848b2d1aa2b328acc5757394d75700e767895",
        "92d38d682c63765317583fa8cbd5eb60b5e302ad21b7483f98c4efa5c502dfe9",
        "94ed5b35dddf46c7cfe755904119f5fb541ddb65c42769f182b5495bfa22cb07",
    ),
    ("red_green", "dirichlet", 20): (
        "da2887a5ce674d6cb70d0580d6e95872440a5ded95b5d1be01e427f7719503ef",
        "b7829d1691400e50cf25177f5c5922990eb29665524149590655cdff930d1cd2",
        "083c425dbeea821ba5d0b5672d7da778ddb30366ac6fc5fba5469ffb6ce14ae4",
    ),
    ("red_green", "dirichlet", 1000): (
        "ddb44bcc9ad53333d0198830f94e766e10b437d3b8ca4738a7d841dd4fd0f17a",
        "cd227db6bd7a8474e8e8c151a6723aa09024bdf3b6616447eb69b51d602eca39",
        "4e72f507e6d9423d9511eb2076f50f4416c1ce1baad079bf095217b675a52b85",
    ),
    ("red_green", "zipf", 20): (
        "9cb46f5ee8f969206ca82a5d9fb344041b3605dc88be392042dd4a0a6d6d23de",
        "091526a879937b33c632b4f177e9115f6aeaabab2ff27bfeb61381c99a5a8434",
        "c4c8fd502a07cefccdc916f81a3cb3e24004afa8ca195e688cfb5b370fe02fa8",
    ),
    ("red_green", "zipf", 1000): (
        "7c581b2144ac27296cea8095dca3c845c280b6a6447e1dc6a8940a471a296164",
        "c6142d4441c08df859a4c3542173989b0bdbfa881c792cb08b567bef7ce076e3",
        "b4cdc671f95e5158c2380e1592a2b20f3a9b9551de3d8534c9ff69fa8eb61f2f",
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
    """Seeds passed to ``keys.generator`` under every name it is called by."""
    calls = []
    original = keys.generator

    def counting(seed):
        calls.append(seed)
        return original(seed)

    for module in (keys, schemes, streams):
        monkeypatch.setattr(module, "generator", counting)
    return calls


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


@pytest.mark.parametrize("derive", ("generate", "reconstruct"))
def test_positions_with_one_context_share_one_key_object(derive):
    spec = StreamSpec(400, Segments([(50, 300)], n=400), SchemeSpec("gumbel", 20), NtpModel(), 4)
    stream = generate_stream(spec)
    keys = stream.keys
    if derive == "reconstruct":
        keys = reconstruct_keys(stream.tokens, spec.seed, spec.scheme)
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
