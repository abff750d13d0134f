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
# arrays (int64 / float64 bytes). They pin numpy's PCG64, Dirichlet and
# permutation bit streams as well as this package's key scheme.
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
        "4450389e2dd37d70f15cd01027fe0335c862e18044b4141b6c6539b7f66e95c8",
        "82c0b99315622907c7bc62a95b3c32b2dcc7faac7b71e70136a7bb9e88b559bd",
        "2381e7115cb0fd31909430aa5483ee999265a5df50f4edeb63ed4c9deeda9dda",
    ),
    ("inverse", "dirichlet", 1000): (
        "71474c6d19d5cf4030a522c05cf1009e357b278b34e0071f8ca684b47c689d62",
        "b7d3416fee5b1c919812249dec20ece3fbc48f49e444201a096824be11eb36d1",
        "cbcd59789b644b9bec7b71a6b6224f22d7fa981fab5233ad509f9b698d775fd1",
    ),
    ("inverse", "zipf", 20): (
        "1aeead2656ad7e698efb6f9ccaa9d94557ed724ff0291d229cc141bb7ee0040d",
        "805d8cac0eb8b278c84b7cfd190e57fa48d5006d15373f68bca59097bb4778be",
        "78feadf27f1056b227f0618d4a79a86cd195329ed8819312b091e15e52b5786a",
    ),
    ("inverse", "zipf", 1000): (
        "9ba81f377b36c340def827d582d325027b7ef72a3bbaa9d5bcc5c884e6a782f3",
        "9def39f1cd2daeb154040edfae7446a70a1d91d3f40eefcef298cd04a0b80824",
        "4c1997e271f6ca843bd40976610557e4d0925a7115c4d16ec26a42e39f227eb6",
    ),
    ("red_green", "dirichlet", 20): (
        "84694b12213ee9f82155bbb3200a0e90bced82fc81d20f0ef06f6712020009d6",
        "6f58f6695708ac9d1a83117097afd2813e6440f46668c6423ccda7880f14843b",
        "87a03863f42eb3828ded9c490dc45b361ea8b8e577e42e7533d1c26b42929f31",
    ),
    ("red_green", "dirichlet", 1000): (
        "29f46265bbe0ce918a34f6f306f8b37de754efd9439cd5a0b46c89f1d1c86a0e",
        "673bc54322f8b34faaeaf1dce0c090649ecbf13b67f58d1b7afc61c8efaf73e0",
        "943af58b17c763b9f45e09f7df9a4a2c2223b2c8a254b868697da601e100f2c6",
    ),
    ("red_green", "zipf", 20): (
        "2159f2b2c199dfe1ba7c6bdc62a47b0402673f1f6c0ce91251e9fee69ef7149b",
        "352b6344bdb7811adef85deb0898e8094a54278bae50e3653d5dd1f767f9e915",
        "325b1f89b04baaf9ef492c585c1ffbf95b6485596fbff43078efa6a6f970fe78",
    ),
    ("red_green", "zipf", 1000): (
        "67a684ab7b54a7182bebfb7561cdbbc829e8baadc0466ffc74893a0ae51e74cc",
        "00c24d0dc58e73af65f3d9cab65adb51e009f6eb4ba5af1afebe38b6035adb43",
        "cc0d935a2ceb9970f3deb31a5c87e88b0300ea00adf2f7b8f9baee8a4a9e100d",
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
