"""Keys derived once per distinct context, streams generated in blocks:
equivalence, golden outputs and call counts.

Verifier scoring and generation derive each key once per distinct previous
token, and generation draws the null tokens in one call and the NTP rows of
the watermarked positions a block at a time. These tests hold both to the
per-position definition, bit for bit.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edits import Deletion, Insertion, Substitution, apply_edits
from scheme_theory import inverse_cdf_1d
from wmseg import streams
from wmseg.intervals import Segments
from wmseg.keys import CONTEXT_SENTINEL, TAG_NTP, TAG_NULL_DRAW, generator, key_seed, mix
from wmseg.schemes import SCHEME_IDS, SchemeSpec
from wmseg.streams import (
    NtpModel,
    StreamSpec,
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
    """Per-position definition of ``generate_stream``: one key and one token
    per position, with an NTP draw only at the positions inside a segment.
    A position outside takes its token from the mean NTP vector: the next
    entry of one ``rng_null.integers(0, V, k)`` array for dirichlet and
    zipf, whose mean is uniform, or ``inverse_cdf_1d`` of its fixed vector at
    one ``rng_null.random()``. Returns the tokens, scores and keys."""
    scheme, model, vocab_size = spec.scheme, spec.ntp_model, spec.vocab_size
    rng_ntp = generator(mix(spec.seed, TAG_NTP))
    rng_null = generator(mix(spec.seed, TAG_NULL_DRAW))
    inside = spec.true_segments.mask(spec.n)
    if model.kind != "fixed":
        uniform_tokens = iter(rng_null.integers(0, vocab_size, np.count_nonzero(~inside)).tolist())
    tokens, keys = [], []
    prev = CONTEXT_SENTINEL
    for i in range(spec.n):
        key = scheme.key_at(key_seed(spec.seed, prev))
        if inside[i]:
            prev = scheme.decode(reference_ntp(model, rng_ntp, vocab_size, i), key)
        elif model.kind == "fixed":
            prev = inverse_cdf_1d(reference_ntp(model, None, vocab_size, i), rng_null.random())
        else:
            prev = next(uniform_tokens)
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


def test_the_reference_tests_reach_both_dirichlet_paths(monkeypatch):
    """``NtpModel.sample`` returns a dirichlet block as drawn when every
    first candidate fits the cap, and otherwise fills it row by row in
    ``_capped_rows``. The reference tests above hold both paths to the
    per-position definition: run their dirichlet cases at V=3 and 20 and
    count the paths they take. The NTP draws do not depend on the scheme,
    so gumbel stands for all three."""
    samples, fallbacks = [], []
    sample, capped_rows = NtpModel.sample, NtpModel._capped_rows

    def counting_sample(self, *args):
        samples.append(self.kind)
        return sample(self, *args)

    def counting_capped_rows(self, *args):
        fallbacks.append(self.kind)
        return capped_rows(self, *args)

    monkeypatch.setattr(NtpModel, "sample", counting_sample)
    monkeypatch.setattr(NtpModel, "_capped_rows", counting_capped_rows)
    for vocab_size in (3, 20):
        for ntp in ("dirichlet-0.05", "dirichlet-0.3"):
            with pytest.MonkeyPatch.context() as inner:
                test_generate_stream_matches_the_per_position_reference(
                    "gumbel", vocab_size, ntp, inner)
    for block_entries in (2**15, 16):
        with pytest.MonkeyPatch.context() as inner:
            test_the_dirichlet_cap_fallback_matches_the_reference(block_entries, inner)
    assert samples.count("dirichlet") > len(fallbacks) > 0


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
# numpy's PCG64 bit streams: the Dirichlet and permutation draws of the NTP
# rows inside the segments, the bounded-integer draws of the unwatermarked
# dirichlet and zipf tokens, and the uniforms of the unwatermarked fixed-NTP
# tokens. They also pin this package's keys: keyed splitmix64 hashes per
# coordinate for gumbel, keyed affine permutations for inverse and
# red_green, and every key uniform on the 2^52 grid of ``keys.unit``. The
# fixed-NTP digests also held when every position drew its NTP row, since
# a fixed row is its own mean.
# ---------------------------------------------------------------------------

GOLDEN = {
    ("gumbel", "dirichlet", 20): (
        "e712ab3358722b9a269018bf066ed626d6d074f0ed18225f212bd0b38424818e",
        "923429efb0697ad463248846971cc64f9ef9f96c009f6147e58104bbfc767786",
        "85ab58104aa47ec295256bde4010c576fe7ceab20b1593b2c965001748856420",
    ),
    ("gumbel", "dirichlet", 1000): (
        "0f2ecbf8bf5246ddeb12877df856d75a86e9dfbe953d9251a56bbaf1bb18601e",
        "60be6ed82a665b074b09362ce242dbddf3a90eab8cf562475fcc742755baf419",
        "05c860c5e488d0a9c02aaf629f3b6b3b35dd068da158052df45d60ba8ff75f2f",
    ),
    ("gumbel", "fixed", 20): (
        "73aed4d6a5c9e0a7635acb38ed95d2bcc36393d6f53abfda5b56776f5d880933",
        "d1d60f48d9361bbb51bd323f7c55f2473db41a611be873c562ca849d4d0bd6d2",
        "9ba8c13abfcc048f192ed0e4c2854924d6035f853626f8cfa73a67e87475dbe9",
    ),
    ("gumbel", "fixed", 1000): (
        "6dc48bc3f7d5a2939f9ec168f2d8f61266a007928fcc60dfa6733453105c05ee",
        "4f4db8667490f4edbf877121e79e03d01d9814aa441c2e55068750136a54a15a",
        "f279a3330c6b6757365cf975720f957ed995076b2589891a2c2fdd35dee8ec39",
    ),
    ("gumbel", "zipf", 20): (
        "d58d89a8ebcabda2fcef4113dc081abc4ec0362b7361c4bce43a40eb1899871e",
        "ed58a562c1e50104b28e0b608e2c3fad594f4081de3ccaa60b21f76cd6ffe1e0",
        "6f8480d3ec5f16b961786a88bf43c20972abd4221a9fd6fd590847d648cffbac",
    ),
    ("gumbel", "zipf", 1000): (
        "b88341649be8a8ce51401908bce27014c9ec40d2bd241a129f8de01642c2148f",
        "bdcd8716a732c4d98b1cd6889a375c187b3b6c3d9e5b7a499c5662aa3023196d",
        "a0117bddb4eca0b0f83c179af7a676ee0c19c3a27c2173fdfdbb89f2c749b977",
    ),
    ("inverse", "dirichlet", 20): (
        "360a84afcd4dcdd213510470f52fb84edbe47666482fd5240bf2c63961b3aa4a",
        "2d852b333905ec3cd0ab39fb23af1d18ae639a7de29704efb8e0f4413e490e55",
        "81ff62c31adefc98d6356e07bcca5be8cedff06f9dc6df4ac13f6324e4764ca7",
    ),
    ("inverse", "dirichlet", 1000): (
        "7d9a64b059edbe1110098774b5c133788922f56a2d9e08fad45f2e01fca47fc9",
        "03fa8c9cb3aae0494ecb818da67c6d3d3a0f1914b366b935f2768863e8211a87",
        "06f23b584dad5b0747a4257a2fb7920438f8210cdffa48663f0a84e9ba7e092b",
    ),
    ("inverse", "fixed", 20): (
        "8f2bd2456ebb046c076c48b719bd44be311fca60d380d4081b8c9ed447754686",
        "bfc04463f01a19d38d7a8d73710b410d0035f9c86860b478401ebd00d1d49764",
        "efa2332c125f32d33f58758f082aaea0fb866e6c08ccf1124da9ca4513b790b8",
    ),
    ("inverse", "fixed", 1000): (
        "649ea528a453f3afdc1472e3900072dfbeba31367b6f27a0721822f264fcb5b4",
        "ef33356625e010905cd901473fd5f4d2b4418cb8de457e2fde0edeb973f473bd",
        "2cd72cd1e40e66f67e4db891f09214778ed15910f9ada7eeac0a5d3c72ce2fbc",
    ),
    ("inverse", "zipf", 20): (
        "26e7cf3d40f0ba5c673a2363120dd3994d5c8af14635f6e829a21b88733e3178",
        "b6e4f231601d977bf08f76ffc71753e8e5f15c2e46913e943b55ca2cef842e89",
        "e0aafe27e0b92d20da8d71321592a6939d90c62c4a3e125b1e445c5033a62a44",
    ),
    ("inverse", "zipf", 1000): (
        "b75a3c5c5b325f500a3abc2be69620c53787b4c5a2506a630d97d7601efc11be",
        "935744e13999399feb64db45c5e62b14bfbd919cf46f1ec15c510b9ac3b0c0c9",
        "042cefd5bcad708402e8d60c37b8af238e86d39ad58c493a08be9cbe0c82154d",
    ),
    ("red_green", "dirichlet", 20): (
        "5db1418fca6372f7e9504daad9dfdba19efc626ac89c7fac59bfa24ea44d8a5e",
        "8bc32825d7362a2146d08d211512334125515c9de7ce350f06cd76118f7979db",
        "874b366a0a904ab03b476fb004141c9e96ec5f835a0494ec01d9cca0265bb91d",
    ),
    ("red_green", "dirichlet", 1000): (
        "5e7f1325a7d9cc8256d13600989269eb21431fbe1d57c223d059e07aa385108e",
        "3ec637456e77b5860debf3ff49561de621ee44f3a9ca3d16394c0933621ce492",
        "a4d807056610f326730e8dc539105900e522e8943518a6f21eb6ba4e560b8106",
    ),
    ("red_green", "fixed", 20): (
        "691725f232beaa828160b8fa15a35b19c96969a2240976e572e2163737d2f3a3",
        "2831b36df2a9523c6d3e1c8b80bdca6325837d155a2e19b9fb40b88a593c8a8d",
        "23ff3b56efa99bf3d4930255901d609dd7e78cb99f2127f05d47d2b108ec4481",
    ),
    ("red_green", "fixed", 1000): (
        "2e14aa41b923c6aca1845b2b73bcff4900683fdc5ab0491a5229432ba496ff3f",
        "5ff0f1e29291ecb7d459c2f6493ace20adcee3920d4358f4ea0401ccaa8516c8",
        "38ba46d1da8b7a0d5cc8315778745c2bbafb4a321d3b7d70eb37ccf6d92d1b47",
    ),
    ("red_green", "zipf", 20): (
        "00ef2ecfb897fdeadec59a9ec937c312a25dccb27d97d4b6c004261af70dcf16",
        "6665adc8178b128e7d0786e81ac1e8808173377b3c7ccc88fe374784b8361748",
        "b64970cd9d4768dc37ec79e5e2c815fea2bf8794ff4dee4e1b6f933cdb4dc538",
    ),
    ("red_green", "zipf", 1000): (
        "371cd7119acb1ffc41b0fdffe4028856d7b005b1ca43517acd92672e4efdfefc",
        "ab4d31df62037d01e2f1fa18f3095f49104213f9fe2a4d2622d61e318f4e9c6e",
        "80c5f5383ca1a088f618f9395ec9512d46051a000dd3f083c39ddbf48e8d7637",
    ),
}


def _sha256(*arrays) -> str:
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def golden_ntp(ntp, vocab):
    """The NTP model of a golden case; ``fixed`` cycles three rotations of a
    1/w law."""
    if ntp == "fixed":
        base = cap_probs(1.0 / np.arange(1, vocab + 1), 0.5)
        return NtpModel(kind="fixed", vectors=tuple(tuple(np.roll(base, 7 * k)) for k in range(3)))
    return NtpModel(kind=ntp)


def golden_spec(scheme_id, ntp, vocab):
    n = 300
    return StreamSpec(
        n, Segments([(40, 140), (200, 260)], n=n), SchemeSpec(scheme_id, vocab),
        golden_ntp(ntp, vocab), seed=vocab + 7,
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
    """Generation derives the key of each distinct context of a position
    inside a segment once, and no other key. The first read of ``keys``
    derives each remaining distinct context once; a second derives none."""
    for vocab_size in (20, 1000):
        spec = StreamSpec(600, Segments([(100, 400)], n=600), SchemeSpec(scheme_id, vocab_size),
                          NtpModel(), seed=3)
        key_at_calls.clear()
        stream = generate_stream(spec)
        prevs = np.array([CONTEXT_SENTINEL, *stream.tokens[:-1].tolist()])
        decoding = set(prevs[spec.true_segments.mask(spec.n)].tolist())
        assert sorted(key_at_calls) == sorted(key_seed(spec.seed, prev) for prev in decoding)
        key_at_calls.clear()
        keys = stream.keys
        rest = set(prevs.tolist()) - decoding
        assert CONTEXT_SENTINEL in rest
        assert sorted(key_at_calls) == sorted(key_seed(spec.seed, prev) for prev in rest)
        key_at_calls.clear()
        assert stream.keys is keys
        assert key_at_calls == []


@pytest.mark.parametrize("scheme_id", SCHEME_IDS)
def test_a_stream_without_segments_derives_no_key_until_its_keys_are_read(scheme_id,
                                                                        key_at_calls):
    spec = StreamSpec(300, Segments(), SchemeSpec(scheme_id, 50), NtpModel(), seed=5)
    stream = generate_stream(spec)
    assert key_at_calls == []
    assert len(stream.keys) == spec.n
    assert len(key_at_calls) == len({CONTEXT_SENTINEL, *stream.tokens[:-1].tolist()})


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
