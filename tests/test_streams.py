import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import stats

from edits import Deletion, Insertion, Substitution, apply_edits
from fixed_ntp import FixedNtp
from scheme_theory import gumbel_separation_lower_bound, inverse_cdf_1d
from stream_reader_reference import reference_tokens
from wmseg.intervals import Segments
from wmseg.keys import CONTEXT_SENTINEL, generator, key_seed
from wmseg.schemes import SCHEME_IDS, GumbelKey, InvalidDistribution, SchemeSpec
from wmseg.streams import (
    NtpModel,
    StreamSpec,
    cap_probs,
    generate_stream,
    read_stream_jsonl,
    score_tokens,
    write_stream_jsonl,
)

GUMBEL = SchemeSpec("gumbel", vocab_size=100)
DIRICHLET = NtpModel(kind="dirichlet", delta_cap=0.5, concentration=0.3)


def make_spec(n=400, segments=(), seed=0, scheme=GUMBEL, ntp=DIRICHLET):
    return StreamSpec(
        n=n, true_segments=Segments(segments, n=n), scheme=scheme, ntp_model=ntp, seed=seed
    )


def scores_of(stream):
    """A stream's pivot scores, as every consumer scores it."""
    return score_tokens(stream.tokens, stream.seed, stream.scheme).scores


# ---------------------------------------------------------------------------
# Probability capping and NTP models
# ---------------------------------------------------------------------------


class TestCapProbs:
    def test_single_pass_case(self):
        out = cap_probs(np.array([0.9, 0.05, 0.05]), 0.5)
        assert np.allclose(out, [0.5, 0.25, 0.25])
        assert math.isclose(out.sum(), 1.0)

    def test_needs_a_second_pass(self):
        # Scaling the free mass pushes the second entry over the cap too.
        out = cap_probs(np.array([0.5, 0.49, 0.01]), 0.55)
        assert out.max() <= 0.45 + 1e-12
        assert math.isclose(out.sum(), 1.0)
        assert np.allclose(out, [0.45, 0.45, 0.10])

    def test_infeasible_cap(self):
        with pytest.raises(ValueError):
            cap_probs(np.array([0.5, 0.5]), 0.8)

    def test_a_vector_with_no_free_mass_is_spread_evenly(self):
        # The free entries used to keep their zeros: [0.5, 0, 0, 0], of mass 0.5.
        assert cap_probs(np.array([1.0, 0.0, 0.0, 0.0]), 0.5).tolist() == [0.5, 1 / 6, 1 / 6, 1 / 6]

    def test_capped_dirichlet_rows_are_probability_vectors(self):
        """At concentration 1e-3 and V=10 nearly every candidate exceeds the
        cap, so most rows are ``cap_probs`` of their 10^4-th, and about one
        in seven of those has a single nonzero entry; such a row used to
        sum to 0.5, and the inverse decoder then chose a token of
        probability 0 for most key uniforms above 0.5."""
        rows = NtpModel(concentration=1e-3).sample(generator(4), 10, np.arange(30))
        assert np.allclose(rows.sum(axis=1), 1.0) and rows.max() <= 0.5
        # The case is reached: a row of one entry at the cap, the rest even.
        assert (np.sort(rows, axis=1)[:, :-1] == 0.5 / 9).all(axis=1).any()

    @given(st.integers(min_value=0, max_value=10_000), st.floats(min_value=0.05, max_value=0.9))
    @settings(max_examples=60)
    def test_always_lands_in_the_cap(self, seed, delta):
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.full(12, 0.2))
        if (1.0 - delta) * 12 < 1.0:
            return
        out = cap_probs(probs, delta)
        assert out.max() <= 1.0 - delta + 1e-9
        assert math.isclose(out.sum(), 1.0, abs_tol=1e-9)
        assert out.min() >= 0.0


class TestNtpModel:
    def test_dirichlet_respects_the_cap(self):
        rng = generator(5)
        model = NtpModel(kind="dirichlet", delta_cap=0.6, concentration=0.3)
        for probs in model.sample(rng, 40, np.arange(300)):
            assert probs.max() <= 0.4 + 1e-9
            assert math.isclose(probs.sum(), 1.0, abs_tol=1e-9)

    def test_zipf_is_a_capped_permuted_power_law(self):
        rng = generator(6)
        model = NtpModel(kind="zipf", delta_cap=0.5, exponent=2.0)
        a, b = model.sample(rng, 10, np.arange(2))
        assert math.isclose(a.sum(), 1.0, abs_tol=1e-9)
        assert a.max() <= 0.5 + 1e-9
        assert np.allclose(np.sort(a), np.sort(b))  # same shape, different order

    @pytest.mark.parametrize("kind", ("dirichlet", "zipf"))
    @pytest.mark.parametrize("vocab_size, delta_cap", ((2, 0.5), (4, 0.75), (10, 0.9)))
    def test_a_cap_admitting_only_uniform_draws_nothing(self, kind, vocab_size, delta_cap):
        # (1 - delta_cap) * V == 1: the uniform vector is the only admissible
        # NTP, which dirichlet used to reach through 10^4 draws per position.
        rng = generator(8)
        state = rng.bit_generator.state
        rows = NtpModel(kind=kind, delta_cap=delta_cap).sample(rng, vocab_size, np.arange(1000))
        assert np.array_equal(rows, np.full((1000, vocab_size), 1.0 / vocab_size))
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("kind", ("dirichlet", "zipf"))
    @pytest.mark.parametrize("draw", ("sample", "null_tokens"))
    def test_an_infeasible_cap_raises_before_drawing(self, kind, draw):
        rng = generator(9)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="infeasible for vocabulary of 2"):
            getattr(NtpModel(kind=kind, delta_cap=0.6), draw)(rng, 2, np.arange(5))
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("kind", ("dirichlet", "zipf"))
    def test_a_null_only_stream_under_an_infeasible_cap_raises(self, kind):
        spec = make_spec(n=50, scheme=SchemeSpec("gumbel", 2), ntp=NtpModel(kind, delta_cap=0.6))
        with pytest.raises(ValueError, match="infeasible for vocabulary of 2"):
            generate_stream(spec)

    @pytest.mark.parametrize("kind", ("dirichlet", "zipf"))
    def test_null_tokens_are_uniform_under_exchangeable_ntps(self, kind):
        """The mean of an exchangeable NTP law is uniform, so a null-only
        stream's tokens are uniform; so are those of the per-row rule, which
        draws each position's row and then a token from it."""
        model, vocab_size, n = NtpModel(kind=kind), 20, 20_000
        spec = make_spec(n=n, seed=10, scheme=SchemeSpec("gumbel", vocab_size), ntp=model)
        rows = model.sample(generator(11), vocab_size, np.arange(n))
        uniforms = generator(12).random(n)
        per_row = np.array([inverse_cdf_1d(row, u) for row, u in zip(rows, uniforms)])
        for tokens in (generate_stream(spec).tokens, per_row):
            assert stats.chisquare(np.bincount(tokens, minlength=vocab_size)).pvalue > 0.01

    def test_fixed_vectors_must_match_the_vocabulary(self):
        """Generation checks the shape of the rows its NTP model samples."""
        model = FixedNtp(((0.5, 0.5),))
        with pytest.raises(ValueError, match="differ from the key size"):
            generate_stream(make_spec(n=20, segments=[(5, 10)], scheme=SchemeSpec("gumbel", 3),
                                      ntp=model))

    @pytest.mark.parametrize("field, value", (
        ("concentration", 0.0), ("concentration", -1.0), ("concentration", math.nan),
        ("concentration", math.inf), ("exponent", math.nan), ("exponent", -math.inf),
    ))
    @pytest.mark.parametrize("kind", ("dirichlet", "zipf"))
    def test_bad_parameters_are_rejected_when_the_model_is_built(self, kind, field, value):
        with pytest.raises(ValueError, match=field):
            NtpModel(kind=kind, **{field: value})
        with pytest.raises(ValueError, match=field):
            NtpModel.from_json({"kind": kind, field: value})

    def test_json_round_trip(self):
        for model in (
            NtpModel(kind="dirichlet", delta_cap=0.5, concentration=0.7),
            NtpModel(kind="zipf", delta_cap=0.3, exponent=1.2),
        ):
            assert NtpModel.from_json(model.to_json()) == model

    def test_from_json_takes_the_field_defaults_for_missing_keys(self):
        assert NtpModel.from_json({}) == NtpModel()
        zipf = NtpModel("zipf", exponent=1.2)
        assert NtpModel.from_json({"kind": "zipf", "exponent": 1.2}) == zipf

    def test_from_json_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown ntp_model key.*'concentraton'"):
            NtpModel.from_json({"kind": "dirichlet", "concentraton": 0.7})

    @pytest.mark.parametrize("kind, field, value", [
        ("dirichlet", "exponent", 9.0), ("zipf", "concentration", 0.7),
    ], ids=["dirichlet-exponent", "zipf-concentration"])
    def test_a_parameter_the_kind_does_not_read_is_rejected(self, kind, field, value):
        # {"kind": "dirichlet", "exponent": 9.0} used to be accepted, and its
        # to_json, which writes only the concentration, read back unequal.
        with pytest.raises(ValueError, match=f"kind '{kind}' does not read {field},"):
            NtpModel.from_json({"kind": kind, field: value})

    @pytest.mark.parametrize("field", ("delta_cap", "concentration", "exponent"))
    @pytest.mark.parametrize("value", (np.float32(0.4), np.float64(0.4), True),
                             ids=["float32", "float64", "bool"])
    def test_a_parameter_that_is_not_a_python_number_is_rejected(self, field, value):
        """A numpy float used to build a model whose ``to_json`` then failed in
        ``json.dumps``, and True one that wrote true for a number."""
        with pytest.raises(ValueError, match=f"{field} must be an int or a float, not "
                                             f"{type(value).__name__}"):
            NtpModel(kind="zipf" if field == "exponent" else "dirichlet", **{field: value})


# ---------------------------------------------------------------------------
# Stream generation
# ---------------------------------------------------------------------------


class TestGenerateStream:
    def test_pure_null_stream_mean(self):
        spec = make_spec(n=2000, segments=(), seed=3)
        stream = generate_stream(spec)
        # Exp(1) scores: mean within 3 sigma / sqrt(n) of 1.
        assert abs(scores_of(stream).mean() - 1.0) < 3.0 / math.sqrt(2000)
        assert spec.true_segments.mask(spec.n).sum() == 0

    def test_fully_watermarked_stream_mean(self):
        spec = make_spec(n=1500, segments=[(1, 1500)], seed=4)
        stream = generate_stream(spec)
        scores = scores_of(stream)
        floor = 1.0 + gumbel_separation_lower_bound(0.5)
        assert scores.mean() >= floor - 3.0 * scores.std(ddof=1) / math.sqrt(scores.size)
        assert spec.true_segments.mask(spec.n).sum() == 1500

    def test_replays_are_bit_identical(self):
        spec = make_spec(n=120, segments=[(30, 80)], seed=5)
        a, b = generate_stream(spec), generate_stream(spec)
        assert np.array_equal(a.tokens, b.tokens)
        assert np.array_equal(scores_of(a), scores_of(b))
        assert (a.seed, a.scheme) == (b.seed, b.scheme)
        for ka, kb in zip(a.keys, b.keys):
            assert np.array_equal(ka.uniforms, kb.uniforms)

    def test_streams_compare_by_identity(self):
        spec = make_spec(n=20, seed=5)
        a, b = generate_stream(spec), generate_stream(spec)
        assert a == a and a != b
        assert len({a, b}) == 2

    def test_watermarked_positions_match_segments(self):
        segments = [(10, 25), (60, 70)]
        spec = make_spec(n=100, segments=segments, seed=6)
        stream = generate_stream(spec)
        mask = spec.true_segments.mask(spec.n)
        assert mask.sum() == Segments(segments).union_size
        scores = scores_of(stream)
        inside, outside = scores[mask], scores[~mask]
        assert inside.mean() > outside.mean()

    def test_all_schemes_generate(self):
        for scheme in (
            GUMBEL,
            SchemeSpec("inverse", vocab_size=100),
            SchemeSpec("red_green", vocab_size=100, green_frac=0.5, bias=2.0),
        ):
            spec = make_spec(n=200, segments=[(50, 150)], seed=8, scheme=scheme)
            stream = generate_stream(spec)
            inside = scores_of(stream)[spec.true_segments.mask(spec.n)]
            assert inside.mean() > scheme.null_mean

    def test_segments_must_fit_the_stream(self):
        with pytest.raises(ValueError):
            make_spec(n=50, segments=[(40, 60)])

    def test_a_low_concentration_stream_warns_of_nothing(self):
        """A Dirichlet of concentration 0.01 draws denormal probabilities,
        where gumbel's log(U)/P overflows to -inf, which is correct."""
        spec = make_spec(n=300, segments=[(1, 300)], scheme=SchemeSpec("gumbel", 1000),
                         ntp=NtpModel(concentration=0.01))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            generate_stream(spec)

    @pytest.mark.parametrize("invalid_block", (None, 1))
    def test_generation_restores_the_floating_point_error_state(self, invalid_block,
                                                                monkeypatch):
        """Generation ignores divide and overflow only while it decodes:
        ``np.geterr()`` is the caller's after it returns, and after a block
        (here the second of ten) raises InvalidDistribution."""
        if invalid_block is not None:
            sample, blocks = NtpModel.sample, []

            def failing(self, rng, vocab_size, positions):
                rows = sample(self, rng, vocab_size, positions)
                blocks.append(positions)
                if len(blocks) > invalid_block:
                    rows[-1, 0] = np.nan
                return rows

            monkeypatch.setattr(NtpModel, "sample", failing)
        spec = make_spec(n=300, segments=[(1, 300)], scheme=SchemeSpec("gumbel", 1000),
                         ntp=NtpModel(concentration=0.01))
        with np.errstate(divide="raise", over="raise", under="ignore", invalid="warn"):
            before = np.geterr()
            if invalid_block is None:
                generate_stream(spec)
            else:
                with pytest.raises(InvalidDistribution):
                    generate_stream(spec)
            assert np.geterr() == before

    def test_a_negative_zero_entry_never_wins_the_gumbel_race(self):
        """A ``FixedNtp`` with -0.0 entries generates the tokens of the
        same model with +0.0: log(U)/-0.0 would be +inf and win."""
        vectors = ((0.5, -0.0, 0.5, -0.0), (0.25, 0.25, -0.0, 0.5))
        positive = tuple(tuple(p + 0.0 for p in vector) for vector in vectors)
        a, b = (generate_stream(make_spec(n=400, segments=[(1, 400)], seed=9,
                                          scheme=SchemeSpec("gumbel", 4),
                                          ntp=FixedNtp(v)))
                for v in (vectors, positive))
        assert np.array_equal(a.tokens, b.tokens)
        probs = np.asarray(positive)[np.arange(400) % 2, a.tokens]
        assert np.all(probs > 0)


class TestReconstructKeys:
    """The verifier's view: every position's key is ``key_at`` of the key
    seed of its previous token under the master seed."""

    @staticmethod
    def keys_of(tokens, master_seed, scheme):
        prevs = [CONTEXT_SENTINEL, *np.asarray(tokens)[:-1].tolist()]
        return [scheme.key_at(key_seed(master_seed, prev)) for prev in prevs]

    def test_round_trip_with_generation(self):
        spec = make_spec(n=80, segments=[(20, 50)], seed=9)
        stream = generate_stream(spec)
        rebuilt = self.keys_of(stream.tokens, spec.seed, spec.scheme)
        scores = [spec.scheme.pivot_score(int(t), key) for t, key in zip(stream.tokens, rebuilt)]
        assert np.array_equal(scores_of(stream), scores)

    def test_editing_the_previous_token_changes_the_key(self):
        spec = make_spec(n=10, seed=10)
        stream = generate_stream(spec)
        tokens = stream.tokens.copy()
        tokens[4] = (tokens[4] + 1) % spec.scheme.vocab_size
        rebuilt = self.keys_of(tokens, spec.seed, spec.scheme)
        # position 6 (index 5) hashes token 5; all its uniforms move
        assert not np.any(np.isclose(rebuilt[5].uniforms, stream.keys[5].uniforms))
        assert np.array_equal(rebuilt[4].uniforms, stream.keys[4].uniforms)

    def test_different_master_seeds_disagree_everywhere(self):
        tokens = np.arange(1000) % 50
        scheme = SchemeSpec("gumbel", vocab_size=50)
        for ka, kb in zip(self.keys_of(tokens, 1, scheme), self.keys_of(tokens, 2, scheme)):
            assert not np.any(ka.uniforms == kb.uniforms)

    def test_empty_tokens_rejected(self):
        with pytest.raises(ValueError, match="token sequence is empty"):
            score_tokens([], 0, GUMBEL)

    @pytest.mark.parametrize("tokens", [np.array(5), np.array([[1, 2], [3, 4]])],
                             ids=["0-d", "2-d"])
    def test_tokens_that_are_not_one_dimensional_are_rejected(self, tokens):
        with pytest.raises(ValueError, match=re.escape(f"not one of shape {tokens.shape}")):
            score_tokens(tokens, 1, SchemeSpec("gumbel", 20))

    @pytest.mark.parametrize("tokens", [np.array([0.5, 1.9, 3.2]), np.array([True, False]),
                                        [1, 2.0]], ids=["float", "bool", "mixed-list"])
    def test_tokens_that_are_not_integers_are_rejected(self, tokens):
        # Cast to int64, they would score as the tokens [0, 1, 3] or [1, 0].
        with pytest.raises(TypeError, match="not an integer array"):
            score_tokens(tokens, 1, SchemeSpec("gumbel", 20))

    def test_unsigned_tokens_score_as_signed_ones(self):
        tokens = np.array([3, 0, 19, 7])
        signed = score_tokens(tokens, 1, SchemeSpec("gumbel", 20)).scores
        unsigned = score_tokens(tokens.astype(np.uint8), 1, SchemeSpec("gumbel", 20)).scores
        assert np.array_equal(signed, unsigned)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_a_seed_outside_64_bits_is_rejected(self, seed):
        # Keys reduce the seed mod 2^64, so -1 would score as seed 2^64 - 1.
        with pytest.raises(ValueError, match=re.escape("seed must lie in [0, 2**64)")):
            score_tokens([1, 2, 3], seed, SchemeSpec("gumbel", 20))


# ---------------------------------------------------------------------------
# Edits
# ---------------------------------------------------------------------------


class TestApplyEdits:
    def test_empty_spec_is_identity(self):
        tokens = np.array([3, 1, 4, 1, 5])
        assert np.array_equal(apply_edits(tokens, []), tokens)

    def test_substitution(self):
        out = apply_edits(np.array([3, 1, 4]), [Substitution(position=2, token=9)])
        assert out.tolist() == [3, 9, 4]

    def test_deletion_shifts_left(self):
        out = apply_edits(np.array([3, 1, 4, 1, 5]), [Deletion(position=2)])
        assert out.tolist() == [3, 4, 1, 5]

    def test_insertion(self):
        out = apply_edits(np.array([3, 1]), [Insertion(position=2, token=7)])
        assert out.tolist() == [3, 7, 1]
        out = apply_edits(np.array([3, 1]), [Insertion(position=3, token=7)])
        assert out.tolist() == [3, 1, 7]

    def test_out_of_bounds(self):
        tokens = np.array([3, 1, 4])
        for edit in (Substitution(4, 0), Deletion(0), Insertion(5, 1)):
            with pytest.raises(IndexError):
                apply_edits(tokens, [edit])

    def test_edits_apply_sequentially(self):
        out = apply_edits(
            np.array([3, 1, 4, 1]),
            [Deletion(position=1), Substitution(position=1, token=8)],
        )
        assert out.tolist() == [8, 4, 1]

    def test_substitution_inside_a_segment_nulls_two_positions(self, rng):
        """Hash context is one token: an edit at t disturbs pivots at t and
        t+1 only; the watermark coupling resumes at t+2."""
        edited_here, edited_next, intact = [], [], []
        vocab = GUMBEL.vocab_size
        for seed in range(400):
            spec = make_spec(n=16, segments=[(1, 16)], seed=seed + 1000)
            stream = generate_stream(spec)
            tokens = stream.tokens.copy()
            old = tokens[9]
            tokens[9] = (old + 1 + rng.integers(0, vocab - 1)) % vocab
            rescored = score_tokens(tokens, spec.seed, spec.scheme)
            edited_here.append(rescored.scores[9])
            edited_next.append(rescored.scores[10])
            intact.append(rescored.scores[11])
        edited_here, edited_next, intact = map(np.asarray, (edited_here, edited_next, intact))
        for pooled in (edited_here, edited_next):
            assert abs(pooled.mean() - 1.0) < 3.0 * pooled.std(ddof=1) / 20.0
            assert stats.kstest(pooled, "expon").pvalue > 1e-3
        assert intact.mean() - 3.0 * intact.std(ddof=1) / 20.0 > 1.3


@given(scheme_id=st.sampled_from(SCHEME_IDS), vocab=st.sampled_from((2, 20, 1000)),
       data=st.data())
@settings(max_examples=100)
def test_an_edit_changes_at_most_the_two_pivots_next_to_it(scheme_id, vocab, data):
    """Every key reads one token of context, so one substitution, insertion
    or deletion at position p can change only the rescored pivots at p and
    p + 1 of the edited sequence. Every other pivot equals the original one
    at its shifted position, bit for bit. This fails if a key ever reads a
    wider context."""
    scheme = SchemeSpec(scheme_id, vocab)
    token = st.integers(0, vocab - 1)
    tokens = np.asarray(data.draw(st.lists(token, min_size=2, max_size=200)), dtype=np.int64)
    seed = data.draw(st.integers(0, 2**64 - 1))
    kind = data.draw(st.sampled_from((Substitution, Insertion, Deletion)))
    if kind is Insertion:
        edit = Insertion(data.draw(st.integers(1, tokens.size + 1)), data.draw(token))
    elif kind is Substitution:
        edit = Substitution(data.draw(st.integers(1, tokens.size)), data.draw(token))
    else:
        edit = Deletion(data.draw(st.integers(1, tokens.size)))
    before = score_tokens(tokens, seed, scheme).scores
    after = score_tokens(apply_edits(tokens, [edit]), seed, scheme).scores
    shift = {Substitution: 0, Insertion: 1, Deletion: -1}[kind]
    here = edit.position - 1  # 0-based index of the edit in the edited sequence
    kept = np.array([j for j in range(after.size) if not here <= j <= here + 1], dtype=int)
    assert np.array_equal(after[kept], before[np.where(kept > here, kept - shift, kept)])


# ---------------------------------------------------------------------------
# JSONL interchange
# ---------------------------------------------------------------------------


class TestStreamJsonl:
    @pytest.mark.parametrize("scheme_id", SCHEME_IDS)
    def test_round_trip(self, scheme_id, tmp_path):
        """A generated stream reads back as the same Stream, keys and all."""
        spec = make_spec(n=60, segments=[(10, 30)], seed=11,
                         scheme=SchemeSpec(scheme_id, vocab_size=20))
        stream = generate_stream(spec)
        path = tmp_path / "stream.jsonl"
        write_stream_jsonl(path, stream)
        back = read_stream_jsonl(path)
        assert back.tokens.dtype == np.int64
        assert np.array_equal(back.tokens, stream.tokens)
        assert back.true_segments == stream.true_segments == spec.true_segments
        assert back.seed == stream.seed == 11
        assert back.scheme == stream.scheme == spec.scheme
        assert len(back.keys) == len(stream.keys) == 60
        for got, expected in zip(back.keys, stream.keys):
            assert type(got) is type(expected)
            for name, value in vars(expected).items():
                assert np.array_equal(getattr(got, name), value)

    def test_a_read_stream_writes_back_byte_for_byte(self, tmp_path):
        """The reader returns the Stream the writer takes."""
        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        write_stream_jsonl(first, generate_stream(make_spec(n=80, segments=[(5, 9), (40, 70)],
                                                            seed=16)))
        write_stream_jsonl(second, read_stream_jsonl(first))
        assert second.read_bytes() == first.read_bytes()

    def test_header_carries_the_contract_fields(self, tmp_path):
        spec = make_spec(n=5, seed=12)
        stream = generate_stream(spec)
        path = tmp_path / "s.jsonl"
        write_stream_jsonl(path, stream)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        header, body = map(json.loads, lines)
        assert set(header) == {"n", "seed", "true_segments", "scheme"}
        assert header["n"] == 5
        assert header["scheme"] == spec.scheme.to_json()
        assert body == {"tokens": stream.tokens.tolist()}

    def _parts(self, tmp_path):
        path = tmp_path / "s.jsonl"
        write_stream_jsonl(path, generate_stream(make_spec(n=6, seed=13)))
        header, body = path.read_text().splitlines()
        return path, header, json.loads(body)

    @staticmethod
    def _write(path, header, *records):
        path.write_text("\n".join([header, *map(json.dumps, records)]) + "\n")

    def test_truncated_file_is_rejected(self, tmp_path):
        path, header, body = self._parts(tmp_path)
        self._write(path, header, {"tokens": body["tokens"][:4]})
        with pytest.raises(ValueError, match="n=6 but the body has 4 tokens"):
            read_stream_jsonl(path)

    def test_a_token_count_above_n_is_rejected(self, tmp_path):
        path, header, body = self._parts(tmp_path)
        self._write(path, header, {"tokens": body["tokens"] + [0]})
        with pytest.raises(ValueError, match="n=6 but the body has 7 tokens"):
            read_stream_jsonl(path)

    def test_extra_records_are_rejected(self, tmp_path):
        path, header, body = self._parts(tmp_path)
        self._write(path, header, body, body)
        with pytest.raises(ValueError, match="records follow the body record"):
            read_stream_jsonl(path)

    def test_a_header_without_a_body_is_rejected(self, tmp_path):
        path, header, _ = self._parts(tmp_path)
        self._write(path, header)
        with pytest.raises(ValueError, match="missing stream body key\\(s\\): 'tokens'"):
            read_stream_jsonl(path)

    def test_unknown_body_key_is_rejected(self, tmp_path):
        path, header, body = self._parts(tmp_path)
        self._write(path, header, {**body, "scores": [1.0] * 6})
        with pytest.raises(ValueError, match="unknown stream body key\\(s\\): 'scores'"):
            read_stream_jsonl(path)

    def test_the_old_per_token_format_is_rejected(self, tmp_path):
        path, header, body = self._parts(tmp_path)
        records = [{"t": t, "token": token, "pivot_score": 1.0}
                   for t, token in enumerate(body["tokens"], start=1)]
        self._write(path, header, *records)
        with pytest.raises(ValueError,
                           match="unknown stream body key\\(s\\): 'pivot_score', 't', 'token'"):
            read_stream_jsonl(path)

    @pytest.mark.parametrize("token", [1.5, 3.0, True, "3", None, float("nan")],
                             ids=["float", "integral-float", "bool", "string", "null", "nan"])
    def test_a_non_integer_token_is_rejected(self, token, tmp_path):
        # Each of these used to read silently as an integer token, or to fail
        # with a message that did not name the token.
        path, header, body = self._parts(tmp_path)
        body["tokens"][2] = token
        self._write(path, header, body)
        with pytest.raises(ValueError, match=f"token {token!r} at t=3 is not an integer"):
            read_stream_jsonl(path)

    def test_tokens_that_are_not_a_list_are_rejected(self, tmp_path):
        path, header, _ = self._parts(tmp_path)
        self._write(path, header, {"tokens": 6})
        with pytest.raises(ValueError, match="body tokens must be a JSON list, not int"):
            read_stream_jsonl(path)

    def test_a_token_beyond_int64_is_rejected(self, tmp_path):
        path, header, body = self._parts(tmp_path)
        body["tokens"][0] = 2**63
        self._write(path, header, body)
        with pytest.raises(ValueError, match="outside the int64 range"):
            read_stream_jsonl(path)

    @staticmethod
    def _with_header(tmp_path, scheme, fields):
        path = tmp_path / "s.jsonl"
        write_stream_jsonl(path, generate_stream(make_spec(n=6, seed=14, scheme=scheme)))
        header, *body = path.read_text().splitlines()
        path.write_text("\n".join([json.dumps({**json.loads(header), **fields}), *body]) + "\n")
        return path

    def test_unknown_header_key_is_rejected(self, tmp_path):
        path = self._with_header(tmp_path, GUMBEL, {"mu_0": 1.0})
        with pytest.raises(ValueError, match="unknown stream header key\\(s\\): 'mu_0'"):
            read_stream_jsonl(path)

    def test_missing_header_key_is_named(self, tmp_path):
        path, header, body = self._parts(tmp_path)
        header = json.loads(header)
        del header["n"]
        self._write(path, json.dumps(header), body)
        with pytest.raises(ValueError, match="missing stream header key\\(s\\): 'n'"):
            read_stream_jsonl(path)

    @pytest.mark.parametrize("fields, key", [
        ({"seed": 7.9}, "seed"),
        ({"seed": "7"}, "seed"),
        ({"seed": True}, "seed"),
        ({"n": 6.0}, "n"),
        ({"n": "6"}, "n"),
        ({"scheme": {**GUMBEL.to_json(), "bias": "1.0"}}, "bias"),
        ({"scheme": {**GUMBEL.to_json(), "bias": False}}, "bias"),
        ({"scheme": {"id": "gumbel", "vocab_size": 100.0}}, "vocab_size"),
    ], ids=["float-seed", "string-seed", "bool-seed", "float-n", "string-n", "string-bias",
            "bool-bias", "float-vocab-size"])
    def test_a_header_value_of_another_json_type_is_rejected(self, fields, key, tmp_path):
        # Each of these used to be coerced: a seed of 7.9 or "7" scored the
        # tokens under seed 7, and true under seed 1.
        path = self._with_header(tmp_path, GUMBEL, fields)
        with pytest.raises(ValueError, match=f"key '{key}': .* is not a JSON"):
            read_stream_jsonl(path)

    @pytest.mark.parametrize("seed", [-1, 2**64], ids=["negative", "2-64"])
    def test_a_header_seed_outside_64_bits_is_rejected(self, seed, tmp_path):
        # Seeds are reduced mod 2^64, so a header seed of 2^64 used to score
        # the tokens under seed 0.
        path = self._with_header(tmp_path, GUMBEL, {"seed": seed})
        message = f"seed must lie in [0, 2**64), not {seed}"
        with pytest.raises(ValueError, match=re.escape(message)):
            read_stream_jsonl(path)

    def test_a_header_number_beyond_the_float_range_is_named(self, tmp_path):
        # It used to escape read_stream_jsonl as an OverflowError.
        path = self._with_header(tmp_path, GUMBEL,
                                 {"scheme": {**GUMBEL.to_json(), "bias": 10**400}})
        with pytest.raises(ValueError,
                           match="key 'bias': an integer of 401 digits is too large for a float"):
            read_stream_jsonl(path)

    @pytest.mark.parametrize("segments", [[[2.5, 4]], [[2.5, True]]], ids=["float", "bool"])
    def test_a_non_integer_segment_end_is_named(self, segments, tmp_path):
        path = self._with_header(tmp_path, GUMBEL, {"true_segments": segments})
        with pytest.raises(ValueError,
                           match="key 'true_segments': interval end 2.5 is not an integer"):
            read_stream_jsonl(path)

    def test_a_nan_bias_in_the_header_is_rejected(self, tmp_path):
        red_green = SchemeSpec("red_green", vocab_size=50)
        path = self._with_header(tmp_path, red_green,
                                 {"scheme": {**red_green.to_json(), "bias": math.nan}})
        with pytest.raises(ValueError, match="bias must be finite and nonnegative, not nan"):
            read_stream_jsonl(path)

    def test_series_takes_the_null_mean_of_the_header_scheme(self, tmp_path):
        inverse = SchemeSpec("inverse", vocab_size=3)
        path = self._with_header(tmp_path, inverse, {})
        back = read_stream_jsonl(path)
        series = score_tokens(back.tokens, back.seed, back.scheme)
        assert series.null_mean == inverse.null_mean
        assert series.scheme_id == "inverse"

    def test_a_header_that_is_not_an_object_is_rejected(self, tmp_path):
        # It used to read the list's items as keys: "unknown stream header key(s): 1".
        path, _, body = self._parts(tmp_path)
        self._write(path, "[1]", body)
        with pytest.raises(ValueError, match="stream header must be a JSON object, not list"):
            read_stream_jsonl(path)

    def test_a_body_that_is_not_an_object_is_rejected(self, tmp_path):
        # It used to escape as "TypeError: 'NoneType' object is not iterable".
        path, header, _ = self._parts(tmp_path)
        self._write(path, header, None)
        with pytest.raises(ValueError, match="stream body must be a JSON object, not NoneType"):
            read_stream_jsonl(path)

    def test_a_scheme_that_is_not_an_object_is_rejected(self, tmp_path):
        # It used to read the string's letters as keys: "unknown scheme key(s): 'b', 'e', ...".
        path = self._with_header(tmp_path, GUMBEL, {"scheme": "gumbel"})
        with pytest.raises(ValueError, match="scheme must be a JSON object, not str"):
            read_stream_jsonl(path)

    @pytest.mark.parametrize("scheme_id", SCHEME_IDS)
    def test_a_written_body_is_read_without_json(self, scheme_id, tmp_path, monkeypatch):
        """The writer's own body line takes the array parse, so ``json.loads``
        reads the header only. This fails if the writer's spelling drifts
        from the one the parse accepts."""
        stream = generate_stream(make_spec(n=300, segments=[(50, 150)], seed=15,
                                           scheme=SchemeSpec(scheme_id, vocab_size=20)))
        path = tmp_path / "s.jsonl"
        write_stream_jsonl(path, stream)
        loads, calls = json.loads, []
        monkeypatch.setattr(json, "loads",
                            lambda text, **kw: calls.append(text) or loads(text, **kw))
        back = read_stream_jsonl(path)
        assert calls == [path.read_text().splitlines(keepends=True)[0]]
        assert back.tokens.dtype == np.int64
        assert np.array_equal(back.tokens, stream.tokens)


_HEADER = {"seed": 3, "true_segments": [], "scheme": GUMBEL.to_json()}


def _assert_reads_as_the_reference(path, n):
    """``read_stream_jsonl`` gives the JSON-only reader's int64 tokens for
    the body of ``path``, or raises its exception type with its message."""
    try:
        expected = reference_tokens(path, n)
    except Exception as exc:
        with pytest.raises(Exception) as raised:
            read_stream_jsonl(path)
        assert (type(raised.value), str(raised.value)) == (type(exc), str(exc))
    else:
        back = read_stream_jsonl(path)
        assert back.tokens.dtype == np.int64
        assert np.array_equal(back.tokens, expected)


@pytest.mark.parametrize("inner", [
    "1, 01", "00, 1", "0, 1", "+1, 2", "1, , 2", "1, , 01", ", 1, 2", ", 01", "01, ", "1, 2, ",
    "1,2 3", "1,  2", " 1, 2", "1, 2 ", "1, \u00b2", "1, \u0663", "1, -2", "1, 2.0", "1, 1e3",
    "1, true", "1, 999999999999999999", "1, 1000000000000000000", "1, 9223372036854775807",
    "1, 9223372036854775808", "1, 99999999999999999999", "1, 0000000000000000000001", "",
])
def test_an_awkward_token_spelling_reads_as_the_json_reference(inner, tmp_path):
    # np.fromstring alone reads "1, , 2" as [1, 0, 2], 01 and +1 as 1, and
    # 99999999999999999999 as 2^63 - 1; in "1, , 01" the empty token and the
    # leading zero leave the text as long as the canonical "1, 0, 1".
    path = tmp_path / "s.jsonl"
    path.write_text(json.dumps({"n": 2, **_HEADER}) + '\n{"tokens": [' + inner + "]}\n")
    _assert_reads_as_the_reference(path, 2)


_AWKWARD_TOKENS = (0, -1, -7, 10**18 - 1, 10**18, 2**63 - 1, 2**63, True, False, 1.5, 3.0,
                   float("nan"), "3", None)


@given(data=st.data())
@settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow,
                                                   HealthCheck.function_scoped_fixture])
def test_a_body_line_reads_as_the_json_reference(data, tmp_path):
    """Token lists mixing awkward values, in the writer's own spelling about
    half the time and otherwise with compact or extra spacing, leading
    zeros, plus signs, empty elements and no final newline, read to the
    JSON-only reader's tokens or error."""
    token = st.integers(0, 999) | st.integers(0, 2**63)
    if data.draw(st.booleans()):
        token |= st.sampled_from(_AWKWARD_TOKENS)
    tokens = data.draw(st.lists(token, max_size=30))
    texts = [json.dumps(token) for token in tokens]
    if data.draw(st.booleans()):
        line = '{"tokens": [' + ", ".join(texts) + "]}\n"
    else:
        styles = {"plain": "{}", "leading-zero": "0{}", "plus": "+{}", "spaced": " {} "}
        texts = [styles[data.draw(st.sampled_from(["plain"] * 4 + list(styles)))].format(text)
                 for text in texts]
        gaps = st.sampled_from([", "] * 4 + [",", ",  ", " , ", ", , "])
        inner = "".join(text if i == 0 else data.draw(gaps) + text for i, text in enumerate(texts))
        head = data.draw(st.sampled_from(['{"tokens": [', '{"tokens":[', '{ "tokens" : [ ']))
        tail = data.draw(st.sampled_from(["]}\n", "]}", " ]}\n", "]}\n\n"]))
        line = head + inner + tail
    n = max(1, len(tokens) + data.draw(st.sampled_from([0, 0, 0, 1, -1])))
    path = tmp_path / "s.jsonl"
    path.write_text(json.dumps({"n": n, **_HEADER}) + "\n" + line)
    _assert_reads_as_the_reference(path, n)
