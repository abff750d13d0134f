import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from edits import Deletion, Insertion, Substitution, apply_edits
from scheme_theory import gumbel_separation_lower_bound
from wmseg.intervals import Segments
from wmseg.keys import CONTEXT_SENTINEL, generator, key_seed
from wmseg.schemes import SCHEME_IDS, GumbelKey, SchemeSpec, inverse_cdf
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

    def test_fixed_vectors_cycle_and_validate(self):
        model = NtpModel(
            kind="fixed", delta_cap=0.5, vectors=((0.5, 0.5, 0.0), (0.25, 0.25, 0.5))
        )
        with pytest.raises(ValueError):
            NtpModel(kind="fixed", delta_cap=0.5, vectors=((0.9, 0.1),))
        rng = generator(7)
        assert np.allclose(model.sample(rng, 3, [0]), [[0.5, 0.5, 0.0]])
        assert np.allclose(model.sample(rng, 3, [3]), [[0.25, 0.25, 0.5]])
        assert np.allclose(model.sample(rng, 3, [1, 2, 5]),
                           [[0.25, 0.25, 0.5], [0.5, 0.5, 0.0], [0.25, 0.25, 0.5]])

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
        per_row = inverse_cdf(model.sample(generator(11), vocab_size, np.arange(n)),
                              generator(12).random(n))
        for tokens in (generate_stream(spec).tokens, per_row):
            assert stats.chisquare(np.bincount(tokens, minlength=vocab_size)).pvalue > 0.01

    def test_fixed_vectors_must_match_the_vocabulary(self):
        model = NtpModel(kind="fixed", vectors=((0.5, 0.5),))
        with pytest.raises(ValueError, match="differ from the key size"):
            generate_stream(make_spec(n=20, scheme=SchemeSpec("gumbel", 3), ntp=model))

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

    def test_fixed_cap_boundary_is_allowed(self):
        NtpModel(kind="fixed", delta_cap=0.5, vectors=((0.5, 0.5),))

    def test_json_round_trip(self):
        for model in (
            NtpModel(kind="dirichlet", delta_cap=0.5, concentration=0.7),
            NtpModel(kind="zipf", delta_cap=0.3, exponent=1.2),
            NtpModel(kind="fixed", delta_cap=0.5, vectors=((0.5, 0.5),)),
        ):
            assert NtpModel.from_json(model.to_json()) == model

    def test_from_json_takes_the_field_defaults_for_missing_keys(self):
        assert NtpModel.from_json({}) == NtpModel()
        zipf = NtpModel("zipf", exponent=1.2)
        assert NtpModel.from_json({"kind": "zipf", "exponent": 1.2}) == zipf

    def test_from_json_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown ntp_model key.*'concentraton'"):
            NtpModel.from_json({"kind": "dirichlet", "concentraton": 0.7})


# ---------------------------------------------------------------------------
# Stream generation
# ---------------------------------------------------------------------------


class TestGenerateStream:
    def test_pure_null_stream_mean(self):
        spec = make_spec(n=2000, segments=(), seed=3)
        stream = generate_stream(spec)
        # Exp(1) scores: mean within 3 sigma / sqrt(n) of 1.
        assert abs(stream.pivots.scores.mean() - 1.0) < 3.0 / math.sqrt(2000)
        assert spec.true_segments.mask(spec.n).sum() == 0

    def test_fully_watermarked_stream_mean(self):
        spec = make_spec(n=1500, segments=[(1, 1500)], seed=4)
        stream = generate_stream(spec)
        scores = stream.pivots.scores
        floor = 1.0 + gumbel_separation_lower_bound(0.5)
        assert scores.mean() >= floor - 3.0 * scores.std(ddof=1) / math.sqrt(scores.size)
        assert spec.true_segments.mask(spec.n).sum() == 1500

    def test_replays_are_bit_identical(self):
        spec = make_spec(n=120, segments=[(30, 80)], seed=5)
        a, b = generate_stream(spec), generate_stream(spec)
        assert np.array_equal(a.tokens, b.tokens)
        assert np.array_equal(a.pivots.scores, b.pivots.scores)
        for ka, kb in zip(a.keys, b.keys):
            assert np.array_equal(ka.uniforms, kb.uniforms)

    def test_watermarked_positions_match_segments(self):
        segments = [(10, 25), (60, 70)]
        spec = make_spec(n=100, segments=segments, seed=6)
        stream = generate_stream(spec)
        mask = spec.true_segments.mask(spec.n)
        assert mask.sum() == Segments(segments).union_size
        inside = stream.pivots.scores[mask]
        outside = stream.pivots.scores[~mask]
        assert inside.mean() > outside.mean()

    def test_pivots_match_verifier_scoring(self):
        spec = make_spec(n=150, segments=[(50, 100)], seed=7)
        stream = generate_stream(spec)
        rescored = score_tokens(stream.tokens, spec.seed, spec.scheme)
        assert np.array_equal(rescored.scores, stream.pivots.scores)

    def test_all_schemes_generate(self):
        for scheme in (
            GUMBEL,
            SchemeSpec("inverse", vocab_size=100),
            SchemeSpec("red_green", vocab_size=100, green_frac=0.5, bias=2.0),
        ):
            spec = make_spec(n=200, segments=[(50, 150)], seed=8, scheme=scheme)
            stream = generate_stream(spec)
            inside = stream.pivots.scores[spec.true_segments.mask(spec.n)]
            assert inside.mean() > scheme.null_mean

    def test_segments_must_fit_the_stream(self):
        with pytest.raises(ValueError):
            make_spec(n=50, segments=[(40, 60)])


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
        assert np.array_equal(stream.pivots.scores, scores)

    def test_editing_the_previous_token_changes_the_key(self):
        spec = make_spec(n=10, seed=10)
        stream = generate_stream(spec)
        tokens = stream.tokens.copy()
        tokens[4] = (tokens[4] + 1) % spec.vocab_size
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
        with pytest.raises(ValueError):
            score_tokens([], 0, GUMBEL)


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
    def test_round_trip(self, tmp_path):
        spec = make_spec(n=60, segments=[(10, 30)], seed=11)
        stream = generate_stream(spec)
        path = tmp_path / "stream.jsonl"
        write_stream_jsonl(path, stream)
        back = read_stream_jsonl(path)
        assert back.tokens.dtype == np.int64
        assert np.array_equal(back.tokens, stream.tokens)
        assert back.true_segments.to_pairs() == [[10, 30]]
        assert back.seed == 11
        assert back.scheme == spec.scheme
        rescored = score_tokens(back.tokens, back.seed, back.scheme)
        assert np.array_equal(rescored.scores, stream.pivots.scores)

    def test_header_carries_the_contract_fields(self, tmp_path):
        spec = make_spec(n=5, seed=12)
        stream = generate_stream(spec)
        path = tmp_path / "s.jsonl"
        write_stream_jsonl(path, stream)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        header, body = map(json.loads, lines)
        assert set(header) == {"n", "scheme", "mu0", "seed", "true_segments", "scheme_params"}
        assert header["n"] == 5
        assert header["scheme"] == "gumbel"
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
        with pytest.raises(ValueError, match="per-token `t`/`token` records are no longer read"):
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

    def test_stale_mu0_is_rejected(self, tmp_path):
        # Inverse files written before the exact null mean carry mu0 = 2/3;
        # reading one used to centre the series on 2/3 instead of 0.583.
        inverse = SchemeSpec("inverse", vocab_size=3)
        path = self._with_header(tmp_path, inverse, {"mu0": 2 / 3})
        with pytest.raises(ValueError, match=f"mu0={2 / 3!r}.*{inverse.null_mean!r}"):
            read_stream_jsonl(path)

    def test_header_scheme_must_match_scheme_params(self, tmp_path):
        path = self._with_header(
            tmp_path, SchemeSpec("red_green", vocab_size=20), {"scheme": "gumbel"}
        )
        with pytest.raises(ValueError, match="'gumbel'.*'red_green'"):
            read_stream_jsonl(path)

    @pytest.mark.parametrize("fields, key", [
        ({"seed": 7.9}, "seed"),
        ({"seed": "7"}, "seed"),
        ({"seed": True}, "seed"),
        ({"n": 6.0}, "n"),
        ({"n": "6"}, "n"),
        ({"mu0": "1.0"}, "mu0"),
        ({"mu0": False}, "mu0"),
        ({"scheme_params": {"id": "gumbel", "vocab_size": 100.0}}, "vocab_size"),
    ], ids=["float-seed", "string-seed", "bool-seed", "float-n", "string-n", "string-mu0",
            "bool-mu0", "float-vocab-size"])
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
        path = self._with_header(tmp_path, GUMBEL, {"mu0": 10**400})
        with pytest.raises(ValueError,
                           match="key 'mu0': an integer of 401 digits is too large for a float"):
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
                                 {"scheme_params": {**red_green.to_json(), "bias": math.nan}})
        with pytest.raises(ValueError, match="bias must be finite and nonnegative, not nan"):
            read_stream_jsonl(path)

    def test_series_takes_the_null_mean_of_scheme_params(self, tmp_path):
        inverse = SchemeSpec("inverse", vocab_size=3)
        path = self._with_header(tmp_path, inverse, {"mu0": inverse.null_mean * (1 + 1e-14)})
        back = read_stream_jsonl(path)
        series = score_tokens(back.tokens, back.seed, back.scheme)
        assert series.null_mean == inverse.null_mean
        assert series.scheme_id == "inverse"
