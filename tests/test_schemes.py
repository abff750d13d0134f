import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from scheme_theory import (
    capped_extremal_probs,
    gumbel_separation_lower_bound,
    gumbel_watermarked_score_mean,
    inverse_cdf_1d,
    inverse_null_pivot_cdf,
    uniform_open,
)
from wmseg.keys import generator
from wmseg.schemes import (
    SCHEME_IDS,
    GumbelKey,
    InvalidDistribution,
    InverseKey,
    PivotSeries,
    RedGreenKey,
    SchemeSpec,
)

N_MC = 100_000
GUMBEL = SchemeSpec("gumbel", 2)
INVERSE = SchemeSpec("inverse", 2)


# ---------------------------------------------------------------------------
# Gumbel scheme
# ---------------------------------------------------------------------------


class TestGumbelDecode:
    def test_one_hot_forces_the_argmax(self):
        scheme = SchemeSpec("gumbel", 5)
        probs = np.zeros(5)
        probs[3] = 1.0
        assert scheme.decode(probs, scheme.key_at(1)) == 3

    def test_two_token_example(self):
        # log(0.81)/0.5 = -0.4214 beats log(0.25)/0.5 = -2.7726.
        key = GumbelKey(uniforms=np.array([0.81, 0.25]))
        assert GUMBEL.decode(np.array([0.5, 0.5]), key) == 0

    def test_equal_uniforms_favor_the_larger_probability(self):
        for u in (0.1, 0.5, 0.9):
            key = GumbelKey(uniforms=np.array([u, u]))
            assert GUMBEL.decode(np.array([0.2, 0.8]), key) == 1

    def test_a_denormal_probability_decodes_without_a_warning(self):
        """log(U)/P overflows to -inf at a denormal P; that token loses the
        race, and the overflow is expected, so it warns of nothing."""
        scheme = SchemeSpec("gumbel", 3)
        probs = np.array([0.5, 0.5, 1e-320])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert all(scheme.decode(probs, scheme.key_at(seed)) < 2 for seed in range(20))

    def test_all_zero_distribution_is_rejected(self):
        scheme = SchemeSpec("gumbel", 4)
        with pytest.raises(InvalidDistribution):
            scheme.decode(np.zeros(4), scheme.key_at(1))

    def test_probabilities_must_match_the_key_size(self):
        scheme = SchemeSpec("gumbel", 4)
        with pytest.raises(InvalidDistribution, match="key size"):
            scheme.decode(np.full(3, 1 / 3), scheme.key_at(1))

    def test_zero_probability_tokens_never_win(self):
        scheme = SchemeSpec("gumbel", 4)
        probs = np.array([0.0, 0.5, 0.5, 0.0])
        for seed in range(50):
            assert scheme.decode(probs, scheme.key_at(seed)) in (1, 2)

    def test_negative_zero_never_wins_and_nan_is_rejected(self):
        scheme = SchemeSpec("gumbel", 4)
        probs = np.array([-0.0, 0.5, 0.5, -0.0])
        for seed in range(50):
            assert scheme.decode(probs, scheme.key_at(seed)) in (1, 2)
        with pytest.raises(InvalidDistribution):
            scheme.decode(np.array([np.nan, 0.5, 0.5, 0.0]), scheme.key_at(1))

    def test_deterministic_given_inputs(self):
        scheme = SchemeSpec("gumbel", 20)
        key = scheme.key_at(7)
        probs = np.full(20, 0.05)
        assert scheme.decode(probs, key) == scheme.decode(probs, key)


class TestGumbelPivot:
    def test_coordinate_lookup(self):
        key = GumbelKey(uniforms=np.array([0.1, 0.2, 0.7, 0.4]))
        assert SchemeSpec("gumbel", 4).pivot(2, key) == 0.7

    def test_out_of_range_token(self):
        scheme = SchemeSpec("gumbel", 4)
        key = scheme.key_at(1)
        with pytest.raises(IndexError):
            scheme.pivot(4, key)
        with pytest.raises(IndexError):
            scheme.pivot(-1, key)

    def test_null_pivot_is_uniform(self, rng):
        # Token drawn independently of the key: pivot must be Uniform(0,1).
        tokens = rng.integers(0, 8, N_MC)
        uniforms = uniform_open(generator(11), (N_MC, 8))
        pivots = uniforms[np.arange(N_MC), tokens]
        stat = stats.kstest(pivots, "uniform").statistic
        assert stat < 0.01

    def test_watermarked_score_mean_half_half(self, rng):
        # Series value for P=(1/2,1/2) is 3/2; Monte Carlo must agree.
        u = uniform_open(generator(12), (N_MC, 2))
        probs = np.array([0.5, 0.5])
        winners = np.argmax(np.log(u) / probs, axis=1)
        scores = -np.log1p(-u[np.arange(N_MC), winners])
        assert abs(scores.mean() - 1.5) < 0.02
        assert abs(gumbel_watermarked_score_mean(probs) - 1.5) < 1e-12


class TestGumbelScore:
    def test_fixed_points(self):
        assert GUMBEL.score(0.0) == 0.0
        assert math.isclose(GUMBEL.score(1.0 - math.exp(-1.0)), 1.0, rel_tol=1e-12)

    def test_domain_errors_instead_of_clipping(self):
        for bad in (-0.01, 1.0, 1.5):
            with pytest.raises(ValueError):
                GUMBEL.score(bad)
        with pytest.raises(ValueError):
            GUMBEL.score(np.array([0.2, 1.0]))

    def test_null_mean_is_one(self):
        u = uniform_open(generator(13), N_MC)
        assert abs(GUMBEL.score(u).mean() - 1.0) < 0.01

    @given(st.floats(min_value=0.0, max_value=0.999999))
    def test_monotone_and_nonnegative(self, y):
        assert GUMBEL.score(y) >= 0.0
        assert GUMBEL.score(min(y + 1e-6, 0.9999995)) >= GUMBEL.score(y)


class TestGumbelSeparationBound:
    def test_half_cap_gives_one_half(self):
        assert math.isclose(gumbel_separation_lower_bound(0.5), 0.5, abs_tol=1e-8)

    def test_two_thirds_cap_matches_extremal_oracle(self):
        # Extremal vector is three entries of 1/3; closed form H_3 - 1 = 5/6.
        got = gumbel_separation_lower_bound(2.0 / 3.0)
        oracle = gumbel_watermarked_score_mean(capped_extremal_probs(2.0 / 3.0)) - 1.0
        assert math.isclose(got, oracle, abs_tol=1e-8)
        assert math.isclose(got, 5.0 / 6.0, abs_tol=1e-8)

    def test_series_matches_digamma_oracle_on_a_grid(self):
        for delta in (0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 0.95):
            got = gumbel_separation_lower_bound(delta)
            oracle = gumbel_watermarked_score_mean(capped_extremal_probs(delta)) - 1.0
            assert math.isclose(got, oracle, abs_tol=1e-8), delta

    def test_vanishes_as_the_cap_disappears(self):
        assert gumbel_separation_lower_bound(1e-6) < 1e-4

    def test_monotone_nondecreasing_in_delta(self):
        grid = np.linspace(0.01, 0.99, 60)
        values = [gumbel_separation_lower_bound(d) for d in grid]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                gumbel_separation_lower_bound(bad)


# ---------------------------------------------------------------------------
# Inverse-transform scheme
# ---------------------------------------------------------------------------


class TestInverseDecode:
    def test_cdf_example(self):
        # V=2, P=(0.3,0.7), identity permutation, U=0.2: cumulative mass
        # reaches 0.2 already at the first rank.
        key = InverseKey(u=0.2, perm=np.array([0, 1]))
        assert INVERSE.decode(np.array([0.3, 0.7]), key) == 0

    def test_one_hot(self):
        scheme = SchemeSpec("inverse", 6)
        probs = np.zeros(6)
        probs[4] = 1.0
        for seed in range(30):
            assert scheme.decode(probs, scheme.key_at(seed)) == 4

    def test_null_marginal_matches_the_ntp(self, rng):
        # With the key independent of everything, output ~ P.
        probs = np.array([0.05, 0.2, 0.3, 0.1, 0.35])
        u = rng.random(N_MC)
        cdf = np.cumsum(probs)
        tokens = np.searchsorted(cdf, u, side="left")
        # identity permutation: decoder reduces to plain inverse-CDF sampling
        scheme = SchemeSpec("inverse", 5)
        sample = [
            scheme.decode(probs, InverseKey(u=float(ui), perm=np.arange(5)))
            for ui in u[:2000]
        ]
        counts = np.bincount(tokens, minlength=5)
        assert stats.chisquare(counts, probs * N_MC).pvalue > 0.01
        counts_ops = np.bincount(sample, minlength=5)
        assert stats.chisquare(counts_ops, probs * 2000).pvalue > 0.01

    def test_random_permutations_keep_the_marginal(self):
        scheme = SchemeSpec("inverse", 3)
        probs = np.array([0.6, 0.3, 0.1])
        draws = np.array([scheme.decode(probs, scheme.key_at(s)) for s in range(4000)])
        counts = np.bincount(draws, minlength=3)
        assert stats.chisquare(counts, probs * 4000).pvalue > 0.01


class TestInversePivot:
    def test_zero_when_uniform_hits_the_rank(self):
        key = InverseKey(u=0.5, perm=np.array([1, 2, 0]))
        # token 2 has rank 0 ... eta grid over V=3 is (0, 0.5, 1)
        key = InverseKey(u=0.5, perm=np.array([2, 1, 0]))
        assert SchemeSpec("inverse", 3).pivot(1, key) == 0.0

    def test_grid_example(self):
        key = InverseKey(u=0.25, perm=np.arange(3))
        assert SchemeSpec("inverse", 3).pivot(2, key) == 0.75

    def test_null_score_mean_near_two_thirds(self, rng):
        vocab = 100
        u = rng.random(N_MC)
        eta = rng.integers(0, vocab, N_MC) / (vocab - 1)
        scores = 1.0 - np.abs(u - eta)
        assert abs(scores.mean() - 2.0 / 3.0) < 0.01
        assert abs(scores.mean() - SchemeSpec("inverse", vocab).null_mean) < 0.005

    def test_null_pivot_law_matches_exact_cdf(self, rng):
        vocab = 50
        u = rng.random(N_MC)
        eta = rng.integers(0, vocab, N_MC) / (vocab - 1)
        pivots = np.abs(u - eta)
        stat = stats.kstest(pivots, lambda y: inverse_null_pivot_cdf(y, vocab)).statistic
        assert stat < 0.01

    def test_score_domain(self):
        with pytest.raises(ValueError):
            INVERSE.score(-0.1)
        with pytest.raises(ValueError):
            INVERSE.score(1.1)
        assert INVERSE.score(0.25) == 0.75


# ---------------------------------------------------------------------------
# Red_green's decoder: the inverse CDF of the re-weighted row
# ---------------------------------------------------------------------------


def red_green_draw(weights, u: float, green, bias: float) -> int:
    """Red_green's decoder on one row under the key (green, u), unchecked,
    so that rows without mass reach it too."""
    scheme = SchemeSpec("red_green", len(weights), bias=bias)._scheme
    return scheme.decoder_of(RedGreenKey(green=np.asarray(green), u=u))(np.asarray(weights))


class TestInverseCdf:
    @pytest.mark.parametrize("weights, u, expected", [
        ((0.2, 0.3, 0.5), 0.0, 0),              # u = 0 takes the first index
        ((0.0, 0.0, 1.0), 0.0, 0),              # ... even at zero weight
        ((1.0, 1.0, 2.0), 0.5, 1),              # u * total = cdf[1] = 2: ties go left
        ((0.0, 1.0, 0.0, 1.0), 0.5, 1),         # a zero-weight token after the tie is skipped
        ((0.5, 0.5, 0.0, 0.0), 1.0, 1),         # u = 1 stops at the last positive weight
        # u * total above cdf[-1]: count(cdf < u * total) is V, clipped to V - 1.
        # (For u <= 1 the product never exceeds cdf[-1]; only u > 1 gets here.)
        ((0.1, 0.2, 0.7), float(np.nextafter(1.0, 2.0)), 2),
    ], ids=["u=0", "u=0-zero-weight", "tie", "zero-weights", "u=1", "clip"])
    def test_edge_rows_match_the_one_row_form(self, weights, u, expected):
        got = red_green_draw(weights, u, np.ones(len(weights), dtype=bool), bias=0.0)
        assert got == inverse_cdf_1d(np.array(weights), u) == expected

    def test_a_block_matches_the_one_row_form_row_by_row(self, rng):
        weights = rng.random((300, 7)) * (rng.random((300, 7)) < 0.6)  # zero-weight tokens
        u = rng.random(300)
        u[:30] = 0.0
        green = rng.random((300, 7)) < 0.5
        got = [red_green_draw(w, x, g, bias=1.5) for w, x, g in zip(weights, u, green)]
        assert got == [inverse_cdf_1d(np.where(g, w * math.exp(1.5), w), x)
                       for w, x, g in zip(weights, u, green)]


# ---------------------------------------------------------------------------
# Red-green scheme
# ---------------------------------------------------------------------------


class TestRedGreen:
    def test_zero_bias_is_a_no_op(self):
        scheme = SchemeSpec("red_green", 4, green_frac=0.5, bias=0.0)
        probs = np.array([0.1, 0.2, 0.3, 0.4])
        draws = np.array([scheme.decode(probs, scheme.key_at(s)) for s in range(8000)])
        counts = np.bincount(draws, minlength=4)
        assert stats.chisquare(counts, probs * 8000).pvalue > 0.01

    def test_huge_bias_forces_green(self):
        scheme = SchemeSpec("red_green", 10, green_frac=0.5, bias=50.0)
        probs = np.full(10, 0.1)
        for seed in range(200):
            key = scheme.key_at(seed)
            token = scheme.decode(probs, key)
            assert key.green[token]

    def test_biased_green_probability_closed_form(self):
        # Uniform NTP over V=4, half green, bias 2: green mass
        # e^2 / (e^2 + 1) ~ 0.8808.
        expected = math.exp(2.0) / (math.exp(2.0) + 1.0)
        scheme = SchemeSpec("red_green", 4, green_frac=0.5, bias=2.0)
        probs = np.full(4, 0.25)
        hits = 0
        n = 20_000
        for seed in range(n):
            key = scheme.key_at(seed)
            hits += key.green[scheme.decode(probs, key)]
        assert abs(hits / n - expected) < 0.01

    def test_pivot_is_the_green_indicator(self):
        scheme = SchemeSpec("red_green", 3, green_frac=0.5)
        key = RedGreenKey(green=np.array([True, False, True]), u=0.3)
        assert scheme.pivot(0, key) == 1.0
        assert scheme.pivot(1, key) == 0.0

    def test_null_mean_matches_green_fraction(self, rng):
        scheme = SchemeSpec("red_green", 10, green_frac=0.5)
        tokens = rng.integers(0, 10, 20_000)
        hits = 0.0
        for i, tok in enumerate(tokens):
            hits += scheme.pivot(int(tok), scheme.key_at(i))
        assert abs(hits / tokens.size - 0.5) < 0.01

    def test_green_subset_size_and_determinism(self):
        scheme = SchemeSpec("red_green", 100, green_frac=0.3)
        key1 = scheme.key_at(42)
        key2 = scheme.key_at(42)
        assert key1.green.sum() == 30
        assert np.array_equal(key1.green, key2.green)
        assert key1.u == key2.u

    def test_negative_bias_rejected(self):
        with pytest.raises(ValueError):
            SchemeSpec("red_green", 4, green_frac=0.5, bias=-1.0)

    @pytest.mark.parametrize("bias", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "minus-inf"])
    def test_a_non_finite_bias_is_rejected(self, bias):
        # A NaN or infinite bias used to pass and weight every green token by
        # nan or inf, so each in-segment token decoded to one and the same token.
        with pytest.raises(ValueError, match=f"bias must be finite and nonnegative, not {bias}"):
            SchemeSpec("red_green", 50, bias=bias)
        with pytest.raises(ValueError, match="bias must be finite"):
            SchemeSpec.from_json({"id": "red_green", "vocab_size": 50, "bias": bias})


# ---------------------------------------------------------------------------
# Cross-scheme invariants
# ---------------------------------------------------------------------------


def _capped_random_probs(rng, vocab, delta):
    from wmseg.streams import cap_probs

    probs = rng.dirichlet(np.full(vocab, 0.3))
    return cap_probs(probs, delta)


@pytest.mark.parametrize("scheme_id", ["gumbel", "inverse", "red_green"])
def test_pivot_scores_one_token_as_a_float(scheme_id):
    scheme = SchemeSpec(scheme_id, vocab_size=12)
    key = scheme.key_at(77)
    for token in (3, np.int64(3), np.asarray(3)):
        pivot = scheme.pivot(token, key)
        assert type(pivot) is float
        assert pivot == scheme.pivot(3, key)
    for bad in (-1, 12):
        for token in (bad, np.int64(bad), np.asarray(bad)):
            with pytest.raises(IndexError, match=f"token {bad} outside vocabulary of 12"):
                scheme.pivot(token, key)


@pytest.mark.parametrize("scheme_id", ["gumbel", "inverse", "red_green"])
def test_elevated_alternatives(scheme_id, rng):
    """Watermarked score mean exceeds the null mean for capped NTPs."""
    delta = 0.5
    scheme = SchemeSpec(scheme_id, vocab_size=20)
    reps = 4000
    for trial in range(3):
        probs = _capped_random_probs(rng, 20, delta)
        scores = np.empty(reps)
        for i in range(reps):
            key = scheme.key_at(int(rng.integers(0, 2**63)))
            scores[i] = scheme.pivot_score(scheme.decode(probs, key), key)
        se = scores.std(ddof=1) / math.sqrt(reps)
        assert scores.mean() - 3 * se > scheme.null_mean
        if scheme_id == "gumbel":
            floor = scheme.null_mean + gumbel_separation_lower_bound(delta)
            assert scores.mean() > floor - 3 * se


@pytest.mark.parametrize("scheme_id", ["gumbel", "inverse", "red_green"])
def test_null_score_law_sampler_matches_ops(scheme_id, rng):
    """null_scores must follow the same law as scoring an independent token."""
    scheme = SchemeSpec(scheme_id, vocab_size=24)
    reps = 3000
    via_ops = np.empty(reps)
    tokens = rng.integers(0, 24, reps)
    for i in range(reps):
        key = scheme.key_at(int(rng.integers(0, 2**63)))
        via_ops[i] = scheme.pivot_score(int(tokens[i]), key)
    sampled = scheme.null_scores(generator(3), 50_000)
    if scheme_id == "red_green":
        assert abs(via_ops.mean() - sampled.mean()) < 0.04
    else:
        assert stats.ks_2samp(via_ops, sampled).pvalue > 0.001
    assert abs(sampled.mean() - scheme.null_mean) < 0.02


def test_pivot_series_validation():
    with pytest.raises(ValueError):
        PivotSeries(scores=np.empty(0), null_mean=1.0, scheme_id="gumbel")
    series = PivotSeries(scores=np.arange(4.0), null_mean=1.0, scheme_id="gumbel")
    assert series.n == 4 and len(series) == 4


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pivot_series_rejects_non_finite_scores(bad):
    with pytest.raises(ValueError, match="finite"):
        PivotSeries(np.array([1.0, bad, 0.5]), 1.0, "gumbel")


def test_scheme_spec_round_trip_and_null_means():
    for spec in (
        SchemeSpec("gumbel", 100),
        SchemeSpec("inverse", 64),
        SchemeSpec("red_green", 100, green_frac=0.5, bias=2.0),
    ):
        assert SchemeSpec.from_json(spec.to_json()) == spec
    assert SchemeSpec("gumbel", 100).null_mean == 1.0
    assert math.isclose(SchemeSpec("inverse", 100).null_mean, 395 / 594)
    assert SchemeSpec("red_green", 100, green_frac=0.5).null_mean == 0.5
    with pytest.raises(ValueError):
        SchemeSpec("permute_flip", 100)


@pytest.mark.parametrize("scheme_id", SCHEME_IDS)
def test_from_json_takes_the_field_defaults_for_missing_keys(scheme_id):
    assert SchemeSpec.from_json({"id": scheme_id, "vocab_size": 40}) == SchemeSpec(scheme_id, 40)


def test_from_json_rejects_unknown_keys():
    data = {"id": "red_green", "vocab_size": 40, "green_fraction": 0.25}
    with pytest.raises(ValueError, match="unknown scheme key.*'green_fraction'"):
        SchemeSpec.from_json(data)


@pytest.mark.parametrize("data", [
    {"id": "inverse", "vocab_size": 10, "bias": -3.0},
    {"id": "gumbel", "vocab_size": 10, "green_frac": 7.0},
    {"id": "gumbel", "vocab_size": 10, "bias": math.nan},
], ids=["inverse-bias", "gumbel-green-frac", "gumbel-nan-bias"])
def test_from_json_rejects_a_parameter_the_scheme_does_not_read(data):
    """Accepted, the parameter would be dropped by to_json, so the spec
    would not survive its own round trip."""
    name = next(key for key in data if key not in ("id", "vocab_size"))
    with pytest.raises(ValueError, match=f"scheme '{data['id']}' does not read {name}"):
        SchemeSpec.from_json(data)


@pytest.mark.parametrize("scheme_id", ["gumbel", "inverse"])
def test_a_scheme_accepts_the_defaults_of_parameters_it_does_not_read(scheme_id):
    spec = SchemeSpec(scheme_id, 10, green_frac=0.5, bias=2.0)
    assert spec == SchemeSpec(scheme_id, 10) == SchemeSpec.from_json(spec.to_json())


def exact_null_mean(scheme_id, vocab, green_frac=0.5):
    """Oracle for the score's null mean: Exp(1); the mean of
    E[1 - |U - g|] = 1 - (g^2 + (1-g)^2)/2 over the rank grid g = k/(V-1);
    the green fraction |G|/V."""
    if scheme_id == "gumbel":
        return 1.0
    if scheme_id == "inverse":
        g = np.arange(vocab) / (vocab - 1)
        return float(np.mean(1.0 - (g**2 + (1.0 - g) ** 2) / 2.0))
    return math.floor(green_frac * vocab) / vocab


@pytest.mark.parametrize("scheme_id", SCHEME_IDS)
def test_null_mean_matches_exact_oracle(scheme_id):
    for vocab in (2, 3, 20, 1000):
        got = SchemeSpec(scheme_id, vocab).null_mean
        assert math.isclose(got, exact_null_mean(scheme_id, vocab), rel_tol=1e-12), vocab
    with pytest.raises(ValueError):
        SchemeSpec(scheme_id, 1)


@pytest.mark.parametrize("scheme_id", SCHEME_IDS)
def test_a_vocabulary_of_2_to_the_32_is_rejected(scheme_id):
    # Built, it would ask units_mod or coordinate_tags for a 32 GiB table.
    message = re.escape("vocab_size must lie in [2, 2**32), not 4294967296")
    with pytest.raises(ValueError, match=message):
        SchemeSpec(scheme_id, 2**32)


@pytest.mark.parametrize("scheme_id", SCHEME_IDS)
def test_equal_specs_share_one_read_only_scheme_object(scheme_id):
    first, second = SchemeSpec(scheme_id, 1000), SchemeSpec.from_json({"id": scheme_id,
                                                                       "vocab_size": 1000})
    assert first._scheme is second._scheme
    assert SchemeSpec(scheme_id, 999)._scheme is not first._scheme
    table = first._scheme.tags if scheme_id == "gumbel" else first._scheme.units
    with pytest.raises(ValueError, match="read-only"):
        table[0] = 1


def test_red_green_specs_share_a_scheme_object_only_with_equal_params():
    base = SchemeSpec("red_green", 100, green_frac=0.5, bias=2.0)
    assert SchemeSpec("red_green", 100, green_frac=0.5, bias=2.0)._scheme is base._scheme
    assert SchemeSpec("red_green", 100, green_frac=0.5, bias=1.0)._scheme is not base._scheme
    assert SchemeSpec("red_green", 100, green_frac=0.3, bias=2.0)._scheme is not base._scheme
    assert SchemeSpec("inverse", 100)._scheme is not base._scheme
