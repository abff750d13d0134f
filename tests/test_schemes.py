import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats
from scipy.special import digamma

from wmseg.keys import generator, uniform_open
from wmseg.schemes import (
    GumbelKey,
    InvalidDistribution,
    InverseKey,
    PivotSeries,
    RedGreenKey,
    SchemeSpec,
    capped_extremal_probs,
    gumbel_decode,
    gumbel_key,
    gumbel_pivot,
    gumbel_score,
    gumbel_separation_lower_bound,
    gumbel_watermarked_score_mean,
    inverse_decode,
    inverse_key,
    inverse_null_pivot_cdf,
    inverse_null_score_mean,
    inverse_pivot,
    inverse_score,
    red_green_decode,
    red_green_key,
    red_green_pivot,
)

N_MC = 100_000


def digamma_score_mean(probs) -> float:
    """Independent closed-form oracle for the watermarked Gumbel score mean."""
    probs = np.asarray(probs, float)
    probs = probs[probs > 0]
    return float(np.sum(probs * (digamma(1.0 / probs + 1.0) + np.euler_gamma)))


# ---------------------------------------------------------------------------
# Gumbel scheme
# ---------------------------------------------------------------------------


class TestGumbelDecode:
    def test_one_hot_forces_the_argmax(self):
        key = gumbel_key(1, 5)
        probs = np.zeros(5)
        probs[3] = 1.0
        assert gumbel_decode(probs, key) == 3

    def test_two_token_example(self):
        # log(0.81)/0.5 = -0.4214 beats log(0.25)/0.5 = -2.7726.
        key = GumbelKey(uniforms=np.array([0.81, 0.25]))
        assert gumbel_decode(np.array([0.5, 0.5]), key) == 0

    def test_equal_uniforms_favor_the_larger_probability(self):
        for u in (0.1, 0.5, 0.9):
            key = GumbelKey(uniforms=np.array([u, u]))
            assert gumbel_decode(np.array([0.2, 0.8]), key) == 1

    def test_all_zero_distribution_is_rejected(self):
        with pytest.raises(InvalidDistribution):
            gumbel_decode(np.zeros(4), gumbel_key(1, 4))

    def test_zero_probability_tokens_never_win(self):
        probs = np.array([0.0, 0.5, 0.5, 0.0])
        for seed in range(50):
            assert gumbel_decode(probs, gumbel_key(seed, 4)) in (1, 2)

    def test_deterministic_given_inputs(self):
        key = gumbel_key(7, 20)
        probs = np.full(20, 0.05)
        assert gumbel_decode(probs, key) == gumbel_decode(probs, key)


class TestGumbelPivot:
    def test_coordinate_lookup(self):
        key = GumbelKey(uniforms=np.array([0.1, 0.2, 0.7, 0.4]))
        assert gumbel_pivot(2, key) == 0.7

    def test_out_of_range_token(self):
        key = gumbel_key(1, 4)
        with pytest.raises(IndexError):
            gumbel_pivot(4, key)
        with pytest.raises(IndexError):
            gumbel_pivot(-1, key)

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
        assert abs(digamma_score_mean(probs) - 1.5) < 1e-12


class TestGumbelScore:
    def test_fixed_points(self):
        assert gumbel_score(0.0) == 0.0
        assert math.isclose(gumbel_score(1.0 - math.exp(-1.0)), 1.0, rel_tol=1e-12)

    def test_domain_errors_instead_of_clipping(self):
        for bad in (-0.01, 1.0, 1.5):
            with pytest.raises(ValueError):
                gumbel_score(bad)
        with pytest.raises(ValueError):
            gumbel_score(np.array([0.2, 1.0]))

    def test_null_mean_is_one(self):
        u = uniform_open(generator(13), N_MC)
        assert abs(gumbel_score(u).mean() - 1.0) < 0.01

    @given(st.floats(min_value=0.0, max_value=0.999999))
    def test_monotone_and_nonnegative(self, y):
        assert gumbel_score(y) >= 0.0
        assert gumbel_score(min(y + 1e-6, 0.9999995)) >= gumbel_score(y)


class TestGumbelSeparationBound:
    def test_half_cap_gives_one_half(self):
        assert math.isclose(gumbel_separation_lower_bound(0.5), 0.5, abs_tol=1e-8)

    def test_two_thirds_cap_matches_extremal_oracle(self):
        # Extremal vector is three entries of 1/3; closed form H_3 - 1 = 5/6.
        got = gumbel_separation_lower_bound(2.0 / 3.0)
        oracle = digamma_score_mean(capped_extremal_probs(2.0 / 3.0)) - 1.0
        assert math.isclose(got, oracle, abs_tol=1e-8)
        assert math.isclose(got, 5.0 / 6.0, abs_tol=1e-8)

    def test_series_matches_digamma_oracle_on_a_grid(self):
        for delta in (0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 0.95):
            got = gumbel_separation_lower_bound(delta)
            oracle = digamma_score_mean(capped_extremal_probs(delta)) - 1.0
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
        assert inverse_decode(np.array([0.3, 0.7]), key) == 0

    def test_one_hot(self):
        probs = np.zeros(6)
        probs[4] = 1.0
        for seed in range(30):
            assert inverse_decode(probs, inverse_key(seed, 6)) == 4

    def test_permutation_is_validated(self):
        key = InverseKey(u=0.5, perm=np.array([0, 0, 2]))
        with pytest.raises(ValueError):
            inverse_decode(np.array([0.2, 0.3, 0.5]), key)

    def test_null_marginal_matches_the_ntp(self, rng):
        # With the key independent of everything, output ~ P.
        probs = np.array([0.05, 0.2, 0.3, 0.1, 0.35])
        u = rng.random(N_MC)
        cdf = np.cumsum(probs)
        tokens = np.searchsorted(cdf, u, side="left")
        # identity permutation: decoder reduces to plain inverse-CDF sampling
        sample = [
            inverse_decode(probs, InverseKey(u=float(ui), perm=np.arange(5)))
            for ui in u[:2000]
        ]
        counts = np.bincount(tokens, minlength=5)
        assert stats.chisquare(counts, probs * N_MC).pvalue > 0.01
        counts_ops = np.bincount(sample, minlength=5)
        assert stats.chisquare(counts_ops, probs * 2000).pvalue > 0.01

    def test_random_permutations_keep_the_marginal(self):
        probs = np.array([0.6, 0.3, 0.1])
        draws = np.array([inverse_decode(probs, inverse_key(s, 3)) for s in range(4000)])
        counts = np.bincount(draws, minlength=3)
        assert stats.chisquare(counts, probs * 4000).pvalue > 0.01


class TestInversePivot:
    def test_zero_when_uniform_hits_the_rank(self):
        key = InverseKey(u=0.5, perm=np.array([1, 2, 0]))
        # token 2 has rank 0 ... eta grid over V=3 is (0, 0.5, 1)
        key = InverseKey(u=0.5, perm=np.array([2, 1, 0]))
        assert inverse_pivot(1, key) == 0.0

    def test_grid_example(self):
        key = InverseKey(u=0.25, perm=np.arange(3))
        assert inverse_pivot(2, key) == 0.75

    def test_needs_two_tokens(self):
        key = InverseKey(u=0.3, perm=np.array([0]))
        with pytest.raises(ValueError):
            inverse_pivot(0, key)

    def test_null_score_mean_near_two_thirds(self, rng):
        vocab = 100
        u = rng.random(N_MC)
        eta = rng.integers(0, vocab, N_MC) / (vocab - 1)
        scores = 1.0 - np.abs(u - eta)
        assert abs(scores.mean() - 2.0 / 3.0) < 0.01
        assert abs(scores.mean() - inverse_null_score_mean(vocab)) < 0.005

    def test_null_pivot_law_matches_exact_cdf(self, rng):
        vocab = 50
        u = rng.random(N_MC)
        eta = rng.integers(0, vocab, N_MC) / (vocab - 1)
        pivots = np.abs(u - eta)
        stat = stats.kstest(pivots, lambda y: inverse_null_pivot_cdf(y, vocab)).statistic
        assert stat < 0.01

    def test_score_domain(self):
        with pytest.raises(ValueError):
            inverse_score(-0.1)
        with pytest.raises(ValueError):
            inverse_score(1.1)
        assert inverse_score(0.25) == 0.75


# ---------------------------------------------------------------------------
# Red-green scheme
# ---------------------------------------------------------------------------


class TestRedGreen:
    def test_zero_bias_is_a_no_op(self):
        probs = np.array([0.1, 0.2, 0.3, 0.4])
        draws = np.array(
            [red_green_decode(probs, red_green_key(s, 4, 0.5), bias=0.0) for s in range(8000)]
        )
        counts = np.bincount(draws, minlength=4)
        assert stats.chisquare(counts, probs * 8000).pvalue > 0.01

    def test_huge_bias_forces_green(self):
        probs = np.full(10, 0.1)
        for seed in range(200):
            key = red_green_key(seed, 10, 0.5)
            token = red_green_decode(probs, key, bias=50.0)
            assert key.green[token]

    def test_biased_green_probability_closed_form(self):
        # Uniform NTP over V=4, half green, bias 2: green mass
        # e^2 / (e^2 + 1) ~ 0.8808.
        expected = math.exp(2.0) / (math.exp(2.0) + 1.0)
        probs = np.full(4, 0.25)
        hits = 0
        n = 20_000
        for seed in range(n):
            key = red_green_key(seed, 4, 0.5)
            hits += key.green[red_green_decode(probs, key, bias=2.0)]
        assert abs(hits / n - expected) < 0.01

    def test_pivot_is_the_green_indicator(self):
        key = RedGreenKey(green=np.array([True, False, True]), u=0.3)
        assert red_green_pivot(0, key) == 1.0
        assert red_green_pivot(1, key) == 0.0

    def test_null_mean_matches_green_fraction(self, rng):
        tokens = rng.integers(0, 10, 20_000)
        hits = 0.0
        for i, tok in enumerate(tokens):
            hits += red_green_pivot(int(tok), red_green_key(i, 10, 0.5))
        assert abs(hits / tokens.size - 0.5) < 0.01

    def test_green_subset_size_and_determinism(self):
        key1 = red_green_key(42, 100, 0.3)
        key2 = red_green_key(42, 100, 0.3)
        assert key1.green.sum() == 30
        assert np.array_equal(key1.green, key2.green)
        assert key1.u == key2.u

    def test_negative_bias_rejected(self):
        with pytest.raises(ValueError):
            red_green_decode(np.full(4, 0.25), red_green_key(0, 4, 0.5), bias=-1.0)


# ---------------------------------------------------------------------------
# Cross-scheme invariants
# ---------------------------------------------------------------------------


def _capped_random_probs(rng, vocab, delta):
    from wmseg.streams import cap_probs

    probs = rng.dirichlet(np.full(vocab, 0.3))
    return cap_probs(probs, delta)


@pytest.mark.parametrize("scheme_id", ["gumbel", "inverse", "red_green"])
def test_pivot_accepts_a_token_array(scheme_id):
    scheme = SchemeSpec(scheme_id, vocab_size=12)
    key = scheme.key_at(77)
    tokens = np.array([3, 0, 11, 3, 7])
    pivots = scheme.pivot(tokens, key)
    assert pivots.dtype == float
    assert pivots.tolist() == [scheme.pivot(int(t), key) for t in tokens]
    assert type(scheme.pivot(np.int64(3), key)) is float
    for bad in (-1, 12):
        with pytest.raises(IndexError, match=f"token {bad} outside"):
            scheme.pivot(np.array([2, bad, 5]), key)


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


def test_scheme_spec_round_trip_and_null_means():
    for spec in (
        SchemeSpec("gumbel", 100),
        SchemeSpec("inverse", 64),
        SchemeSpec("red_green", 100, green_frac=0.5, bias=2.0),
    ):
        assert SchemeSpec.from_json(spec.to_json()) == spec
    assert SchemeSpec("gumbel", 100).null_mean == 1.0
    assert math.isclose(SchemeSpec("inverse", 100).null_mean, 2.0 / 3.0)
    assert SchemeSpec("red_green", 100, green_frac=0.5).null_mean == 0.5
    with pytest.raises(ValueError):
        SchemeSpec("permute_flip", 100)
