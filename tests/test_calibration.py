import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats
from scipy.signal import fftconvolve

from covering_reference import reference_smallest_covering_q
from inverse_table_reference import reference_band, reference_block_sum_cdf, reference_spectrum
from scheme_theory import inverse_null_pivot_cdf
from wmseg import calibration
from wmseg.calibration import (
    INVERSE_STEP,
    LATTICE,
    ThresholdCert,
    band,
    block_starts,
    block_sum_cdf,
    calibrate_threshold,
    simulate_max_block_sums,
)
from wmseg.intervals import Segments
from wmseg.schemes import SCHEME_IDS, SchemeSpec
from wmseg.segmentation import block_sums, screen_blocks
from wmseg.streams import NtpModel, StreamSpec, generate_stream, score_tokens

GUMBEL = SchemeSpec("gumbel", vocab_size=100)


def null_fpr_estimate(cert: ThresholdCert, reps: int, seed: int, scheme=None) -> float:
    """Fraction of fresh null streams whose max block sum exceeds the cert's
    threshold: a Monte Carlo check that the certificate holds its alpha."""
    if reps < 1_000:
        raise ValueError("need at least 10^3 replications for a usable estimate")
    if scheme is None:
        scheme = SchemeSpec.from_json(cert.scheme_params)
    maxima = simulate_max_block_sums(scheme, cert.n, cert.block_len, reps,
                                     np.random.default_rng(seed))
    return float(np.mean(maxima > cert.q))


class PointMassScheme:
    """Degenerate null law: every score equals the null mean."""

    scheme_id = "point_mass_stub"

    def __init__(self, null_mean=1.0):
        self.null_mean = null_mean

    def null_scores(self, rng, size):
        return np.full(size, self.null_mean)

    def to_json(self):
        return {"id": self.scheme_id, "null_mean": self.null_mean}


@pytest.fixture
def point_mass(monkeypatch):
    """A PointMassScheme whose continuous law, a step at k times its null
    mean, is registered in calibration's law table for the test."""
    monkeypatch.setitem(calibration._LAWS, PointMassScheme.scheme_id,
                        lambda scheme, k: lambda q: float(q >= k * scheme.null_mean))
    monkeypatch.setitem(LATTICE, PointMassScheme.scheme_id, None)
    return PointMassScheme()


def oracle_max_block_sum_quantile(n, block_len, alpha, reps, seed):
    """Independent Monte Carlo oracle for the Gumbel/Exp(1) threshold."""
    rng = np.random.default_rng(seed)
    starts = block_starts(n, block_len)
    maxima = np.empty(reps)
    for i in range(0, reps, 2000):
        rows = min(2000, reps - i)
        sums = np.add.reduceat(rng.exponential(1.0, (rows, n)), starts, axis=1)
        maxima[i : i + rows] = sums.max(axis=1)
    level = 1.0 - alpha
    quantile = float(np.quantile(maxima, level, method="higher"))
    spread = np.quantile(maxima, level + 0.01) - np.quantile(maxima, level - 0.01)
    se = (spread / 0.02) * math.sqrt(alpha * level / reps)
    return quantile, se


class TestCalibrateThreshold:
    def test_point_mass_stub_pins_q_at_block_mean(self, point_mass):
        for alpha in (0.01, 0.05, 0.5, 0.9):
            cert = calibrate_threshold(point_mass, n=100, block_len=10,
                                       alpha=alpha, mc_reps=2000, seed=1)
            assert cert.q == 10.0

    def test_matches_independent_oracle(self):
        n, b, alpha = 400, 20, 0.05
        cert = calibrate_threshold(GUMBEL, n=n, block_len=b, alpha=alpha,
                                   mc_reps=10_000, seed=2)
        oracle_q, oracle_se = oracle_max_block_sum_quantile(n, b, alpha, reps=100_000, seed=3)
        cert_se = oracle_se * math.sqrt(100_000 / 10_000)
        tolerance = 2.0 * math.hypot(cert_se, oracle_se)
        assert abs(cert.q - oracle_q) < tolerance

    def test_quantile_monotone_in_alpha(self):
        loose = calibrate_threshold(GUMBEL, 400, 20, alpha=0.5, mc_reps=5000, seed=4)
        tight = calibrate_threshold(GUMBEL, 400, 20, alpha=0.05, mc_reps=5000, seed=4)
        assert loose.q <= tight.q

    def test_reproducible_bit_for_bit(self):
        a = calibrate_threshold(GUMBEL, 300, 17, 0.05, mc_reps=4000, seed=5)
        b = calibrate_threshold(GUMBEL, 300, 17, 0.05, mc_reps=4000, seed=5)
        assert a == b

    def test_input_validation(self):
        with pytest.raises(ValueError):
            calibrate_threshold(GUMBEL, 100, 0, 0.05)
        with pytest.raises(ValueError):
            calibrate_threshold(GUMBEL, 100, 101, 0.05)
        with pytest.raises(ValueError):
            calibrate_threshold(GUMBEL, 100, 10, 1.0)
        # A length that is not a Python int would calibrate a Gamma(32.5)
        # law, a block of one token or a certificate with "n": 1000.0.
        for scheme_id, n, b in [("gumbel", 1000, 32.5), ("red_green", 1000, 32.5),
                                ("gumbel", 1000, True), ("gumbel", 1000.0, 32),
                                ("inverse", np.int64(1000), 32)]:
            with pytest.raises(ValueError, match="must be integers"):
                calibrate_threshold(SchemeSpec(scheme_id, 100), n, b, 0.05)

    def test_partial_last_block_is_its_own_block(self, point_mass):
        # n=7, b=3 gives blocks of sizes (3, 3, 1) in both calibration and
        # segmentation; the stub makes block sums equal block sizes.
        cert = calibrate_threshold(point_mass, n=7, block_len=3,
                                   alpha=0.05, mc_reps=500, seed=6)
        assert cert.q == 3.0  # max block sum is the full block, not the stub tail

    def test_json_round_trip(self):
        cert = calibrate_threshold(GUMBEL, 200, 15, 0.1, mc_reps=2000, seed=7)
        data = cert.to_json()
        assert json.loads(json.dumps(data)) == data
        assert set(data) == {"q", "alpha", "n", "b", "scheme"}
        assert (data["q"], data["b"], data["scheme"]) == (cert.q, 15, GUMBEL.to_json())

    def test_new_certificates_are_exact_and_record_no_draws(self):
        cert = calibrate_threshold(GUMBEL, 200, 15, 0.1, mc_reps=5000, seed=3)
        assert cert == calibrate_threshold(GUMBEL, 200, 15, 0.1)


class TestNullFprEstimate:
    def test_point_mass_stub_never_false_positives(self, point_mass):
        cert = calibrate_threshold(point_mass, n=100, block_len=10,
                                   alpha=0.05, mc_reps=2000, seed=8)
        fpr = null_fpr_estimate(cert, reps=2000, seed=9, scheme=point_mass)
        assert fpr == 0.0  # strict inequality at the point mass

    def test_gumbel_alpha_level_holds(self):
        cert = calibrate_threshold(GUMBEL, 400, 20, alpha=0.05, mc_reps=20_000, seed=10)
        fpr = null_fpr_estimate(cert, reps=10_000, seed=11)
        assert abs(fpr - 0.05) < 0.01
        se = math.sqrt(0.05 * 0.95 / 10_000)
        assert abs(fpr - 0.05) < 3 * se + 0.005  # binomial 3SE plus quantile bias

    def test_alpha_one_half_level(self):
        cert = calibrate_threshold(GUMBEL, 400, 20, alpha=0.5, mc_reps=20_000, seed=12)
        fpr = null_fpr_estimate(cert, reps=10_000, seed=13)
        assert abs(fpr - 0.5) < 0.02

    def test_needs_enough_replications(self):
        cert = calibrate_threshold(GUMBEL, 100, 10, 0.05, mc_reps=2000, seed=14)
        with pytest.raises(ValueError):
            null_fpr_estimate(cert, reps=100, seed=15)


def test_q_over_b_decreases_toward_the_null_mean():
    """With b = ceil(sqrt(n)), the threshold per token approaches the null
    mean from above as streams grow."""
    ratios = []
    for n in (400, 1600, 6400):
        b = math.ceil(math.sqrt(n))
        cert = calibrate_threshold(GUMBEL, n, b, alpha=0.05, mc_reps=8000, seed=16)
        ratios.append(cert.q / b)
    assert all(r > 1.0 for r in ratios)
    for earlier, later in zip(ratios, ratios[1:]):
        assert later <= earlier + 0.02
    assert ratios[-1] < ratios[0]


def max_block_sum_cover(block_cdf, n, block_len, q):
    """P(max block sum <= q) from a per-block CDF ``block_cdf(q, k)``."""
    m = math.ceil(n / block_len)
    return block_cdf(q, block_len) ** (m - 1) * block_cdf(q, n - (m - 1) * block_len)


def k_fold(pmf, k):
    """Mass function of the sum of k i.i.d. draws from ``pmf``, by squaring."""
    out, power = np.array([1.0]), pmf
    while k:
        if k & 1:
            out = fftconvolve(out, power)
        k >>= 1
        if k:
            power = fftconvolve(power, power)
    return np.clip(out, 0.0, None)


def inverse_lattice_oracle(vocab, k):
    """Round each score *up* onto the lattice and convolve k copies by
    repeated squaring: the law block_sum_cdf states, built without its code,
    as its CDF at lattice points 0..k/h."""
    lattice = np.arange(round(1 / INVERSE_STEP) + 1) * INVERSE_STEP
    pmf_up = np.diff(1.0 - inverse_null_pivot_cdf(1.0 - lattice, vocab), prepend=0.0)
    return np.cumsum(k_fold(pmf_up, k))


def lattice_values(cdf, points):
    """The scalar CDF at each lattice index of ``points``, one call each."""
    return np.array([cdf(j * INVERSE_STEP) for j in points.tolist()])


def assert_inverse_lattice_law_matches_direct_convolution(vocab, k):
    """The direct-convolution oracle against the CDF at 2000 seeded random
    lattice points, the first, the last and one past the last."""
    oracle = inverse_lattice_oracle(vocab, k)
    cdf = block_sum_cdf(SchemeSpec("inverse", vocab), k)
    rng = np.random.default_rng([vocab, k])
    points = np.concatenate(([0, oracle.size - 1], rng.integers(0, oracle.size, 2000)))
    assert np.max(np.abs(lattice_values(cdf, points) - oracle[points])) <= 1e-13
    last = cdf((oracle.size - 1) * INVERSE_STEP)
    assert cdf(oracle.size * INVERSE_STEP) == last and abs(last - 1.0) <= 1e-13


class TestExactLaw:
    """calibrate_threshold against oracles that share none of its code."""

    @pytest.mark.parametrize("n, b, alpha", [
        (1000, 32, 0.05), (4000, 64, 0.05), (16000, 127, 0.01), (400, 20, 0.5), (7, 3, 0.1),
        (50, 50, 0.05),
    ])
    def test_gumbel_covers_exactly(self, n, b, alpha):
        cert = calibrate_threshold(GUMBEL, n, b, alpha)
        cover = max_block_sum_cover(lambda q, k: stats.gamma.cdf(q, k), n, b, cert.q)
        assert abs(cover - (1 - alpha)) < 1e-9

    @pytest.mark.parametrize("vocab, green_frac, n, b, alpha", [
        (1000, 0.5, 1000, 32, 0.05),  # the last block (8 tokens) is below q
        (1000, 0.25, 4000, 64, 0.05),
        (20, 0.5, 16000, 127, 0.01),
        (50, 0.1, 300, 30, 0.5),
        (1000, 0.001, 10, 5, 0.05),  # q = 0 already covers
    ])
    def test_red_green_q_is_the_smallest_covering_count(self, vocab, green_frac, n, b, alpha):
        scheme = SchemeSpec("red_green", vocab, green_frac=green_frac)
        cert = calibrate_threshold(scheme, n, b, alpha)
        p = scheme.null_mean

        def cover(q):
            return max_block_sum_cover(lambda q, k: stats.binom.cdf(q, k, p), n, b, q)

        assert cert.q == math.floor(cert.q) >= 0
        assert cover(cert.q) >= 1 - alpha > cover(cert.q - 1)
        if (n, b) == (1000, 32):
            assert cert.q > 8  # above the short last block's size, where bdtr needs the clamp

    @pytest.mark.parametrize("vocab", [2, 3, 20, 1000])
    def test_inverse_lies_within_its_lattice_bound_and_the_monte_carlo_quantile(self, vocab):
        n, b, alpha = 1000, 32, 0.05
        scheme = SchemeSpec("inverse", vocab)
        cert = calibrate_threshold(scheme, n, b, alpha)
        # Round each score *down* onto the lattice: that sum never exceeds
        # the exact one, so its threshold q_down is a lower bound. Rounding
        # up adds exactly h per score, so a conservative q lies r·h to b·h
        # above q_down, with r the short last block's length.
        steps = round(1 / INVERSE_STEP)
        lattice = np.arange(steps + 1) * INVERSE_STEP
        score_cdf = 1.0 - inverse_null_pivot_cdf(1.0 - lattice, vocab)
        pmf_down = np.diff(score_cdf)
        m = math.ceil(n / b)
        full = np.cumsum(k_fold(pmf_down, b))
        r = n - (m - 1) * b
        last = np.cumsum(k_fold(pmf_down, r))
        last = np.concatenate((last, np.ones(full.size - last.size)))
        q_down = int(np.argmax(full ** (m - 1) * last >= 1 - alpha)) * INVERSE_STEP
        assert q_down + r * INVERSE_STEP <= cert.q <= q_down + b * INVERSE_STEP

        reps = 100_000
        maxima = simulate_max_block_sums(scheme, n, b, reps, np.random.default_rng(vocab))
        level = 1 - alpha
        mc_q = float(np.quantile(maxima, level, method="higher"))
        spread = np.quantile(maxima, level + 0.01) - np.quantile(maxima, level - 0.01)
        se = (spread / 0.02) * math.sqrt(alpha * level / reps)
        assert abs(cert.q - mc_q) < 3 * se

    @pytest.mark.parametrize("vocab", [2, 20, 1000])
    @pytest.mark.parametrize("k", [1, 8, 32, 64, 99, 100, 125, 127])
    def test_inverse_lattice_law_matches_direct_convolution(self, vocab, k):
        # k covers both sides of 100 and the powers of two.
        assert_inverse_lattice_law_matches_direct_convolution(vocab, k)

    def test_inverse_lattice_law_matches_direct_convolution_past_256(self):
        assert_inverse_lattice_law_matches_direct_convolution(1000, 300)

    @pytest.mark.parametrize("vocab", [2, 20, 1000])
    @pytest.mark.parametrize("k", [8, 127, 300])
    def test_inverse_lattice_law_is_nondecreasing(self, vocab, k):
        # The law is summed from the bins of its spectrum above 1e-16, so it
        # may fall between neighbouring lattice points by rounding only:
        # checked on 1000 seeded pairs (j, j + 1) and at both ends.
        cdf = block_sum_cdf(SchemeSpec("inverse", vocab), k)
        top = round(k / INVERSE_STEP)
        points = np.random.default_rng([vocab, k]).integers(0, top, 1000)
        assert np.min(lattice_values(cdf, points + 1) - lattice_values(cdf, points)) >= -1e-14
        assert cdf(0.0) >= 0.0 and cdf(top * INVERSE_STEP) == cdf((top + 1) * INVERSE_STEP) == 1.0

    def test_inverse_law_reaches_one_at_the_largest_sum(self):
        # A sum of k rounded-up scores never exceeds k, so the law is 1 from
        # k on. That does not make alpha = 1e-15 certifiable: it lies below
        # what the law resolves over 126 blocks, so it is refused.
        cdf = block_sum_cdf(SchemeSpec("inverse", 1000), 127)
        assert cdf(127.0) == cdf(128.0) == cdf(1e300) == 1.0
        with pytest.raises(ValueError, match="below 1.26e-10, the least level"):
            calibrate_threshold(SchemeSpec("inverse", 1000), 16000, 127, 1e-15)

    @pytest.mark.parametrize("vocab, n, b", [
        (1000, 16000, 127), (1000, 1_000_000, 1000), (2, 1000, 32), (20, 100, 100),
    ])
    def test_inverse_refuses_an_alpha_below_the_level_its_law_resolves(self, vocab, n, b):
        # The law is within 1e-13 of the exact CDF at every lattice point, so
        # the cover F_b^(m-1) F_r of m blocks is within about m·1e-13 of the
        # exact one. The floor is ten times that, m·1e-12: at and above it the
        # rounding moves the level by a tenth of alpha at most.
        scheme, m = SchemeSpec("inverse", vocab), math.ceil(n / b)
        floor = m * 1e-12
        for alpha in (1e-15, floor / 2, floor * (1 - 1e-9)):
            with pytest.raises(ValueError, match=f"below {floor:.3g}, the least level"):
                calibrate_threshold(scheme, n, b, alpha)
        assert 0 < calibrate_threshold(scheme, n, b, floor).q <= b
        # The tail forms of the other two laws are not bounded this way.
        for scheme_id in ("gumbel", "red_green"):
            assert calibrate_threshold(SchemeSpec(scheme_id, vocab), n, b, 1e-15).q > 0

    @pytest.mark.parametrize("vocab, n, b, alpha, j", [
        (1000, 1000, 32, 0.05, 51307),
        (1000, 4000, 64, 0.05, 99082),
        (1000, 16000, 127, 0.05, 191112),
        (20, 16000, 127, 0.01, 191529),
        (2, 1000, 32, 0.05, 42521),
        (1000, 4096, 64, 0.05, 99115),  # b divides n: one law serves every block
        (100, 10000, 100, 0.05, 151664),  # k = 100 exactly
        (1000, 100000, 317, 0.05, 463180),  # last block r = 145
        (1000, 1000000, 1000, 0.05, 1424143),
    ])
    def test_inverse_thresholds_stay_on_their_lattice_points(self, vocab, n, b, alpha, j):
        # Golden q = j·h: a faster way to evaluate the same law must not move
        # any threshold by even one lattice step.
        cert = calibrate_threshold(SchemeSpec("inverse", vocab), n, b, alpha)
        assert cert.q == j * INVERSE_STEP

    @pytest.mark.parametrize("vocab, n, b, alpha, j, ks", [
        (1000, 1000, 32, 0.05, 51307, (32, 8)),
        (20, 16000, 127, 0.01, 191529, (127, 125)),
    ])
    def test_inverse_law_holds_at_the_points_bisection_probes(self, vocab, n, b, alpha, j, ks,
                                                               monkeypatch):
        # Every lattice point a certificate reads lies within 1e-13 of the
        # oracle, and the point after it is no lower by more than 1e-14.
        probes = {k: [] for k in ks}
        inverse_law = calibration._LAWS["inverse"]

        def recording(spec, k):
            cdf = inverse_law(spec, k)
            return lambda q: probes[k].append(q) or cdf(q)

        monkeypatch.setitem(calibration._LAWS, "inverse", recording)
        assert calibrate_threshold(SchemeSpec("inverse", vocab), n, b, alpha).q == j * INVERSE_STEP
        monkeypatch.undo()
        for k in ks:
            oracle = inverse_lattice_oracle(vocab, k)
            lattice = {math.floor(q / INVERSE_STEP) for q in probes[k]}
            points = np.array(sorted(p for p in lattice if p < oracle.size))
            cdf = block_sum_cdf(SchemeSpec("inverse", vocab), k)
            law = lattice_values(cdf, points)
            assert np.max(np.abs(law - oracle[points])) <= 1e-13
            assert np.min(lattice_values(cdf, points + 1) - law) >= -1e-14

    @pytest.mark.parametrize("vocab", [2, 3, 20, 1000])
    @pytest.mark.parametrize("k", [8, 32, 127, 300])
    def test_inverse_spectrum_lies_under_the_variation_bound(self, vocab, k):
        # Summation by parts: (1 - e^(-i theta)) P(theta) is the spectrum of
        # the differences of p, so |P| <= TV(p) / (2 sin(theta/2)), the bound
        # that confines calibration.band's bins to 1..top.
        fft_len, power = reference_spectrum(vocab, k)
        f = np.arange(1, fft_len // 2 + 1)
        bound = calibration._inverse_pmf(vocab)[1] / (2 * np.sin(np.pi * f / fft_len))
        assert np.all(np.abs(power[f]) <= bound + 1e-15)

    @pytest.mark.parametrize("vocab", [2, 3, 20, 1000])
    @pytest.mark.parametrize("k", [1, 8, 12, 14, 16, 20, 25, 32, 125, 127, 300, 1000])
    def test_inverse_band_matches_the_full_rfft(self, vocab, k, monkeypatch):
        # Small k reads P at 1..top from the rfft of length L and large k
        # sums it directly; k = 12 to 16 lie where the two cost alike.
        ref_len, ref_bins, ref_values = reference_band(vocab, k)
        lengths, direct = [], []
        rfft, spectrum_at = np.fft.rfft, calibration._spectrum_at
        monkeypatch.setattr(np.fft, "rfft", lambda a, n: lengths.append(n) or rfft(a, n))
        monkeypatch.setattr(calibration, "_spectrum_at",
                            lambda *args: direct.append(args) or spectrum_at(*args))
        fft_len, bins, values = band(vocab, k)
        assert lengths == ([] if direct else [ref_len]) and len(direct) <= 1
        assert fft_len == ref_len and bins.tolist() == ref_bins.tolist()
        assert np.max(np.abs(values - ref_values)) <= 1e-15

    def test_inverse_law_stays_small_at_large_k(self):
        # The full rfft at k = 1000 has L = 2073600 points, about 26 MB at
        # its peak. The band is summed directly at its 669 candidate bins.
        scheme = SchemeSpec("inverse", 1000)
        tracemalloc.start()
        try:
            block_sum_cdf(scheme, 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4_000_000

    @pytest.mark.parametrize("vocab", [2, 3, 20, 1000])
    def test_inverse_thresholds_match_the_table_reference(self, vocab):
        # The full FFT table that the band-limited law replaced gives the
        # same threshold, to the bit, at every (n, b, alpha): b = ceil(sqrt(n))
        # and half and twice that, so most last blocks are short.
        scheme = SchemeSpec("inverse", vocab)
        for n in (300, 1000, 2500, 4000, 9000, 16000):
            root = math.ceil(math.sqrt(n))
            for b in (root // 2, root, 2 * root):
                m = math.ceil(n / b)
                full = reference_block_sum_cdf(vocab, b)
                last = reference_block_sum_cdf(vocab, n - (m - 1) * b)
                for alpha in (0.01, 0.05, 0.1):
                    expected = reference_smallest_covering_q(
                        lambda x: full(x) ** (m - 1) * last(x), 1 - alpha)
                    assert calibrate_threshold(scheme, n, b, alpha).q == expected, (n, b, alpha)

    def test_inverse_lattice_law_keeps_the_null_mean(self):
        for vocab in (2, 3, 20, 1000):
            scheme = SchemeSpec("inverse", vocab)
            points = np.arange(round(1 / INVERSE_STEP) + 1)
            lattice = points * INVERSE_STEP
            mass = np.diff(lattice_values(block_sum_cdf(scheme, 1), points), prepend=0.0)
            mean = float(mass @ lattice)
            assert scheme.null_mean <= mean <= scheme.null_mean + INVERSE_STEP

    @pytest.mark.parametrize("scheme_id", ["inverse", "red_green"])
    @pytest.mark.parametrize("vocab", [2, 20, 1000])
    def test_lattice_search_matches_the_float_search(self, scheme_id, vocab):
        # Bisecting the lattice index lands on the threshold that bisecting
        # the bit patterns of all floats up to 1e300 finds, to the bit.
        scheme = SchemeSpec(scheme_id, vocab)
        for n in (300, 1000, 4000, 16000, 100_000):
            root = math.ceil(math.sqrt(n))
            for b in (root // 2, root, 2 * root):
                m = math.ceil(n / b)
                full, last = block_sum_cdf(scheme, b), block_sum_cdf(scheme, n - (m - 1) * b)
                for alpha in (0.1, 0.05, 0.01, 1e-6):
                    expected = reference_smallest_covering_q(
                        lambda x: full(x) ** (m - 1) * last(x), 1 - alpha)
                    assert calibrate_threshold(scheme, n, b, alpha).q == expected, (n, b, alpha)

    @pytest.mark.parametrize("scheme_id, vocab, n, b", [
        ("inverse", 1000, 1000, 32), ("inverse", 20, 16000, 127), ("inverse", 1000, 4096, 64),
        ("inverse", 1000, 1_000_000, 1000), ("red_green", 1000, 1000, 32),
        ("red_green", 1000, 16000, 127), ("red_green", 20, 4096, 64), ("red_green", 2, 5, 5),
    ])  # 4096, 10^6 and 5 tokens: b divides n, and one law serves every block
    def test_a_lattice_threshold_reads_each_point_once(self, scheme_id, vocab, n, b,
                                                         monkeypatch):
        # One probe of cover reads the law of a full block once, so its
        # points are the probes: at most ceil(log2(b/h)) + 1 of them, none
        # read twice, where the float search read about 65.
        scheme, law, step, points = (SchemeSpec(scheme_id, vocab), calibration._LAWS[scheme_id],
                                     LATTICE[scheme_id], [])

        def recording(spec, k):
            cdf = law(spec, k)
            if k != b:
                return cdf
            return lambda q: points.append(q / step) or cdf(q)

        monkeypatch.setitem(calibration._LAWS, scheme_id, recording)
        calibrate_threshold(scheme, n, b, 0.05)
        assert all(j == math.floor(j) for j in points)
        assert len(points) == len(set(points)) <= math.ceil(math.log2(b / step)) + 1

    @pytest.mark.parametrize("scheme_id, n, b", [
        ("inverse", 1_000_000, 1000), ("inverse", 16000, 127),
        ("red_green", 16000, 127), ("red_green", 1000, 1000),
    ])
    def test_a_threshold_at_a_level_near_one_is_locally_minimal(self, scheme_id, n, b):
        # At alpha = 1e-15 the level lies within the inverse law's rounding,
        # so no point of that law resolves it and calibration refuses it.
        # Red_green's threshold covers and the point below does not.
        scheme = SchemeSpec(scheme_id, 1000)
        if scheme_id == "inverse":
            with pytest.raises(ValueError, match="the least level the inverse law resolves"):
                calibrate_threshold(scheme, n, b, 1e-15)
            return
        q, h = calibrate_threshold(scheme, n, b, 1e-15).q, LATTICE[scheme_id]
        m = math.ceil(n / b)
        full, last = block_sum_cdf(scheme, b), block_sum_cdf(scheme, n - (m - 1) * b)

        def cover(x):
            return full(x) ** (m - 1) * last(x)

        assert q / h == math.floor(q / h) and 0 < q <= b
        assert cover(q) >= 1 - 1e-15 > cover(q - h)

    def test_each_law_reads_only_the_fields_that_fix_it(self):
        # Gumbel's law is Gamma(k, 1) at every V, red_green's reads |G|/V
        # alone, whatever V and bias give it, and inverse's reads V.
        def q(scheme_id, vocab, **params):
            return calibrate_threshold(SchemeSpec(scheme_id, vocab, **params), 1000, 32, 0.05).q

        assert set(calibration._LAWS) == set(LATTICE) == set(SCHEME_IDS)
        assert q("gumbel", 2) == q("gumbel", 20) == q("gumbel", 1000)
        quarter = q("red_green", 100, green_frac=0.25)
        assert quarter == q("red_green", 20, green_frac=0.25, bias=0.5) != q("red_green", 100)
        assert len({q("inverse", 2), q("inverse", 20), q("inverse", 1000)}) == 3

    def test_calibration_never_simulates(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("calibrate_threshold drew Monte Carlo samples")

        monkeypatch.setattr(calibration, "simulate_max_block_sums", refuse)
        for scheme_id in ("gumbel", "inverse", "red_green"):
            calibrate_threshold(SchemeSpec(scheme_id, 20), 1000, 32, 0.05)


# 300 null streams per cell: at a true level of 0.05, P(X >= 29) = 6.1e-4
# under Binomial(300, 0.05), so a count above 28 is a broken level.
NULL_STREAMS, NULL_LEVEL_BOUND = 300, 28
REPEATED_PAIRS = pytest.mark.xfail(strict=True, reason=(
    "the i.i.d. certificate under-covers gumbel at V=10, where repeated (context, token) "
    "pairs repeat their pivots; ROADMAP item 1 calibrates on the stream's own tokens by "
    "the random-key test of Kuditipudi et al. (arXiv 2307.15593)"))


@pytest.mark.parametrize("scheme_id, vocab", [
    pytest.param("gumbel", 10, marks=REPEATED_PAIRS), ("gumbel", 100),
    ("inverse", 10), ("inverse", 100), ("red_green", 10), ("red_green", 100),
])
def test_the_certificate_holds_its_level_on_generated_null_streams(scheme_id, vocab):
    """Generate -> score -> screen: generated unwatermarked streams, scored
    as the verifier scores a stream file, exceed the certificate's q in at
    most NULL_LEVEL_BOUND of NULL_STREAMS."""
    scheme = SchemeSpec(scheme_id, vocab)
    n, b = 1000, 32
    cert = calibrate_threshold(scheme, n, b, 0.05)
    exceeded = 0
    for seed in range(10_000, 10_000 + NULL_STREAMS):
        stream = generate_stream(StreamSpec(n, Segments(), scheme, NtpModel(), seed))
        scores = score_tokens(stream.tokens, seed, scheme).scores
        exceeded += screen_blocks(block_sums(scores, b), cert.q).size > 0
    assert exceeded <= NULL_LEVEL_BOUND
