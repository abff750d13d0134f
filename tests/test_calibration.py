import math

import numpy as np
import pytest

from wmseg.calibration import (
    ThresholdCert,
    block_starts,
    calibrate_threshold,
    null_fpr_estimate,
)
from wmseg.schemes import SchemeSpec

GUMBEL = SchemeSpec("gumbel", vocab_size=100)


class PointMassScheme:
    """Degenerate null law: every score equals the null mean."""

    scheme_id = "point_mass_stub"

    def __init__(self, null_mean=1.0):
        self.null_mean = null_mean

    def null_scores(self, rng, size):
        return np.full(size, self.null_mean)

    def to_json(self):
        return {"id": self.scheme_id, "null_mean": self.null_mean}


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
    def test_point_mass_stub_pins_q_at_block_mean(self):
        for alpha in (0.01, 0.05, 0.5, 0.9):
            cert = calibrate_threshold(PointMassScheme(), n=100, block_len=10,
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

    def test_partial_last_block_is_its_own_block(self):
        # n=7, b=3 gives blocks of sizes (3, 3, 1) in both calibration and
        # segmentation; the stub makes block sums equal block sizes.
        cert = calibrate_threshold(PointMassScheme(), n=7, block_len=3,
                                   alpha=0.05, mc_reps=500, seed=6)
        assert cert.q == 3.0  # max block sum is the full block, not the stub tail

    def test_json_round_trip(self, tmp_path):
        cert = calibrate_threshold(GUMBEL, 200, 15, 0.1, mc_reps=2000, seed=7)
        path = tmp_path / "cert.json"
        cert.save(path)
        assert ThresholdCert.load(path) == cert
        data = cert.to_json()
        assert set(data) == {"q", "alpha", "n", "b", "scheme", "scheme_params",
                             "mc_reps", "seed"}

    def test_from_json_rejects_unknown_keys(self):
        data = calibrate_threshold(GUMBEL, 200, 15, 0.1, mc_reps=1000).to_json()
        with pytest.raises(ValueError, match="unknown certificate key.*'quantile'"):
            ThresholdCert.from_json({**data, "quantile": 0.9})

    def test_from_json_rejects_a_scheme_other_than_its_params_id(self):
        data = calibrate_threshold(GUMBEL, 200, 15, 0.1, mc_reps=1000).to_json()
        with pytest.raises(ValueError, match="'inverse'.*'gumbel'"):
            ThresholdCert.from_json({**data, "scheme": "inverse"})


class TestNullFprEstimate:
    def test_point_mass_stub_never_false_positives(self):
        cert = calibrate_threshold(PointMassScheme(), n=100, block_len=10,
                                   alpha=0.05, mc_reps=2000, seed=8)
        fpr = null_fpr_estimate(cert, reps=2000, seed=9, scheme=PointMassScheme())
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
