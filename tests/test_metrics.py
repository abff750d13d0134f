import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wmseg.intervals import Segments
from wmseg.metrics import (
    EVAL_COLUMNS,
    EvalReport,
    evaluate,
    format_csv,
    iou,
    modified_rand_index,
    precision_recall_f1,
    rand_index,
)


# ---------------------------------------------------------------------------
# Brute-force oracles: literal pair enumeration over token labels
# ---------------------------------------------------------------------------


def brute_rand_index(truth: Segments, est: Segments, n: int) -> float:
    a = truth.mask(n)
    b = est.mask(n)
    agree = 0
    for i in range(n):
        for j in range(i + 1, n):
            agree += (a[i] == a[j]) == (b[i] == b[j])
    return agree / math.comb(n, 2)


def brute_modified_rand_index(truth: Segments, est: Segments, n: int) -> float:
    est_mask = est.mask(n)
    truth_mask = truth.mask(n)
    correction = 0
    for left, right in truth:
        for i in range(left, right + 1):
            for j in range(i + 1, right + 1):
                correction += (not est_mask[i - 1]) and (not est_mask[j - 1])
    for left, right in est:
        for i in range(left, right + 1):
            for j in range(i + 1, right + 1):
                correction += (not truth_mask[i - 1]) and (not truth_mask[j - 1])
    return brute_rand_index(truth, est, n) - correction / math.comb(n, 2)


def random_segments(rng, n, max_intervals=4) -> Segments:
    pairs = []
    pos = 1
    for _ in range(int(rng.integers(0, max_intervals + 1))):
        if pos > n - 1:
            break
        left = int(rng.integers(pos, n + 1))
        right = int(rng.integers(left, min(n, left + int(rng.integers(1, n // 2 + 2))) + 1))
        pairs.append((left, right))
        pos = right + 2
    return Segments(pairs, n=n)


# ---------------------------------------------------------------------------
# IOU
# ---------------------------------------------------------------------------


class TestIou:
    def test_identical_sets(self):
        segs = Segments([(3, 9), (20, 30)])
        assert iou(segs, segs, 40) == 1.0

    def test_partial_overlap_counts_inclusively(self):
        truth = Segments([(100, 200)])
        est = Segments([(150, 250)])
        # intersection [150,200] = 51 tokens; union [100,250] = 151
        assert math.isclose(iou(truth, est, 300), 51 / 151)

    def test_empty_conventions(self):
        truth = Segments([(1, 5)])
        assert iou(truth, Segments(), 10) == 0.0
        assert iou(Segments(), truth, 10) == 0.0
        assert iou(Segments(), Segments(), 10) == 1.0


# ---------------------------------------------------------------------------
# Precision / recall / F1
# ---------------------------------------------------------------------------


class TestPrecisionRecall:
    def test_perfect_match(self):
        segs = Segments([(2, 4), (8, 9)])
        assert precision_recall_f1(segs, segs) == (1.0, 1.0, 1.0)

    def test_one_of_two_true_segments_hit(self):
        truth = Segments([(1, 4), (10, 14)])
        est = Segments([(2, 5)])
        p, r, f1 = precision_recall_f1(truth, est)
        assert (p, r) == (1.0, 0.5)
        assert math.isclose(f1, 2 / 3)

    def test_three_estimates_one_touching(self):
        truth = Segments([(10, 20)])
        est = Segments([(1, 3), (12, 15), (25, 30)])
        p, r, _ = precision_recall_f1(truth, est)
        assert math.isclose(p, 1 / 3)
        assert r == 1.0

    def test_split_true_segment_is_recalled_once(self):
        truth = Segments([(10, 40)])
        est = Segments([(12, 20), (25, 38)])
        assert precision_recall_f1(truth, est) == (1.0, 1.0, 1.0)

    def test_empty_edge_cases(self):
        some = Segments([(1, 3)])
        assert precision_recall_f1(Segments(), Segments()) == (1.0, 1.0, 1.0)
        assert precision_recall_f1(some, Segments()) == (0.0, 0.0, 0.0)
        p, r, f1 = precision_recall_f1(Segments(), some)
        assert (p, r, f1) == (0.0, 1.0, 0.0)

    def test_hand_counts_across_all_small_cardinalities(self, rng):
        """Every (K, K_hat) pair up to 3, against mask-based counting."""
        n = 12

        def check(truth, est):
            p, r, _ = precision_recall_f1(truth, est)
            tmask, emask = truth.mask(n), est.mask(n)
            hits = sum(1 for l, rgt in est if tmask[l - 1 : rgt].any())
            found = sum(1 for l, rgt in truth if emask[l - 1 : rgt].any())
            exp_p = 1.0 if (not est and not truth) else (0.0 if not est else hits / len(est))
            exp_r = 1.0 if not truth else found / len(truth)
            assert p == exp_p and r == exp_r

        seen = set()
        for k in range(4):
            for k_hat in range(4):
                for t_off in (0, 1):
                    for e_off in (0, 1, 2):
                        truth = Segments([(s + t_off, s + t_off + 1)
                                          for s in (1, 5, 9)[:k]], n=n)
                        est = Segments([(s + e_off, s + e_off) for s in (2, 6, 10)[:k_hat]],
                                       n=n)
                        check(truth, est)
                        seen.add((len(truth), len(est)))
        assert seen == {(k, kh) for k in range(4) for kh in range(4)}
        for _ in range(200):
            check(random_segments(rng, n, 3), random_segments(rng, n, 3))


# ---------------------------------------------------------------------------
# Rand index and its modification
# ---------------------------------------------------------------------------


class TestRandIndex:
    def test_identical_sets(self):
        segs = Segments([(2, 5)])
        assert rand_index(segs, segs, 10) == 1.0

    def test_missed_watermark_failure_mode(self):
        # Truth covers 9 of 10 tokens, estimate finds nothing: concordant
        # pairs are exactly those inside the truth plus inside its 1-token
        # complement, (C(9,2) + C(1,2)) / C(10,2) = 0.8.
        truth = Segments([(1, 9)])
        assert math.isclose(rand_index(truth, Segments(), 10), 0.8)
        assert math.isclose(brute_rand_index(truth, Segments(), 10), 0.8)

    def test_label_swap_is_invisible_to_the_rand_index(self):
        # Complementary labelings form the same binary partition, so the
        # plain index saturates at 1; the modification is what repairs this.
        truth = Segments([(1, 2)])
        est = Segments([(3, 4)])
        assert rand_index(truth, est, 4) == 1.0
        assert brute_rand_index(truth, est, 4) == 1.0
        assert math.isclose(modified_rand_index(truth, est, 4), 1.0 - 2 / 6)

    def test_needs_two_tokens(self):
        with pytest.raises(ValueError):
            rand_index(Segments(), Segments(), 1)
        with pytest.raises(ValueError):
            modified_rand_index(Segments(), Segments(), 1)

    def test_run_length_equals_pair_enumeration_exactly(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 201))
            truth = random_segments(rng, n)
            est = random_segments(rng, n)
            assert rand_index(truth, est, n) == brute_rand_index(truth, est, n)

    def test_shift_invariance(self, rng):
        truth = random_segments(rng, 40)
        est = random_segments(rng, 40)
        shifted_truth, shifted_est = (Segments((l + 7, r + 7) for l, r in segments)
                                      for segments in (truth, est))
        assert rand_index(truth, est, 47) == rand_index(shifted_truth, shifted_est, 47)
        assert modified_rand_index(truth, est, 47) == modified_rand_index(
            shifted_truth, shifted_est, 47
        )
        assert iou(truth, est, 47) == iou(shifted_truth, shifted_est, 47)


class TestModifiedRandIndex:
    def test_identical_sets_have_zero_correction(self):
        segs = Segments([(2, 5), (8, 9)])
        assert modified_rand_index(segs, segs, 12) == 1.0

    def test_missed_watermark_scores_zero(self):
        # The 36 deceptive pairs inside the missed segment cancel the 0.8.
        truth = Segments([(1, 9)])
        assert modified_rand_index(truth, Segments(), 10) == 0.0

    def test_spurious_estimate_correction(self):
        est = Segments([(1, 5)])
        expected = rand_index(Segments(), est, 10) - Fraction(10, 45)
        assert math.isclose(modified_rand_index(Segments(), est, 10), float(expected))

    def test_run_length_equals_pair_enumeration_exactly(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 201))
            truth = random_segments(rng, n)
            est = random_segments(rng, n)
            assert modified_rand_index(truth, est, n) == brute_modified_rand_index(
                truth, est, n
            )

    @given(st.integers(min_value=2, max_value=60), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=80)
    def test_never_exceeds_the_rand_index(self, n, seed):
        rng = np.random.default_rng(seed)
        truth = random_segments(rng, n)
        est = random_segments(rng, n)
        assert modified_rand_index(truth, est, n) <= rand_index(truth, est, n) + 1e-15


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------


class TestEvalReport:
    def test_evaluate_bundles_everything(self):
        truth = Segments([(100, 200), (325, 400)])
        est = Segments([(98, 205), (330, 395)])
        report = evaluate(truth, est, 500, runtime_ms=1.25)
        assert report.k_true == 2 and report.k_hat == 2
        assert 0.8 < report.iou < 1.0
        assert report.precision == report.recall == 1.0
        assert report.mri <= report.ri
        assert report.runtime_ms == 1.25

    def test_f1_harmonic_mean(self):
        truth = Segments([(1, 4), (10, 14)])
        report = evaluate(truth, Segments([(2, 5)]), 20)
        assert math.isclose(report.f1, 2 * 1.0 * 0.5 / 1.5)

    def test_csv_rows_follow_the_fixed_column_order(self):
        report = evaluate(Segments([(1, 5)]), Segments([(2, 6)]), 10, runtime_ms=3.0)
        text = format_csv(EVAL_COLUMNS, [report.csv_row("dirichlet(0.3)", "gumbel", "wmseg")])
        lines = text.splitlines()
        assert lines[0] == ",".join(EVAL_COLUMNS)
        cells = lines[1].split(",")
        assert cells[0] == "dirichlet(0.3)"
        assert cells[1] == "gumbel"
        assert cells[2] == "wmseg"
        assert float(cells[3]) == report.iou
        assert float(cells[-1]) == 3.0

    def test_runtime_cell_empty_when_unmeasured(self):
        report = evaluate(Segments(), Segments(), 10)
        row = report.csv_row("m", "s", "wmseg")
        assert row[-1] == ""
