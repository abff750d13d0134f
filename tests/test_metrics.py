import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metrics_reference import reference_evaluate
from wmseg.intervals import Segments
from wmseg.metrics import EVAL_COLUMNS, evaluate, format_csv


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


def brute_deceptive_pairs(truth: Segments, est: Segments, n: int) -> int:
    """Pairs inside one true interval that the estimate misses, plus pairs
    inside one estimated interval that the truth misses."""
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
    return correction


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
# Segments
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("pair, bad", [
    ((100.7, 200), "100.7"), ((100.7, True), "100.7"), ((100, True), "True"),
    ((100.0, 200), "100.0"), (("100", 200), "'100'"),
    ((100, np.float64(200)), repr(np.float64(200))),
], ids=["float-left", "float-left-bool-right", "bool-right", "integral-float", "string",
        "numpy-float"])
def test_segments_reject_an_end_that_is_not_an_integer(pair, bad):
    # [[100.7, 200]] used to read as [[100, 200]], and [[100.7, true]] failed
    # as "invalid interval [100, 1]".
    with pytest.raises(TypeError, match=f"^interval end {re.escape(bad)} is not an integer$"):
        Segments([pair], n=300)


def test_segments_take_python_and_numpy_integer_ends():
    segs = Segments([(np.int64(3), np.int32(9)), (20, np.uint16(30))], n=40)
    assert segs.intervals == ((3, 9), (20, 30))
    assert all(type(end) is int for pair in segs for end in pair)


@pytest.mark.parametrize("pairs, message", [
    ([(1, 5), (3, 4), (10, 9)], "invalid interval [10, 9]"),  # reported before the overlap
    ([(3, 4), (1, 5)], "intervals overlap"),
    ([(4, 6), (6, 8)], "intervals overlap"),
    ([(0, 2)], "invalid interval [0, 2]"),
])
def test_segments_check_every_interval_before_any_overlap(pairs, message):
    """Tuples of Python ints are taken as is; lists and arrays are read end
    by end. Both meet the same checks in the same order."""
    for form in (pairs, [list(pair) for pair in pairs], np.array(pairs)):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Segments(form)


def test_segments_sort_and_reject_a_pair_of_another_length():
    assert Segments([(5, 9), (1, 2)]).intervals == ((1, 2), (5, 9))
    with pytest.raises(TypeError, match="is not an \\[l, r\\] pair"):
        Segments([(1, 2, 3)])


@pytest.mark.parametrize("left, right", [(8, 15), (12, 15), (10, 11)])
def test_mask_rejects_an_interval_past_n(left, right):
    # [(8, 15)] used to mark positions 8 to 10 and [(12, 15)] none.
    with pytest.raises(ValueError, match=re.escape(f"interval [{left}, {right}] exceeds n=10")):
        Segments([(1, 2), (left, right)]).mask(10)


# ---------------------------------------------------------------------------
# IOU
# ---------------------------------------------------------------------------


class TestIou:
    def test_identical_sets(self):
        segs = Segments([(3, 9), (20, 30)])
        assert evaluate(segs, segs, 40).iou == 1.0

    def test_partial_overlap_counts_inclusively(self):
        truth = Segments([(100, 200)])
        est = Segments([(150, 250)])
        # intersection [150,200] = 51 tokens; union [100,250] = 151
        assert math.isclose(evaluate(truth, est, 300).iou, 51 / 151)

    def test_empty_conventions(self):
        truth = Segments([(1, 5)])
        assert evaluate(truth, Segments(), 10).iou == 0.0
        assert evaluate(Segments(), truth, 10).iou == 0.0
        assert evaluate(Segments(), Segments(), 10).iou == 1.0


# ---------------------------------------------------------------------------
# Precision / recall / F1
# ---------------------------------------------------------------------------


class TestPrecisionRecall:
    def test_perfect_match(self):
        segs = Segments([(2, 4), (8, 9)])
        report = evaluate(segs, segs, 10)
        assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)

    def test_one_of_two_true_segments_hit(self):
        truth = Segments([(1, 4), (10, 14)])
        report = evaluate(truth, Segments([(2, 5)]), 20)
        assert (report.precision, report.recall) == (1.0, 0.5)
        assert math.isclose(report.f1, 2 / 3)

    def test_three_estimates_one_touching(self):
        truth = Segments([(10, 20)])
        est = Segments([(1, 3), (12, 15), (25, 30)])
        report = evaluate(truth, est, 30)
        assert math.isclose(report.precision, 1 / 3)
        assert report.recall == 1.0

    def test_split_true_segment_is_recalled_once(self):
        truth = Segments([(10, 40)])
        report = evaluate(truth, Segments([(12, 20), (25, 38)]), 50)
        assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)

    def test_empty_edge_cases(self):
        some = Segments([(1, 3)])
        for truth, est, expected in ((Segments(), Segments(), (1.0, 1.0, 1.0)),
                                     (some, Segments(), (0.0, 0.0, 0.0)),
                                     (Segments(), some, (0.0, 1.0, 0.0))):
            report = evaluate(truth, est, 10)
            assert (report.precision, report.recall, report.f1) == expected

    def test_hand_counts_across_all_small_cardinalities(self, rng):
        """Every (K, K_hat) pair up to 3, against mask-based counting."""
        n = 12

        def check(truth, est):
            report = evaluate(truth, est, n)
            tmask, emask = truth.mask(n), est.mask(n)
            hits = sum(1 for l, rgt in est if tmask[l - 1 : rgt].any())
            found = sum(1 for l, rgt in truth if emask[l - 1 : rgt].any())
            exp_p = 1.0 if (not est and not truth) else (0.0 if not est else hits / len(est))
            exp_r = 1.0 if not truth else found / len(truth)
            assert report.precision == exp_p and report.recall == exp_r

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
        assert evaluate(segs, segs, 10).ri == 1.0

    def test_missed_watermark_failure_mode(self):
        # Truth covers 9 of 10 tokens, estimate finds nothing: concordant
        # pairs are exactly those inside the truth plus inside its 1-token
        # complement, (C(9,2) + C(1,2)) / C(10,2) = 0.8.
        truth = Segments([(1, 9)])
        assert math.isclose(evaluate(truth, Segments(), 10).ri, 0.8)
        assert math.isclose(brute_rand_index(truth, Segments(), 10), 0.8)

    def test_label_swap_is_invisible_to_the_rand_index(self):
        # Complementary labelings form the same binary partition, so the
        # plain index saturates at 1; the modification is what repairs this.
        truth = Segments([(1, 2)])
        est = Segments([(3, 4)])
        report = evaluate(truth, est, 4)
        assert report.ri == 1.0
        assert brute_rand_index(truth, est, 4) == 1.0
        assert math.isclose(report.mri, 1.0 - 2 / 6)

    @pytest.mark.parametrize("side", ["truth", "estimate"])
    def test_rejects_an_interval_past_n(self, side):
        # evaluate(Segments([(1, 10)]), Segments(), 5) used to give ri=6.0, mri=1.5.
        past, inside = Segments([(1, 2), (4, 10)]), Segments([(2, 3)])
        truth, estimate = (past, inside) if side == "truth" else (inside, past)
        with pytest.raises(ValueError, match=re.escape("interval [4, 10] exceeds n=5")):
            evaluate(truth, estimate, 5)

    def test_needs_two_tokens(self):
        with pytest.raises(ValueError, match="^rand index needs at least two tokens$"):
            evaluate(Segments(), Segments(), 1)

    def test_shift_invariance(self, rng):
        truth = random_segments(rng, 40)
        est = random_segments(rng, 40)
        shifted_truth, shifted_est = (Segments((l + 7, r + 7) for l, r in segments)
                                      for segments in (truth, est))
        assert evaluate(truth, est, 47) == evaluate(shifted_truth, shifted_est, 47)

    def test_run_length_equals_pair_enumeration_exactly(self, rng):
        """Both indices, against one enumeration of each case's pairs."""
        for _ in range(200):
            n = int(rng.integers(2, 201))
            truth = random_segments(rng, n)
            est = random_segments(rng, n)
            report = evaluate(truth, est, n)
            ri = brute_rand_index(truth, est, n)
            assert report.ri == ri
            assert report.mri == ri - brute_deceptive_pairs(truth, est, n) / math.comb(n, 2)


class TestModifiedRandIndex:
    def test_identical_sets_have_zero_correction(self):
        segs = Segments([(2, 5), (8, 9)])
        assert evaluate(segs, segs, 12).mri == 1.0

    def test_missed_watermark_scores_zero(self):
        # The 36 deceptive pairs inside the missed segment cancel the 0.8.
        truth = Segments([(1, 9)])
        assert evaluate(truth, Segments(), 10).mri == 0.0

    def test_spurious_estimate_correction(self):
        report = evaluate(Segments(), Segments([(1, 5)]), 10)
        assert math.isclose(report.mri, float(report.ri - Fraction(10, 45)))

    @given(st.integers(min_value=2, max_value=60), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=80)
    def test_never_exceeds_the_rand_index(self, n, seed):
        rng = np.random.default_rng(seed)
        report = evaluate(random_segments(rng, n), random_segments(rng, n), n)
        assert report.mri <= report.ri + 1e-15


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
        text = format_csv(EVAL_COLUMNS, [report.csv_row("dirichlet(0.3)", "gumbel")])
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
        row = report.csv_row("m", "s")
        assert row[-1] == ""


# ---------------------------------------------------------------------------
# One sweep against the per-metric rescans
# ---------------------------------------------------------------------------


@st.composite
def segment_sets(draw, n):
    """Disjoint intervals in [1, n], laid out left to right by a gap and a
    length each: a zero gap makes intervals touch end to end, a length of 1
    makes a single token, and a zero gap with length n the full range."""
    pairs, pos = [], 1
    steps = st.tuples(st.one_of(st.integers(0, 2), st.integers(0, n)),
                      st.one_of(st.just(1), st.just(n), st.integers(1, n)))
    for gap, length in draw(st.lists(steps, max_size=5)):
        left = pos + gap
        right = left + length - 1
        if right > n:
            break
        pairs.append((left, right))
        pos = right + 1
    return Segments(pairs, n=n)


@st.composite
def split_truth(draw, truth):
    """``truth`` with one interval of at least 3 tokens cut in two around a
    gap, and the others each kept or dropped."""
    wide = [i for i, (l, r) in enumerate(truth) if r - l >= 2]
    if not wide:
        return truth
    cut = draw(st.sampled_from(wide))
    pairs = []
    for i, (l, r) in enumerate(truth):
        if i == cut:
            m = draw(st.integers(l, r - 2))
            pairs += [(l, m), (draw(st.integers(m + 2, r)), r)]
        elif draw(st.booleans()):
            pairs.append((l, r))
    return Segments(pairs)


@st.composite
def truth_and_estimate(draw):
    n = draw(st.integers(2, 60))
    truth = draw(segment_sets(n))
    estimate = draw(st.one_of(segment_sets(n), split_truth(truth)))
    return truth, estimate, n


@given(truth_and_estimate())
@settings(max_examples=400)
def test_one_sweep_equals_the_per_metric_rescans(case):
    truth, estimate, n = case
    # EvalReport equality compares each float with ==.
    assert evaluate(truth, estimate, n, 2.5) == reference_evaluate(truth, estimate, n, 2.5)
    assert evaluate(estimate, truth, n) == reference_evaluate(estimate, truth, n)


@pytest.mark.parametrize("truth, estimate, n", [
    ((), (), 2),
    ((), ((1, 1),), 5),
    (((1, 60),), ((1, 60),), 60),
    (((1, 60),), ((1, 1), (2, 2), (60, 60)), 60),
    (((3, 4), (5, 9)), ((4, 5),), 10),
    (((10, 40),), ((12, 20), (25, 38)), 50),
    (((1, 5), (6, 6), (7, 30)), ((1, 30),), 30),
], ids=["both-empty", "spurious-single", "full-range", "singles-in-full-range", "touching",
        "split", "touching-truth-one-estimate"])
def test_one_sweep_equals_the_per_metric_rescans_at_the_edges(truth, estimate, n):
    truth, estimate = Segments(truth, n=n), Segments(estimate, n=n)
    assert evaluate(truth, estimate, n) == reference_evaluate(truth, estimate, n)
    assert evaluate(estimate, truth, n) == reference_evaluate(estimate, truth, n)
