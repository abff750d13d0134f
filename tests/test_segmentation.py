import hashlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localize_reference import reference_localize_segment
from wmseg.calibration import CertMismatch, ThresholdCert, calibrate_threshold
from wmseg.intervals import Segments
from wmseg.schemes import PivotSeries, SchemeSpec
from wmseg.segmentation import (
    SIGNAL_FLOOR,
    SegmenterConfig,
    block_sums,
    default_pad,
    discard_short_runs,
    enlarge_runs,
    estimate_signal,
    localize_segment,
    merge_selected,
    min_run_blocks,
    screen_blocks,
    search_windows,
    segment_series,
)

GUMBEL = SchemeSpec("gumbel", vocab_size=100)


def open_cert(n, block_len, q=-1e18):
    """A certificate with an arbitrary threshold, for driving stages directly."""
    return ThresholdCert(
        q=q, alpha=0.05, n=n, block_len=block_len, scheme_id="gumbel",
        scheme_params=GUMBEL.to_json(),
    )


def series_of(scores):
    return PivotSeries(scores=np.asarray(scores, float), null_mean=1.0, scheme_id="gumbel")


def naive_estimate(
    scores: np.ndarray, null_mean: float, rho: float, signal: float
) -> tuple[int, int]:
    """Exhaustive single-interval estimator over the whole series.

    Scans every 1 <= s <= t <= n for the interval minimizing the adjusted
    score sum outside it, with the same tie-breaking as localize_segment.
    Quadratic cost; serves as the correctness oracle for the restricted scan.
    """
    adjusted = np.asarray(scores, dtype=float) - (null_mean + rho * signal)
    n = adjusted.size
    if n == 0:
        raise ValueError("empty score series")
    # suffix[i] = sum of adjusted[i:]
    suffix = np.concatenate((np.cumsum(adjusted[::-1])[::-1], [0.0]))
    best_obj = math.inf
    best = (1, 1)
    best_width = n + 1
    left = 0.0
    for s0 in range(n):
        row = left + suffix[s0 + 1 :]  # objective over t0 = s0 .. n-1
        t_rel = int(np.argmin(row))  # first minimum: smallest t, narrowest here
        obj = float(row[t_rel])
        width = t_rel + 1
        if obj < best_obj or (obj == best_obj and width < best_width):
            best_obj, best_width, best = obj, width, (s0 + 1, s0 + t_rel + 1)
        left += adjusted[s0]
    return best


def literal_estimate(scores, null_mean, rho, signal):
    """Dead-simple cubic-time reference for the interval objective."""
    adj = [float(x) - null_mean - rho * signal for x in scores]
    n = len(adj)
    best = None
    for s in range(1, n + 1):
        for t in range(s, n + 1):
            obj = sum(adj[: s - 1]) + sum(adj[t:])
            key = (obj, t - s + 1, s)
            if best is None or key < best:
                best = key
    return (best[2], best[2] + best[1] - 1)


# ---------------------------------------------------------------------------
# Stage operations
# ---------------------------------------------------------------------------


class TestBlockSums:
    def test_even_blocks(self):
        assert block_sums(np.ones(6), 3).tolist() == [3.0, 3.0]

    def test_signal_block(self):
        x = np.array([0, 0, 0, 5, 5, 5, 0, 0, 0], dtype=float)
        assert block_sums(x, 3).tolist() == [0.0, 15.0, 0.0]

    def test_partial_last_block_direct_summation(self, rng):
        x = rng.standard_exponential(7)
        sums = block_sums(x, 3)
        expected = [x[0:3].sum(), x[3:6].sum(), x[6:7].sum()]
        assert np.allclose(sums, expected)
        assert sums.size == 3

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            block_sums(np.array([]), 3)
        with pytest.raises(ValueError):
            block_sums(np.ones(5), 6)


class TestScreenBlocks:
    def test_nothing_above(self):
        assert screen_blocks(np.array([1.0, 2.0]), 10.0).size == 0

    def test_strictly_above_only(self):
        assert screen_blocks(np.array([0.0, 15.0, 0.0]), 10.0).tolist() == [1]
        assert screen_blocks(np.array([10.0, 15.0]), 10.0).tolist() == [1]  # tie excluded

    def test_threshold_must_be_finite(self):
        with pytest.raises(ValueError):
            screen_blocks(np.array([1.0]), math.inf)

    def test_monotone_in_threshold(self, rng):
        sums = rng.standard_exponential(30) * 10
        for q1, q2 in [(2.0, 5.0), (0.0, 20.0)]:
            hi = set(screen_blocks(sums, max(q1, q2)).tolist())
            lo = set(screen_blocks(sums, min(q1, q2)).tolist())
            assert hi <= lo


class TestDiscardShortRuns:
    def test_merges_and_drops(self):
        kept = discard_short_runs(np.array([1, 2, 3, 8]), min_run=3)
        assert kept == [(1, 3)]

    def test_empty_selection(self):
        assert discard_short_runs(np.array([], dtype=int), min_run=2) == []

    def test_one_long_run(self):
        kept = discard_short_runs(np.arange(10), min_run=3)
        assert kept == [(0, 9)]

    def test_merge_only(self):
        assert merge_selected(np.array([5, 1, 2, 7])) == [(1, 2), (5, 5), (7, 7)]

    def test_a_repeated_index_is_rejected(self):
        """Merged as is, a repeat gives the overlapping runs [(1, 2), (2, 3)]."""
        with pytest.raises(ValueError, match="block index 2 is selected twice"):
            merge_selected(np.array([3, 1, 2, 2]))
        with pytest.raises(ValueError, match="block index 4 is selected twice"):
            discard_short_runs(np.array([4, 4]), min_run=1)

    @pytest.mark.parametrize("selected", [np.array([1.5, 2.7]), np.array([1.0, 2.0]),
                                          np.array([True, False]), np.array([], dtype=float)])
    def test_a_non_integer_array_is_rejected(self, selected):
        """Truncated, the floats 1.5 and 2.7 would read as blocks 1 and 2."""
        with pytest.raises(TypeError, match="not an integer array"):
            discard_short_runs(selected, min_run=1)

    def test_min_run_blocks_formula(self):
        # c * sqrt(n log n) tokens, converted to whole blocks.
        assert min_run_blocks(500, 65, 0.5) == 1
        assert min_run_blocks(500, 25, 0.5) == 2
        expected = math.ceil(0.5 * math.sqrt(10_000 * math.log(10_000)) / 10)
        assert min_run_blocks(10_000, 10, 0.5) == expected


def reference_merge(selected):
    """Runs of distinct block indices, from the set of them: a run starts at
    each index whose predecessor is not selected and extends while the next
    one is."""
    chosen, runs = set(selected), []
    for k in sorted(chosen):
        if k - 1 not in chosen:
            end = k
            while end + 1 in chosen:
                end += 1
            runs.append((k, end))
    return runs


def reference_enlarge(kept_runs, block_len, n, pad):
    """``enlarge_runs`` in two passes: every run converted to tokens first,
    then each padded and truncated at the midpoints of its gaps."""
    raw = [(a * block_len + 1, min((b + 1) * block_len, n)) for a, b in kept_runs]
    regions = []
    for i, (left, right) in enumerate(raw):
        lo, hi = max(1, left - pad), min(n, right + pad)
        if i > 0:
            lo = max(lo, (raw[i - 1][1] + left) // 2 + 1)
        if i + 1 < len(raw):
            hi = min(hi, (right + raw[i + 1][0]) // 2)
        regions.append((lo, hi))
    return tuple(regions)


class TestEnlargeRuns:
    def test_zero_pad_is_exact_conversion(self):
        regions = enlarge_runs([(1, 3)], block_len=10, n=100, pad=0)
        assert regions.to_pairs() == [[11, 40]]

    def test_padding_and_clipping(self):
        regions = enlarge_runs([(1, 3)], block_len=10, n=100, pad=5)
        assert regions.to_pairs() == [[6, 45]]
        regions = enlarge_runs([(0, 0)], block_len=10, n=100, pad=50)
        assert regions.to_pairs() == [[1, 60]]

    def test_partial_tail_block(self):
        regions = enlarge_runs([(2, 2)], block_len=3, n=7, pad=0)
        assert regions.to_pairs() == [[7, 7]]

    def test_colliding_pads_truncate_at_the_gap_midpoint(self):
        # runs end at token 20 and start at token 41; midpoint of (20+41)//2 = 30
        regions = enlarge_runs([(0, 1), (4, 5)], block_len=10, n=100, pad=15)
        assert regions.to_pairs() == [[1, 30], [31, 75]]

    @pytest.mark.parametrize("runs, n, named", [
        ([(3, 4), (1, 2)], 100, "[1, 2]"),  # out of order
        ([(1, 3), (3, 5)], 100, "[3, 5]"),  # overlapping
        ([(1, 3), (4, 2)], 100, "[4, 2]"),  # reversed
        ([(-1, 2)], 100, "[-1, 2]"),  # before the first block
        ([(5, 6)], 40, "[5, 6]"),  # starts at token 51 of 40
        ([(0, 1), (4, 4)], 40, "[4, 4]"),  # starts at token 41 of 40
    ])
    def test_a_bad_run_is_rejected_by_name(self, runs, n, named):
        with pytest.raises(ValueError, match=re.escape(f"block run {named}")):
            enlarge_runs(runs, block_len=10, n=n, pad=3)

    @given(st.lists(st.integers(min_value=0, max_value=19), max_size=12, unique=True),
           st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=12),
           st.integers(min_value=0, max_value=40))
    @settings(max_examples=100)
    def test_equals_the_two_pass_reference(self, selected, block_len, tail, pad):
        n = 19 * block_len + min(tail, block_len)  # block 19, the last, may be short
        runs = merge_selected(np.array(selected, dtype=int))
        assert runs == reference_merge(selected)
        regions = enlarge_runs(runs, block_len, n, pad)
        assert regions.intervals == reference_enlarge(runs, block_len, n, pad)

    @given(st.lists(st.integers(min_value=0, max_value=19), min_size=1, max_size=12,
                    unique=True),
           st.integers(min_value=0, max_value=40))
    @settings(max_examples=60)
    def test_regions_stay_disjoint_and_cover_their_runs(self, selected, pad):
        runs = discard_short_runs(np.array(sorted(selected)), min_run=1)
        regions = enlarge_runs(runs, block_len=5, n=100, pad=pad)
        assert len(regions) == len(runs)
        for (a, b), (lo, hi) in zip(runs, regions):
            assert lo <= a * 5 + 1 and min((b + 1) * 5, 100) <= hi


def gather_signal(scores, regions, null_mean):
    """``estimate_signal`` as a gather of the scores through the regions'
    n-long mask. ``estimate_signal`` reads the region slices instead, which
    concatenate to the same array in the same order, so the two agree to
    the bit."""
    value = float(scores[regions.mask(scores.size)].mean() - null_mean)
    return (SIGNAL_FLOOR, True) if value <= 0.0 else (value, False)


class TestEstimateSignal:
    def test_constant_elevation(self):
        scores = np.full(50, 1.7)
        signal, floored = estimate_signal(scores, Segments([(11, 30)]), null_mean=1.0)
        assert math.isclose(signal, 0.7)
        assert not floored

    def test_floor_on_nonpositive_estimates(self):
        scores = np.full(50, 0.2)
        signal, floored = estimate_signal(scores, Segments([(1, 50)]), null_mean=1.0)
        assert signal == 1e-6
        assert floored

    def test_empty_region_set_rejected(self):
        with pytest.raises(ValueError):
            estimate_signal(np.ones(10), Segments(), null_mean=1.0)

    @pytest.mark.parametrize("regions, named", [
        ([(12, 15)], (12, 15)),
        ([(2, 4), (8, 11)], (8, 11)),
        ([(11, 11)], (11, 11)),
    ])
    def test_region_past_the_series_rejected(self, regions, named):
        with pytest.raises(ValueError,
                           match=re.escape(f"region [{named[0]}, {named[1]}] is not inside [1, 10]")):
            estimate_signal(np.arange(10.0), Segments(regions), 0.0)

    def test_equals_the_mask_gather_mean(self, rng):
        for _ in range(300):
            n = int(rng.integers(8, 400))
            k = int(rng.integers(1, 5))
            ends = np.sort(rng.choice(np.arange(1, n + 1), 2 * k, replace=False)).reshape(k, 2)
            regions = Segments(ends.tolist(), n=n)
            scores = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3) + rng.uniform(0, 2)
            null_mean = float(rng.uniform(0, 2))
            assert estimate_signal(scores, regions, null_mean) == gather_signal(scores, regions,
                                                                                null_mean)


class TestLocalizeSegment:
    def test_textbook_plateau(self):
        x = np.array([0, 0, 0, 1, 1, 1, 0, 0, 0], dtype=float)
        got = localize_segment(x, (1, 9), (1, 9), (1, 9), null_mean=0.0, rho=1.0, signal=0.5)
        assert got == (4, 6)

    def test_everything_elevated_returns_the_widest_interval(self):
        x = np.full(20, 2.5)
        got = localize_segment(x, (3, 18), (3, 10), (12, 18), null_mean=1.0, rho=0.5, signal=1.0)
        assert got == (3, 18)

    def test_windows_restrict_the_endpoints(self):
        x = np.zeros(30)
        x[9:20] = 2.0
        got = localize_segment(x, (1, 30), (1, 5), (25, 30), null_mean=0.0, rho=0.5, signal=1.0)
        assert got[0] <= 5 and got[1] >= 25

    def test_degenerate_overlapping_windows_enforce_order(self):
        x = np.array([5.0, 5.0])
        got = localize_segment(x, (1, 2), (1, 2), (1, 2), null_mean=0.0, rho=0.5, signal=1.0)
        assert got == (1, 2)

    def test_windows_must_sit_inside_the_region(self):
        with pytest.raises(ValueError):
            localize_segment(np.ones(10), (2, 8), (1, 4), (5, 8), 1.0, 0.5, 1.0)

    @pytest.mark.parametrize("region, window_left, window_right", [
        ((5, 12), (5, 8), (9, 12)),
        ((15, 20), (15, 17), (18, 20)),
        ((8, 11), (8, 11), (8, 11)),
        ((0, 5), (0, 2), (3, 5)),
    ])
    def test_region_past_the_series_rejected(self, region, window_left, window_right):
        with pytest.raises(ValueError,
                           match=re.escape(f"region [{region[0]}, {region[1]}] is not inside [1, 10]")):
            localize_segment(np.arange(10.0), region, window_left, window_right, 0.0, 0.5, 1.0)

    def test_matches_naive_on_full_windows(self, rng):
        for trial in range(100):
            n = int(rng.integers(20, 61))
            x = rng.standard_exponential(n)
            if trial % 3 != 0:
                left = int(rng.integers(1, n - 5))
                right = int(rng.integers(left, n)) + 1
                x[left:right] += rng.uniform(0.3, 3.0)
            signal = float(rng.uniform(0.2, 2.0))
            rho = float(rng.uniform(0.1, 0.9))
            naive = naive_estimate(x, 1.0, rho, signal)
            scan = localize_segment(x, (1, n), (1, n), (1, n), 1.0, rho, signal)
            assert naive == scan


@st.composite
def localize_inputs(draw, windows):
    """Arguments of ``localize_segment`` over a random region: integer-valued
    scores with a dyadic penalty, which is 1 half of the time (exact sums with
    many zero steps, so ties are common), or float scores; and two windows
    laid out as ``windows`` names."""
    n = draw(st.integers(2, 40))
    if draw(st.booleans()):
        scores = draw(st.lists(st.sampled_from([0, 1, 1, 2]), min_size=n, max_size=n))
        null_mean, rho = draw(st.sampled_from([0.0, 0.5])), 0.5
        signal = draw(st.sampled_from([1.0, 2.0]))
    else:
        scores = draw(st.lists(st.floats(-4.0, 4.0), min_size=n, max_size=n))
        null_mean = draw(st.floats(0.0, 2.0))
        rho, signal = draw(st.floats(0.05, 0.9)), draw(st.floats(1e-6, 3.0))
    d_left = draw(st.integers(1, n - 1))
    d_right = draw(st.integers(d_left + 1, n))
    # a <= b < c <= d inside the region.
    b = draw(st.integers(d_left, d_right - 1))
    a, c = draw(st.integers(d_left, b)), draw(st.integers(b + 1, d_right))
    d = draw(st.integers(c, d_right))
    layout = {
        "disjoint": ((a, b), (c, d)),
        "touching": ((a, b), (b, d)),
        "overlapping": ((a, c), (b, d)),
        "identical": ((a, d), (a, d)),
        "right-inside-left": ((a, d), (b, c)),
        "left-after-right": ((c, d), (a, b)),
        "outside-region": ((d_left - 1, b), (c, d)) if d_left > 1 else ((a, b), (c, d_right + 1)),
    }[windows]
    return (np.array(scores, dtype=float), (d_left, d_right), *layout, null_mean, rho, signal)


WINDOW_LAYOUTS = ("disjoint", "touching", "overlapping", "identical", "right-inside-left",
                  "left-after-right", "outside-region")


@pytest.mark.parametrize("windows", WINDOW_LAYOUTS)
@given(data=st.data())
def test_localize_segment_equals_the_gather_reference(windows, data):
    args = data.draw(localize_inputs(windows))
    try:
        expected = reference_localize_segment(*args)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            localize_segment(*args)
        assert windows in ("left-after-right", "outside-region")
    else:
        assert localize_segment(*args) == expected
        assert windows not in ("left-after-right", "outside-region")


def segmenter_regions(rng, n, runs):
    """Regions and windows as ``segment_series`` builds them at the default
    pad and b = ceil(sqrt(n)), from ``runs`` kept runs of random lengths in
    blocks (each drawn from ``runs``), placed left to right at random gaps."""
    b, pad = math.ceil(math.sqrt(n)), default_pad(n, SegmenterConfig.gamma)
    n_blocks = -(-n // b)
    kept, block = [], int(rng.integers(0, 3))
    for lengths in runs:
        length = int(rng.integers(*lengths))
        if block + length > n_blocks:
            break
        kept.append((block, block + length - 1))
        block += length + int(rng.integers(1, n_blocks // 4))
    regions = enlarge_runs(kept, b, n, pad)
    return [(region, *search_windows(region, b, pad)) for region in regions]


@pytest.mark.parametrize("scores", ["float", "integer"])
@pytest.mark.parametrize("n, runs, windows", [
    (4000, [(14, 20), (14, 20)], "disjoint"),
    (16000, [(15, 30), (15, 25), (15, 20)], "disjoint"),
    (1000, [(2, 7), (1, 4)], "overlapping"),
], ids=["n4000", "n16000", "n1000"])
def test_localize_segment_equals_the_gather_reference_at_segmenter_windows(n, runs, windows,
                                                                          scores):
    # At n = 1000 (pad 64, b 32) a region shorter than 4 (pad + b) = 384
    # tokens has overlapping windows; runs of at least 4 (pad + b) tokens at
    # n = 4000 (pad 145, b 64) and 16000 (pad 336, b 127) leave them disjoint. Integer scores with a dyadic penalty sum exactly,
    # so many ends tie for the maximum.
    rng = np.random.default_rng(n)
    for _ in range(25):
        if scores == "float":
            x = rng.standard_exponential(n)
            null_mean, rho, signal = 1.0, 0.5, float(rng.uniform(0.2, 2.0))
        else:
            x = rng.integers(0, 2, n).astype(float)
            null_mean, rho, signal = 0.5, 0.5, float(rng.choice([0.25, 0.5, 1.0]))
        shapes = segmenter_regions(rng, n, runs)
        assert shapes
        for region, wl, wr in shapes:
            lo, hi = int(rng.integers(wl[0], wl[1] + 1)), int(rng.integers(wr[0], wr[1] + 1))
            x[lo - 1 : hi] += rng.uniform(0.3, 2.0) if scores == "float" else 1.0
            assert (wl[1] < wr[0]) == (windows == "disjoint"), (region, wl, wr)
            args = (x, region, wl, wr, null_mean, rho, signal)
            assert localize_segment(*args) == reference_localize_segment(*args)


class TestNaiveEstimate:
    def test_exact_recovery_of_a_clean_segment(self):
        x = np.full(40, 1.0)
        x[14:30] = 3.0
        assert naive_estimate(x, 1.0, 0.5, 1.0) == (15, 30)

    def test_constant_series_degenerates_to_the_first_token(self):
        # Every single-token interval ties; narrowest-then-leftmost wins.
        x = np.full(12, 1.0)
        assert naive_estimate(x, 1.0, 0.5, 0.5) == (1, 1)

    def test_matches_literal_cubic_reference(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 13))
            x = rng.standard_exponential(n) + rng.choice([0.0, 1.0])
            rho = float(rng.uniform(0.1, 0.9))
            signal = float(rng.uniform(0.1, 2.0))
            assert naive_estimate(x, 1.0, rho, signal) == literal_estimate(x, 1.0, rho, signal)

    def test_rejects_empty_series(self):
        with pytest.raises(ValueError):
            naive_estimate(np.array([]), 1.0, 0.5, 1.0)


# ---------------------------------------------------------------------------
# Full pipeline
# ---------------------------------------------------------------------------


def planted_series(rng, n, segments, lift=2.0):
    x = rng.standard_exponential(n)
    for left, right in segments:
        x[left - 1 : right] += lift
    return series_of(x)


class TestSegmentSeries:
    def test_config_validation(self):
        cert = open_cert(100, 10)
        with pytest.raises(ValueError):
            SegmenterConfig(cert=cert, rho=0.01)
        with pytest.raises(ValueError):
            SegmenterConfig(cert=cert, gamma=0.6)
        for discard_c in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="discard_c"):
                SegmenterConfig(cert=cert, discard_c=discard_c)
        with pytest.raises(ValueError):
            SegmenterConfig(cert=cert, pad=-1)
        with pytest.raises(ValueError):
            SegmenterConfig(cert=cert, pad=True)  # bool is an int, but not a pad

    def test_an_integer_pad_rejects_a_gamma_it_does_not_read(self):
        """gamma only sets the "auto" pad; beside an integer pad it used to
        be ignored without a word."""
        cert = open_cert(100, 10)
        with pytest.raises(ValueError, match="pad 10 does not read gamma, so it must keep "
                                             "its default 0.1, not 0.3"):
            SegmenterConfig(cert=cert, gamma=0.3, pad=10)
        assert SegmenterConfig(cert=cert, pad=10).resolved_pad(100) == 10
        assert SegmenterConfig(cert=cert, gamma=0.3).resolved_pad(100) == default_pad(100, 0.3)

    def test_editing_a_result_leaves_its_certificate_as_it_is(self):
        """A result's trace used to hold the certificate's own scheme dict,
        so an edit to one result file's scheme renamed the certificate's
        vocabulary and that of every later result."""
        cert = open_cert(100, 10)
        series = series_of(np.ones(100))
        first = segment_series(series, SegmenterConfig(cert=cert)).to_json()
        first["trace"]["certificate"]["scheme"]["vocab_size"] = 50
        later = segment_series(series, SegmenterConfig(cert=cert)).to_json()
        assert cert.scheme_params == later["trace"]["certificate"]["scheme"] == GUMBEL.to_json()

    def test_cert_mismatch_raises(self):
        cert = calibrate_threshold(GUMBEL, 100, 10, 0.05, mc_reps=2000, seed=1)
        config = SegmenterConfig(cert=cert)
        with pytest.raises(CertMismatch):
            segment_series(series_of(np.ones(99)), config)
        wrong = series_of(np.ones(100))
        object.__setattr__(wrong, "scheme_id", "inverse")
        with pytest.raises(CertMismatch):
            segment_series(wrong, config)

    @pytest.mark.parametrize("cert_scheme, stream_scheme", [
        (SchemeSpec("inverse", 20), SchemeSpec("inverse", 1000)),
        (SchemeSpec("red_green", 100, green_frac=0.25), SchemeSpec("red_green", 100)),
    ], ids=["inverse-vocabulary", "red-green-fraction"])
    def test_a_certificate_for_another_null_law_raises(self, cert_scheme, stream_scheme):
        """Same scheme id, another null mean: the threshold was certified for
        another null law, so the screen would not hold its alpha."""
        cert = calibrate_threshold(cert_scheme, 200, 20, 0.05)
        series = PivotSeries(np.full(200, stream_scheme.null_mean), stream_scheme.null_mean,
                             stream_scheme.scheme_id)
        with pytest.raises(CertMismatch, match="null mean"):
            segment_series(series, SegmenterConfig(cert=cert))

    @pytest.mark.parametrize("cert_scheme, stream_scheme", [
        (SchemeSpec("gumbel", 20), SchemeSpec("gumbel", 1000)),
        (SchemeSpec("red_green", 100), SchemeSpec("red_green", 1000)),
    ], ids=["gumbel", "red-green"])
    def test_a_certificate_for_the_same_null_law_is_accepted(self, cert_scheme, stream_scheme):
        """Gumbel's law is Exp(1) at every V, and red_green's is
        Bernoulli(|G|/V), the same at an equal green fraction here."""
        cert = calibrate_threshold(cert_scheme, 200, 20, 0.05)
        series = PivotSeries(np.full(200, stream_scheme.null_mean), stream_scheme.null_mean,
                             stream_scheme.scheme_id)
        assert segment_series(series, SegmenterConfig(cert=cert)).k_hat == 0

    def test_empty_screening_returns_no_segments(self, rng):
        cert = open_cert(100, 10, q=1e18)
        result = segment_series(planted_series(rng, 100, [(20, 60)]), SegmenterConfig(cert=cert))
        assert result.k_hat == 0
        assert result.segments.to_pairs() == []
        assert result.signal == 0.0
        null = segment_series(series_of(rng.standard_exponential(100)), SegmenterConfig(cert=cert))
        data = null.to_json()
        assert data["segments"] == []
        assert data["trace"]["windows"] == []
        assert data["trace"]["d_tilde"] == 0.0
        assert data["trace"]["d_tilde_floored"] is False

    def test_planted_two_segments(self, rng):
        n = 500
        cert = calibrate_threshold(GUMBEL, n, 65, 0.05, mc_reps=5000, seed=2)
        series = planted_series(rng, n, [(100, 200), (325, 400)], lift=2.5)
        result = segment_series(series, SegmenterConfig(cert=cert))
        assert result.k_hat == 2
        (l1, r1), (l2, r2) = result.segments
        assert abs(l1 - 100) <= 12 and abs(r1 - 200) <= 12
        assert abs(l2 - 325) <= 12 and abs(r2 - 400) <= 12

    def test_fully_watermarked_stream(self, rng):
        n = 400
        cert = calibrate_threshold(GUMBEL, n, 20, 0.05, mc_reps=5000, seed=3)
        series = planted_series(rng, n, [(1, n)], lift=2.0)
        result = segment_series(series, SegmenterConfig(cert=cert))
        assert result.k_hat == 1
        (left, right), = result.segments
        iou = (min(right, n) - max(left, 1) + 1) / (n + (n - right) + (left - 1))
        assert iou >= 0.95

    def test_output_intervals_are_disjoint_sorted_and_inside_regions(self, rng):
        n = 300
        cert = calibrate_threshold(GUMBEL, n, 18, 0.05, mc_reps=4000, seed=4)
        series = planted_series(rng, n, [(40, 90), (200, 260)], lift=2.5)
        result = segment_series(series, SegmenterConfig(cert=cert))
        pairs = result.segments.to_pairs()
        assert pairs == sorted(pairs)
        for (l1, r1), (l2, r2) in zip(pairs, pairs[1:]):
            assert r1 < l2
        for interval, region in zip(result.segments, result.regions):
            assert region[0] <= interval[0] <= interval[1] <= region[1]

    def test_deterministic(self, rng):
        n = 200
        cert = calibrate_threshold(GUMBEL, n, 14, 0.05, mc_reps=3000, seed=5)
        series = planted_series(rng, n, [(50, 120)])
        a = segment_series(series, SegmenterConfig(cert=cert))
        b = segment_series(series, SegmenterConfig(cert=cert))
        assert a.segments == b.segments
        assert a.signal == b.signal

    def test_shift_invariance_of_localization(self, rng):
        """Adding a constant c to the scores and the null mean, and b*c to
        the threshold, moves nothing. A scored series carries its scheme's
        own null mean, so the stages run here with the shifted null mean
        passed openly."""
        n, b, rho = 240, 15, SegmenterConfig.rho
        pad = default_pad(n, SegmenterConfig.gamma)
        min_run = min_run_blocks(n, b, SegmenterConfig.discard_c)
        x = planted_series(rng, n, [(60, 140)], lift=2.0).scores

        def stages(scores, null_mean, q):
            kept = discard_short_runs(screen_blocks(block_sums(scores, b), q), min_run)
            regions = enlarge_runs(kept, b, n, pad)
            signal, _ = estimate_signal(scores, regions, null_mean)
            return [localize_segment(scores, region, *search_windows(region, b, pad),
                                     null_mean, rho, signal) for region in regions]

        base = stages(x, 1.0, 18.0)
        assert base
        assert base == list(segment_series(series_of(x),
                                           SegmenterConfig(cert=open_cert(n, b, q=18.0))).segments)
        for c in (1.0, 2.5):
            assert stages(x + c, 1.0 + c, 18.0 + b * c) == base

    def test_trace_is_internally_consistent(self, rng):
        n = 400
        cert = calibrate_threshold(GUMBEL, n, 20, 0.05, mc_reps=4000, seed=6)
        series = planted_series(rng, n, [(100, 220)], lift=2.0)
        result = segment_series(series, SegmenterConfig(cert=cert))
        assert result.block_sums.size == math.ceil(n / 20)
        assert result.kept_runs == tuple(discard_short_runs(result.selected_blocks,
                                                            result.min_run_blocks))
        assert np.array_equal(result.selected_blocks, screen_blocks(result.block_sums, cert.q))
        assert result.cert is cert
        trace = result.trace()
        assert trace["certificate"] == cert.to_json()
        for (wl, wr), region in zip(result.windows, result.regions):
            assert region[0] <= wl[0] <= wl[1] <= region[1]
            assert region[0] <= wr[0] <= wr[1] <= region[1]
        assert result.pad == default_pad(n, 0.1)

    def test_pipeline_agrees_with_naive_when_one_run_covers_everything(self, rng):
        """Full-region, full-window pipeline output equals the exhaustive
        single-interval estimator run with the pipeline's own signal."""
        for trial in range(100):
            n = int(rng.integers(30, 81))
            b = max(2, int(math.isqrt(n)))
            x = rng.standard_exponential(n) + 1.0  # every block clears q=-inf
            if trial % 4:
                left = int(rng.integers(1, max(2, n - 10)))
                right = min(n, left + int(rng.integers(5, 25)))
                x[left - 1 : right] += rng.uniform(0.5, 2.5)
            series = series_of(x)
            config = SegmenterConfig(cert=open_cert(n, b), pad=n)
            result = segment_series(series, config)
            assert result.k_hat == 1
            naive = naive_estimate(x, 1.0, config.rho, result.signal)
            assert result.segments.intervals[0] == naive

    def test_result_json_shape(self, rng):
        n = 120
        cert = open_cert(n, 10, q=12.0)
        result = segment_series(planted_series(rng, n, [(30, 70)], lift=2.0),
                                SegmenterConfig(cert=cert))
        data = result.to_json()
        assert set(data) == {"segments", "trace"}
        assert data["segments"] == result.segments.to_pairs() != []


def test_multiple_segments_are_found_consistently():
    """The abstract claims consistency in detecting multiple watermarked
    segments in one text: as n grows, the segment count is found with rising
    probability and the endpoints' error shrinks relative to n.

    I.i.d. gumbel scores: Exp(1) under the null and, inside the planted
    segments [0.2n, 0.35n] and [0.6n, 0.8n], the max of three Exp(1) draws.
    Blocks of ceil(sqrt(n)) tokens, alpha 0.05, 100 reps per n.

    The bounds were set from binomial slack at the reference rates of 0.84,
    0.98 and 1.00 for k_hat = 2 at n = 1k, 4k and 16k, before the test ran.
    A share may fall below an earlier one by at most 0.03 (3 of 100 reps),
    twice the standard error of the difference of the 4k and 16k shares. At
    16k the share must reach 0.95; a Binomial(100, 0.98) count, at the 4k
    rate, falls below 95 with probability 0.016. The worst endpoint error
    over the reps with k_hat = 2 (reference 90th percentiles 40, 38 and 33
    tokens, 0.040, 0.0095 and 0.0021 of n) must fall, as a fraction of n,
    from each n to the next, and stay within twice the largest reference,
    80 tokens, at 16k: a fraction that falls only as fast as the padding
    n^(0.5 + gamma) would pass the first bound but not this one.
    """
    reps, shares, errors = 100, [], []
    for n in (1000, 4000, 16000):
        block_len = math.ceil(math.sqrt(n))
        config = SegmenterConfig(cert=calibrate_threshold(GUMBEL, n, block_len, 0.05))
        truth = [(n // 5 + 1, 7 * n // 20), (3 * n // 5 + 1, 4 * n // 5)]
        rng = np.random.default_rng(n)
        worst = []
        for _ in range(reps):
            x = rng.standard_exponential(n)
            for left, right in truth:
                x[left - 1 : right] = rng.standard_exponential((3, right - left + 1)).max(axis=0)
            found = segment_series(series_of(x), config).segments
            if len(found) == len(truth):
                worst.append(max(abs(got - want) for est, true in zip(found, truth)
                                 for got, want in zip(est, true)))
        shares.append(len(worst) / reps)
        errors.append(np.percentile(worst, 90) / n)
    assert all(later >= earlier - 0.03 for i, earlier in enumerate(shares)
               for later in shares[i + 1:]), shares
    assert shares[-1] >= 0.95, shares
    assert errors[0] > errors[1] > errors[2], errors
    assert errors[2] * 16000 <= 80, errors


# SHA-256 of json.dumps of every ``segment_series(...).to_json()`` on the
# ladder below. It pins the segmenter's bits: block sums, screen, runs,
# regions, windows, the signal estimate and the located segments. The ladder
# takes both branches of ``localize_segment`` and has one-region series.
LADDER_DIGEST = "74eb572b004e9737037dfb42ae978772ebfb2791c1cabfad91fbe8d00a9e470a"


def ladder_results():
    """Three schemes at V=1000 and n = 1k, 4k, 16k with b = ceil(sqrt(n)):
    a null series, one with two planted segments and one with a single
    planted segment. Null scores come from ``SchemeSpec.null_scores``;
    planted scores are the max of three null draws."""
    results = []
    for i, scheme_id in enumerate(("gumbel", "inverse", "red_green")):
        scheme = SchemeSpec(scheme_id, vocab_size=1000)
        for n in (1000, 4000, 16000):
            config = SegmenterConfig(cert=calibrate_threshold(scheme, n, math.ceil(math.sqrt(n)),
                                                              0.05))
            rng = np.random.default_rng([i, n])
            for truth in ([], [(n // 5 + 1, 7 * n // 20), (3 * n // 5 + 1, 4 * n // 5)],
                          [(3 * n // 10 + 1, 3 * n // 5)]):
                x = scheme.null_scores(rng, n)
                for left, right in truth:
                    x[left - 1 : right] = np.max(
                        [scheme.null_scores(rng, right - left + 1) for _ in range(3)], axis=0)
                series = PivotSeries(x, scheme.null_mean, scheme_id)
                results.append(segment_series(series, config))
    return results


def test_segmenter_ladder_is_pinned():
    results = ladder_results()
    windows = [(left, right) for result in results for left, right in result.windows]
    assert any(right[0] >= left[1] for left, right in windows)  # the early return
    assert any(right[0] < left[1] for left, right in windows)  # the running minimum
    assert any(len(result.regions) == 1 for result in results)
    data = json.dumps([result.to_json() for result in results])
    assert hashlib.sha256(data.encode()).hexdigest() == LADDER_DIGEST
