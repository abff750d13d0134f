"""Multi-segment localization pipeline over scored pivot sequences.

Stages, in order: sum scores over consecutive blocks; keep blocks whose sum
clears the calibrated threshold; merge kept blocks into runs and discard
runs too short to be real; enlarge surviving runs into disjoint candidate
regions; estimate the signal strength from those regions; and finally, for
each region, scan restricted endpoint windows for the interval whose
excluded scores look most like noise.

``segment_series`` returns one ``SegmentationResult``, whose ``to_json`` is
the result file of ``wmseg segment``: the segments as [l, r] pairs, and
under its ``trace`` key each stage's decision, the signal estimate
``d_tilde`` and the certificate it screened with, whose ``q`` is the
threshold. No value is written twice (the segment and block counts are
lengths of lists).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calibration import CertMismatch, ThresholdCert, block_starts
from .intervals import Interval, Segments
from .schemes import PivotSeries, check_unread

SIGNAL_FLOOR = 1e-6


@dataclass(frozen=True)
class SegmenterConfig:
    """Tuning parameters of the pipeline.

    ``pad`` is the per-side enlargement of kept runs, in tokens; the "auto"
    default resolves to ceil(n ** (0.5 + gamma)). ``discard_c`` scales the
    minimum believable run length c * sqrt(n log n) (in tokens). ``rho``
    tempers the estimated signal in the localization objective.
    """

    cert: ThresholdCert
    rho: float = 0.5
    gamma: float = 0.1
    discard_c: float = 0.5
    pad: int | str = "auto"

    def __post_init__(self):
        if not 0.05 <= self.rho <= 0.9:
            raise ValueError("rho must lie in [0.05, 0.9]")
        if not 0.0 < self.gamma < 0.5:
            raise ValueError("gamma must lie in (0, 1/2)")
        if not (math.isfinite(self.discard_c) and self.discard_c > 0):
            raise ValueError(f"discard_c must be finite and positive, not {self.discard_c!r}")
        if self.pad != "auto":  # type(), not isinstance(): bool is an int but not a pad
            if type(self.pad) is not int or self.pad < 0:
                raise ValueError("pad must be 'auto' or a nonnegative integer")
            check_unread(self, ("discard_c", "pad"), f"pad {self.pad}")  # gamma sets only "auto"

    def resolved_pad(self, n: int) -> int:
        if self.pad == "auto":
            return default_pad(n, self.gamma)
        return self.pad


def default_pad(n: int, gamma: float) -> int:
    return math.ceil(n ** (0.5 + gamma))


def min_run_blocks(n: int, block_len: int, discard_c: float) -> int:
    """Shortest believable run, converted from c*sqrt(n log n) tokens to blocks."""
    cutoff_tokens = discard_c * math.sqrt(n * math.log(n)) if n > 1 else 0.0
    return max(1, math.ceil(cutoff_tokens / block_len))


@dataclass(frozen=True)
class SegmentationResult:
    """The segments the pipeline found, each stage's decision on the way to
    them, and the certificate it screened with."""

    segments: Segments
    block_sums: np.ndarray
    cert: ThresholdCert
    selected_blocks: np.ndarray  # 0-based block indices
    kept_runs: tuple[Interval, ...]  # 0-based inclusive block runs
    regions: Segments  # enlarged candidate regions, token units
    windows: tuple[tuple[Interval, Interval], ...]  # (left, right) per region
    signal: float
    signal_floored: bool
    min_run_blocks: int
    pad: int

    @property
    def k_hat(self) -> int:
        return len(self.segments)

    def trace(self) -> dict:
        return {
            "block_sums": [float(x) for x in self.block_sums],
            "certificate": self.cert.to_json(),
            "selected_blocks": [int(k) + 1 for k in self.selected_blocks],
            "kept_runs_blocks": [[a + 1, b + 1] for a, b in self.kept_runs],
            "regions": self.regions.to_pairs(),
            "windows": [[list(left), list(right)] for left, right in self.windows],
            "d_tilde": self.signal,
            "d_tilde_floored": self.signal_floored,
            "min_run_blocks": self.min_run_blocks,
            "pad": self.pad,
        }

    def to_json(self) -> dict:
        return {"segments": self.segments.to_pairs(), "trace": self.trace()}


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


def block_sums(scores: np.ndarray, block_len: int) -> np.ndarray:
    """Sums over consecutive blocks of block_len scores; last block may be short."""
    scores = np.asarray(scores, dtype=float)
    if scores.size == 0:
        raise ValueError("empty score series")
    if not 1 <= block_len <= scores.size:
        raise ValueError("block length must lie in [1, n]")
    return np.add.reduceat(scores, block_starts(scores.size, block_len))


def screen_blocks(sums: np.ndarray, threshold: float) -> np.ndarray:
    """0-based indices of blocks whose sum strictly exceeds the threshold."""
    if not math.isfinite(threshold):
        raise ValueError("threshold must be finite")
    return (np.asarray(sums) > threshold).nonzero()[0]


def merge_selected(selected: np.ndarray) -> list[Interval]:
    """Group consecutive selected block indices into inclusive runs, in one
    walk over the sorted indices as Python ints that closes a run at each gap.

    An array that is not of integers (floats, bools) raises TypeError rather
    than be truncated to blocks, and a repeated index raises ValueError
    rather than give overlapping runs.
    """
    selected = np.asarray(selected)
    if selected.dtype.kind not in "iu":
        raise TypeError(f"selected blocks are not an integer array: dtype {selected.dtype}")
    indices = iter(np.sort(selected).tolist())
    start = prev = next(indices, None)
    if start is None:
        return []
    runs: list[Interval] = []
    for k in indices:
        if k != prev + 1:
            if k == prev:
                raise ValueError(f"block index {k} is selected twice")
            runs.append((start, prev))
            start = k
        prev = k
    runs.append((start, prev))
    return runs


def discard_short_runs(selected: np.ndarray, min_run: int) -> list[Interval]:
    """Merge selected blocks into runs and drop runs shorter than min_run blocks."""
    if min_run < 1:
        raise ValueError("minimum run length must be at least 1 block")
    return [(a, b) for a, b in merge_selected(selected) if b - a + 1 >= min_run]


def enlarge_runs(kept_runs: list[Interval], block_len: int, n: int, pad: int) -> Segments:
    """Convert block runs to token intervals, pad both sides, keep disjoint.

    The runs are 0-based inclusive block runs: each [a, b] must have
    a <= b, start after the previous run's end and start inside n, or
    ValueError names it. Padded neighbours that would overlap are truncated
    at the midpoint of the token gap between the unpadded runs, so each
    region still contains its run. One walk over the runs emits each region
    when the next run's start fixes its right end.
    """
    if pad < 0:
        raise ValueError("pad must be nonnegative")
    regions: list[Interval] = []
    last = -1  # the previous run's last block; lo, hi, right: its region and run end
    lo = hi = right = 0
    for a, b in kept_runs:
        if not last < a <= b or a * block_len >= n:
            raise ValueError(f"block run [{a}, {b}] does not satisfy {last} < a <= b "
                             f"with its first token inside n={n}")
        left = a * block_len + 1
        start = max(1, left - pad)
        if last >= 0:
            mid = (right + left) // 2
            regions.append((lo, min(hi, mid)))
            start = max(start, mid + 1)
        right = min((b + 1) * block_len, n)
        lo, hi, last = start, min(n, right + pad), b
    if last >= 0:
        regions.append((lo, hi))
    return Segments(regions, n=n)


def estimate_signal(
    scores: np.ndarray, regions: Segments, null_mean: float
) -> tuple[float, bool]:
    """Mean elevation of scores over the candidate regions.

    Reads only the regions' slices of the scores: one region's slice as is,
    more joined in order. ``np.add.reduce(picked) / picked.size`` is the
    ``picked.mean()`` of numpy, bit for bit, without its wrappers.

    A nonpositive estimate (possible after a false screening) is floored at
    a tiny positive value and flagged, keeping the localization objective
    well-posed while surfacing the anomaly in the trace.
    """
    if not regions:
        raise ValueError("cannot estimate signal from an empty region set")
    scores = np.asarray(scores, dtype=float)
    _check_inside(regions.intervals[-1], scores.size)  # regions are sorted, from 1 on
    slices = [scores[left - 1 : right] for left, right in regions]
    picked = slices[0] if len(slices) == 1 else np.concatenate(slices)
    value = float(np.add.reduce(picked) / picked.size - null_mean)
    if value <= 0.0:
        return SIGNAL_FLOOR, True
    return value, False


def _check_inside(region: Interval, n: int) -> None:
    left, right = region
    if not 1 <= left <= right <= n:
        raise ValueError(f"region [{left}, {right}] is not inside [1, {n}]")


def search_windows(region: Interval, block_len: int, pad: int) -> tuple[Interval, Interval]:
    """Endpoint search windows: the first and last 2*(pad + block_len) tokens
    of the region (the whole region when it is shorter than that)."""
    left, right = region
    width = min(right - left + 1, 2 * (pad + block_len))
    return (left, left + width - 1), (right - width + 1, right)


def localize_segment(
    scores: np.ndarray,
    region: Interval,
    window_left: Interval,
    window_right: Interval,
    null_mean: float,
    rho: float,
    signal: float,
) -> Interval:
    """Best interval [s, t] with s in the left window, t in the right one.

    Minimizes the sum of (score - null_mean - rho*signal) over the region
    outside [s, t]; equivalently maximizes the penalized mass inside. Ties
    break toward the narrowest interval, then the smallest start.

    One cumulative sum over the region gives the prefix masses. When no end
    precedes the left window's last start, every end reads one minimum over
    the start prefixes: the latest start at it and the first end at the
    largest inside mass win. Otherwise a running minimum gives each end its
    best start: an end before the last start reads it at its own offset, as
    one slice, and every later end reads the last value. The tie rule runs
    only there, at the ends that reach the maximum: each takes the latest
    start where its running minimum is reached, and the first of the
    narrowest such intervals wins.
    """
    d_left, d_right = region
    wl_lo, wl_hi = window_left
    wr_lo, wr_hi = window_right
    scores = np.asarray(scores, dtype=float)
    _check_inside(region, scores.size)
    if not (d_left <= wl_lo <= wl_hi <= d_right and d_left <= wr_lo <= wr_hi <= d_right):
        raise ValueError("search windows must lie inside the region")
    if wl_lo > wr_hi:
        raise ValueError("empty search space: left window starts after right window ends")

    adjusted = scores[d_left - 1 : d_right] - (null_mean + rho * signal)
    prefix = np.empty(adjusted.size + 1)
    prefix[0] = 0.0
    np.add.accumulate(adjusted, out=prefix[1:])  # the cumsum, without its wrappers

    # Both windows are contiguous: starts at local 0-based offsets s_lo..s_hi
    # of the region, ends at t_lo..t_hi.
    s_lo, s_hi = wl_lo - d_left, wl_hi - d_left
    t_lo, t_hi = wr_lo - d_left, wr_hi - d_left

    # The inside mass of [s, t] is prefix[t+1] - prefix[s], so an end t takes
    # the running minimum of the start prefixes up to its last admissible
    # start, min(t, s_hi). Some end has one, since wl_lo <= wr_hi was checked.
    start_vals = prefix[s_lo : s_hi + 1]
    if t_lo >= s_hi:
        # argmin and argmax return the first occurrence: of the minimum in
        # the reversed starts (the latest start), of the maximum in the ends.
        latest = start_vals[::-1]
        back = int(latest.argmin())
        inside = prefix[t_lo + 1 : t_hi + 2] - latest[back]
        return wl_hi - back, wr_lo + int(inside.argmax())
    run_min = np.minimum.accumulate(start_vals)
    first_end = max(t_lo, s_lo)
    split = min(max(first_end, s_hi), t_hi + 1)
    inside = prefix[first_end + 1 : t_hi + 2] - run_min[-1]
    if split > first_end:
        inside[: split - first_end] = (
            prefix[first_end + 1 : split + 1] - run_min[first_end - s_lo : split - s_lo]
        )

    # Offsets below count from s_lo. ``minima`` are the starts that reach the
    # running minimum; an end's latest one at or before it is its narrowest
    # start, and the first minimal width is the smallest start.
    ends = (inside == np.maximum.reduce(inside)).nonzero()[0] + (first_end - s_lo)
    minima = (start_vals == run_min).nonzero()[0]
    starts = minima[minima.searchsorted(ends, side="right") - 1]
    pick = (ends - starts).argmin()
    return int(starts[pick]) + wl_lo, int(ends[pick]) + wl_lo


def segment_series(series: PivotSeries, config: SegmenterConfig) -> SegmentationResult:
    """Run the full pipeline on a scored pivot series."""
    cert = config.cert
    if cert.n != series.n:
        raise CertMismatch(f"certificate is for n={cert.n}, stream has n={series.n}")
    if cert.scheme_id != series.scheme_id:
        raise CertMismatch(
            f"certificate is for scheme {cert.scheme_id!r}, stream carries {series.scheme_id!r}"
        )
    if cert.null_mean != series.null_mean:
        raise CertMismatch(
            f"certificate is for scheme {cert.scheme_params!r} with null mean {cert.null_mean!r}, "
            f"stream has null mean {series.null_mean!r}"
        )
    n = series.n
    b = cert.block_len
    pad = config.resolved_pad(n)
    min_run = min_run_blocks(n, b, config.discard_c)

    sums = block_sums(series.scores, b)
    selected = screen_blocks(sums, cert.q)
    kept = discard_short_runs(selected, min_run)
    regions = enlarge_runs(kept, b, n, pad)

    signal, floored = 0.0, False
    windows: tuple[tuple[Interval, Interval], ...] = ()
    located: list[Interval] = []
    if regions:
        signal, floored = estimate_signal(series.scores, regions, series.null_mean)
        windows = tuple(search_windows(region, b, pad) for region in regions)
        located = [
            localize_segment(series.scores, region, wl, wr, series.null_mean, config.rho, signal)
            for region, (wl, wr) in zip(regions, windows)
        ]
    return SegmentationResult(
        segments=Segments(located, n=n),
        block_sums=sums,
        cert=cert,
        selected_blocks=selected,
        kept_runs=tuple(kept),
        regions=regions,
        windows=windows,
        signal=signal,
        signal_floored=floored,
        min_run_blocks=min_run,
        pad=pad,
    )
