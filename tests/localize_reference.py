"""The endpoint scan as it stood before it read its windows as slices: a
gather of the start prefixes and ``searchsorted`` for each end's admissible
starts. ``localize_segment`` must return exactly what this returns."""

import numpy as np


def reference_localize_segment(scores, region, window_left, window_right, null_mean, rho,
                               signal):
    d_left, d_right = region
    wl_lo, wl_hi = window_left
    wr_lo, wr_hi = window_right
    if not (d_left <= wl_lo <= wl_hi <= d_right and d_left <= wr_lo <= wr_hi <= d_right):
        raise ValueError("search windows must lie inside the region")
    if wl_lo > wr_hi:
        raise ValueError("empty search space: left window starts after right window ends")

    adjusted = np.asarray(scores, dtype=float)[d_left - 1 : d_right] - (null_mean + rho * signal)
    prefix = np.concatenate(([0.0], np.cumsum(adjusted)))

    s_off = np.arange(wl_lo - d_left, wl_hi - d_left + 1)
    t_off = np.arange(wr_lo - d_left, wr_hi - d_left + 1)

    start_vals = prefix[s_off]
    run_min = np.minimum.accumulate(start_vals)
    latest_argmin = np.maximum.accumulate(
        np.where(start_vals == run_min, np.arange(start_vals.size), -1)
    )

    n_admissible = np.minimum(np.searchsorted(s_off, t_off, side="right"), s_off.size)
    valid = n_admissible >= 1
    if not np.any(valid):
        raise ValueError("empty search space: no start precedes any end")

    k = n_admissible[valid] - 1
    ends = t_off[valid]
    inside = prefix[ends + 1] - run_min[k]
    starts = s_off[latest_argmin[k]]

    best_inside = inside.max()
    top = inside == best_inside
    widths = ends[top] - starts[top] + 1
    pick = int(np.argmin(widths))
    return (
        int(starts[top][pick]) + d_left,
        int(ends[top][pick]) + d_left,
    )
