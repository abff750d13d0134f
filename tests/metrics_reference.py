"""The metric bundle as it stood before one merge sweep gave every overlap:
each metric rescans the estimate for every true interval, and the truth for
every estimated interval, through ``interval_overlap``. ``evaluate`` must
return exactly the ``EvalReport`` this returns, float for float."""

from wmseg.metrics import EvalReport


def interval_overlap(iv, segments) -> int:
    """Number of positions of ``iv`` covered by ``segments``."""
    left, right = iv
    total = 0
    for sl, sr in segments:
        lo, hi = max(left, sl), min(right, sr)
        if lo <= hi:
            total += hi - lo + 1
        if sl > right:
            break
    return total


def _pairs(k: int) -> int:
    return k * (k - 1) // 2


def _intersection_size(truth, estimate) -> int:
    return sum(interval_overlap(iv, estimate) for iv in truth)


def _overlapping(intervals, other) -> int:
    return sum(1 for iv in intervals if interval_overlap(iv, other) > 0)


def reference_iou(truth, estimate) -> float:
    inter = _intersection_size(truth, estimate)
    union = truth.union_size + estimate.union_size - inter
    if union == 0:
        return 1.0
    return inter / union


def reference_precision_recall_f1(truth, estimate):
    k, k_hat = len(truth), len(estimate)
    if k_hat == 0:
        precision = 1.0 if k == 0 else 0.0
    else:
        precision = _overlapping(estimate, truth) / k_hat
    recall = 1.0 if k == 0 else _overlapping(truth, estimate) / k
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return precision, recall, f1


def reference_rand_index(truth, estimate, n: int) -> float:
    if n < 2:
        raise ValueError("rand index needs at least two tokens")
    c11 = _intersection_size(truth, estimate)
    c10 = truth.union_size - c11
    c01 = estimate.union_size - c11
    c00 = n - c11 - c10 - c01
    same_both = _pairs(c11) + _pairs(c10) + _pairs(c01) + _pairs(c00)
    split_both = c11 * c00 + c10 * c01
    return (same_both + split_both) / _pairs(n)


def reference_modified_rand_index(truth, estimate, n: int) -> float:
    if n < 2:
        raise ValueError("modified rand index needs at least two tokens")
    missed = sum(_pairs((r - l + 1) - interval_overlap((l, r), estimate)) for l, r in truth)
    spurious = sum(_pairs((r - l + 1) - interval_overlap((l, r), truth)) for l, r in estimate)
    return reference_rand_index(truth, estimate, n) - (missed + spurious) / _pairs(n)


def reference_evaluate(truth, estimate, n: int, runtime_ms=None) -> EvalReport:
    precision, recall, f1 = reference_precision_recall_f1(truth, estimate)
    return EvalReport(
        iou=reference_iou(truth, estimate),
        precision=precision,
        recall=recall,
        f1=f1,
        ri=reference_rand_index(truth, estimate, n),
        mri=reference_modified_rand_index(truth, estimate, n),
        k_true=len(truth),
        k_hat=len(estimate),
        runtime_ms=runtime_ms,
    )
