"""Agreement metrics between true and estimated segment sets.

All metrics treat tokens as binary-labeled (inside some interval or not).
The rand index uses the standard two-cluster convention; the modified rand
index subtracts deceptive concordances: pairs lying together inside a true
interval that the estimate missed entirely, or inside an estimated interval
that is entirely spurious. Empty-set conventions score a correct
"no watermark" verdict perfectly.
"""

from __future__ import annotations

import io
import csv
from dataclasses import dataclass

from .intervals import Segments, interval_overlap

EVAL_COLUMNS = (
    "model",
    "scheme",
    "method",
    "iou",
    "precision",
    "recall",
    "f1",
    "ri",
    "mri",
    "runtime_ms",
)


def _pairs(k: int) -> int:
    return k * (k - 1) // 2


def iou(truth: Segments, estimate: Segments, n: int) -> float:
    """Intersection over union of the two coverage sets.

    1.0 when both are empty (a correct all-clear), 0.0 when exactly one is.
    """
    inter = truth.intersection_size(estimate)
    union = truth.union_size + estimate.union_size - inter
    if union == 0:
        return 1.0
    return inter / union


def _overlapping(intervals: Segments, other: Segments) -> int:
    """How many of ``intervals`` overlap ``other`` anywhere."""
    return sum(1 for iv in intervals if interval_overlap(iv, other) > 0)


def precision_recall_f1(truth: Segments, estimate: Segments) -> tuple[float, float, float]:
    """Interval-level hit metrics.

    Precision is the fraction of estimated intervals that overlap the truth
    anywhere; recall is the fraction of true intervals that some estimated
    interval overlaps. A true segment split into several estimates is
    recalled once, so both lie in [0, 1].
    """
    k, k_hat = len(truth), len(estimate)
    if k_hat == 0:
        precision = 1.0 if k == 0 else 0.0
    else:
        precision = _overlapping(estimate, truth) / k_hat
    recall = 1.0 if k == 0 else _overlapping(truth, estimate) / k
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return precision, recall, f1


def _contingency(truth: Segments, estimate: Segments, n: int) -> tuple[int, int, int, int]:
    c11 = truth.intersection_size(estimate)
    c10 = truth.union_size - c11
    c01 = estimate.union_size - c11
    c00 = n - c11 - c10 - c01
    return c11, c10, c01, c00

def rand_index(truth: Segments, estimate: Segments, n: int) -> float:
    """Binary-label rand index over all token pairs.

    A pair is concordant when the two labelings agree on whether its tokens
    share a label. Computed in closed form from coverage counts; equals the
    quadratic pair enumeration exactly.
    """
    if n < 2:
        raise ValueError("rand index needs at least two tokens")
    c11, c10, c01, c00 = _contingency(truth, estimate, n)
    same_both = _pairs(c11) + _pairs(c10) + _pairs(c01) + _pairs(c00)
    split_both = c11 * c00 + c10 * c01
    return (same_both + split_both) / _pairs(n)


def modified_rand_index(truth: Segments, estimate: Segments, n: int) -> float:
    """Rand index minus the deceptive-concordance correction.

    The correction counts unordered pairs fully inside one true interval yet
    entirely outside the estimate's coverage, plus pairs fully inside one
    estimated interval yet entirely outside the truth's coverage. Always at
    most the rand index; can go negative in pathological cases.
    """
    if n < 2:
        raise ValueError("modified rand index needs at least two tokens")
    missed = sum(
        _pairs((r - l + 1) - interval_overlap((l, r), estimate)) for l, r in truth
    )
    spurious = sum(
        _pairs((r - l + 1) - interval_overlap((l, r), truth)) for l, r in estimate
    )
    return rand_index(truth, estimate, n) - (missed + spurious) / _pairs(n)


@dataclass(frozen=True)
class EvalReport:
    """Metric bundle for one run."""

    iou: float
    precision: float
    recall: float
    f1: float
    ri: float
    mri: float
    k_true: int
    k_hat: int
    runtime_ms: float | None = None

    def csv_row(self, model: str, scheme: str, method: str) -> list[str]:
        values = {
            "model": model,
            "scheme": scheme,
            "method": method,
            "iou": repr(self.iou),
            "precision": repr(self.precision),
            "recall": repr(self.recall),
            "f1": repr(self.f1),
            "ri": repr(self.ri),
            "mri": repr(self.mri),
            "runtime_ms": "" if self.runtime_ms is None else repr(self.runtime_ms),
        }
        return [values[c] for c in EVAL_COLUMNS]


def evaluate(
    truth: Segments, estimate: Segments, n: int, runtime_ms: float | None = None
) -> EvalReport:
    """Compute the full metric bundle for one run."""
    precision, recall, f1 = precision_recall_f1(truth, estimate)
    return EvalReport(
        iou=iou(truth, estimate, n),
        precision=precision,
        recall=recall,
        f1=f1,
        ri=rand_index(truth, estimate, n),
        mri=modified_rand_index(truth, estimate, n),
        k_true=len(truth),
        k_hat=len(estimate),
        runtime_ms=runtime_ms,
    )


def report_csv(rows: list[list[str]]) -> str:
    """Render evaluation rows (with the fixed column header) as CSV text."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(EVAL_COLUMNS)
    writer.writerows(rows)
    return buf.getvalue()
