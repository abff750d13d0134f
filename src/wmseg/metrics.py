"""Agreement metrics between true and estimated segment sets.

All metrics treat tokens as binary-labeled (inside some interval or not).
The rand index uses the standard two-cluster convention; the modified rand
index subtracts deceptive concordances: pairs lying together inside a true
interval that the estimate missed entirely, or inside an estimated interval
that is entirely spurious. Empty-set conventions score a correct
"no watermark" verdict perfectly.

One merge sweep over the two sorted interval lists (``_Overlap``) counts
how many tokens of each interval the other set covers. Every metric reads
those integer counts: the intersection and both coverage sizes (IoU, the
rand-index contingency), which intervals are hit (precision, recall) and
what each interval leaves uncovered (the deceptive pairs).
"""

from __future__ import annotations

import io
import csv
from dataclasses import dataclass

from .intervals import Segments

# The metric fields of an EvalReport, in column order.
METRIC_FIELDS = ("iou", "precision", "recall", "f1", "ri", "mri")
EVAL_COLUMNS = ("model", "scheme", "method", *METRIC_FIELDS, "runtime_ms")


def _pairs(k: int) -> int:
    return k * (k - 1) // 2


class _Overlap:
    """How much of each interval the other set covers, from one merge sweep
    over the two sorted interval lists: ``truth_cover[i]`` tokens of the i-th
    true interval lie in the estimate, ``estimate_cover[j]`` tokens of the
    j-th estimated interval lie in the truth."""

    def __init__(self, truth: Segments, estimate: Segments):
        self.truth, self.estimate = truth.intervals, estimate.intervals
        self.truth_cover = [0] * len(self.truth)
        self.estimate_cover = [0] * len(self.estimate)
        i = j = 0
        while i < len(self.truth) and j < len(self.estimate):
            tl, tr = self.truth[i]
            el, er = self.estimate[j]
            covered = min(tr, er) - max(tl, el) + 1
            if covered > 0:
                self.truth_cover[i] += covered
                self.estimate_cover[j] += covered
            if tr <= er:
                i += 1
            if er <= tr:
                j += 1
        self.intersection = sum(self.truth_cover)
        self.truth_size = truth.union_size
        self.estimate_size = estimate.union_size

    def iou(self) -> float:
        union = self.truth_size + self.estimate_size - self.intersection
        if union == 0:
            return 1.0
        return self.intersection / union

    def precision_recall_f1(self) -> tuple[float, float, float]:
        k, k_hat = len(self.truth), len(self.estimate)
        if k_hat == 0:
            precision = 1.0 if k == 0 else 0.0
        else:
            precision = sum(1 for c in self.estimate_cover if c > 0) / k_hat
        recall = 1.0 if k == 0 else sum(1 for c in self.truth_cover if c > 0) / k
        f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
        return precision, recall, f1

    def rand_index(self, n: int) -> float:
        if n < 2:
            raise ValueError("rand index needs at least two tokens")
        c11 = self.intersection
        c10 = self.truth_size - c11
        c01 = self.estimate_size - c11
        c00 = n - c11 - c10 - c01
        same_both = _pairs(c11) + _pairs(c10) + _pairs(c01) + _pairs(c00)
        split_both = c11 * c00 + c10 * c01
        return (same_both + split_both) / _pairs(n)

    def modified_rand_index(self, n: int, ri: float) -> float:
        """``ri`` (this overlap's rand index) minus the deceptive pairs."""
        missed = sum(_pairs((r - l + 1) - c) for (l, r), c in zip(self.truth, self.truth_cover))
        spurious = sum(
            _pairs((r - l + 1) - c) for (l, r), c in zip(self.estimate, self.estimate_cover)
        )
        return ri - (missed + spurious) / _pairs(n)


def iou(truth: Segments, estimate: Segments, n: int) -> float:
    """Intersection over union of the two coverage sets.

    1.0 when both are empty (a correct all-clear), 0.0 when exactly one is.
    """
    return _Overlap(truth, estimate).iou()


def precision_recall_f1(truth: Segments, estimate: Segments) -> tuple[float, float, float]:
    """Interval-level hit metrics.

    Precision is the fraction of estimated intervals that overlap the truth
    anywhere; recall is the fraction of true intervals that some estimated
    interval overlaps. A true segment split into several estimates is
    recalled once, so both lie in [0, 1].
    """
    return _Overlap(truth, estimate).precision_recall_f1()


def rand_index(truth: Segments, estimate: Segments, n: int) -> float:
    """Binary-label rand index over all token pairs.

    A pair is concordant when the two labelings agree on whether its tokens
    share a label. Computed in closed form from coverage counts; equals the
    quadratic pair enumeration exactly.
    """
    return _Overlap(truth, estimate).rand_index(n)


def modified_rand_index(truth: Segments, estimate: Segments, n: int) -> float:
    """Rand index minus the deceptive-concordance correction.

    The correction counts unordered pairs fully inside one true interval yet
    entirely outside the estimate's coverage, plus pairs fully inside one
    estimated interval yet entirely outside the truth's coverage. Always at
    most the rand index; can go negative in pathological cases.
    """
    if n < 2:
        raise ValueError("modified rand index needs at least two tokens")
    overlap = _Overlap(truth, estimate)
    return overlap.modified_rand_index(n, overlap.rand_index(n))


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
        """The row's cells in ``EVAL_COLUMNS`` order."""
        return [
            model, scheme, method,
            *(repr(getattr(self, name)) for name in METRIC_FIELDS),
            "" if self.runtime_ms is None else repr(self.runtime_ms),
        ]


def evaluate(
    truth: Segments, estimate: Segments, n: int, runtime_ms: float | None = None
) -> EvalReport:
    """Compute the full metric bundle for one run."""
    overlap = _Overlap(truth, estimate)
    precision, recall, f1 = overlap.precision_recall_f1()
    ri = overlap.rand_index(n)
    return EvalReport(
        iou=overlap.iou(),
        precision=precision,
        recall=recall,
        f1=f1,
        ri=ri,
        mri=overlap.modified_rand_index(n, ri),
        k_true=len(truth),
        k_hat=len(estimate),
        runtime_ms=runtime_ms,
    )


def format_csv(columns, rows: list[list[str]]) -> str:
    """A header of ``columns`` and the ``rows`` as CSV text, quoting any
    cell that holds a comma, quote or newline."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue()
