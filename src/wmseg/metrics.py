"""Agreement metrics between true and estimated segment sets.

``evaluate`` is the one way to get them. Tokens are binary-labeled (inside
some interval or not), and one merge sweep over the two sorted interval
lists counts how many tokens of each interval the other set covers; every
metric reads those integer counts.

* ``iou``: intersection over union of the two coverage sets; 1.0 when both
  are empty (a correct all-clear), 0.0 when exactly one is.
* ``precision``: the fraction of estimated intervals that overlap the truth
  anywhere; 1.0 with no estimate and no truth, 0.0 with no estimate but
  some truth. ``recall``: the fraction of true intervals that some
  estimated interval overlaps; 1.0 with no truth. A true segment split into
  several estimates is recalled once, so both lie in [0, 1]. ``f1`` is
  their harmonic mean, 0.0 when both are 0.
* ``ri``: the rand index over all unordered token pairs, under the standard
  two-cluster convention: a pair is concordant when the two labelings agree
  on whether its tokens share a label. It is computed in closed form from
  the 2x2 contingency of the coverage counts and equals the quadratic pair
  enumeration exactly.
* ``mri``: the rand index minus the deceptive concordances, as a share of
  all pairs: pairs fully inside one true interval yet entirely outside the
  estimate's coverage (a missed watermark), plus pairs fully inside one
  estimated interval yet entirely outside the truth's coverage (a spurious
  estimate). Always at most the rand index; it can go negative in
  pathological cases.
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

    def csv_row(self, model: str, scheme: str) -> list[str]:
        """The row's cells in ``EVAL_COLUMNS`` order; the method is always
        ``wmseg``, the one method here."""
        return [
            model, scheme, "wmseg",
            *(repr(getattr(self, name)) for name in METRIC_FIELDS),
            "" if self.runtime_ms is None else repr(self.runtime_ms),
        ]


def evaluate(
    truth: Segments, estimate: Segments, n: int, runtime_ms: float | None = None
) -> EvalReport:
    """The metric bundle of one run over ``n`` tokens (at least two); an
    interval of either set past n raises ValueError."""
    if n < 2:
        raise ValueError("rand index needs at least two tokens")
    truth.check_within(n)
    estimate.check_within(n)
    true_ivs, est_ivs = truth.intervals, estimate.intervals
    k, k_hat = len(true_ivs), len(est_ivs)
    # true_cover[i] tokens of the i-th true interval lie in the estimate,
    # est_cover[j] tokens of the j-th estimated interval lie in the truth.
    true_cover, est_cover = [0] * k, [0] * k_hat
    i = j = 0
    while i < k and j < k_hat:
        tl, tr = true_ivs[i]
        el, er = est_ivs[j]
        covered = min(tr, er) - max(tl, el) + 1
        if covered > 0:
            true_cover[i] += covered
            est_cover[j] += covered
        if tr <= er:
            i += 1
        if er <= tr:
            j += 1

    c11 = sum(true_cover)
    c10 = truth.union_size - c11
    c01 = estimate.union_size - c11
    c00 = n - c11 - c10 - c01
    union = c11 + c10 + c01
    iou = 1.0 if union == 0 else c11 / union

    if k_hat == 0:
        precision = 1.0 if k == 0 else 0.0
    else:
        precision = (k_hat - est_cover.count(0)) / k_hat
    recall = 1.0 if k == 0 else (k - true_cover.count(0)) / k
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)

    all_pairs = _pairs(n)
    same_both = _pairs(c11) + _pairs(c10) + _pairs(c01) + _pairs(c00)
    ri = (same_both + c11 * c00 + c10 * c01) / all_pairs
    deceptive = sum(_pairs(r - l + 1 - c) for (l, r), c in zip(true_ivs, true_cover))
    deceptive += sum(_pairs(r - l + 1 - c) for (l, r), c in zip(est_ivs, est_cover))
    return EvalReport(iou=iou, precision=precision, recall=recall, f1=f1, ri=ri,
                      mri=ri - deceptive / all_pairs, k_true=k, k_hat=k_hat,
                      runtime_ms=runtime_ms)


def format_csv(columns, rows: list[list[str]]) -> str:
    """A header of ``columns`` and the ``rows`` as CSV text, quoting any
    cell that holds a comma, quote or newline."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue()
