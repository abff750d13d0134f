"""Experiment runner: replicated grids over generated streams.

Every grid field (block length, rho, alpha, gamma) is a segmenter setting,
so each replication generates one stream and segments it at every grid
point. Each grid point still sees one independent stream per replication,
so its rows keep their law; differences between grid points are paired and
carry no stream-to-stream noise. Everything is seed-deterministic: a stream
seed derives from the plan seed and the replication, thresholds come from
the exact null law, and rows are written in grid order.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from pathlib import Path

from .calibration import DEFAULT_ALPHA, DEFAULT_MC_REPS, ThresholdCert, calibrate_threshold
from .intervals import Segments
from .keys import TAG_REPLICATION, check_seed, mix
from .metrics import EVAL_COLUMNS, METRIC_FIELDS, EvalReport, evaluate, format_csv
from .schemes import SchemeSpec, json_bool, json_float, json_int, read_fields
from .segmentation import SegmenterConfig, segment_series
from .streams import NtpModel, StreamSpec, generate_stream

METHOD_NAME = "wmseg"

EXPERIMENT_COLUMNS = (
    "kind",
    "b",
    "rho",
    "alpha",
    "gamma",
    "rep",
    *EVAL_COLUMNS,
    "k_true",
    "k_hat",
)


@dataclass(frozen=True)
class ExperimentPlan:
    """A replicated grid experiment over one stream template: each of the
    ``replications`` streams is segmented at every grid point. ``mc_reps``
    is still read and written but changes nothing: calibration is exact."""

    n: int
    scheme: SchemeSpec
    ntp_model: NtpModel
    block_lens: tuple[int, ...]
    true_segments: Segments = Segments()
    replications: int = 1
    rhos: tuple[float, ...] = (SegmenterConfig.rho,)
    alphas: tuple[float, ...] = (DEFAULT_ALPHA,)
    gammas: tuple[float, ...] = (SegmenterConfig.gamma,)
    discard_c: float = SegmenterConfig.discard_c
    mc_reps: int = DEFAULT_MC_REPS
    seed: int = 0
    include_timing: bool = True

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError("need at least one replication")
        if not (self.block_lens and self.rhos and self.alphas and self.gammas):
            raise ValueError("empty parameter grid")
        check_seed(self.seed)

    def grid(self) -> list[tuple[int, float, float, float]]:
        return [
            (b, rho, alpha, gamma)
            for b in self.block_lens
            for rho in self.rhos
            for alpha in self.alphas
            for gamma in self.gammas
        ]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "true_segments": self.true_segments.to_pairs(),
            "scheme": self.scheme.to_json(),
            "ntp_model": self.ntp_model.to_json(),
            "replications": self.replications,
            "grid": {key: list(getattr(self, name)) for key, (name, _) in _GRID_FIELDS.items()},
            "discard_c": self.discard_c,
            "mc_reps": self.mc_reps,
            "seed": self.seed,
            "include_timing": self.include_timing,
        }

    @classmethod
    def from_json(cls, data: dict) -> "ExperimentPlan":
        """Read ``to_json`` output; ``n``, ``scheme``, ``ntp_model`` and
        ``grid.block_len`` are required, other keys left out take the field
        defaults."""
        fields = read_fields(data, {
            "n": json_int, "true_segments": Segments, "scheme": SchemeSpec.from_json,
            "ntp_model": NtpModel.from_json, "replications": json_int, "grid": _read_grid,
            "discard_c": json_float, "mc_reps": json_int, "seed": json_int,
            "include_timing": json_bool,
        }, "plan", required=("n", "scheme", "ntp_model", "grid"))
        return cls(**fields.pop("grid", {}), **fields)


# Plan JSON grid key -> (ExperimentPlan field, element reader).
_GRID_FIELDS = {"block_len": ("block_lens", json_int), "rho": ("rhos", json_float),
                "alpha": ("alphas", json_float), "gamma": ("gammas", json_float)}


def _read_grid(grid: dict) -> dict:
    readers = {key: lambda values, read=read: tuple(map(read, values))
               for key, (_, read) in _GRID_FIELDS.items()}
    fields = read_fields(grid, readers, "grid", required=("block_len",))
    return {_GRID_FIELDS[key][0]: values for key, values in fields.items()}


def _segment_everywhere(plan: ExperimentPlan, certs: dict[tuple[int, float], ThresholdCert],
                        rep: int) -> list[EvalReport]:
    """Generate replication ``rep``'s stream and evaluate it at every grid point."""
    # The 0 is the first grid point's slot in the seed.
    spec = StreamSpec(n=plan.n, true_segments=plan.true_segments, scheme=plan.scheme,
                      ntp_model=plan.ntp_model, seed=mix(plan.seed, TAG_REPLICATION, 0, rep))
    pivots = generate_stream(spec).pivots  # hold no Stream (nor its keys) past this line
    reports = []
    for b, rho, alpha, gamma in plan.grid():
        config = SegmenterConfig(cert=certs[b, alpha], rho=rho, gamma=gamma,
                                 discard_c=plan.discard_c)
        start = time.perf_counter()
        result = segment_series(pivots, config)
        elapsed_ms = (time.perf_counter() - start) * 1e3
        reports.append(evaluate(plan.true_segments, result.segments, plan.n,
                                runtime_ms=elapsed_ms if plan.include_timing else None))
    return reports


_AGGREGATES = (("aggregate-mean", statistics.fmean), ("aggregate-median", statistics.median))


def _aggregate(reports: tuple[EvalReport, ...], reduce_fn) -> EvalReport:
    """The runs' reports reduced field by field with ``reduce_fn``: k_hat is
    rounded, k_true is shared, and runtime_ms is None unless every run was
    timed."""
    timed = all(r.runtime_ms is not None for r in reports)
    return EvalReport(
        **{name: reduce_fn([getattr(r, name) for r in reports]) for name in METRIC_FIELDS},
        k_true=reports[0].k_true,
        k_hat=round(reduce_fn([r.k_hat for r in reports])),
        runtime_ms=reduce_fn([r.runtime_ms for r in reports]) if timed else None,
    )


def _format_row(kind: str, b: int, rho: float, alpha: float, gamma: float,
                rep, report: EvalReport, model: str, scheme_id: str) -> list[str]:
    return [
        kind,
        str(b),
        repr(rho),
        repr(alpha),
        repr(gamma),
        str(rep),
        *report.csv_row(model, scheme_id, METHOD_NAME),
        str(report.k_true),
        str(report.k_hat),
    ]


def run_experiment(plan: ExperimentPlan, out_path: str | Path | None = None, *,
                   jobs: int = 1) -> list[list[str]]:
    """Run the grid experiment; returns (and optionally writes) all CSV rows.

    Each (block length, alpha) is calibrated once per call. Per replication:
    generate one stream, then segment it against every grid point's
    certificate and evaluate. The rows then follow in grid order: each grid
    point's runs, then their mean and median.

    Replications run in order on the calling thread; ``jobs`` must be 1.
    The keyword goes away once the benchmark stops passing it.
    """
    if jobs != 1:
        raise ValueError("run_experiment runs replications in order; jobs must be 1")
    model = plan.ntp_model.describe()
    certs = {key: calibrate_threshold(plan.scheme, plan.n, *key)
             for key in dict.fromkeys((b, alpha) for b, _, alpha, _ in plan.grid())}
    by_rep = [_segment_everywhere(plan, certs, rep) for rep in range(plan.replications)]
    rows: list[list[str]] = []
    for point, reports in zip(plan.grid(), zip(*by_rep)):
        labelled = [("run", rep, report) for rep, report in enumerate(reports)]
        labelled += [(kind, "", _aggregate(reports, reduce_fn)) for kind, reduce_fn in _AGGREGATES]
        rows += [_format_row(kind, *point, rep, report, model, plan.scheme.scheme_id)
                 for kind, rep, report in labelled]
    if out_path is not None:
        Path(out_path).write_text(format_csv(EXPERIMENT_COLUMNS, rows), encoding="utf-8",
                                  newline="")
    return rows
