"""Experiment runner: corpora, grids, timing benchmarks.

Everything here is seed-deterministic: stream seeds derive from the plan
seed and the (grid point, replication) pair, thresholds come from the exact
null law, and rows are written in grid order.
"""

from __future__ import annotations

import csv
import math
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .calibration import DEFAULT_ALPHA, DEFAULT_MC_REPS, ThresholdCert, calibrate_threshold
from .intervals import Segments
from .keys import TAG_BENCH, TAG_REPLICATION, mix
from .metrics import EVAL_COLUMNS, EvalReport, evaluate
from .schemes import SchemeSpec, check_keys, read_fields
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

BENCH_COLUMNS = ("n", "b", "reps", "median_s", "lo95_s", "hi95_s")


@dataclass(frozen=True)
class ExperimentPlan:
    """A replicated grid experiment over one stream template. ``mc_reps``
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
            "n": int, "true_segments": Segments, "scheme": SchemeSpec.from_json,
            "ntp_model": NtpModel.from_json, "replications": int, "grid": _read_grid,
            "discard_c": float, "mc_reps": int, "seed": int, "include_timing": bool,
        }, "plan", required=("n", "scheme", "ntp_model", "grid"))
        return cls(**fields.pop("grid", {}), **fields)


# Plan JSON grid key -> (ExperimentPlan field, element type).
_GRID_FIELDS = {"block_len": ("block_lens", int), "rho": ("rhos", float),
                "alpha": ("alphas", float), "gamma": ("gammas", float)}


def _read_grid(grid: dict) -> dict:
    check_keys(grid, _GRID_FIELDS, "grid", required=("block_len",))
    return {_GRID_FIELDS[key][0]: tuple(map(_GRID_FIELDS[key][1], values))
            for key, values in grid.items()}


def _run_once(plan: ExperimentPlan, cert: ThresholdCert, grid_index: int, rep: int,
              rho: float, gamma: float) -> EvalReport:
    spec = StreamSpec(
        n=plan.n,
        true_segments=plan.true_segments,
        scheme=plan.scheme,
        ntp_model=plan.ntp_model,
        seed=mix(plan.seed, TAG_REPLICATION, grid_index, rep),
    )
    stream = generate_stream(spec)
    config = SegmenterConfig(cert=cert, rho=rho, gamma=gamma, discard_c=plan.discard_c)
    start = time.perf_counter()
    result = segment_series(stream.pivots, config)
    elapsed_ms = (time.perf_counter() - start) * 1e3
    return evaluate(
        plan.true_segments,
        result.segments,
        plan.n,
        runtime_ms=elapsed_ms if plan.include_timing else None,
    )


def _aggregate_row(kind: str, b: int, rho: float, alpha: float, gamma: float,
                   reports: list[EvalReport], model: str, scheme_id: str,
                   reduce_fn) -> list[str]:
    agg = EvalReport(
        iou=reduce_fn([r.iou for r in reports]),
        precision=reduce_fn([r.precision for r in reports]),
        recall=reduce_fn([r.recall for r in reports]),
        f1=reduce_fn([r.f1 for r in reports]),
        ri=reduce_fn([r.ri for r in reports]),
        mri=reduce_fn([r.mri for r in reports]),
        k_true=reports[0].k_true,
        k_hat=round(reduce_fn([r.k_hat for r in reports])),
        runtime_ms=(
            reduce_fn([r.runtime_ms for r in reports])
            if all(r.runtime_ms is not None for r in reports)
            else None
        ),
    )
    return _format_row(kind, b, rho, alpha, gamma, "", agg, model, scheme_id)


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

    Per grid point and replication: generate a stream, segment it against
    the certificate for that grid point's (block length, alpha), and
    evaluate. Each (block length, alpha) is calibrated once per call.
    Aggregate mean and median rows follow each grid point's runs.

    Replications run in order on the calling thread; ``jobs`` must be 1.
    The keyword goes away once the benchmark stops passing it.
    """
    if jobs != 1:
        raise ValueError("run_experiment runs replications in order; jobs must be 1")
    model = plan.ntp_model.describe()
    certs: dict[tuple[int, float], ThresholdCert] = {}
    rows: list[list[str]] = []
    for grid_index, (b, rho, alpha, gamma) in enumerate(plan.grid()):
        if (b, alpha) not in certs:
            certs[b, alpha] = calibrate_threshold(plan.scheme, plan.n, b, alpha)
        reports = [
            _run_once(plan, certs[b, alpha], grid_index, rep, rho, gamma)
            for rep in range(plan.replications)
        ]
        for rep, report in enumerate(reports):
            rows.append(_format_row("run", b, rho, alpha, gamma, rep, report,
                                    model, plan.scheme.scheme_id))
        rows.append(_aggregate_row("aggregate-mean", b, rho, alpha, gamma, reports,
                                   model, plan.scheme.scheme_id, statistics.fmean))
        rows.append(_aggregate_row("aggregate-median", b, rho, alpha, gamma, reports,
                                   model, plan.scheme.scheme_id, statistics.median))
    if out_path is not None:
        write_csv(out_path, EXPERIMENT_COLUMNS, rows)
    return rows


def run_bench(n_list: list[int], reps: int = 5, seed: int = 0,
              out_path: str | Path | None = None,
              alpha: float = DEFAULT_ALPHA) -> list[list[str]]:
    """Wall-time scaling of the segmenter across stream lengths.

    One planted segment of length ceil(n/6) at a seeded random offset in a
    gumbel (V=100) Dirichlet stream, block length ceil(sqrt(n)). Only the
    segmentation call is timed; stream generation, calibration and I/O are
    excluded.
    """
    if sorted(n_list) != list(n_list):
        raise ValueError("n_list must be sorted ascending")
    if reps < 1:
        raise ValueError("need at least one timing repetition")
    scheme, ntp = SchemeSpec("gumbel", vocab_size=100), NtpModel()
    rows: list[list[str]] = []
    for n in n_list:
        b = math.ceil(math.sqrt(n))
        seg_len = math.ceil(n / 6)
        config = SegmenterConfig(cert=calibrate_threshold(scheme, n, b, alpha))
        times = []
        for rep in range(reps):
            rng_seed = mix(seed, TAG_BENCH, n, rep)
            offset = int(np.random.Generator(np.random.PCG64(rng_seed)).integers(
                1, n - seg_len + 2
            ))
            spec = StreamSpec(
                n=n,
                true_segments=Segments([(offset, offset + seg_len - 1)], n=n),
                scheme=scheme,
                ntp_model=ntp,
                seed=rng_seed,
            )
            stream = generate_stream(spec)
            start = time.perf_counter()
            segment_series(stream.pivots, config)
            times.append(time.perf_counter() - start)
        lo, med, hi = np.quantile(times, [0.025, 0.5, 0.975])
        rows.append([str(n), str(b), str(reps), repr(float(med)), repr(float(lo)), repr(float(hi))])
    if out_path is not None:
        write_csv(out_path, BENCH_COLUMNS, rows)
    return rows


def write_csv(path: str | Path, columns, rows: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
