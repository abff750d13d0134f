"""Experiment runner: corpora, grids, timing benchmarks.

Everything here is seed-deterministic: stream seeds derive from the plan
seed and the (grid point, replication) pair, calibration seeds derive from
the calibration inputs, and rows are written in grid order.
"""

from __future__ import annotations

import csv
import math
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .calibration import ThresholdCert, calibrate_threshold
from .intervals import Segments
from .keys import TAG_BENCH, TAG_REPLICATION, mix
from .metrics import EVAL_COLUMNS, EvalReport, evaluate
from .schemes import SchemeSpec
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
    """A replicated grid experiment over one stream template."""

    n: int
    true_segments: Segments
    scheme: SchemeSpec
    ntp_model: NtpModel
    replications: int
    block_lens: tuple[int, ...]
    rhos: tuple[float, ...] = (0.5,)
    alphas: tuple[float, ...] = (0.05,)
    gammas: tuple[float, ...] = (0.1,)
    discard_c: float = 0.5
    mc_reps: int = 10_000
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
            "grid": {
                "block_len": list(self.block_lens),
                "rho": list(self.rhos),
                "alpha": list(self.alphas),
                "gamma": list(self.gammas),
            },
            "discard_c": self.discard_c,
            "mc_reps": self.mc_reps,
            "seed": self.seed,
            "include_timing": self.include_timing,
        }

    @classmethod
    def from_json(cls, data: dict) -> "ExperimentPlan":
        grid = data.get("grid", {})
        return cls(
            n=int(data["n"]),
            true_segments=Segments(data.get("true_segments", [])),
            scheme=SchemeSpec.from_json(data["scheme"]),
            ntp_model=NtpModel.from_json(data["ntp_model"]),
            replications=int(data.get("replications", 1)),
            block_lens=tuple(int(b) for b in grid.get("block_len", [])),
            rhos=tuple(float(x) for x in grid.get("rho", [0.5])),
            alphas=tuple(float(x) for x in grid.get("alpha", [0.05])),
            gammas=tuple(float(x) for x in grid.get("gamma", [0.1])),
            discard_c=float(data.get("discard_c", 0.5)),
            mc_reps=int(data.get("mc_reps", 10_000)),
            seed=int(data.get("seed", 0)),
            include_timing=bool(data.get("include_timing", True)),
        )


def _calibration_seed(plan_seed: int, n: int, block_len: int, alpha: float, mc_reps: int) -> int:
    alpha_bits = int(np.float64(alpha).view(np.uint64))
    return mix(plan_seed, 0xCA11B, n, block_len, alpha_bits, mc_reps)


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
            certs[b, alpha] = calibrate_threshold(
                plan.scheme, plan.n, b, alpha, mc_reps=plan.mc_reps,
                seed=_calibration_seed(plan.seed, plan.n, b, alpha, plan.mc_reps),
            )
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
              out_path: str | Path | None = None, alpha: float = 0.05,
              mc_reps: int = 10_000, scheme: SchemeSpec | None = None) -> list[list[str]]:
    """Wall-time scaling of the segmenter across stream lengths.

    One planted segment of length ceil(n/6) at a seeded random offset,
    block length ceil(sqrt(n)). Only the segmentation call is timed; stream
    generation, calibration and I/O are excluded.
    """
    if sorted(n_list) != list(n_list):
        raise ValueError("n_list must be sorted ascending")
    if reps < 1:
        raise ValueError("need at least one timing repetition")
    scheme = scheme or SchemeSpec("gumbel", vocab_size=100)
    ntp = NtpModel(kind="dirichlet", delta_cap=0.5)
    rows: list[list[str]] = []
    for n in n_list:
        b = math.ceil(math.sqrt(n))
        seg_len = math.ceil(n / 6)
        cert = calibrate_threshold(
            scheme, n, b, alpha, mc_reps=mc_reps,
            seed=_calibration_seed(seed, n, b, alpha, mc_reps),
        )
        config = SegmenterConfig(cert=cert)
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
