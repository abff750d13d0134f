"""The benchmark's workloads and the closed loop that times them.

Each workload builds its inputs from the workload seed in ``setup`` and then
runs a fixed list of operations per *pass*. One caller on one thread waits
for each result before sending the next (a closed loop with one client).
Passes repeat until the requested seconds have elapsed; every pass repeats
the same operations on the same inputs, so means over passes and ops are
comparable across runs, and the quality metrics (taken from the first pass)
are a deterministic function of the seed.

* ``verify``     — the verifier's read path over generated JSONL streams:
                   read -> score_tokens -> segment_series -> evaluate.
* ``experiment`` — paper-table reproduction through ``harness.run_experiment``.
* ``certify``    — threshold calibration and the segmenter over a ladder of n,
                   on score series drawn by the benchmark (no keys at all).

Every output is checked; an op with a failed check or an exception counts
once toward ``failed`` and the run is not ``correct``.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import stats

from wmseg import calibration, harness, metrics, segmentation, streams
from wmseg.intervals import Segments
from wmseg.schemes import SCHEME_IDS, PivotSeries, SchemeSpec
from wmseg.segmentation import SegmenterConfig
from wmseg.streams import NtpModel, StreamSpec

from tracing import LAYER_METRICS, Tracer

ALPHA = 0.05
SETUP_REPEATS = 3
# Coverage tolerance of the certificate check: the MC quantile's coverage
# has a standard error of sqrt(alpha (1 - alpha) / 10^4) ~ 0.0022.
COVERAGE_TOL = 0.01
clock = time.perf_counter


@dataclass(frozen=True)
class Size:
    """Input sizes of all workloads. ``full`` is the benchmark; ``smoke`` is
    only for the benchmark's own tests."""

    mc_reps: int
    verify_n: int
    verify_vocabs: tuple[int, ...]
    verify_planted: int  # planted streams per (scheme, V)
    verify_null: tuple[int, ...]  # null streams per (scheme, V), aligned with vocabs
    exp_n: int
    exp_block_lens: tuple[int, ...]
    exp_reps: int
    cert_ladder: tuple[int, ...]
    cert_series: int  # planted and, separately, null series per (scheme, n)


SIZES = {
    "full": Size(
        mc_reps=10_000,
        verify_n=1000,
        verify_vocabs=(20, 1000),
        verify_planted=2,
        verify_null=(3, 1),
        exp_n=1000,
        exp_block_lens=(25, 40),
        exp_reps=3,
        cert_ladder=(1000, 4000, 16000),
        cert_series=8,
    ),
    "smoke": Size(
        mc_reps=500,
        verify_n=200,
        verify_vocabs=(20, 200),
        verify_planted=1,
        verify_null=(1, 1),
        exp_n=200,
        exp_block_lens=(10, 15),
        exp_reps=2,
        cert_ladder=(300, 1200),
        cert_series=2,
    ),
}


def rng_for(seed: int, *tags: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *tags])))


def draw_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63))


def random_segments(rng: np.random.Generator, n: int, k: int) -> Segments:
    """k disjoint segments, one inside each of k equal zones of [1, n],
    each 40-70 % of its zone long."""
    zone = n // k
    pairs = []
    for i in range(k):
        length = int(rng.integers(int(0.4 * zone), int(0.7 * zone) + 1))
        start = i * zone + 1 + int(rng.integers(0, zone - length + 1))
        pairs.append((start, start + length - 1))
    return Segments(pairs, n=n)


def elevated_scores(scheme: SchemeSpec, rng: np.random.Generator, size: int) -> np.ndarray:
    """The benchmark's watermarked-score law: the max of three null draws.

    Scheme-agnostic and strictly above the null in mean (Exp(1) -> mean 11/6,
    Bernoulli(p) -> Bernoulli(1 - (1-p)^3)).
    """
    return np.max([scheme.null_scores(rng, size) for _ in range(3)], axis=0)


def max_block_sum(scores: np.ndarray, block_len: int) -> float:
    return float(np.add.reduceat(scores, np.arange(0, scores.size, block_len)).max())


# ---------------------------------------------------------------------------
# Output checks: each returns a list of problems (empty when the output is fine)
# ---------------------------------------------------------------------------


def segment_problems(segments: Segments, n: int) -> list[str]:
    """Segments must be 1-based, sorted, disjoint and inside [1, n]."""
    problems, prev_right = [], 0
    for left, right in segments:
        if not 1 <= left <= right <= n:
            problems.append(f"segment [{left}, {right}] outside [1, {n}]")
        if left <= prev_right:
            problems.append(f"segment [{left}, {right}] overlaps or precedes its neighbour")
        prev_right = right
    return problems


def cert_problems(cert, scheme: SchemeSpec, n: int, block_len: int) -> list[str]:
    problems = []
    if not math.isfinite(cert.q):
        problems.append(f"certificate q={cert.q} is not finite")
    if (cert.n, cert.block_len, cert.alpha) != (n, block_len, ALPHA):
        problems.append(
            f"certificate (n, b, alpha)=({cert.n}, {cert.block_len}, {cert.alpha}) "
            f"used for ({n}, {block_len}, {ALPHA})"
        )
    if cert.scheme_id != scheme.scheme_id or cert.scheme_params != scheme.to_json():
        problems.append(f"certificate for {cert.scheme_params} used on {scheme.to_json()}")
    return problems


def coverage_problems(cert, scheme: SchemeSpec) -> list[str]:
    """Check q against the closed-form null law of the max block sum.

    Gumbel block sums are Gamma(b, 1) and red_green sums Binomial(b, p), so
    P(max <= q) = F_b(q)^(m-1) F_r(q) with a short last block of r tokens.
    The inverse law has no closed form here; only its range is checked.
    """
    n, b = cert.n, cert.block_len
    m, r = math.ceil(n / b), n - (math.ceil(n / b) - 1) * b
    level = 1.0 - cert.alpha
    if scheme.scheme_id == "gumbel":
        cover = stats.gamma.cdf(cert.q, b) ** (m - 1) * stats.gamma.cdf(cert.q, r)
        if abs(cover - level) > COVERAGE_TOL:
            return [f"gumbel q={cert.q} covers {cover:.4f}, expected {level}"]
    elif scheme.scheme_id == "red_green":
        p = scheme.null_mean

        def cover(q):
            return stats.binom.cdf(q, b, p) ** (m - 1) * stats.binom.cdf(q, r, p)

        if cover(cert.q) < level - COVERAGE_TOL or cover(cert.q - 1) > level + COVERAGE_TOL:
            return [f"red_green q={cert.q} is not the {level} quantile"]
    elif not b * scheme.null_mean < cert.q <= b:
        return [f"inverse q={cert.q} outside ({b * scheme.null_mean}, {b}]"]
    return []


def metric_problems(iou: float, precision: float, recall: float, f1: float) -> list[str]:
    """IoU and precision are fractions. Recall and F1 are only nonnegative:
    ``precision_recall_f1`` counts *estimated* intervals that hit the truth,
    so recall exceeds 1 when one true segment is split into several pieces
    (see ``recall_above_one_rate``)."""
    problems = []
    if not all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in (iou, precision)):
        problems.append(f"iou={iou}, precision={precision} outside [0, 1]")
    if not all(math.isfinite(v) and v >= 0.0 for v in (recall, f1)):
        problems.append(f"recall={recall}, f1={f1} not finite and nonnegative")
    return problems


class SpeedProbe:
    """Measures the host's current speed with a short fixed CPU probe.

    Shared hosts switch between speed states that last tens of seconds. On
    a shared 2-vCPU VM, identical experiment passes took 1.0 s in one state
    and 1.5 s in the other, and this probe slowed down with them. The probe
    is an interpreter loop plus a bulk numpy draw, about 6 ms, and does not
    touch wmseg. It runs between ops at most every INTERVAL_S and once more
    after any op longer than that, so its samples spread evenly over time.
    Timings are scaled by ``factor``: REF_S over the mean probe time of the
    same stretch. Of the estimators tried on 150 s recordings, this ratio of
    means varied least between 15-30 s windows, since both means mix the
    states in proportion to time (figures in README.md).
    """

    INTERVAL_S = 0.5
    REF_S = 0.006

    def __init__(self):
        self._rng = np.random.default_rng(0)
        self._last = -math.inf
        self.samples: list[float] = []

    def measure(self) -> None:
        t0 = clock()
        total = 0
        for k in range(40_000):
            total += k * k
        self._rng.standard_exponential(400_000).sum()
        self._last = clock()
        self.samples.append(self._last - t0)

    def maybe(self) -> None:
        if clock() - self._last >= self.INTERVAL_S:
            self.measure()

    def factor(self, first: int) -> float:
        """Scale for times measured while samples[first:] were taken."""
        return self.REF_S / statistics.fmean(self.samples[first:])


class Ledger:
    """Runs ops: counts attempted and failed ones (failures go to stderr,
    never dropped), and keeps their raw timings.

    An op returns (problems, timings): the failed checks and the durations,
    in seconds, of the calls it timed. The probe runs around ops, never
    inside one, so no timing includes it.
    """

    def __init__(self, probe: SpeedProbe):
        self.probe = probe
        self.attempted = 0
        self.failed = 0
        self.wall = 0.0
        self.ms: dict[str, list[float]] = {}

    def op(self, label: str, fn) -> None:
        self.probe.maybe()
        self.attempted += 1
        t0 = clock()
        try:
            problems, timings = fn()
        except Exception:
            problems, timings = ["raised:\n" + traceback.format_exc()], {}
        self.wall += clock() - t0
        self.probe.maybe()
        for name, seconds in timings.items():
            self.ms.setdefault(name, []).append(seconds * 1e3)
        if problems:
            self.failed += 1
            print(f"[{label}] failed: {'; '.join(problems)}", file=sys.stderr)


@dataclass
class Quality:
    """Per-item outcomes from the first pass (deterministic at a fixed seed)."""

    iou: list[float] = field(default_factory=list)
    f1: list[float] = field(default_factory=list)
    recall_above_one: list[bool] = field(default_factory=list)
    null_false_segment: list[bool] = field(default_factory=list)
    null_screen_exceed: list[bool] = field(default_factory=list)

    def add_planted(self, iou: float, recall: float, f1: float) -> None:
        self.iou.append(iou)
        self.f1.append(f1)
        self.recall_above_one.append(recall > 1.0)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass
class _StreamInput:
    path: Path
    truth: Segments


class Verify:
    """Verifier read path over a fixed mix of generated streams.

    The mix covers all three schemes, a tens-of-tokens vocabulary (repeated
    contexts) and V=1000, streams with three planted segments and fully
    unwatermarked ones. Generation, JSONL writing and one certificate per
    (scheme params, n, b) happen in set-up.
    """

    OP = "stream"  # the op of op_mean_ms

    def __init__(self, seed: int, size: Size, workdir: Path):
        self.seed, self.size = seed, size
        self.dir = workdir / "verify-inputs"
        self.n = size.verify_n
        self.block_len = math.ceil(math.sqrt(self.n))
        self.quality = Quality()
        self._first: dict[int, tuple] = {}

    def setup(self) -> str:
        size, n = self.size, self.n
        self.dir.mkdir(parents=True, exist_ok=True)
        rng = rng_for(self.seed, 1)
        digest = hashlib.sha256()
        self.inputs: list[_StreamInput] = []
        self.configs: dict[str, SegmenterConfig] = {}
        for scheme_id in SCHEME_IDS:
            for vocab, nulls in zip(size.verify_vocabs, size.verify_null):
                scheme = SchemeSpec(scheme_id, vocab)
                for j in range(size.verify_planted + nulls):
                    planted = j < size.verify_planted
                    truth = random_segments(rng, n, 3) if planted else Segments()
                    spec = StreamSpec(n, truth, scheme, NtpModel(), seed=draw_seed(rng))
                    path = self.dir / f"{len(self.inputs):02d}-{scheme_id}-V{vocab}.jsonl"
                    streams.write_stream_jsonl(path, streams.generate_stream(spec))
                    digest.update(path.read_bytes())
                    self.inputs.append(_StreamInput(path, truth))
                cert = calibration.calibrate_threshold(
                    scheme, n, self.block_len, ALPHA, mc_reps=size.mc_reps, seed=draw_seed(rng)
                )
                digest.update(json.dumps(cert.to_json(), sort_keys=True).encode())
                self.configs[self._cert_key(scheme)] = SegmenterConfig(cert=cert)
        return digest.hexdigest()

    @staticmethod
    def _cert_key(scheme: SchemeSpec) -> str:
        return json.dumps(scheme.to_json(), sort_keys=True)

    def tokens_per_pass(self) -> int:
        return self.n * len(self.inputs)

    def run_pass(self, ledger: Ledger, tracer) -> None:
        for i, item in enumerate(self.inputs):
            if tracer is not None:
                tracer.op = i
            ledger.op(f"verify stream {item.path.name}", lambda: self._stream_op(i, item))

    def _stream_op(self, i: int, item: _StreamInput):
        t0 = clock()
        stream = streams.read_stream_jsonl(item.path)
        series = streams.score_tokens(stream.tokens, stream.seed, stream.scheme)
        config = self.configs[self._cert_key(stream.scheme)]
        result = segmentation.segment_series(series, config)
        report = metrics.evaluate(stream.true_segments, result.segments, series.n)
        elapsed = clock() - t0

        n = self.n
        problems = []
        if stream.true_segments != item.truth or stream.tokens.size != n:
            problems.append("stream file does not read back as written")
        if series.n != n or not np.all(np.isfinite(series.scores)):
            problems.append(f"score_tokens returned {series.n} scores, not {n} finite ones")
        problems += cert_problems(config.cert, stream.scheme, n, self.block_len)
        problems += segment_problems(result.segments, n)
        problems += metric_problems(report.iou, report.precision, report.recall, report.f1)
        outcome = (result.segments, report.iou, report.f1)
        if i not in self._first:
            self._first[i] = outcome
            if item.truth:
                self.quality.add_planted(report.iou, report.recall, report.f1)
            else:
                self.quality.null_false_segment.append(result.k_hat > 0)
                exceed = max_block_sum(series.scores, self.block_len) > config.cert.q
                self.quality.null_screen_exceed.append(exceed)
        elif outcome != self._first[i]:
            problems.append("result differs from the first pass on identical input")
        return problems, {"stream": elapsed}

    def report(self, ms: dict[str, list[float]]) -> dict:
        return {
            "stream_p50_ms": timing(ms["stream"], "ms", 50),
            "stream_p90_ms": timing(ms["stream"], "ms", 90),
        }


class Experiment:
    """``run_experiment`` on one gumbel / V=1000 / Dirichlet plan with planted
    segments, a two-point block-length grid, jobs=1 and no cache dir."""

    OP = "run_experiment"  # the op of op_mean_ms: the whole pass

    def __init__(self, seed: int, size: Size, workdir: Path):
        self.seed, self.size = seed, size
        self.quality = Quality()
        self._first_rows = None

    def _plan_json(self, rng, n: int, block_lens, reps: int) -> dict:
        return {
            "n": n,
            "true_segments": random_segments(rng, n, 2).to_pairs(),
            "scheme": SchemeSpec("gumbel", 1000).to_json(),
            "ntp_model": NtpModel(kind="dirichlet").to_json(),
            "replications": reps,
            "grid": {"block_len": list(block_lens)},
            "mc_reps": self.size.mc_reps,
            "seed": draw_seed(rng),
        }

    def setup(self) -> str:
        size = self.size
        rng = rng_for(self.seed, 2)
        plan_json = self._plan_json(rng, size.exp_n, size.exp_block_lens, size.exp_reps)
        self.plan = harness.ExperimentPlan.from_json(plan_json)
        # One small replication of the same plan warms every code path
        # before timing starts.
        warm = harness.ExperimentPlan.from_json(
            self._plan_json(rng, size.exp_n // 4, size.exp_block_lens[:1], 1)
        )
        rows = harness.run_experiment(warm, jobs=1)
        if len(rows) != 3:
            raise RuntimeError(f"warm-up run_experiment returned {len(rows)} rows, not 3")
        return hashlib.sha256(json.dumps(plan_json, sort_keys=True).encode()).hexdigest()

    def tokens_per_pass(self) -> int:
        return self.plan.n * len(self.plan.grid()) * self.plan.replications

    def run_pass(self, ledger: Ledger, tracer) -> None:
        if tracer is not None:
            tracer.op = 0
        ledger.op("experiment run_experiment", self._experiment_op)

    def _experiment_op(self):
        plan = self.plan
        t0 = clock()
        rows = harness.run_experiment(plan, jobs=1)
        timings = {"run_experiment": clock() - t0}

        col = {name: i for i, name in enumerate(harness.EXPERIMENT_COLUMNS)}
        expected = len(plan.grid()) * (plan.replications + 2)
        if len(rows) != expected:
            return [f"run_experiment returned {len(rows)} rows, expected {expected}"], timings
        problems = []
        runs = [row for row in rows if row[col["kind"]] == "run"]
        if len(runs) != len(plan.grid()) * plan.replications:
            problems.append(f"{len(runs)} run rows, expected {len(plan.grid()) * plan.replications}")
        for row in rows:
            if len(row) != len(col):
                problems.append(f"row has {len(row)} columns, expected {len(col)}")
                continue
            problems += metric_problems(
                *(float(row[col[k]]) for k in ("iou", "precision", "recall", "f1"))
            )
            if int(row[col["k_true"]]) != len(plan.true_segments):
                problems.append(f"row k_true={row[col['k_true']]} for {len(plan.true_segments)}")
        untimed = [row[: col["runtime_ms"]] + row[col["runtime_ms"] + 1 :] for row in rows]
        if self._first_rows is None:
            self._first_rows = untimed
            for row in runs:
                self.quality.add_planted(*(float(row[col[k]]) for k in ("iou", "recall", "f1")))
        elif untimed != self._first_rows:
            problems.append("rows differ from the first pass for the same plan")
        return problems, timings

    def report(self, ms: dict[str, list[float]]) -> dict:
        return {}


@dataclass
class _Rung:
    scheme: SchemeSpec
    n: int
    block_len: int
    cal_seed: int
    series: list[PivotSeries]
    truths: list[Segments]
    block_max: list[float]


class Certify:
    """Certificates over a ladder of n for each scheme, then the segmenter on
    benchmark-drawn score series (null parts from ``SchemeSpec.null_scores``,
    planted parts from ``elevated_scores``; half the series are null only)."""

    OP = "segment"  # the op of op_mean_ms: one segment_series call

    def __init__(self, seed: int, size: Size, workdir: Path):
        self.seed, self.size = seed, size
        self.quality = Quality()
        self._first_q: dict[int, float] = {}
        self._first_seg: dict[tuple[int, int], Segments] = {}

    def setup(self) -> str:
        digest = hashlib.sha256()
        self.rungs: list[_Rung] = []
        for si, scheme_id in enumerate(SCHEME_IDS):
            scheme = SchemeSpec(scheme_id, 1000)
            for n in self.size.cert_ladder:
                b = math.ceil(math.sqrt(n))
                rng = rng_for(self.seed, 3, si, n)
                rung = _Rung(scheme, n, b, draw_seed(rng), [], [], [])
                for j in range(2 * self.size.cert_series):
                    truth = random_segments(rng, n, 2) if j % 2 == 0 else Segments()
                    scores = scheme.null_scores(rng, n)
                    for left, right in truth:
                        scores[left - 1 : right] = elevated_scores(scheme, rng, right - left + 1)
                    rung.series.append(PivotSeries(scores, scheme.null_mean, scheme_id))
                    rung.truths.append(truth)
                    rung.block_max.append(max_block_sum(scores, b))
                    digest.update(scores.tobytes())
                    digest.update(repr(truth.to_pairs()).encode())
                self.rungs.append(rung)
        return digest.hexdigest()

    def tokens_per_pass(self) -> int:
        return sum(r.n * len(r.series) for r in self.rungs)

    def run_pass(self, ledger: Ledger, tracer) -> None:
        op_id = 0
        for ri, rung in enumerate(self.rungs):
            if tracer is not None:
                tracer.op = op_id
            op_id += 1
            label = f"certify {rung.scheme.scheme_id} n={rung.n}"
            self._cert = None  # set by the calibrate op when its checks pass
            ledger.op(f"{label} calibrate", lambda: self._cert_op(ri, rung))
            for j in range(len(rung.series)):
                if tracer is not None:
                    tracer.op = op_id
                op_id += 1
                ledger.op(f"{label} series {j}", lambda: self._segment_op(ri, rung, j))

    def _cert_op(self, ri: int, rung: _Rung):
        t0 = clock()
        cert = calibration.calibrate_threshold(
            rung.scheme, rung.n, rung.block_len, ALPHA, mc_reps=self.size.mc_reps,
            seed=rung.cal_seed,
        )
        timings = {"cert": clock() - t0}
        problems = cert_problems(cert, rung.scheme, rung.n, rung.block_len)
        if self.size.mc_reps >= 10_000:
            problems += coverage_problems(cert, rung.scheme)
        if self._first_q.setdefault(ri, cert.q) != cert.q:
            problems.append("certificate differs from the first pass for the same seed")
        self._cert = None if problems else cert
        return problems, timings

    def _segment_op(self, ri: int, rung: _Rung, j: int):
        cert = self._cert
        if cert is None:
            return ["no valid certificate for this rung"], {}
        config = SegmenterConfig(cert=cert)
        t0 = clock()
        result = segmentation.segment_series(rung.series[j], config)
        timings = {"segment": clock() - t0}
        truth = rung.truths[j]
        report = metrics.evaluate(truth, result.segments, rung.n)
        problems = segment_problems(result.segments, rung.n)
        problems += metric_problems(report.iou, report.precision, report.recall, report.f1)
        first = self._first_seg.setdefault((ri, j), result.segments)
        if first is result.segments:
            if truth:
                self.quality.add_planted(report.iou, report.recall, report.f1)
            else:
                self.quality.null_false_segment.append(result.k_hat > 0)
                self.quality.null_screen_exceed.append(rung.block_max[j] > cert.q)
        elif first != result.segments:
            problems.append("segments differ from the first pass on identical input")
        return problems, timings

    def report(self, ms: dict[str, list[float]]) -> dict:
        return {
            "cert_p50_ms": timing(ms["cert"], "ms", 50),
            "segment_p50_ms": timing(ms["segment"], "ms", 50),
            "segment_p90_ms": timing(ms["segment"], "ms", 90),
        }


WORKLOADS = {"verify": Verify, "experiment": Experiment, "certify": Certify}


# ---------------------------------------------------------------------------
# Statistics and the closed loop
# ---------------------------------------------------------------------------


def timing(samples: list[float], unit: str, pct: int) -> dict:
    """Percentile of a timing sample, reported only when at least ten samples
    lie beyond it (the median always)."""
    n = len(samples)
    if pct != 50 and n * (100 - pct) / 100 < 10:
        return {"value": None, "unit": unit, "n": n, "note": "too few samples beyond"}
    return {"value": float(np.percentile(samples, pct)), "unit": unit, "n": n}


def share(flags: list[bool]) -> dict:
    k, n = sum(flags), len(flags)
    return {"value": k / n if n else None, "unit": "ratio", "k": k, "n": n}


def mean_of(values: list[float]) -> dict:
    return {"value": statistics.fmean(values) if values else None, "unit": "ratio", "n": len(values)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class RunResult:
    attempted: int
    failed: int
    metrics: dict  # name -> {"value", "unit"}: what the last line carries
    report: dict  # every metric of the workload, with sample counts
    samples_ms: dict  # raw op timings by name, in run order


def _timed_pass(workload, ledger: Ledger, tracer=None) -> float:
    """Run one pass; its raw wall time, summed over its ops."""
    before = ledger.wall
    workload.run_pass(ledger, tracer)
    return ledger.wall - before


def run(name: str, seed: int, seconds: float, trace: bool, size: str, workdir: Path,
        trace_path: Path | None = None) -> RunResult:
    """Set up the workload SETUP_REPEATS times, then run passes for ``seconds``.

    Untraced, the result carries the end-to-end metrics. Traced, passes
    alternate untraced / traced and the result carries the per-layer metrics
    (per traced pass) and the tracing overhead. Every time is speed-scaled.
    """
    workload = WORKLOADS[name](seed, SIZES[size], workdir)
    probe = SpeedProbe()
    ledger = Ledger(probe)
    setup_s, setup_raw, digests = [], [], []
    for _ in range(SETUP_REPEATS):
        probe.measure()
        t0 = clock()
        digests.append(workload.setup())
        elapsed = clock() - t0
        probe.measure()
        setup_raw.append(elapsed)
        setup_s.append(elapsed * probe.factor(len(probe.samples) - 2))
    ledger.op("setup determinism", lambda: ([] if len(set(digests)) == 1 else
              ["repeated set-up from one seed gave different inputs"], {}))
    first_probe = len(probe.samples)
    probe.measure()  # the timed stretch is bracketed by probes

    if trace:
        tracer = Tracer()
        untraced, traced = [], []
        start = clock()
        while True:
            untraced.append(_timed_pass(workload, ledger))
            with tracer.installed():
                traced.append(_timed_pass(workload, ledger, tracer))
            tracer.end_pass()
            if clock() - start >= seconds:
                break
        probe.measure()
        layer = tracer.metrics(traced, untraced)
        factor = probe.factor(first_probe)
        out = {}
        for key, (unit, _) in LAYER_METRICS.items():
            value = layer[key] * factor if unit == "s" else layer[key]
            out[key] = {"value": value, "unit": unit}
        if trace_path is not None:
            tracer.save(trace_path)
        report = dict(out)
        report["trace.passes"] = {"value": len(traced), "unit": "count"}
        report["speed.factor"] = {"value": factor, "unit": "ratio", "n": len(probe.samples)}
        return RunResult(ledger.attempted, ledger.failed, out, report, ledger.ms)

    walls = []
    start = clock()
    while True:
        walls.append(_timed_pass(workload, ledger))
        if clock() - start >= seconds:
            break
    probe.measure()
    factor = probe.factor(first_probe)
    op_ms = ledger.ms[workload.OP]
    q = workload.quality
    report = {
        "setup_s": {"value": statistics.median(setup_s), "unit": "s", "n": len(setup_s)},
        "wall_s": {"value": statistics.fmean(walls) * factor, "unit": "s", "n": len(walls)},
        "tokens_per_s": {
            "value": workload.tokens_per_pass() * len(walls) / (sum(walls) * factor),
            "unit": "tokens/s",
            "n": len(walls),
        },
        "op_mean_ms": {"value": statistics.fmean(op_ms) * factor, "unit": "ms", "n": len(op_ms)},
        **workload.report({k: [v * factor for v in vs] for k, vs in ledger.ms.items()}),
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB", "n": 1},
        "mean_iou": mean_of(q.iou),
        "mean_f1": mean_of(q.f1),
        "recall_above_one_rate": share(q.recall_above_one),
    }
    if name != "experiment":
        report["null_false_segment_rate"] = share(q.null_false_segment)
        report["null_screen_exceed_rate"] = share(q.null_screen_exceed)
    report["error_rate"] = {
        "value": ledger.failed / ledger.attempted,
        "unit": "ratio",
        "k": ledger.failed,
        "n": ledger.attempted,
    }
    report["raw.setup_s"] = {"value": statistics.median(setup_raw), "unit": "s", "n": len(setup_raw)}
    report["raw.wall_s"] = {"value": statistics.fmean(walls), "unit": "s", "n": len(walls)}
    report["speed.factor"] = {
        "value": factor, "unit": "ratio", "n": len(probe.samples) - first_probe
    }
    gated = ("setup_s", "wall_s", "tokens_per_s", "op_mean_ms", "peak_rss_mb", "mean_iou")
    out = {k: {"value": report[k]["value"], "unit": report[k]["unit"]} for k in gated}
    return RunResult(ledger.attempted, ledger.failed, out, report, ledger.ms)
