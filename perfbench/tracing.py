"""Span tracing of wmseg's layers, installed from the benchmark's side.

Every traced function is wrapped at the name its caller resolves it by: a
module global (``wmseg.streams.key_seed``, ``wmseg.harness.calibrate_threshold``)
or a class attribute (``SchemeSpec.key_at``). The package itself is not
modified, and uninstalling restores the original objects.

A span records its layer, start, end, parent span and the op id the workload
was running. Spans stay in memory (compact ``array`` columns) and are written
out once, at the end. Counters are taken at the same boundaries, after the
span has closed, so they never inflate the layer's own time.
"""

from __future__ import annotations

import functools
import os
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

from wmseg import calibration, harness, metrics, schemes, segmentation, streams


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_runs(selected) -> int:
    """Runs of consecutive indices in a set of selected block indices."""
    ks = np.unique(np.asarray(selected, dtype=int))
    return 0 if ks.size == 0 else 1 + int(np.count_nonzero(np.diff(ks) > 1))


def _key_nbytes(key) -> int:
    return sum(v.nbytes for v in vars(key).values() if isinstance(v, np.ndarray))


# Counters: (tally, args, kwargs, result) -> None, run after the span closes.


def _c_key_at(t, args, kwargs, result):
    t["seeds"].add(_arg(args, kwargs, 1, "seed"))


def _c_generate(t, args, kwargs, result):
    t["tokens"] += result.tokens.size
    if result.keys:
        t["key_bytes"] += len(result.keys) * _key_nbytes(result.keys[0])


def _c_score(t, args, kwargs, result):
    t["tokens"] += result.n


def _c_read(t, args, kwargs, result):
    t["bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _c_simulate(t, args, kwargs, result):
    n = _arg(args, kwargs, 1, "n")
    reps = _arg(args, kwargs, 3, "reps")
    t["draws"] += n * reps


def _c_len(key: str) -> Callable:
    def count(t, args, kwargs, result):
        t[key] += len(result)

    return count


def _c_discard(t, args, kwargs, result):
    t["runs_in"] += _count_runs(_arg(args, kwargs, 0, "selected"))
    t["kept"] += len(result)


def _c_signal(t, args, kwargs, result):
    t["floored"] += int(result[1])


def _c_localize(t, args, kwargs, result):
    l_lo, l_hi = _arg(args, kwargs, 2, "window_left")
    r_lo, r_hi = _arg(args, kwargs, 3, "window_right")
    t["window_tokens"] += (l_hi - l_lo + 1) + (r_hi - r_lo + 1)


@dataclass(frozen=True)
class Layer:
    """One traced layer: its metric name, where it is patched, its counter."""

    name: str
    targets: tuple
    counter: Callable | None = None


LAYERS: tuple[Layer, ...] = (
    Layer("keys.key_seed", ((streams, "key_seed"),)),
    Layer("schemes.SchemeSpec.key_at", ((schemes.SchemeSpec, "key_at"),), _c_key_at),
    Layer("schemes.SchemeSpec.pivot_score", ((schemes.SchemeSpec, "pivot_score"),)),
    Layer("schemes.SchemeSpec.decode", ((schemes.SchemeSpec, "decode"),)),
    Layer("streams.NtpModel.sample", ((streams.NtpModel, "sample"),)),
    Layer(
        "streams.generate_stream",
        ((streams, "generate_stream"), (harness, "generate_stream")),
        _c_generate,
    ),
    Layer("streams.score_tokens", ((streams, "score_tokens"),), _c_score),
    Layer("streams.read_stream_jsonl", ((streams, "read_stream_jsonl"),), _c_read),
    Layer(
        "calibration.calibrate_threshold",
        ((calibration, "calibrate_threshold"), (harness, "calibrate_threshold")),
    ),
    Layer(
        "calibration.simulate_max_block_sums",
        ((calibration, "simulate_max_block_sums"),),
        _c_simulate,
    ),
    Layer(
        "segmentation.segment_series",
        ((segmentation, "segment_series"), (harness, "segment_series")),
    ),
    Layer("segmentation.block_sums", ((segmentation, "block_sums"),), _c_len("blocks")),
    Layer("segmentation.screen_blocks", ((segmentation, "screen_blocks"),), _c_len("selected")),
    Layer("segmentation.merge_selected", ((segmentation, "merge_selected"),), _c_len("runs")),
    Layer("segmentation.discard_short_runs", ((segmentation, "discard_short_runs"),), _c_discard),
    Layer("segmentation.enlarge_runs", ((segmentation, "enlarge_runs"),), _c_len("regions")),
    Layer("segmentation.estimate_signal", ((segmentation, "estimate_signal"),), _c_signal),
    Layer("segmentation.localize_segment", ((segmentation, "localize_segment"),), _c_localize),
    Layer("metrics.evaluate", ((metrics, "evaluate"), (harness, "evaluate"))),
    Layer("harness.run_experiment", ((harness, "run_experiment"),)),
)

# Per-layer metrics: name -> (unit, better). Every traced run reports all of
# them, with zeros for layers a workload never reaches.
LAYER_METRICS: dict[str, tuple[str, str]] = {}
for _layer in LAYERS:
    LAYER_METRICS[f"{_layer.name}.calls"] = ("count", "lower")
    LAYER_METRICS[f"{_layer.name}.busy_s"] = ("s", "lower")
    LAYER_METRICS[f"{_layer.name}.self_s"] = ("s", "lower")
LAYER_METRICS.update(
    {
        "schemes.SchemeSpec.key_at.distinct_seed_ratio": ("ratio", "higher"),
        "streams.generate_stream.tokens": ("tokens", "lower"),
        "streams.generate_stream.us_per_token": ("us/token", "lower"),
        "streams.generate_stream.key_bytes": ("bytes", "lower"),
        "streams.score_tokens.tokens": ("tokens", "lower"),
        "streams.score_tokens.us_per_token": ("us/token", "lower"),
        "streams.read_stream_jsonl.bytes": ("bytes", "lower"),
        "calibration.simulate_max_block_sums.draws": ("count", "lower"),
        "calibration.simulate_max_block_sums.ns_per_draw": ("ns/draw", "lower"),
        "calibration.simulate_max_block_sums.bytes_computed": ("bytes", "lower"),
        "segmentation.block_sums.blocks": ("count", "lower"),
        "segmentation.screen_blocks.selected": ("count", "lower"),
        "segmentation.merge_selected.runs": ("count", "lower"),
        "segmentation.discard_short_runs.kept_ratio": ("ratio", "higher"),
        "segmentation.enlarge_runs.regions": ("count", "lower"),
        "segmentation.estimate_signal.floored": ("count", "lower"),
        "segmentation.localize_segment.window_tokens": ("tokens", "lower"),
        "other.self_s": ("s", "lower"),
        "trace.wall_s": ("s", "lower"),
        "trace.untraced_wall_s": ("s", "lower"),
        "trace.overhead_frac": ("ratio", "lower"),
        "trace.spans": ("count", "lower"),
    }
)


def _new_tally() -> defaultdict:
    tally = defaultdict(int)
    tally["seeds"] = set()
    return tally


class Tracer:
    """In-memory span recorder for one traced run (single thread)."""

    def __init__(self):
        self.layers = LAYERS
        self.op = -1
        self._layer = array("i")
        self._parent = array("q")
        self._op = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._tallies = [_new_tally() for _ in LAYERS]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, index: int, fn: Callable, counter: Callable | None) -> Callable:
        layer_col, parent_col, op_col = self._layer, self._parent, self._op
        start_col, end_col, stack = self._start, self._end, self._stack
        tally = self._tallies[index]
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start_col)
            layer_col.append(index)
            parent_col.append(stack[-1])
            op_col.append(tracer.op)
            end_col.append(0.0)
            stack.append(i)
            start_col.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end_col[i] = clock()
                stack.pop()
            if counter is not None:
                counter(tally, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every layer's call sites for the duration of the block."""
        for index, layer in enumerate(self.layers):
            for owner, attr in layer.targets:
                original = vars(owner)[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(index, original, layer.counter))
        try:
            yield self
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)

    def end_pass(self) -> None:
        """Fold per-pass distinct-seed sets, so the ratio is a per-pass one."""
        for tally in self._tallies:
            tally["distinct"] += len(tally["seeds"])
            tally["seeds"].clear()

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "layer": np.frombuffer(self._layer, dtype=np.int32).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self._op, dtype=np.int64).copy(),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(
            path, layer_names=np.array([l.name for l in self.layers]), **self.columns()
        )

    def metrics(self, traced_walls: list[float], untraced_walls: list[float]) -> dict:
        """Per-layer metrics per traced pass, plus the wall-time accounting.

        Self time is a span's duration minus the durations of its children;
        spans nest strictly on one thread, so that is the time not covered
        by child spans. ``other.self_s`` is what no span covers: the
        benchmark's own loop and checks between calls.
        """
        cols = self.columns()
        passes = len(traced_walls)
        dur = cols["end"] - cols["start"]
        parent = cols["parent"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        own = dur - child
        k = len(self.layers)
        calls = np.bincount(cols["layer"], minlength=k)
        busy = np.bincount(cols["layer"], weights=dur, minlength=k)
        selfs = np.bincount(cols["layer"], weights=own, minlength=k)

        out: dict[str, float] = {}
        for i, layer in enumerate(self.layers):
            out[f"{layer.name}.calls"] = calls[i] / passes
            out[f"{layer.name}.busy_s"] = busy[i] / passes
            out[f"{layer.name}.self_s"] = selfs[i] / passes
        t = {layer.name: tally for layer, tally in zip(self.layers, self._tallies)}
        busy_of = {layer.name: busy[i] for i, layer in enumerate(self.layers)}
        calls_of = {layer.name: calls[i] for i, layer in enumerate(self.layers)}

        def ratio(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        key_at = "schemes.SchemeSpec.key_at"
        gen, score = "streams.generate_stream", "streams.score_tokens"
        sim = "calibration.simulate_max_block_sums"
        out[f"{key_at}.distinct_seed_ratio"] = ratio(t[key_at]["distinct"], calls_of[key_at])
        out[f"{gen}.tokens"] = t[gen]["tokens"] / passes
        out[f"{gen}.us_per_token"] = ratio(busy_of[gen], t[gen]["tokens"], 1e6)
        out[f"{gen}.key_bytes"] = t[gen]["key_bytes"] / passes
        out[f"{score}.tokens"] = t[score]["tokens"] / passes
        out[f"{score}.us_per_token"] = ratio(busy_of[score], t[score]["tokens"], 1e6)
        out["streams.read_stream_jsonl.bytes"] = t["streams.read_stream_jsonl"]["bytes"] / passes
        out[f"{sim}.draws"] = t[sim]["draws"] / passes
        out[f"{sim}.ns_per_draw"] = ratio(busy_of[sim], t[sim]["draws"], 1e9)
        out[f"{sim}.bytes_computed"] = 8 * t[sim]["draws"] / passes
        seg = "segmentation."
        for layer, key in (
            ("block_sums", "blocks"),
            ("screen_blocks", "selected"),
            ("merge_selected", "runs"),
            ("enlarge_runs", "regions"),
            ("estimate_signal", "floored"),
            ("localize_segment", "window_tokens"),
        ):
            out[f"{seg}{layer}.{key}"] = t[seg + layer][key] / passes
        discard = t[seg + "discard_short_runs"]
        out[f"{seg}discard_short_runs.kept_ratio"] = ratio(discard["kept"], discard["runs_in"])

        wall = sum(traced_walls)
        untraced = sum(untraced_walls) / len(untraced_walls)
        out["other.self_s"] = (wall - float(own.sum())) / passes
        out["trace.wall_s"] = wall / passes
        out["trace.untraced_wall_s"] = untraced
        out["trace.overhead_frac"] = wall / passes / untraced - 1.0
        out["trace.spans"] = dur.size / passes
        return {name: float(value) for name, value in out.items()}
