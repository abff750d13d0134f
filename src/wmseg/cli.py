"""Command-line interface: generate, segment, evaluate, experiment.

Options left unset take the defaults of the library call they feed (the CLI
sets only scheme gumbel, vocab size 100, generate seed 0 and the model label).
A ``--config`` JSON file may set any option of its command by name (flags
win); for ``experiment`` it is the plan itself, plus an optional ``out``.

``segment`` scores the stream file's tokens under its seed and scheme (the
file stores no scores), calibrates the screening threshold for
``--block-len`` and ``--alpha`` from that scheme's own null law, and
segments the scores; its trace records the certificate it screened with.

Exit codes: 0 success, 1 validation error (bad arguments, a missing
required option, unknown config or plan keys, a malformed stream file, or a
value of the wrong JSON type), 2 I/O error (missing or unreadable files).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .calibration import calibrate_threshold
from .harness import ExperimentPlan, run_experiment
from .intervals import Segments
from .metrics import EVAL_COLUMNS, evaluate, format_csv
from .schemes import SchemeSpec, check_keys
from .segmentation import SegmenterConfig, segment_series
from .streams import (NtpModel, StreamSpec, generate_stream, read_stream_jsonl, score_tokens,
                      write_stream_jsonl)

# The keys of ``SegmentationResult.to_json``, as ``evaluate`` reads them.
_RESULT_KEYS = ("k_hat", "segments", "d_tilde", "trace")
_SEGMENT_KEYS = ("left", "right")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wmseg", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--config", type=str, default=None, help="JSON file with defaults")
        p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("generate", help="generate a synthetic stream JSONL")
    common(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--scheme", type=str, default=None)
    p.add_argument("--vocab-size", type=int, default=None)
    p.add_argument("--green-frac", type=float, default=None)
    p.add_argument("--bias", type=float, default=None)
    p.add_argument("--segments", type=str, default=None, help="e.g. 100-200,325-400")
    p.add_argument("--ntp", type=str, default=None, choices=["dirichlet", "zipf"])
    p.add_argument("--delta-cap", type=float, default=None)
    p.add_argument("--concentration", type=float, default=None)
    p.add_argument("--exponent", type=float, default=None)

    p = sub.add_parser("segment", help="calibrate a threshold for a stream and segment it")
    common(p)
    p.add_argument("--stream", type=str, default=None)
    p.add_argument("--block-len", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--discard-c", type=float, default=None)
    p.add_argument("--pad", type=int, default=None)
    p.add_argument("--trace", type=str, default=None, help="write full trace JSON here")

    p = sub.add_parser("evaluate", help="score an estimate against a stream's truth")
    common(p)
    p.add_argument("--truth", type=str, default=None, help="stream JSONL with true segments")
    p.add_argument("--est", type=str, default=None, help="result JSON from `segment`")
    p.add_argument("--model-label", type=str, default=None)

    p = sub.add_parser("experiment", help="run a replicated grid experiment")
    common(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--no-timing", action="store_true",
                   help="omit runtime_ms values for byte-reproducible output")

    return parser


class _Options:
    """CLI flags overlaid on --config JSON values."""

    def __init__(self, args: argparse.Namespace):
        self.args = vars(args)
        self.config = {}
        if self.args.get("config"):
            self.config = json.loads(Path(self.args["config"]).read_text(encoding="utf-8"))
        if not isinstance(self.config, dict):
            raise ValueError(f"{self.args['config']}: config must be a JSON object")
        if args.command != "experiment":  # an experiment config is the plan
            check_keys(self.config, self.args.keys() - {"command", "config"},
                       f"{args.command} config")

    def get(self, name: str, default=None):
        value = self.args.get(name)
        if value is None or value is False:
            value = self.config.get(name, default)
        return value

    def given(self, *names: str) -> dict:
        """The named options that were set, by flag or by config key."""
        return {name: self.get(name) for name in names if self.get(name) is not None}

    def require(self, name: str):
        value = self.get(name)
        if value is None:
            raise ValueError(f"missing required option --{name.replace('_', '-')}")
        return value


def _parse_segments(text: str | None, n: int) -> Segments:
    if not text:
        return Segments()
    pairs = []
    for chunk in str(text).split(","):
        left, right = chunk.strip().split("-")
        pairs.append((int(left), int(right)))
    return Segments(pairs, n=n)


def _scheme_from(opts: _Options) -> SchemeSpec:
    return SchemeSpec.from_json({"id": opts.get("scheme", "gumbel"),
                                 "vocab_size": opts.get("vocab_size", 100),
                                 **opts.given("green_frac", "bias")})


def _cmd_generate(opts: _Options) -> int:
    n = int(opts.require("n"))
    scheme = _scheme_from(opts)
    ntp = opts.given("delta_cap", "concentration", "exponent")
    if opts.get("ntp") is not None:
        ntp["kind"] = opts.get("ntp")
    spec = StreamSpec(
        n=n,
        true_segments=_parse_segments(opts.get("segments"), n),
        scheme=scheme,
        ntp_model=NtpModel.from_json(ntp),
        seed=int(opts.get("seed", 0)),
    )
    write_stream_jsonl(opts.require("out"), generate_stream(spec))
    return 0


def _cmd_segment(opts: _Options) -> int:
    block_len = int(opts.require("block_len"))
    stream = read_stream_jsonl(opts.require("stream"))
    series = score_tokens(stream.tokens, stream.seed, stream.scheme)
    cert = calibrate_threshold(stream.scheme, series.n, block_len, **opts.given("alpha"))
    config = SegmenterConfig(cert=cert, **opts.given("rho", "gamma", "discard_c", "pad"))
    result = segment_series(series, config)
    Path(opts.require("out")).write_text(
        json.dumps(result.to_json(), indent=2) + "\n", encoding="utf-8"
    )
    trace_path = opts.get("trace")
    if trace_path:
        Path(trace_path).write_text(
            json.dumps(result.trace.summary(), indent=2) + "\n", encoding="utf-8"
        )
    return 0


def _cmd_evaluate(opts: _Options) -> int:
    stream = read_stream_jsonl(opts.require("truth"))
    est_data = json.loads(Path(opts.require("est")).read_text(encoding="utf-8"))
    check_keys(est_data, _RESULT_KEYS, "result", required=("segments",))
    for seg in est_data["segments"]:
        check_keys(seg, _SEGMENT_KEYS, "result segment", required=_SEGMENT_KEYS)
    n = stream.tokens.size
    estimate = Segments([(seg["left"], seg["right"]) for seg in est_data["segments"]], n=n)
    report = evaluate(stream.true_segments, estimate, n)
    row = report.csv_row(
        str(opts.get("model_label", "synthetic")), stream.scheme.scheme_id, "wmseg"
    )
    text = format_csv(EVAL_COLUMNS, [row])
    out = opts.get("out")
    if out:
        Path(out).write_text(text, encoding="utf-8", newline="")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_experiment(opts: _Options) -> int:
    plan_data = {key: value for key, value in opts.config.items() if key != "out"}
    if not plan_data:
        raise ValueError("experiment requires --config with a plan JSON")
    if opts.args.get("seed") is not None:
        plan_data["seed"] = opts.args["seed"]
    if opts.args.get("no_timing"):
        plan_data["include_timing"] = False
    plan = ExperimentPlan.from_json(plan_data)
    run_experiment(plan, out_path=opts.require("out"))
    return 0


_HANDLERS = {
    "generate": _cmd_generate,
    "segment": _cmd_segment,
    "evaluate": _cmd_evaluate,
    "experiment": _cmd_experiment,
}


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args, unknown = parser.parse_known_args(argv)
    except SystemExit as exc:
        # argparse already printed usage; -h/--help exits 0, bad args are
        # validation errors.
        return 0 if exc.code in (0, None) else 1
    if unknown or args.command not in _HANDLERS:
        parser.print_usage(sys.stderr)
        return 1
    try:
        opts = _Options(args)
        return _HANDLERS[args.command](opts)
    except (FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(f"error: cannot access {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
