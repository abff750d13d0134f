"""Command-line interface: generate, segment, evaluate, experiment.

Every option is a flag. Options left unset take the defaults of the library
call they feed (the CLI sets only scheme gumbel, vocab size 100, generate
seed 0 and the model label). Required flags are checked before any file is
read. ``experiment``'s ``--config`` is the plan JSON object itself and holds
only plan keys; its output path comes from ``--out``.

``segment`` scores the stream file's tokens under its seed and scheme (the
file stores no scores), calibrates the screening threshold for
``--block-len`` and ``--alpha`` from that scheme's own null law, and
segments the scores. It writes one result file, ``--out``, whose ``trace``
key holds every stage's decision and the certificate it screened with;
there is no separate trace file.

Exit codes: 0 success, 1 validation error (bad arguments, a missing
required flag, unknown plan keys, a malformed stream file, a plan or
stream value of the wrong JSON type, or a result whose trace certificate was
made for another stream's n or scheme), 2 I/O error (missing or unreadable
files).
"""

from __future__ import annotations

import argparse
import json
import re
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
# One chunk of a segments string: two unsigned integer ends around a dash.
_SEGMENT_CHUNK = re.compile(r"\s*([0-9]+)\s*-\s*([0-9]+)\s*")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wmseg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic stream JSONL")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--scheme", default="gumbel")
    p.add_argument("--vocab-size", type=int, default=100)
    p.add_argument("--green-frac", type=float)
    p.add_argument("--bias", type=float)
    p.add_argument("--segments", help="e.g. 100-200,325-400")
    p.add_argument("--ntp", dest="kind", choices=["dirichlet", "zipf"])
    p.add_argument("--delta-cap", type=float)
    p.add_argument("--concentration", type=float)
    p.add_argument("--exponent", type=float)

    p = sub.add_parser("segment", help="calibrate a threshold for a stream and segment it")
    p.add_argument("--out", required=True)
    p.add_argument("--stream", required=True)
    p.add_argument("--block-len", type=int, required=True)
    p.add_argument("--alpha", type=float)
    p.add_argument("--rho", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--discard-c", type=float)
    p.add_argument("--pad", type=int)

    p = sub.add_parser("evaluate", help="score an estimate against a stream's truth")
    p.add_argument("--out", help="CSV file to write (default: stdout)")
    p.add_argument("--truth", required=True, help="stream JSONL with true segments")
    p.add_argument("--est", required=True, help="result JSON from `segment`")
    p.add_argument("--model-label", default="synthetic")

    p = sub.add_parser("experiment", help="run a replicated grid experiment")
    p.add_argument("--config", required=True, help="plan JSON")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--no-timing", action="store_true",
                   help="omit runtime_ms values for byte-reproducible output")

    return parser


def _given(args: argparse.Namespace, *names: str) -> dict:
    """The named options that were set, so unset ones keep the library defaults."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _parse_segments(text: str | None, n: int) -> Segments:
    """The segments of an ``L-R,L-R`` string: 1-based inclusive integer
    ends, each chunk ``L-R``; no text means no segments."""
    if not text:
        return Segments()
    pairs = []
    for chunk in text.split(","):
        match = _SEGMENT_CHUNK.fullmatch(chunk)
        if match is None:
            raise ValueError(f"segments {text!r}: {chunk!r} is not L-R with integer ends "
                             "(the form is L-R,L-R)")
        pairs.append((int(match[1]), int(match[2])))
    return Segments(pairs, n=n)


def _cmd_generate(args: argparse.Namespace) -> int:
    spec = StreamSpec(
        n=args.n,
        true_segments=_parse_segments(args.segments, args.n),
        scheme=SchemeSpec(args.scheme, args.vocab_size, **_given(args, "green_frac", "bias")),
        ntp_model=NtpModel(**_given(args, "kind", "delta_cap", "concentration", "exponent")),
        seed=args.seed,
    )
    write_stream_jsonl(args.out, generate_stream(spec))
    return 0


def _cmd_segment(args: argparse.Namespace) -> int:
    stream = read_stream_jsonl(args.stream)
    series = score_tokens(stream.tokens, stream.seed, stream.scheme)
    cert = calibrate_threshold(stream.scheme, series.n, args.block_len, **_given(args, "alpha"))
    config = SegmenterConfig(cert=cert, **_given(args, "rho", "gamma", "discard_c", "pad"))
    result = segment_series(series, config)
    Path(args.out).write_text(json.dumps(result.to_json(), indent=2) + "\n", encoding="utf-8")
    return 0


def _check_result_stream(est_data: dict, n: int, scheme_params: dict) -> None:
    """Raise ValueError unless the certificate in the result's trace, if it
    holds one, was made for a stream of ``n`` tokens under ``scheme_params``:
    a result scored against another stream's truth reads as a valid score."""
    if "trace" not in est_data:
        return
    trace = est_data["trace"]
    if not isinstance(trace, dict):
        raise ValueError(f"result trace must be a JSON object, not {type(trace).__name__}")
    if "certificate" not in trace:
        return
    cert = trace["certificate"]
    if not isinstance(cert, dict):
        raise ValueError(f"result certificate must be a JSON object, not {type(cert).__name__}")
    if cert.get("n") != n:
        raise ValueError(f"result was segmented at n={cert.get('n')!r}, "
                         f"the truth stream has n={n}")
    if cert.get("scheme_params") != scheme_params:
        raise ValueError(f"result was segmented under scheme {cert.get('scheme_params')!r}, "
                         f"the truth stream carries {scheme_params!r}")


def _cmd_evaluate(args: argparse.Namespace) -> int:
    stream = read_stream_jsonl(args.truth)
    est_data = json.loads(Path(args.est).read_text(encoding="utf-8"))
    check_keys(est_data, _RESULT_KEYS, "result", required=("segments",))
    segments = est_data["segments"]
    if not isinstance(segments, list):
        raise ValueError(f"result segments must be a JSON list, not {type(segments).__name__}")
    for seg in segments:
        check_keys(seg, _SEGMENT_KEYS, "result segment", required=_SEGMENT_KEYS)
    n = stream.tokens.size
    _check_result_stream(est_data, n, stream.scheme.to_json())
    estimate = Segments([(seg["left"], seg["right"]) for seg in segments], n=n)
    report = evaluate(stream.true_segments, estimate, n)
    row = report.csv_row(args.model_label, stream.scheme.scheme_id, "wmseg")
    text = format_csv(EVAL_COLUMNS, [row])
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8", newline="")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    plan = json.loads(Path(args.config).read_text(encoding="utf-8"))
    if not isinstance(plan, dict):
        raise ValueError(f"{args.config}: the plan must be a JSON object")
    if args.seed is not None:
        plan["seed"] = args.seed
    if args.no_timing:
        plan["include_timing"] = False
    run_experiment(ExperimentPlan.from_json(plan), out_path=args.out)
    return 0


_HANDLERS = {
    "generate": _cmd_generate,
    "segment": _cmd_segment,
    "evaluate": _cmd_evaluate,
    "experiment": _cmd_experiment,
}


def cli_main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage; -h/--help exits 0, bad or missing
        # arguments are validation errors.
        return 0 if exc.code in (0, None) else 1
    try:
        return _HANDLERS[args.command](args)
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
