"""The command-line pipeline, run end to end through ``cli_main``."""

import csv
import json

import pytest

from wmseg.cli import cli_main
from wmseg.harness import EXPERIMENT_COLUMNS, ExperimentPlan
from wmseg.intervals import Segments
from wmseg.metrics import EVAL_COLUMNS
from wmseg.schemes import SCHEME_IDS, SchemeSpec
from wmseg.streams import NtpModel, StreamSpec, generate_stream, write_stream_jsonl


@pytest.mark.parametrize("scheme_id", SCHEME_IDS)
def test_generate_calibrate_segment_evaluate(scheme_id, tmp_path):
    stream, cert = tmp_path / "stream.jsonl", tmp_path / "cert.json"
    result, trace, report = tmp_path / "result.json", tmp_path / "trace.json", tmp_path / "eval.csv"
    scheme = ["--scheme", scheme_id, "--vocab-size", "50"]
    steps = (
        ["generate", *scheme, "--n", "600", "--segments", "200-400", "--seed", "3",
         "--out", str(stream)],
        ["calibrate", *scheme, "--n", "600", "--block-len", "30", "--mc-reps", "2000",
         "--seed", "1", "--out", str(cert)],
        ["segment", "--stream", str(stream), "--cert", str(cert), "--out", str(result),
         "--trace", str(trace)],
        ["evaluate", "--truth", str(stream), "--est", str(result), "--out", str(report)],
    )
    for argv in steps:
        assert cli_main(argv) == 0, argv[0]
    written = json.loads(result.read_text(encoding="utf-8"))
    assert json.loads(trace.read_text(encoding="utf-8")) == written["trace"]
    assert {"block_sums", "windows"} <= set(written["trace"])
    with open(report, newline="", encoding="utf-8") as fh:
        header, row = list(csv.reader(fh))
    assert tuple(header) == EVAL_COLUMNS
    assert row[EVAL_COLUMNS.index("scheme")] == scheme_id


def test_unknown_scheme_is_a_validation_error(tmp_path):
    argv = ["generate", "--scheme", "permute_flip", "--n", "50", "--out", str(tmp_path / "s")]
    assert cli_main(argv) == 1


def test_missing_stream_file_is_an_io_error(tmp_path):
    argv = ["segment", "--stream", str(tmp_path / "missing.jsonl"),
            "--cert", str(tmp_path / "cert.json"), "--out", str(tmp_path / "result.json")]
    assert cli_main(argv) == 2


@pytest.mark.parametrize("scheme, header", [
    (SchemeSpec("inverse", vocab_size=3), {"mu0": 2 / 3}),
    (SchemeSpec("red_green", vocab_size=20), {"scheme": "gumbel"}),
], ids=["stale-mu0", "scheme-mismatch"])
def test_segment_rejects_a_header_that_contradicts_scheme_params(scheme, header, tmp_path):
    stream, cert = tmp_path / "stream.jsonl", tmp_path / "cert.json"
    write_stream_jsonl(stream, generate_stream(StreamSpec(
        n=100, true_segments=Segments(), scheme=scheme,
        ntp_model=NtpModel(kind="dirichlet"), seed=5,
    )))
    first, *body = stream.read_text(encoding="utf-8").splitlines()
    stream.write_text("\n".join([json.dumps({**json.loads(first), **header}), *body]) + "\n",
                      encoding="utf-8")
    params = ["--scheme", scheme.scheme_id, "--vocab-size", str(scheme.vocab_size)]
    assert cli_main(["calibrate", *params, "--n", "100", "--block-len", "10",
                     "--mc-reps", "500", "--out", str(cert)]) == 0
    argv = ["segment", "--stream", str(stream), "--cert", str(cert),
            "--out", str(tmp_path / "result.json")]
    assert cli_main(argv) == 1


def test_experiment_is_byte_reproducible_and_has_no_jobs_or_cache_flags(tmp_path):
    plan = ExperimentPlan(
        n=300,
        true_segments=Segments([(100, 200)], n=300),
        scheme=SchemeSpec("gumbel", vocab_size=50),
        ntp_model=NtpModel(kind="dirichlet"),
        replications=2,
        block_lens=(20,),
        mc_reps=1000,
        seed=4,
    )
    config = tmp_path / "plan.json"
    config.write_text(json.dumps(plan.to_json()), encoding="utf-8")
    outs = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in outs:
        assert cli_main(["experiment", "--config", str(config), "--no-timing",
                         "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    with open(outs[0], newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    assert tuple(header) == EXPERIMENT_COLUMNS
    assert len(rows) == plan.replications + 2
    for flag in (["--jobs", "2"], ["--cache-dir", str(tmp_path / "d")]):
        argv = ["experiment", "--config", str(config), "--out", str(tmp_path / "c.csv"), *flag]
        assert cli_main(argv) == 1, flag
    assert not (tmp_path / "c.csv").exists()
