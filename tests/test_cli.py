"""The command-line pipeline, run end to end through ``cli_main``."""

import csv
import json

import pytest

from wmseg.cli import cli_main
from wmseg.metrics import EVAL_COLUMNS
from wmseg.schemes import SCHEME_IDS


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
