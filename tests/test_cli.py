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
        ["calibrate", *scheme, "--n", "600", "--block-len", "30", "--out", str(cert)],
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


@pytest.mark.parametrize("flags, config", [
    (["--mc-reps", "2000"], None),
    (["--seed", "3"], None),
    ([], {"mc_reps": 2000}),
], ids=["mc-reps-flag", "seed-flag", "mc-reps-config"])
def test_calibrate_takes_no_monte_carlo_knobs(flags, config, tmp_path):
    # Calibration is exact: a draw count or seed would be accepted and ignored.
    cert = tmp_path / "cert.json"
    argv = ["calibrate", "--n", "300", "--block-len", "20", "--out", str(cert), *flags]
    if config is not None:
        path = tmp_path / "calibrate.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv += ["--config", str(path)]
    assert cli_main(argv) == 1
    assert not cert.exists()


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
                     "--out", str(cert)]) == 0
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


def test_experiment_rejects_an_unknown_plan_key(tmp_path):
    plan = {"n": 300, "scheme": {"id": "gumbel", "vocab_size": 50}, "ntp_model": {},
            "grid": {"block_len": [20]}, "mc_reps": 500, "replicatons": 2}
    config, out = tmp_path / "plan.json", tmp_path / "rows.csv"
    config.write_text(json.dumps(plan), encoding="utf-8")
    assert cli_main(["experiment", "--config", str(config), "--out", str(out)]) == 1
    assert not out.exists()
    del plan["replicatons"]
    config.write_text(json.dumps({**plan, "out": str(out)}), encoding="utf-8")
    assert cli_main(["experiment", "--config", str(config)]) == 0
    assert out.exists()


@pytest.mark.parametrize("command", ["calibrate", "experiment"])
def test_a_config_that_is_not_a_json_object_is_a_validation_error(command, tmp_path):
    config, out = tmp_path / "config.json", tmp_path / "out"
    config.write_text("[]", encoding="utf-8")
    assert cli_main([command, "--config", str(config), "--out", str(out)]) == 1
    assert not out.exists()


def _stream_and_cert(tmp_path, stream_scheme, cert_params):
    stream, cert = tmp_path / "stream.jsonl", tmp_path / "cert.json"
    write_stream_jsonl(stream, generate_stream(StreamSpec(
        n=400, true_segments=Segments(), scheme=stream_scheme,
        ntp_model=NtpModel(), seed=11,
    )))
    assert cli_main(["calibrate", *cert_params, "--n", "400", "--block-len", "20",
                     "--out", str(cert)]) == 0
    return ["segment", "--stream", str(stream), "--cert", str(cert)]


def test_segment_config_takes_only_segment_options(tmp_path):
    argv = _stream_and_cert(tmp_path, SchemeSpec("gumbel", 50),
                            ["--scheme", "gumbel", "--vocab-size", "50"])
    config, out = tmp_path / "segment.json", tmp_path / "result.json"
    config.write_text(json.dumps({"rh0": 0.3}), encoding="utf-8")
    assert cli_main([*argv, "--config", str(config), "--out", str(out)]) == 1
    assert not out.exists()
    config.write_text(json.dumps({"rho": 0.3, "pad": 7, "out": str(out)}), encoding="utf-8")
    assert cli_main([*argv, "--config", str(config), "--trace", str(tmp_path / "t.json")]) == 0
    assert json.loads((tmp_path / "t.json").read_text(encoding="utf-8"))["pad"] == 7


@pytest.mark.parametrize("cert_params, code", [
    (["--green-frac", "0.25"], 1),
    (["--green-frac", "0.5", "--bias", "4.0"], 0),
], ids=["other-null-law", "same-null-law-other-bias"])
def test_segment_rejects_a_certificate_for_another_null_law(cert_params, code, tmp_path):
    argv = _stream_and_cert(tmp_path, SchemeSpec("red_green", 40, green_frac=0.5),
                            ["--scheme", "red_green", "--vocab-size", "40", *cert_params])
    out = tmp_path / "result.json"
    assert cli_main([*argv, "--out", str(out)]) == code
    assert out.exists() == (code == 0)


def test_segment_reads_a_certificate_without_method_as_monte_carlo(tmp_path):
    argv = _stream_and_cert(tmp_path, SchemeSpec("gumbel", 50),
                            ["--scheme", "gumbel", "--vocab-size", "50"])
    cert = tmp_path / "cert.json"
    data = json.loads(cert.read_text(encoding="utf-8"))
    assert data.pop("method") == "exact"
    cert.write_text(json.dumps({**data, "mc_reps": 10_000, "seed": 1}), encoding="utf-8")
    assert cli_main([*argv, "--out", str(tmp_path / "result.json")]) == 0


def test_segment_names_a_missing_certificate_key(tmp_path, capsys):
    argv = _stream_and_cert(tmp_path, SchemeSpec("gumbel", 50),
                            ["--scheme", "gumbel", "--vocab-size", "50"])
    cert = tmp_path / "cert.json"
    data = json.loads(cert.read_text(encoding="utf-8"))
    del data["b"]
    cert.write_text(json.dumps(data), encoding="utf-8")
    assert cli_main([*argv, "--out", str(tmp_path / "result.json")]) == 1
    assert "missing certificate key(s): 'b'" in capsys.readouterr().err


def test_segment_rejects_nan_pivot_scores(tmp_path):
    stream, cert, out = tmp_path / "stream.jsonl", tmp_path / "cert.json", tmp_path / "result.json"
    assert cli_main(["generate", "--n", "400", "--segments", "100-300", "--seed", "2",
                     "--out", str(stream)]) == 0
    assert cli_main(["calibrate", "--n", "400", "--block-len", "20", "--out", str(cert)]) == 0
    header, *lines = stream.read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    for record in records[99:300]:
        record["pivot_score"] = float("nan")
    stream.write_text("\n".join([header, *map(json.dumps, records)]) + "\n", encoding="utf-8")
    argv = ["segment", "--stream", str(stream), "--cert", str(cert), "--out", str(out)]
    assert cli_main(argv) == 1
    assert not out.exists()


def test_bench_is_not_a_command(tmp_path):
    out = tmp_path / "bench.csv"
    assert cli_main(["bench", "--n-list", "1000", "--reps", "1", "--out", str(out)]) == 1
    assert not out.exists()


def test_evaluate_to_stdout_quotes_a_label_with_a_comma(tmp_path, capsys):
    stream, result = tmp_path / "stream.jsonl", tmp_path / "result.json"
    assert cli_main(["generate", "--n", "200", "--segments", "50-120", "--out", str(stream)]) == 0
    result.write_text(json.dumps({"segments": [{"left": 60, "right": 110}]}), encoding="utf-8")
    capsys.readouterr()
    assert cli_main(["evaluate", "--truth", str(stream), "--est", str(result),
                     "--model-label", "llama,7b"]) == 0
    header, row = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert tuple(header) == EVAL_COLUMNS
    assert len(row) == len(EVAL_COLUMNS)
    assert row[EVAL_COLUMNS.index("model")] == "llama,7b"
