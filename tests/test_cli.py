"""The command-line pipeline, run end to end through ``cli_main``."""

import csv
import hashlib
import json

import pytest

from wmseg.calibration import calibrate_threshold
from wmseg.cli import cli_main
from wmseg.harness import EXPERIMENT_COLUMNS
from wmseg.intervals import Segments
from wmseg.metrics import EVAL_COLUMNS
from wmseg.schemes import SCHEME_IDS, SchemeSpec
from wmseg.streams import (NtpModel, StreamSpec, generate_stream, read_stream_jsonl,
                           write_stream_jsonl)


@pytest.mark.parametrize("scheme_id", SCHEME_IDS)
def test_generate_calibrate_segment_evaluate(scheme_id, tmp_path):
    stream = tmp_path / "stream.jsonl"
    result, report = tmp_path / "result.json", tmp_path / "eval.csv"
    scheme = ["--scheme", scheme_id, "--vocab-size", "50"]
    steps = (
        ["generate", *scheme, "--n", "600", "--segments", "200-400", "--seed", "3",
         "--out", str(stream)],
        ["segment", "--stream", str(stream), "--block-len", "30", "--out", str(result)],
        ["evaluate", "--truth", str(stream), "--est", str(result), "--out", str(report)],
    )
    for argv in steps:
        assert cli_main(argv) == 0, argv[0]
    written = json.loads(result.read_text(encoding="utf-8"))
    assert {"block_sums", "windows"} <= set(written["trace"])
    with open(report, newline="", encoding="utf-8") as fh:
        header, row = list(csv.reader(fh))
    assert tuple(header) == EVAL_COLUMNS
    assert row[EVAL_COLUMNS.index("scheme")] == scheme_id


def test_generate_and_segment_write_each_value_once(tmp_path):
    """The stream header and the result hold no derived copy: the scheme is
    its ``SchemeSpec`` JSON object in the header and in the certificate, the
    segments are [l, r] pairs, the threshold is the certificate's q, the
    segment count is the segments' length and the block count that of the
    block sums. The trace's ``stream`` key names the stream by its seed and
    the digest of its tokens, which the header does not hold."""
    stream, out = tmp_path / "stream.jsonl", tmp_path / "result.json"
    assert cli_main(["generate", "--scheme", "red_green", "--vocab-size", "40", "--n", "400",
                     "--segments", "100-250", "--seed", "11", "--out", str(stream)]) == 0
    assert cli_main(["segment", "--stream", str(stream), "--block-len", "20",
                     "--out", str(out)]) == 0
    header = json.loads(stream.read_text(encoding="utf-8").splitlines()[0])
    result = json.loads(out.read_text(encoding="utf-8"))
    assert set(header) == {"n", "seed", "true_segments", "scheme"}
    assert header["true_segments"] == [[100, 250]]
    assert set(result) == {"segments", "trace"}
    assert result["segments"] == Segments(result["segments"]).to_pairs() != []
    trace = result["trace"]
    assert set(trace) == {"block_sums", "certificate", "selected_blocks", "kept_runs_blocks",
                          "regions", "windows", "d_tilde", "d_tilde_floored", "min_run_blocks",
                          "pad", "stream"}
    assert set(trace["stream"]) == {"seed", "sha256"} and trace["stream"]["seed"] == 11
    assert set(trace["certificate"]) == {"q", "alpha", "n", "b", "scheme"}
    assert (trace["certificate"]["scheme"] == header["scheme"]
            == SchemeSpec("red_green", 40).to_json())


def test_segment_calibrates_on_the_streams_own_null_law(tmp_path):
    """The certificate in the trace is the one calibrated from the stream's
    scheme, here a red_green law with a green fraction other than the default."""
    stream, out = tmp_path / "stream.jsonl", tmp_path / "result.json"
    assert cli_main(["generate", "--scheme", "red_green", "--vocab-size", "40",
                     "--green-frac", "0.25", "--n", "400", "--segments", "100-250",
                     "--seed", "11", "--out", str(stream)]) == 0
    assert cli_main(["segment", "--stream", str(stream), "--block-len", "20", "--alpha", "0.1",
                     "--out", str(out)]) == 0
    scheme = read_stream_jsonl(stream).scheme
    assert scheme.green_frac == 0.25
    expected = calibrate_threshold(scheme, 400, 20, 0.1).to_json()
    written = json.loads(out.read_text(encoding="utf-8"))["trace"]
    assert written["certificate"] == expected


def test_segment_refuses_an_inverse_alpha_below_the_laws_floor(tmp_path, capsys):
    """--alpha reaches calibrate_threshold, whose floor for the inverse law
    is m·1e-12 over m blocks: 1.5e-11 for 15 blocks of 20 tokens."""
    stream, out = tmp_path / "stream.jsonl", tmp_path / "result.json"
    assert cli_main(["generate", "--scheme", "inverse", "--n", "300", "--seed", "1",
                     "--out", str(stream)]) == 0
    capsys.readouterr()
    argv = ["segment", "--stream", str(stream), "--block-len", "20", "--out", str(out)]
    assert cli_main([*argv, "--alpha", "1e-15"]) == 1
    assert not out.exists()
    assert "below 1.5e-11, the least level" in capsys.readouterr().err
    assert cli_main([*argv, "--alpha", "1.5e-11"]) == 0


def test_segment_without_a_block_length_is_a_validation_error(tmp_path, capsys):
    stream, out = tmp_path / "stream.jsonl", tmp_path / "result.json"
    assert cli_main(["generate", "--n", "300", "--seed", "1", "--out", str(stream)]) == 0
    capsys.readouterr()
    assert cli_main(["segment", "--stream", str(stream), "--out", str(out)]) == 1
    assert not out.exists()
    assert "--block-len" in capsys.readouterr().err


def test_a_missing_required_flag_fails_before_any_file_is_read(tmp_path):
    """Without --out, segment exits 1 (validation) before it opens the
    missing stream, which would exit 2 (I/O)."""
    argv = ["segment", "--stream", str(tmp_path / "missing.jsonl"), "--block-len", "20"]
    assert cli_main(argv) == 1


@pytest.mark.parametrize("command, config, argv", [
    ("generate", {"seed": 2}, ["--n", "300"]),
    ("segment", {"rho": 0.3}, ["--stream", "{stream}", "--block-len", "20"]),
    ("evaluate", {"model_label": "llama"}, ["--truth", "{stream}", "--est", "{result}"]),
], ids=["generate", "segment", "evaluate"])
def test_config_is_not_an_option_of_generate_segment_or_evaluate(command, config, argv,
                                                                  tmp_path, capsys):
    stream, result = tmp_path / "stream.jsonl", tmp_path / "result.json"
    assert cli_main(["generate", "--n", "300", "--segments", "100-200", "--seed", "1",
                     "--out", str(stream)]) == 0
    result.write_text(json.dumps({"segments": [[110, 190]]}), encoding="utf-8")
    config_path, out = tmp_path / "config.json", tmp_path / "out"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    argv = [arg.format(stream=stream, result=result) for arg in argv]
    capsys.readouterr()
    assert cli_main([command, *argv, "--config", str(config_path), "--out", str(out)]) == 1
    assert not out.exists()
    assert "unrecognized arguments: --config" in capsys.readouterr().err


def test_calibrate_is_not_a_command(tmp_path):
    out = tmp_path / "cert.json"
    assert cli_main(["calibrate", "--n", "300", "--block-len", "20", "--out", str(out)]) == 1
    assert not out.exists()


def test_unknown_scheme_is_a_validation_error(tmp_path):
    argv = ["generate", "--scheme", "permute_flip", "--n", "50", "--out", str(tmp_path / "s")]
    assert cli_main(argv) == 1


def test_a_bad_ntp_parameter_is_a_validation_error(tmp_path):
    """A null-only stream draws no NTP row, so the model must reject the
    parameter when it is built."""
    out = tmp_path / "bad-ntp.jsonl"
    argv = ["generate", "--n", "300", "--concentration", "0", "--seed", "1", "--out", str(out)]
    assert cli_main(argv) == 1
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--ntp", "zipf", "--concentration", "0.7"], "kind 'zipf' does not read concentration"),
    (["--exponent", "7"], "kind 'dirichlet' does not read exponent"),
], ids=["zipf-concentration", "dirichlet-exponent"])
def test_an_ntp_flag_the_model_kind_does_not_read_is_rejected(flags, message, tmp_path, capsys):
    # Both used to exit 0 and write the bytes of the run without the flag.
    out = tmp_path / "unread-ntp.jsonl"
    capsys.readouterr()
    assert cli_main(["generate", "--n", "300", *flags, "--seed", "1", "--out", str(out)]) == 1
    assert not out.exists()
    assert message in capsys.readouterr().err


def test_missing_stream_file_is_an_io_error(tmp_path):
    argv = ["segment", "--stream", str(tmp_path / "missing.jsonl"), "--block-len", "20",
            "--out", str(tmp_path / "result.json")]
    assert cli_main(argv) == 2


@pytest.mark.parametrize("scheme, header", [
    (SchemeSpec("inverse", vocab_size=3), {}),
    (SchemeSpec("inverse", vocab_size=3), {"mu0": 2 / 3}),
    (SchemeSpec("red_green", vocab_size=20), {"scheme": "gumbel"}),
], ids=["consistent", "stale-mu0", "scheme-mismatch"])
def test_segment_rejects_a_header_in_the_old_spelling(scheme, header, tmp_path, capsys):
    """Headers used to repeat the scheme's id (``scheme``) and null mean
    (``mu0``) beside its ``scheme_params``; such a file is rejected by its
    keys, whether its copies agree or not."""
    stream, out = tmp_path / "stream.jsonl", tmp_path / "result.json"
    write_stream_jsonl(stream, generate_stream(StreamSpec(
        n=100, true_segments=Segments(), scheme=scheme,
        ntp_model=NtpModel(kind="dirichlet"), seed=5,
    )))
    _, *body = stream.read_text(encoding="utf-8").splitlines()
    old = {"n": 100, "scheme": scheme.scheme_id, "mu0": scheme.null_mean, "seed": 5,
           "true_segments": [], "scheme_params": scheme.to_json(), **header}
    stream.write_text("\n".join([json.dumps(old), *body]) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert cli_main(["segment", "--stream", str(stream), "--block-len", "10",
                     "--out", str(out)]) == 1
    assert not out.exists()
    assert "unknown stream header key(s): 'mu0', 'scheme_params'" in capsys.readouterr().err


def test_experiment_is_byte_reproducible_and_has_no_jobs_or_cache_flags(tmp_path):
    plan = {"n": 300, "true_segments": [[100, 200]], "scheme": {"id": "gumbel", "vocab_size": 50},
            "ntp_model": {"kind": "dirichlet"}, "replications": 2, "grid": {"block_len": [20]},
            "mc_reps": 1000, "seed": 4}
    config = tmp_path / "plan.json"
    config.write_text(json.dumps(plan), encoding="utf-8")
    outs = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in outs:
        assert cli_main(["experiment", "--config", str(config), "--no-timing",
                         "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    with open(outs[0], newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    assert tuple(header) == EXPERIMENT_COLUMNS
    assert len(rows) == plan["replications"] + 2
    for flag in (["--jobs", "2"], ["--cache-dir", str(tmp_path / "d")]):
        argv = ["experiment", "--config", str(config), "--out", str(tmp_path / "c.csv"), *flag]
        assert cli_main(argv) == 1, flag
    assert not (tmp_path / "c.csv").exists()


def test_experiment_rejects_an_unknown_plan_key(tmp_path, capsys):
    plan = {"n": 300, "scheme": {"id": "gumbel", "vocab_size": 50}, "ntp_model": {},
            "grid": {"block_len": [20]}, "mc_reps": 500, "replicatons": 2}
    config, out = tmp_path / "plan.json", tmp_path / "rows.csv"
    config.write_text(json.dumps(plan), encoding="utf-8")
    assert cli_main(["experiment", "--config", str(config), "--out", str(out)]) == 1
    assert not out.exists()
    del plan["replicatons"]
    # The plan file holds only plan keys; the output path is --out's alone.
    config.write_text(json.dumps({**plan, "out": str(out)}), encoding="utf-8")
    capsys.readouterr()
    assert cli_main(["experiment", "--config", str(config), "--out", str(out)]) == 1
    assert not out.exists()
    assert "unknown plan key(s): 'out'" in capsys.readouterr().err
    config.write_text(json.dumps(plan), encoding="utf-8")
    assert cli_main(["experiment", "--config", str(config), "--out", str(out)]) == 0
    assert out.exists()


@pytest.mark.parametrize("edit, message", [
    ({"discard_c": 10**400}, "plan key 'discard_c': an integer of 401 digits is too large"),
    ({"seed": -1}, "seed must lie in [0, 2**64), not -1"),
], ids=["huge-discard-c", "negative-seed"])
def test_experiment_rejects_a_plan_number_out_of_range(edit, message, tmp_path, capsys):
    # A 400-digit discard_c used to end in an OverflowError traceback, and
    # seed -1 to run the replications of seed 2^64 - 1.
    plan = {"n": 300, "scheme": {"id": "gumbel", "vocab_size": 50}, "ntp_model": {},
            "grid": {"block_len": [20]}, **edit}
    config, out = tmp_path / "plan.json", tmp_path / "rows.csv"
    config.write_text(json.dumps(plan), encoding="utf-8")
    capsys.readouterr()
    assert cli_main(["experiment", "--config", str(config), "--out", str(out)]) == 1
    assert not out.exists()
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_seed_is_not_an_option_of_experiment(tmp_path, capsys):
    """The plan's seed key is the one route to the experiment's seed."""
    plan = {"n": 300, "scheme": {"id": "gumbel", "vocab_size": 50}, "ntp_model": {},
            "grid": {"block_len": [20]}}
    config, out = tmp_path / "plan.json", tmp_path / "rows.csv"
    config.write_text(json.dumps(plan), encoding="utf-8")
    capsys.readouterr()
    assert cli_main(["experiment", "--config", str(config), "--seed", "3", "--out", str(out)]) == 1
    assert not out.exists()
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


def test_a_config_that_is_not_a_json_object_is_a_validation_error(tmp_path):
    config, out = tmp_path / "config.json", tmp_path / "out"
    config.write_text("[]", encoding="utf-8")
    assert cli_main(["experiment", "--config", str(config), "--out", str(out)]) == 1
    assert not out.exists()


def test_segment_option_flags_reach_the_trace(tmp_path):
    stream = tmp_path / "stream.jsonl"
    write_stream_jsonl(stream, generate_stream(StreamSpec(
        n=400, true_segments=Segments(), scheme=SchemeSpec("gumbel", 50),
        ntp_model=NtpModel(), seed=11,
    )))
    argv = ["segment", "--stream", str(stream), "--block-len", "20", "--rho", "0.3", "--pad", "7",
            "--out", str(tmp_path / "result.json")]
    assert cli_main(argv) == 0
    trace = json.loads((tmp_path / "result.json").read_text(encoding="utf-8"))["trace"]
    assert trace["pad"] == 7


def test_segment_rejects_a_gamma_beside_an_integer_pad(tmp_path, capsys):
    """``--gamma 0.3 --pad 10`` used to exit 0 with a pad of 10."""
    stream, argv, out, _, _ = _generated_and_segmented(tmp_path)
    capsys.readouterr()
    assert cli_main([*argv[:-2], "--gamma", "0.3", "--pad", "10", *argv[-2:]]) == 1
    assert not out.exists()
    assert "pad 10 does not read gamma" in capsys.readouterr().err


def test_trace_is_not_an_option_of_segment(tmp_path, capsys):
    """The result file's trace key is the one route to the trace."""
    stream, argv, out, _, _ = _generated_and_segmented(tmp_path)
    capsys.readouterr()
    assert cli_main([*argv, "--trace", str(tmp_path / "t.json")]) == 1
    assert not out.exists() and not (tmp_path / "t.json").exists()
    assert "unrecognized arguments: --trace" in capsys.readouterr().err


_SEED_RANGE = "error: seed must lie in [0, 2**64), not {value}"


@pytest.mark.parametrize("argv, message", [
    (["segment", "--block-len", "20.5"], None),
    (["segment", "--block-len", "true"], None),
    (["segment", "--block-len", "twenty"], None),
    (["segment", "--block-len", "20", "--pad", "7.0"], None),
    (["segment", "--block-len", "20", "--discard-c", "true"], None),
    (["segment", "--block-len", "20", "--rho", "0.3x"], None),
    (["generate", "--n", "300.0"], None),
    (["generate", "--n", "true"], None),
    (["generate", "--n", "three-hundred"], None),
    (["generate", "--n", "300", "--seed", "1.5"], None),
    (["generate", "--n", "300", "--seed", "true"], None),
    (["generate", "--n", "300", "--seed", "one"], None),
    (["generate", "--n", "300", "--vocab-size", "100.0"], None),
    (["generate", "--n", "300", "--seed", "-1"], _SEED_RANGE),
    (["generate", "--n", "300", "--seed", str(2**64)], _SEED_RANGE),
], ids=["float-block-len", "bool-block-len", "string-block-len", "float-pad", "bool-discard-c",
        "string-rho", "float-n", "bool-n", "string-n", "float-seed", "bool-seed", "string-seed",
        "float-vocab-size", "negative-seed", "seed-of-2-64"])
def test_flag_values_of_the_wrong_type_are_validation_errors(argv, message, tmp_path, capsys):
    """An integer flag given a float, or a numeric flag given a word, is an
    error that names the flag, not a coercion: a block length of 20.5 is
    never read as 20, nor ``true`` as 1. A seed outside [0, 2^64) is an
    error too: -1 used to write the stream of 2^64 - 1, and 2^64 that of 0."""
    stream, out = tmp_path / "stream.jsonl", tmp_path / "out"
    assert cli_main(["generate", "--n", "300", "--seed", "1", "--out", str(stream)]) == 0
    stream_flag = ["--stream", str(stream)] if argv[0] == "segment" else []
    capsys.readouterr()
    assert cli_main([*argv, *stream_flag, "--out", str(out)]) == 1
    assert not out.exists()
    flag, value = argv[-2:]
    err = capsys.readouterr().err
    if message is None:
        assert f"argument {flag}: invalid" in err and repr(value) in err
    else:
        assert err.strip() == message.format(value=value)


@pytest.mark.parametrize("discard_c", ["inf", "-inf", "nan"])
def test_segment_rejects_a_non_finite_discard_c(discard_c, tmp_path, capsys):
    stream, argv, out, _, _ = _generated_and_segmented(tmp_path)
    capsys.readouterr()
    assert cli_main([*argv, f"--discard-c={discard_c}"]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: discard_c must be finite") and "Traceback" not in err


@pytest.mark.parametrize("bias", ["nan", "inf"])
def test_generate_rejects_a_non_finite_bias(bias, tmp_path, capsys):
    out = tmp_path / "stream.jsonl"
    argv = ["generate", "--scheme", "red_green", "--bias", bias, "--n", "300",
            "--segments", "50-150", "--out", str(out)]
    assert cli_main(argv) == 1
    assert not out.exists()
    assert "bias must be finite and nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("scheme, flag, value", [
    ("gumbel", "--bias", "nan"), ("gumbel", "--bias", "1"), ("gumbel", "--green-frac", "7"),
    ("inverse", "--bias", "-3"), ("inverse", "--green-frac", "0.25"),
])
def test_generate_rejects_a_parameter_the_scheme_does_not_read(scheme, flag, value, tmp_path,
                                                               capsys):
    out = tmp_path / "stream.jsonl"
    argv = ["generate", "--scheme", scheme, flag, value, "--n", "300", "--segments", "50-150",
            "--out", str(out)]
    assert cli_main(argv) == 1
    assert not out.exists()
    name = flag[2:].replace("-", "_")
    assert f"error: scheme {scheme!r} does not read {name}" in capsys.readouterr().err


def _generated_and_segmented(tmp_path):
    """A generated stream that segment accepts, the segment argv and its
    output path (removed again), and the stream's two lines."""
    stream, out = tmp_path / "stream.jsonl", tmp_path / "result.json"
    assert cli_main(["generate", "--n", "300", "--seed", "1", "--out", str(stream)]) == 0
    argv = ["segment", "--stream", str(stream), "--block-len", "20", "--out", str(out)]
    assert cli_main(argv) == 0
    out.unlink()
    header, body = stream.read_text(encoding="utf-8").splitlines()
    return stream, argv, out, header, json.loads(body)


@pytest.mark.parametrize("token, message", [
    (100, "token 100 outside vocabulary of 100"),
    (1.5, "token 1.5 at t=1 is not an integer"),
    (float("nan"), "token nan at t=1 is not an integer"),
], ids=["token-outside-vocabulary", "non-integer-token", "nan-token"])
def test_segment_rescores_the_stored_tokens(token, message, tmp_path, capsys):
    stream, argv, out, header, body = _generated_and_segmented(tmp_path)
    body["tokens"][:100] = [token] * 100
    stream.write_text("\n".join([header, json.dumps(body)]) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert cli_main(argv) == 1
    assert not out.exists()
    assert message in capsys.readouterr().err


def test_segment_rejects_the_old_per_token_format(tmp_path, capsys):
    stream, argv, out, header, body = _generated_and_segmented(tmp_path)
    records = [{"t": t, "token": token, "pivot_score": 1.0}
               for t, token in enumerate(body["tokens"], start=1)]
    stream.write_text("\n".join([header, *map(json.dumps, records)]) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert cli_main(argv) == 1
    assert not out.exists()
    assert "unknown stream body key(s): 'pivot_score', 't', 'token'" in capsys.readouterr().err


@pytest.mark.parametrize("estimate, message", [
    ({"trace": {}}, "missing result key(s): 'segments'"),
    ({"segments": [[60, 110]], "k_hat": 7}, "unknown result key(s): 'k_hat'"),
    ({"segments": [[60, 110]], "d_tilde": -3.0}, "unknown result key(s): 'd_tilde'"),
    ({"k_hat": 1, "segments": [{"left": 60, "right": 110}], "d_tilde": 1.0},
     "unknown result key(s): 'd_tilde', 'k_hat'"),
    ({"segments": [{"left": 60, "right": 110}]},
     "result key 'segments': interval {'left': 60, 'right': 110} is not an [l, r] pair"),
    ({"segments": None}, "result key 'segments': None is not a list of [l, r] pairs"),
    ({"segments": {"left": 1}},
     "result key 'segments': {'left': 1} is not a list of [l, r] pairs"),
], ids=["no-segments", "k-hat", "d-tilde", "old-spelling", "segment-object", "null-segments",
        "object-segments"])
def test_evaluate_names_a_missing_or_unknown_result_key(estimate, message, tmp_path, capsys):
    # A result with k_hat 7 for one segment and d_tilde -3.0 used to exit 0.
    stream, result, out = tmp_path / "stream.jsonl", tmp_path / "result.json", tmp_path / "eval.csv"
    assert cli_main(["generate", "--n", "200", "--segments", "50-120", "--out", str(stream)]) == 0
    result.write_text(json.dumps(estimate), encoding="utf-8")
    capsys.readouterr()
    argv = ["evaluate", "--truth", str(stream), "--est", str(result), "--out", str(out)]
    assert cli_main(argv) == 1
    assert not out.exists()
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("truth_argv, message", [
    (["--n", "1000"], "result was segmented at n=300, the truth stream has n=1000"),
    (["--n", "300", "--scheme", "inverse"],
     "result was segmented under scheme {'id': 'gumbel', 'vocab_size': 100}, "
     "the truth stream carries {'id': 'inverse', 'vocab_size': 100}"),
    (["--n", "300", "--vocab-size", "50"],
     "result was segmented under scheme {'id': 'gumbel', 'vocab_size': 100}, "
     "the truth stream carries {'id': 'gumbel', 'vocab_size': 50}"),
], ids=["longer-stream", "other-scheme", "other-vocabulary"])
def test_evaluate_rejects_a_result_segmented_on_another_stream(truth_argv, message, tmp_path,
                                                               capsys):
    # A gumbel n=300 result scored against an n=1000 stream read iou 0.0,
    # and against the inverse stream of the same seed every metric read 1.0.
    stream, result = tmp_path / "stream.jsonl", tmp_path / "result.json"
    truth, out = tmp_path / "truth.jsonl", tmp_path / "eval.csv"
    for argv in (["generate", "--n", "300", "--segments", "100-200", "--seed", "1",
                  "--out", str(stream)],
                 ["segment", "--stream", str(stream), "--block-len", "20", "--out", str(result)],
                 ["generate", *truth_argv, "--segments", "100-200", "--seed", "1",
                  "--out", str(truth)]):
        assert cli_main(argv) == 0, argv[0]
    capsys.readouterr()
    argv = ["evaluate", "--truth", str(truth), "--est", str(result), "--out", str(out)]
    assert cli_main(argv) == 1
    assert not out.exists()
    assert f"error: {message}\n" == capsys.readouterr().err
    argv[2] = str(stream)
    assert cli_main(argv) == 0 and out.exists()


def test_evaluate_rejects_a_result_segmented_on_another_stream_of_the_same_n_and_scheme(
        tmp_path, capsys):
    # Same n and scheme, other seed and tokens: the certificate matches, and
    # the result read iou 0.0 with exit 0 before the trace named its stream.
    stream, result = tmp_path / "stream.jsonl", tmp_path / "result.json"
    truth, out = tmp_path / "truth.jsonl", tmp_path / "eval.csv"
    for argv in (["generate", "--n", "300", "--segments", "100-200", "--seed", "1",
                  "--out", str(stream)],
                 ["segment", "--stream", str(stream), "--block-len", "20", "--out", str(result)],
                 ["generate", "--n", "300", "--segments", "10-60", "--seed", "2",
                  "--out", str(truth)]):
        assert cli_main(argv) == 0, argv[0]
    written = json.loads(result.read_text(encoding="utf-8"))
    bound = {path: {"seed": s.seed, "sha256": hashlib.sha256(s.tokens.tobytes()).hexdigest()}
             for path, s in ((stream, read_stream_jsonl(stream)), (truth, read_stream_jsonl(truth)))}
    assert written["trace"]["stream"] == bound[stream]
    capsys.readouterr()
    argv = ["evaluate", "--truth", str(truth), "--est", str(result), "--out", str(out)]
    assert cli_main(argv) == 1
    assert not out.exists()
    assert capsys.readouterr().err == (f"error: result was segmented on stream {bound[stream]!r}, "
                                       f"the truth stream is {bound[truth]!r}\n")
    # A result that names no stream is checked on n and scheme only.
    del written["trace"]["stream"]
    result.write_text(json.dumps(written), encoding="utf-8")
    assert cli_main(argv) == 0 and out.exists()


@pytest.mark.parametrize("trace, message", [
    ([1, 2], "result trace must be a JSON object, not list"),
    ("trace", "result trace must be a JSON object, not str"),
    ({"certificate": None}, "result certificate must be a JSON object, not NoneType"),
], ids=["list-trace", "string-trace", "null-certificate"])
def test_evaluate_names_a_trace_that_is_not_an_object(trace, message, tmp_path, capsys):
    stream, result, out = tmp_path / "stream.jsonl", tmp_path / "result.json", tmp_path / "eval.csv"
    assert cli_main(["generate", "--n", "200", "--segments", "50-120", "--out", str(stream)]) == 0
    result.write_text(json.dumps({"segments": [[60, 110]], "trace": trace}), encoding="utf-8")
    capsys.readouterr()
    argv = ["evaluate", "--truth", str(stream), "--est", str(result), "--out", str(out)]
    assert cli_main(argv) == 1
    assert not out.exists()
    assert message in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("exponent", ["-400", "-1e308"])
def test_generate_takes_a_large_negative_zipf_exponent(exponent, tmp_path):
    # Powers of the ranks over the largest one stay within [0, 1].
    out = tmp_path / "stream.jsonl"
    assert cli_main(["generate", "--ntp", "zipf", f"--exponent={exponent}", "--vocab-size", "50",
                     "--n", "50", "--segments", "1-50", "--out", str(out)]) == 0
    assert read_stream_jsonl(out).tokens.size == 50


def test_bench_is_not_a_command(tmp_path):
    out = tmp_path / "bench.csv"
    assert cli_main(["bench", "--n-list", "1000", "--reps", "1", "--out", str(out)]) == 1
    assert not out.exists()


def test_evaluate_to_stdout_quotes_a_label_with_a_comma(tmp_path, capsys):
    stream, result = tmp_path / "stream.jsonl", tmp_path / "result.json"
    assert cli_main(["generate", "--n", "200", "--segments", "50-120", "--out", str(stream)]) == 0
    result.write_text(json.dumps({"segments": [[60, 110]]}), encoding="utf-8")
    capsys.readouterr()
    assert cli_main(["evaluate", "--truth", str(stream), "--est", str(result),
                     "--model-label", "llama,7b"]) == 0
    header, row = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert tuple(header) == EVAL_COLUMNS
    assert len(row) == len(EVAL_COLUMNS)
    assert row[EVAL_COLUMNS.index("model")] == "llama,7b"


@pytest.mark.parametrize("segments", ["100", "100-200,", "100-200.5", "100-200-300", "a-b",
                                      "100-200,,225-250", "-5-10", "[[100, 200]]"])
def test_generate_names_segments_that_are_not_l_r_pairs(segments, tmp_path, capsys):
    out = tmp_path / "stream.jsonl"
    argv = ["generate", "--n", "300", f"--segments={segments}", "--out", str(out)]
    assert cli_main(argv) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert f"segments {segments!r}:" in err and "L-R,L-R" in err


@pytest.mark.parametrize("segments", ["100-200,225-250", " 100 - 200 , 225-250 "])
def test_generate_reads_l_r_segments_from_the_flag(segments, tmp_path):
    out = tmp_path / "stream.jsonl"
    assert cli_main(["generate", "--n", "300", "--segments", segments, "--out", str(out)]) == 0
    assert read_stream_jsonl(out).true_segments.to_pairs() == [[100, 200], [225, 250]]


@pytest.mark.parametrize("segments", ["1-5", [[1, 2, 3]], [[1]], {"a": 1}],
                         ids=["string", "triple", "single", "object"])
@pytest.mark.parametrize("reader", ["stream header", "plan", "result"])
def test_segments_that_are_not_l_r_pairs_are_named_by_their_key(reader, segments, tmp_path,
                                                                 capsys):
    # A stream header's [[1, 2, 3]] used to print only "error: too many
    # values to unpack (expected 2)", an error that named no key.
    stream, out = tmp_path / "stream.jsonl", tmp_path / "out"
    assert cli_main(["generate", "--n", "300", "--segments", "100-200", "--seed", "1",
                     "--out", str(stream)]) == 0
    if reader == "stream header":
        header, body = stream.read_text(encoding="utf-8").splitlines()
        header = json.dumps({**json.loads(header), "true_segments": segments})
        stream.write_text(header + "\n" + body + "\n", encoding="utf-8")
        argv, key = ["segment", "--stream", str(stream), "--block-len", "20"], "true_segments"
    elif reader == "plan":
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"n": 300, "true_segments": segments, "ntp_model": {},
                                    "scheme": {"id": "gumbel", "vocab_size": 100},
                                    "grid": {"block_len": [20]}}), encoding="utf-8")
        argv, key = ["experiment", "--config", str(plan)], "true_segments"
    else:
        result = tmp_path / "result.json"
        result.write_text(json.dumps({"segments": segments}), encoding="utf-8")
        argv, key = ["evaluate", "--truth", str(stream), "--est", str(result)], "segments"
    capsys.readouterr()
    assert cli_main([*argv, "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith(f"error: {reader} key '{key}': ") and "[l, r] pair" in err
