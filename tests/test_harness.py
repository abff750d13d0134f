"""The grid experiment runner."""

import dataclasses
import hashlib
import json
import re

import numpy as np
import pytest

from wmseg import harness
from wmseg.calibration import calibrate_threshold
from wmseg.harness import ExperimentPlan, run_experiment
from wmseg.intervals import Segments
from wmseg.keys import TAG_REPLICATION, mix
from wmseg.metrics import evaluate
from wmseg.schemes import SchemeSpec
from wmseg.segmentation import SegmenterConfig, segment_series
from wmseg.streams import NtpModel, StreamSpec, generate_stream, score_tokens

PLAN = ExperimentPlan(
    n=600,
    true_segments=Segments([(200, 400)], n=600),
    scheme=SchemeSpec("gumbel", vocab_size=50),
    ntp_model=NtpModel(kind="dirichlet", delta_cap=0.5),
    replications=2,
    block_lens=(30, 50),
    rhos=(0.3, 0.5, 0.7),
    alphas=(0.05, 0.1),
    gammas=(0.1, 0.2),
    mc_reps=2000,
    seed=7,
    include_timing=False,
)
# PLAN as the plan JSON object a user writes, with every plan key.
PLAN_JSON = {
    "n": 600,
    "true_segments": [[200, 400]],
    "scheme": {"id": "gumbel", "vocab_size": 50},
    "ntp_model": {"kind": "dirichlet", "delta_cap": 0.5, "concentration": 0.3},
    "replications": 2,
    "grid": {"block_len": [30, 50], "rho": [0.3, 0.5, 0.7], "alpha": [0.05, 0.1],
             "gamma": [0.1, 0.2]},
    "discard_c": 0.5,
    "mc_reps": 2000,
    "seed": 7,
    "include_timing": False,
}

# SHA-256 of json.dumps(rows). It pins generation (gumbel keys from keyed
# splitmix64 hashes, numpy's draws of the NTP rows and the unwatermarked
# tokens), calibration and the segmenter. Generation runs once per
# replication and every grid point segments those streams; calibrating once
# per (b, alpha) must give the bits of calibrating at every grid point.
ROWS_DIGEST = "718888fc0ad9fc22e1eb09e3c33d5d3451900ce49f334be0937215accf16bc80"

# SHA-256 of json.dumps(rows[:PLAN.replications + 2]): the first grid point's
# run, mean and median rows.
FIRST_POINT_DIGEST = "62bb78bc9fb6de38bae8b4a0c6edf70042e3d27b2a1a44713f274eac8ab4c36b"


def test_rows_are_pinned():
    rows = run_experiment(PLAN)
    assert len(rows) == len(PLAN.grid()) * (PLAN.replications + 2) == 96
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == ROWS_DIGEST


def test_first_grid_points_rows_are_pinned():
    rows = run_experiment(PLAN)[:PLAN.replications + 2]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == FIRST_POINT_DIGEST


def test_generates_each_replications_stream_once(monkeypatch):
    seeds = []
    generate = harness.generate_stream

    def counting(spec):
        seeds.append(spec.seed)
        return generate(spec)

    monkeypatch.setattr(harness, "generate_stream", counting)
    run_experiment(PLAN)
    assert len(seeds) == PLAN.replications == 2 and len(set(seeds)) == 2


def test_every_grid_point_segments_the_replications_streams():
    streams = [generate_stream(StreamSpec(PLAN.n, PLAN.true_segments, PLAN.scheme, PLAN.ntp_model,
                                          seed=mix(PLAN.seed, TAG_REPLICATION, 0, rep)))
               for rep in range(PLAN.replications)]
    series = [score_tokens(stream.tokens, stream.seed, stream.scheme) for stream in streams]
    rows = iter(run_experiment(PLAN))
    for b, rho, alpha, gamma in PLAN.grid():
        cert = calibrate_threshold(PLAN.scheme, PLAN.n, b, alpha)
        config = SegmenterConfig(cert=cert, rho=rho, gamma=gamma, discard_c=PLAN.discard_c)
        for rep, pivots in enumerate(series):
            result = segment_series(pivots, config)
            report = evaluate(PLAN.true_segments, result.segments, PLAN.n)
            assert next(rows) == harness._format_row(
                "run", b, rho, alpha, gamma, rep, report, PLAN.ntp_model.describe(),
                PLAN.scheme.scheme_id)
        assert [next(rows)[0] for _ in range(2)] == ["aggregate-mean", "aggregate-median"]


def test_calibrates_once_per_block_len_and_alpha(monkeypatch):
    calls = []
    calibrate = harness.calibrate_threshold

    def counting(scheme, n, block_len, alpha, **kwargs):
        calls.append((block_len, alpha))
        return calibrate(scheme, n, block_len, alpha, **kwargs)

    monkeypatch.setattr(harness, "calibrate_threshold", counting)
    run_experiment(PLAN)
    assert sorted(calls) == [(30, 0.05), (30, 0.1), (50, 0.05), (50, 0.1)]


def test_more_than_one_job_is_rejected():
    with pytest.raises(ValueError, match="jobs must be 1"):
        run_experiment(PLAN, jobs=2)


def test_plan_json_round_trip():
    assert ExperimentPlan.from_json(PLAN_JSON) == PLAN


def test_plan_from_json_takes_the_field_defaults_for_missing_keys():
    minimal = {"n": 600, "scheme": {"id": "gumbel", "vocab_size": 50}, "ntp_model": {},
               "grid": {"block_len": [30]}}
    plan = ExperimentPlan.from_json(minimal)
    assert plan == ExperimentPlan(600, SchemeSpec("gumbel", 50), NtpModel(), (30,))
    assert plan.replications == 1 and plan.true_segments == Segments()
    segmenter = {f.name: f.default for f in dataclasses.fields(SegmenterConfig)}
    assert plan.rhos == (segmenter["rho"],) and plan.gammas == (segmenter["gamma"],)
    assert plan.discard_c == segmenter["discard_c"]


@pytest.mark.parametrize("edit, key", [
    ({"replicatons": 2}, "replicatons"),
    ({"grid": {"block_len": [30], "rhos": [0.3]}}, "rhos"),
    ({"scheme": {"id": "red_green", "vocab_size": 50, "green_fraction": 0.25}}, "green_fraction"),
    ({"ntp_model": {"kind": "dirichlet", "concentraton": 0.7}}, "concentraton"),
], ids=["plan", "grid", "scheme", "ntp_model"])
def test_plan_from_json_rejects_unknown_keys(edit, key):
    with pytest.raises(ValueError, match=f"unknown .*'{key}'"):
        ExperimentPlan.from_json({**PLAN_JSON, **edit})


@pytest.mark.parametrize("edit, message", [
    ({"scheme": "gumbel"}, "scheme must be a JSON object, not str"),
    ({"ntp_model": []}, "ntp_model must be a JSON object, not list"),
    ({"grid": [20]}, "grid must be a JSON object, not list"),
], ids=["scheme", "ntp_model", "grid"])
def test_plan_from_json_rejects_a_record_that_is_not_an_object(edit, message):
    # A string's letters and a list's items used to read as keys ("unknown
    # scheme key(s): 'b', 'e', 'g', ..."), and an empty list as an object
    # without items().
    with pytest.raises(ValueError, match=message):
        ExperimentPlan.from_json({**PLAN_JSON, **edit})


@pytest.mark.parametrize("edit, key", [
    ({"n": None}, "n"),
    ({"grid": {"rho": [0.3]}}, "block_len"),
    ({"scheme": {"id": "gumbel"}}, "vocab_size"),
], ids=["plan", "grid", "scheme"])
def test_plan_from_json_names_a_missing_key(edit, key):
    data = {**PLAN_JSON, **edit}
    data = {name: value for name, value in data.items() if value is not None}
    with pytest.raises(ValueError, match=f"missing .*'{key}'"):
        ExperimentPlan.from_json(data)


@pytest.mark.parametrize("edit, key", [
    ({"include_timing": "false"}, "include_timing"),
    ({"include_timing": 0}, "include_timing"),
    ({"replications": 2.9}, "replications"),
    ({"n": 600.7}, "n"),
    ({"seed": True}, "seed"),
    ({"discard_c": "0.5"}, "discard_c"),
    ({"grid": {"block_len": [30.0]}}, "block_len"),
    ({"grid": {"block_len": [30], "alpha": [True]}}, "alpha"),
    ({"scheme": {"id": "gumbel", "vocab_size": 50.0}}, "vocab_size"),
    ({"ntp_model": {"kind": "dirichlet", "concentration": "0.7"}}, "concentration"),
], ids=["string-bool", "int-bool", "float-replications", "float-n", "bool-seed",
        "string-discard-c", "float-block-len", "bool-alpha", "float-vocab-size",
        "string-concentration"])
def test_plan_from_json_rejects_a_value_of_another_json_type(edit, key):
    # Each of these used to be coerced: "false" read as True, 2.9
    # replications as 2 and n=600.7 as 600.
    with pytest.raises(ValueError, match=f"key '{key}': .* is not a JSON"):
        ExperimentPlan.from_json({**PLAN_JSON, **edit})


@pytest.mark.parametrize("segments, bad", [([[100.7, 200]], "100.7"), ([[100.7, True]], "100.7")],
                         ids=["float-end", "float-and-bool-ends"])
def test_plan_from_json_names_a_non_integer_segment_end(segments, bad):
    with pytest.raises(ValueError, match=f"key 'true_segments': interval end {bad} is not"):
        ExperimentPlan.from_json({**PLAN_JSON, "true_segments": segments})


def test_the_fixed_ntp_kind_is_unknown():
    """The NTP models are dirichlet and zipf; a fixed one lives in the tests
    (``fixed_ntp.FixedNtp``)."""
    for build in (lambda: NtpModel("fixed"),
                  lambda: NtpModel.from_json({"kind": "fixed", "vectors": [[0.5, 0.5]]}),
                  lambda: ExperimentPlan.from_json({**PLAN_JSON, "ntp_model": {
                      "kind": "fixed", "vectors": [[0.5, 0.5]]}})):
        with pytest.raises(ValueError, match="unknown NTP model kind 'fixed'"):
            build()


@pytest.mark.parametrize("field", ["rhos", "alphas", "gammas"])
@pytest.mark.parametrize("value", [np.float64(0.2), np.float32(0.2), True],
                         ids=["float64", "float32", "bool"])
def test_a_grid_entry_that_is_not_a_python_number_is_rejected(field, value):
    # The CSV writes each entry by repr, so under numpy 2 an np.float64(0.2)
    # entry used to run and write the cell "np.float64(0.2)".
    message = f"{field} must hold ints or floats, not {type(value).__name__}"
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(PLAN, **{field: (getattr(PLAN, field)[0], value)})


@pytest.mark.parametrize("value", [np.int64(20), True, 20.0, 0],
                         ids=["int64", "bool", "float", "zero"])
def test_a_block_len_that_is_not_a_positive_python_int_is_rejected(value):
    # Caught when the plan is built, not by calibrate_threshold inside
    # run_experiment.
    message = f"block_lens must hold ints >= 1, not {value!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        dataclasses.replace(PLAN, block_lens=(30, value))


def test_a_plan_reaches_the_inverse_alpha_floor_through_calibration():
    plan = dataclasses.replace(PLAN, scheme=SchemeSpec("inverse", 50), alphas=(1e-15,))
    with pytest.raises(ValueError, match=r"below 2e-11, the least level"):
        run_experiment(plan)


def test_plan_from_json_reads_a_json_integer_as_a_float():
    plan = ExperimentPlan.from_json({**PLAN_JSON, "discard_c": 1,
                                     "grid": {"block_len": [30], "alpha": [1]}})
    assert type(plan.discard_c) is float and plan.discard_c == 1.0
    assert plan.alphas == (1.0,) and type(plan.alphas[0]) is float


def test_a_plan_rejects_true_segments_past_its_n():
    """Caught when the plan is built or read, not in run_experiment after
    every threshold is calibrated."""
    with pytest.raises(ValueError, match=r"interval \[500, 700\] exceeds n=600"):
        dataclasses.replace(PLAN, true_segments=Segments([(500, 700)]))
    with pytest.raises(ValueError, match=r"interval \[500, 700\] exceeds n=600"):
        ExperimentPlan.from_json({**PLAN_JSON, "true_segments": [[500, 700]]})
