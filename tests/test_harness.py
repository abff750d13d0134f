"""The grid experiment runner."""

import dataclasses
import hashlib
import json

import pytest

from wmseg import harness
from wmseg.harness import ExperimentPlan, run_experiment
from wmseg.intervals import Segments
from wmseg.schemes import SchemeSpec
from wmseg.segmentation import SegmenterConfig
from wmseg.streams import NtpModel

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

# SHA-256 of json.dumps(rows). It pins generation (gumbel keys from keyed
# splitmix64 hashes, numpy's NTP draws), calibration and the segmenter;
# calibrating once per (b, alpha) must give the bits of calibrating at every
# grid point.
ROWS_DIGEST = "6acd42fcf5d0d7972ba9e1b5e63b8b2026ce8c04ea6c4001cb5b6c78a44aa9d4"


def test_rows_are_pinned():
    rows = run_experiment(PLAN)
    assert len(rows) == len(PLAN.grid()) * (PLAN.replications + 2) == 96
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == ROWS_DIGEST


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
    assert ExperimentPlan.from_json(PLAN.to_json()) == PLAN


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
        ExperimentPlan.from_json({**PLAN.to_json(), **edit})


@pytest.mark.parametrize("edit, key", [
    ({"n": None}, "n"),
    ({"grid": {"rho": [0.3]}}, "block_len"),
    ({"scheme": {"id": "gumbel"}}, "vocab_size"),
], ids=["plan", "grid", "scheme"])
def test_plan_from_json_names_a_missing_key(edit, key):
    data = {**PLAN.to_json(), **edit}
    data = {name: value for name, value in data.items() if value is not None}
    with pytest.raises(ValueError, match=f"missing .*'{key}'"):
        ExperimentPlan.from_json(data)
