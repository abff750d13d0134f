"""The grid experiment runner."""

import hashlib
import json

import pytest

from wmseg import harness
from wmseg.harness import ExperimentPlan, run_experiment
from wmseg.intervals import Segments
from wmseg.schemes import SchemeSpec
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

# SHA-256 of json.dumps(rows) as the runner produced it when it still
# recalibrated at every grid point; calibrating once per (b, alpha) must not
# change a single bit.
ROWS_DIGEST = "7158f2d475c3c68f016a3a515b932969fa2f49260137f3dc53d3b06e4903e11b"


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
