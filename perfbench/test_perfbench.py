"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``.

They use the ``smoke`` input size, so each workload runs once in a few
seconds; timings from these runs mean nothing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_spec_matches_the_code():
    assert NAMES == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: unit for name, (unit, _) in LAYER_METRICS.items()
    }
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", NAMES)
def test_smoke_run_reports_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0",
                "--trace", trace, "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1, proc.stderr
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: entry["unit"] for name, entry in last["metrics"].items()
    }
    for entry in last["metrics"].values():
        assert isinstance(entry["value"], float)
    if trace == "0":
        for entry in last["metrics"].values():
            assert entry["value"] > 0


@pytest.mark.parametrize("workload", NAMES)
def test_same_seed_gives_identical_inputs_and_quality(workload, tmp_path):
    size = workloads.SIZES["smoke"]
    outcomes = []
    for run_dir in ("a", "b"):
        wl = workloads.WORKLOADS[workload](11, size, tmp_path / run_dir)
        digest = wl.setup()
        wl.run_pass(workloads.Ledger(workloads.SpeedProbe()), None)
        outcomes.append((digest, wl.quality))
    assert outcomes[0] == outcomes[1]
    if workload == "verify":
        files_a = sorted((tmp_path / "a" / "verify-inputs").iterdir())
        files_b = sorted((tmp_path / "b" / "verify-inputs").iterdir())
        assert [f.name for f in files_a] == [f.name for f in files_b]
        assert all(a.read_bytes() == b.read_bytes() for a, b in zip(files_a, files_b))
    other = workloads.WORKLOADS[workload](12, size, tmp_path / "c")
    assert other.setup() != outcomes[0][0]


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
