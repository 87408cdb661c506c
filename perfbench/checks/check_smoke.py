"""Every workload at a tiny size, untraced and traced, through run.py."""

import json
import shutil
import subprocess
import sys

import pytest

from helpers import BENCH_DIR, ROOT

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
DELTA_WORKLOADS = {"stale-instance", "delta-edits"}


def _run(cwd, workload, trace, *extra):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_run(workload, trace):
    run = _run(ROOT, workload, trace, "--size", "tiny")
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in listed}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        assert (values["delta_sync.compute_delta.calls"] > 0) == (workload in DELTA_WORKLOADS)
    else:
        assert all(value > 0 for value in values.values())
        assert "error_rate" in run.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    run = _run(tmp_path, "reference-grid", 0)
    assert run.returncode != 0
    assert not any(line.startswith("{") for line in run.stdout.splitlines())
