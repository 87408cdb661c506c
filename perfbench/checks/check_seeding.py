"""Scenario seeds come from a stable hash, never from ``hash()``."""

import json
import os
import subprocess
import sys

from helpers import BENCH_DIR, ROOT


def _digests(seed: int, hash_seed: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    run = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", "stale-instance",
         "--seed", str(seed), "--seconds", "0", "--size", "tiny"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["failed"] == 0
    return result["digests"]


def test_stale_instance_outputs_ignore_the_hash_seed():
    first = _digests(seed=7, hash_seed=1)
    assert len(first) == 3
    assert _digests(seed=7, hash_seed=2) == first


def test_workload_seed_changes_the_inputs():
    assert _digests(seed=8, hash_seed=1) != _digests(seed=7, hash_seed=1)
