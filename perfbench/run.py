"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size tiny]

Run from the root of a source checkout.  The program is imported from
``src/``; nothing is installed.  Set-up is timed in SETUP_PROBES fresh
processes and reported as their median; the workload then runs in one
more fresh process (``worker.py``), so ``peak_rss_mb`` is that
process's own.  The table printed first holds every metric the
workload measures; the last line is the JSON result, with the
end-to-end metrics listed in ``BENCHMARK.json`` for ``--trace 0`` and
its per-layer metrics for ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 7
TIME_LIMIT_S = 170.0
MB = 1_000_000

# Printed in the table by the workloads that measure them; the JSON line
# carries only the metrics BENCHMARK.json lists.
WORKLOAD_METRICS = {
    "error_rate": "ratio",
    "sim_mb_per_s": "MB/s",
    "wire_ratio": "ratio",
    "ref_err_p50": "ratio",
    "ref_err_p90": "ratio",
    "fit_objective": "ratio",
}


def listed(benchmark: dict, kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in benchmark[kind]}


def worker(*args: str, timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, timeout=timeout)


def last_json(stdout: str) -> dict | None:
    lines = [l for l in stdout.splitlines() if l.startswith("{")]
    return json.loads(lines[-1]) if lines else None


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="layermig benchmark")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: one pass of small inputs, for a smoke run")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "layermig" / "__init__.py").is_file():
        print(f"error: no layermig sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S

    setup = []
    for _ in range(SETUP_PROBES):
        probe = worker("--setup-only", timeout=60)
        if probe.returncode != 0:
            print("error: set-up failed", file=sys.stderr)
            return 1
        setup.append(last_json(probe.stdout)["setup_s"])
    setup_s = statistics.median(setup)

    kind = "per_layer" if args.trace else "end_to_end"
    try:
        run = worker("--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", str(args.trace),
                     "--size", args.size, timeout=max(1.0, deadline - time.monotonic()))
        stdout, code = run.stdout, run.returncode
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped it
        stdout, code = exc.stdout or "", None
        if isinstance(stdout, bytes):
            stdout = stdout.decode()
    raw = last_json(stdout) if code == 0 else None
    if raw is None:
        plan = [l for l in stdout.splitlines() if l.startswith("PLAN ")]
        if code is not None and code > 0 or not plan:
            print(f"error: worker exited with code {code}", file=sys.stderr)
            return 1
        # Killed (out of memory, or over the time limit): every op fails.
        planned = int(plan[-1].split()[1])
        print(f"{args.workload}: worker killed (code {code}); all {planned} ops failed")
        known = {"setup_s": setup_s,
                 "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / MB}
        metrics = {name: {"value": known.get(name), "unit": unit}
                   for name, unit in listed(benchmark, kind).items()}
        print(json.dumps({"correct": False, "attempted": planned, "failed": planned,
                          "metrics": metrics}))
        return 0

    measured = dict(raw["metrics"], setup_s=setup_s, error_rate=raw["failed"] / raw["attempted"])
    notes = dict(raw["notes"], setup_s=f"median of {SETUP_PROBES} fresh processes",
                 error_rate=f"{raw['failed']} failed of {raw['attempted']}")
    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"untraced passes {raw['passes']}"
          + (f"  traced passes {raw['traced_passes']}" if args.trace else ""))
    for name, unit in {**listed(benchmark, "end_to_end"), **WORKLOAD_METRICS}.items():
        if measured.get(name) is not None:
            print(f"  {name:<16} {measured[name]:>14.6g} {unit:<6} {notes.get(name, '')}")
    if args.trace:
        measured = raw["layers"]
        for name, unit in listed(benchmark, kind).items():
            print(f"  {name:<48} {measured.get(name, math.nan):>14.6g} {unit}")
    metrics = {name: {"value": measured.get(name), "unit": unit}
               for name, unit in listed(benchmark, kind).items()}
    correct = raw["failed"] == 0 and all(
        isinstance(m["value"], (int, float)) and math.isfinite(m["value"]) for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
