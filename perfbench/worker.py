"""One benchmark workload in one fresh process, with one closed-loop caller.

    python3 perfbench/worker.py --setup-only
    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--size tiny]

``--setup-only`` prints the set-up time: importing ``layermig`` from
``src/`` and loading the packaged calibration and measurements.
Otherwise the worker prints a ``PLAN <ops>`` line, runs the workload
and prints its raw results as one JSON line; ``run.py`` turns them into
the benchmark's report.  A run does whole passes: at least enough to
last ``--seconds`` at each workload's nominal pass time, and more while
``--seconds`` have not passed.  With ``--trace 1`` half the budget runs
untraced and half with the layer wrappers installed; where
``compute_delta`` runs, one more pass records its ``tracemalloc`` peak.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
import traceback
from importlib import resources
from pathlib import Path

from stats import percentile, tail

ROOT = Path(__file__).resolve().parent.parent
MB = 1_000_000
# Every duration is CPU time of this process.  On a shared virtual host,
# wall time also counts time the hypervisor gives other tenants (steal),
# which made run-to-run spreads several times wider; the program is
# single-threaded and does no I/O, so the two agree on an idle host.
clock = time.process_time


def setup() -> tuple[float, dict, dict]:
    """Import the program from source and load its packaged data; timed."""
    start = clock()
    sys.path.insert(0, str(ROOT / "src"))
    from layermig import calibrate

    ref = resources.files("layermig").joinpath("reference")
    with ref.joinpath("calibration_default.json").open(encoding="utf-8") as fh:
        calibration = calibrate.load_calibration(json.load(fh))
    with ref.joinpath("measurements.json").open(encoding="utf-8") as fh:
        measurements = json.load(fh)
    return clock() - start, calibration, measurements


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0


def run_passes(workload, min_passes: int, budget_s: float, tally: Tally,
               digests: dict, tracer=None) -> tuple[list[float], list[float], dict]:
    """Run whole passes; return op times, pass times and the first
    pass's checked outputs.  A failed op is counted and never aborts."""
    op_times: list[float] = []
    pass_times: list[float] = []
    first: dict | None = None
    started = time.perf_counter()  # the budget is wall time, so a run's length is bounded
    while len(pass_times) < min_passes or time.perf_counter() - started < budget_s:
        outputs = {}
        pass_s = 0.0
        for key, op in workload.pass_ops():
            tally.attempted += 1
            if tracer is not None:
                tracer.op = tally.attempted
            t0 = clock()
            try:
                out = op()
            except Exception:
                tally.failed += 1
                traceback.print_exc()
                continue
            elapsed = clock() - t0
            op_times.append(elapsed)
            pass_s += elapsed
            try:
                digest = workload.check(key, out)
                if digests.setdefault(key, digest) != digest:
                    raise AssertionError(f"{key}: output differs from an earlier pass")
            except Exception:
                tally.failed += 1
                traceback.print_exc()
                continue
            outputs[key] = out
        pass_times.append(pass_s)
        if first is None:
            first = outputs
    return op_times, pass_times, first


def end_to_end(workload, op_times, pass_times, outputs) -> tuple[dict, dict]:
    """Every end-to-end metric this workload reports, and notes for the table."""
    busy = sum(op_times)
    quality = workload.quality(outputs)
    ordered = sorted(op_times)
    p, value, beyond = tail(ordered)
    metrics = {
        "wall_s": statistics.median(pass_times),
        "op_p50_s": percentile(ordered, 50)[0],
        "op_tail_s": value,
        "ops_per_s": len(op_times) / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB,
    }
    if "sim_bytes" in quality:
        metrics["sim_mb_per_s"] = quality.pop("sim_bytes") / MB * len(pass_times) / busy
    notes = {"op_tail_s": f"p{p:g}, {len(op_times)} samples, {beyond} beyond"}
    if "ref_cells" in quality:
        notes["ref_err_p50"] = notes["ref_err_p90"] = f"{quality.pop('ref_cells')} cells"
    metrics.update(quality)
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    setup_s, calibration, measurements = setup()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import suite
    import tracer as tracing

    workload = suite.WORKLOADS[args.workload](args.seed, args.size, calibration, measurements)
    passes = 1 if args.size == "tiny" else max(1, math.ceil(args.seconds / workload.nominal_pass_s))
    budget = 0.0 if args.size == "tiny" else args.seconds
    if args.trace:
        passes, budget = math.ceil(passes / 2), budget / 2
    print(f"PLAN {(passes * (1 + args.trace) + args.trace) * len(workload.pass_ops())}", flush=True)

    tally = Tally()
    digests: dict = {}
    op_times, pass_times, outputs = run_passes(workload, passes, budget, tally, digests)
    metrics, notes = end_to_end(workload, op_times, pass_times, outputs) if op_times else ({}, {})
    result = {
        "workload": args.workload, "size": args.size, "seed": args.seed,
        "passes": len(pass_times), "metrics": metrics, "notes": notes,
    }
    if args.trace:
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            _, traced_times, _ = run_passes(workload, passes, budget, tally, digests, tracer)
        peak = 0.0
        if tracer.counters["delta_sync.compute_delta"]["calls"]:
            memory = tracing.Tracer(peak_memory=True)
            with tracing.installed(memory):
                run_passes(workload, 1, 0.0, tally, digests, memory)
            peak = memory.counters["delta_sync.compute_delta"]["peak_bytes"]
        layers = tracing.layer_metrics(tracer, len(traced_times), peak)
        layers["trace.overhead_s"] = statistics.median(traced_times) - metrics.get("wall_s", math.nan)
        result["layers"] = layers
        result["traced_passes"] = len(traced_times)
    result.update(attempted=tally.attempted, failed=tally.failed,
                  digests={k if isinstance(k, str) else "/".join(map(str, k)): v
                           for k, v in digests.items()})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
