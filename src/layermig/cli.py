"""Command-line harness: run scenarios, parameter sweeps, calibration,
and reference-reproduction reports.

Exit codes: 0 success, 2 invalid config, calibration or reference file,
3 internal failure, 4 missing calibration or reference file, 5
underdetermined calibration fit.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys
from importlib import resources
from pathlib import Path

from .calibrate import (
    CONTAINER_PROCESSING_CAP,
    INITIAL_VM_PROCESSING_CAP,
    CalibrationError,
    at_sweep_point,
    calibration_to_dict,
    fit_cost_model,
    load_calibration,
    reference_scenario,
)
from .config import ConfigError, build_scenario, load_scenario_config, read_json, read_reference
from .guest import Virtualization
from .migrator import (
    CostModel,
    MigrationReport,
    MigrationScenario,
    StageRecord,
    default_cost_model,
    price,
    simulate,
)
from .netsim import MB
from .workloads import builtin_profiles, derive_seed, stable_index

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INTERNAL = 3
EXIT_NO_CALIBRATION = 4
EXIT_UNDERDETERMINED = 5


class CalibrationMissingError(Exception):
    pass


def _packaged_json(name: str) -> dict:
    ref = resources.files("layermig").joinpath("reference", name)
    with ref.open(encoding="utf-8") as fh:
        return json.load(fh)


def _resolve_calibration(arg: str | None) -> tuple[dict[Virtualization, tuple[CostModel, float]], str]:
    """-> ({kind: (cost model, processing cap)}, provenance label)."""
    if arg == "default":
        return {
            Virtualization.CONTAINER: (
                default_cost_model(Virtualization.CONTAINER), CONTAINER_PROCESSING_CAP),
            Virtualization.VM: (default_cost_model(Virtualization.VM), INITIAL_VM_PROCESSING_CAP),
        }, "default"
    if arg is None:
        return load_calibration(_packaged_json("calibration_default.json")), "packaged"
    path = Path(arg)
    if not path.exists():
        raise CalibrationMissingError(f"calibration file not found: {path}")
    return load_calibration(read_json(path, "calibration file")), str(path)


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")


def _cell(value: float, spec: str) -> str:
    """A number formatted for a CSV cell; like the JSON writer's
    ``allow_nan=False``, it refuses NaN and infinities."""
    if not math.isfinite(value):
        raise ValueError(f"non-finite value in output: {value}")
    return format(value, spec)


def _write_csv(path: Path | None, header: list[str], rows: list[list]) -> None:
    """Write the CSV to ``path``, or to stdout if it is None."""
    if path is None:
        out = contextlib.nullcontext(sys.stdout)
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        out = open(path, "w", newline="", encoding="utf-8")
    with out as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _report(scenario: MigrationScenario,
            work: tuple[StageRecord, ...] | None = None) -> MigrationReport:
    """The scenario's migration report, priced from ``work`` when given:
    a simulation of a scenario that differs from this one only in its
    link.  Each cost-model value passed its own check, but together they
    can overflow: an infinite stage or total time is a config error."""
    report = price(simulate(scenario)[0] if work is None else work, scenario)
    for record in report.stages:
        if not math.isfinite(record.seconds):
            raise ConfigError(f"stage {record.stage.value} takes {record.seconds} s: "
                              "the cost model's values overflow")
    if not math.isfinite(report.total_seconds):
        raise ConfigError(f"the total time is {report.total_seconds} s: "
                          "the cost model's values overflow")
    return report


# --- run ---------------------------------------------------------------------


def cmd_run(args) -> int:
    config = load_scenario_config(args.scenario)
    calibration, _ = _resolve_calibration(args.calibration)
    scenario = build_scenario(config, calibration, seed=args.seed, scale=args.scale)
    report = _report(scenario)
    _write_json(Path(args.out), report.to_json_dict())
    print(
        f"wrote {args.out}: total={report.total_seconds:.2f}s "
        f"downtime={report.downtime_seconds:.2f}s "
        f"wire={report.total_wire_bytes / MB:.2f}MB"
    )
    return EXIT_OK


# --- sweep -------------------------------------------------------------------

_DEFAULT_SWEEP_CONFIG = {"profile": "RAM Simulation"}  # container, three-layer, app found


def _swept(scenario: MigrationScenario, param: str, value: float) -> MigrationScenario:
    """``scenario`` with ``param`` set to ``value`` (see
    :func:`calibrate.at_sweep_point`); a value the record checks reject
    is a config error."""
    try:
        return at_sweep_point(scenario, param, value)
    except (ValueError, OverflowError) as exc:  # OverflowError: int() of an infinity
        raise ConfigError(f"--values {value:g}: {exc}") from exc


def cmd_sweep(args) -> int:
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"--values: {exc}") from None
    if not values:
        raise ConfigError("--values must list at least one number")
    config = load_scenario_config(args.scenario) if args.scenario else _DEFAULT_SWEEP_CONFIG
    calibration, _ = _resolve_calibration(args.calibration)
    scenario = build_scenario(config, calibration, seed=args.seed, scale=args.scale)
    swept = [_swept(scenario, args.param, value) for value in values]
    # Simulating never reads the link, so one simulation serves every bandwidth.
    work = simulate(scenario)[0] if args.param == "bandwidth" else None
    rows = []
    for value, varied in zip(values, swept):
        try:
            report = _report(varied, work)
        except ConfigError as exc:
            raise ConfigError(f"--values {value:g}: {exc}") from exc
        rows.append(
            [_cell(value, "g"), _cell(report.total_seconds, ".6f"),
             _cell(report.downtime_seconds, ".6f"), report.total_wire_bytes]
        )
    _write_csv(Path(args.out) if args.out else None,
               ["param_value", "total_time_s", "downtime_s", "wire_bytes"], rows)
    if args.out:
        print(f"wrote {args.out}: {len(rows)} rows")
    return EXIT_OK


# --- reproduce ---------------------------------------------------------------


# Each CSV's columns between the virtualization and the relative error.
_REPRODUCE_COLUMNS = {
    "table1": ["profile", "configuration", "metric", "model", "reference"],
    "fig4": ["profile", "stage", "stage_label", "model_s", "reference_s"],
    "fig5_ram": ["ram_mb", "model_total_s", "reference_total_s"],
    "fig5_bandwidth": ["bandwidth_mbps", "model_total_s", "reference_total_s"],
}


def cmd_reproduce(args) -> int:
    records, labels = read_reference(_packaged_json("measurements.json"))
    calibration, provenance = _resolve_calibration(args.calibration)
    out_dir = Path(args.out_dir)
    seed_base = args.seed if args.seed is not None else 0
    scale = args.scale if args.scale is not None else 1.0
    profiles = {profile.name: profile for profile in builtin_profiles()}

    # One row per reference record of the target.  Each distinct migration
    # is simulated once, and priced once on each link it was measured on.
    rows = {figure: [] for figure in _REPRODUCE_COLUMNS if figure.startswith(args.target)}
    works, reports = {}, {}
    for record in records:
        if record.figure not in rows:
            continue
        measured = record.figure, record.kind, record.profile, record.configuration, record.x
        if measured not in reports:
            scenario = reference_scenario(record, profiles[record.profile], calibration,
                                          derive_seed(seed_base, stable_index(record.profile)),
                                          scale)
            run = record.kind, record.profile, record.configuration, scenario.profile.memory_bytes
            if run not in works:
                works[run] = simulate(scenario)[0]
            reports[measured] = _report(scenario, works[run])
        report = reports[measured]
        model = (report.total_wire_bytes / MB if record.metric == "wire_mb"
                 else sum(s.seconds for s in record.summed_stages(report.stages)))
        if record.figure == "table1":
            keys = [record.profile, record.configuration, record.metric]
        elif record.figure == "fig4":
            keys = [record.profile, record.metric, labels.get(record.metric, record.metric)]
        else:
            keys = [_cell(record.x, "g")]
        rows[record.figure].append([record.kind.value, *keys, _cell(model, ".4f"),
                                    _cell(record.value, ".4f"),
                                    _cell((model - record.value) / record.value, "+.4f")])
    for figure, figure_rows in rows.items():
        _write_csv(out_dir / f"{figure}.csv",
                   ["virtualization", *_REPRODUCE_COLUMNS[figure], "relative_error"], figure_rows)

    _write_json(out_dir / "metadata.json", {
        "schema": "layermig.reproduce/v1",
        "target": args.target,
        "calibration": provenance,
        "scale": scale,
        "seed": seed_base,
    })
    print(f"wrote {args.target} report to {out_dir} (calibration={provenance})")
    return EXIT_OK


# --- calibrate ----------------------------------------------------------------


def cmd_calibrate(args) -> int:
    if args.reference:
        path = Path(args.reference)
        if not path.exists():
            raise CalibrationMissingError(f"reference data not found: {path}")
        reference = read_json(path, "reference data")
    else:
        reference = _packaged_json("measurements.json")

    measured = {record.kind for record in read_reference(reference)[0] if record.figure == "fig4"}
    results = {kind: fit_cost_model(reference, kind) for kind in Virtualization if kind in measured}
    if not results:
        raise CalibrationError("reference data holds no stage measurements")

    _write_json(Path(args.out), calibration_to_dict(results))
    for kind, result in results.items():
        print(
            f"{kind.value}: objective={result.objective:.4f} "
            f"stage residuals within 30%: {result.within_30pct:.0%} "
            f"cap={result.processing_cap_bps / MB:.1f} Mbps"
        )
        print(f"  on a bound: {', '.join(result.at_bound) or 'none'}")
        worst = sorted(result.stage_residuals, key=lambda r: -abs(r["relative_error"]))[:3]
        for row in worst:
            print(
                f"  worst: {row['profile']} {row['stage']} measured={row['measured_s']}s "
                f"predicted={row['predicted_s']}s err={row['relative_error']:+.1%}"
            )
    print(f"wrote {args.out}")
    return EXIT_OK


# --- entry point ---------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--seed", type=int, default=None, help="override scenario seed")
    shared.add_argument("--scale", type=float, default=None,
                        help="override byte-size scale factor in (0, 1]")
    shared.add_argument("--calibration", default=None,
                        help="calibration JSON path, or 'default' for the uncalibrated model")

    parser = argparse.ArgumentParser(
        prog="layermig",
        description="Layered live-migration simulator for mobile edge clouds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", parents=[shared], help="run one scenario")
    p_run.add_argument("--scenario", required=True, help="scenario config JSON")
    p_run.add_argument("--out", required=True, help="report JSON output path")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", parents=[shared], help="sweep RAM or bandwidth")
    p_sweep.add_argument("--param", required=True, choices=["ram", "bandwidth"])
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values (MB for ram, Mbps for bandwidth)")
    p_sweep.add_argument("--scenario", default=None, help="base scenario config JSON")
    p_sweep.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_rep = sub.add_parser("reproduce", parents=[shared],
                           help="emit model-vs-reference grids")
    p_rep.add_argument("--target", required=True, choices=["table1", "fig4", "fig5"])
    p_rep.add_argument("--out-dir", required=True)
    p_rep.set_defaults(func=cmd_reproduce)

    p_cal = sub.add_parser("calibrate", help="fit the cost model to reference measurements")
    p_cal.add_argument("--reference", default=None,
                       help="reference measurements JSON (default: packaged)")
    p_cal.add_argument("--out", required=True, help="calibration JSON output path")
    p_cal.set_defaults(func=cmd_calibrate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # Overrides are checked before any calibration is read; calibrate
        # takes none.
        if "seed" in args:
            build_scenario({}, None, seed=args.seed, scale=args.scale)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CalibrationMissingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CALIBRATION
    except CalibrationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNDERDETERMINED
    except Exception as exc:  # internal failure
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
