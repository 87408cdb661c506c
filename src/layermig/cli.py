"""Command-line harness: run scenarios, parameter sweeps, calibration,
and reference-reproduction reports.

Exit codes: 0 success, 2 invalid config, 3 internal failure, 4 missing
calibration file, 5 underdetermined calibration fit.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from importlib import resources
from pathlib import Path

from .calibrate import (
    CONFIG_DESTS,
    CONTAINER_PROCESSING_CAP,
    CalibrationError,
    calibration_to_dict,
    fit_cost_model,
    load_calibration,
)
from .config import ConfigError, build_scenario, load_scenario_config, validate_scenario_config
from .guest import Virtualization, container_spec, vm_spec
from .migrator import (
    CostModel,
    MigrationScenario,
    default_cost_model,
    run_migration,
)
from .netsim import LinkSpec
from .workloads import builtin_profiles, derive_seed, profile_by_name, stable_index

MB = 1_000_000

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
            Virtualization.VM: (default_cost_model(Virtualization.VM), 45.0 * MB),
        }, "default"
    if arg is None:
        return load_calibration(_packaged_json("calibration_default.json")), "packaged"
    path = Path(arg)
    if not path.exists():
        raise CalibrationMissingError(f"calibration file not found: {path}")
    return load_calibration(path), str(path)


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_csv(path: Path | None, header: list[str], rows: list[list]) -> None:
    if path is None:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# --- run ---------------------------------------------------------------------


def cmd_run(args) -> int:
    config = load_scenario_config(args.scenario)
    calibration, _ = _resolve_calibration(args.calibration)
    scenario = build_scenario(config, calibration, seed=args.seed, scale=args.scale)
    report = run_migration(scenario).report
    _write_json(Path(args.out), report.to_json_dict())
    print(
        f"wrote {args.out}: total={report.total_seconds:.2f}s "
        f"downtime={report.downtime_seconds:.2f}s "
        f"wire={report.total_wire_bytes / MB:.2f}MB"
    )
    return EXIT_OK


# --- sweep -------------------------------------------------------------------

_DEFAULT_SWEEP_CONFIG = {
    "profile": "RAM Simulation",
    "virtualization": "container",
    "mode": "three_layer",
    "destination": {"has_base": True, "has_app": True},
}


def _sweep_rows(param: str, values: list[float], scenario: MigrationScenario) -> list[list]:
    rows = []
    for value in values:
        if param == "ram":
            varied = dataclasses.replace(
                scenario, profile=scenario.profile.with_memory(int(value * MB))
            )
        else:
            varied = dataclasses.replace(
                scenario,
                link=dataclasses.replace(scenario.link, bandwidth_bps=value * MB),
            )
        report = run_migration(varied).report
        rows.append(
            [f"{value:g}", f"{report.total_seconds:.6f}",
             f"{report.downtime_seconds:.6f}", report.total_wire_bytes]
        )
    return rows


def cmd_sweep(args) -> int:
    values = [float(v) for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigError("--values must list at least one number")
    if args.scenario:
        config = load_scenario_config(args.scenario)
    else:
        config = dict(_DEFAULT_SWEEP_CONFIG)
        validate_scenario_config(config)
    calibration, _ = _resolve_calibration(args.calibration)
    scenario = build_scenario(config, calibration, seed=args.seed, scale=args.scale)
    rows = _sweep_rows(args.param, values, scenario)
    _write_csv(Path(args.out) if args.out else None,
               ["param_value", "total_time_s", "downtime_s", "wire_bytes"], rows)
    if args.out:
        print(f"wrote {args.out}: {len(rows)} rows")
    return EXIT_OK


# --- reproduce ---------------------------------------------------------------


def _reference_scenario(
    kind: Virtualization,
    profile,
    config: str,
    calibration,
    *,
    seed_base: int,
    scale: float,
    bandwidth_bps: float = 100.0 * MB,
) -> MigrationScenario:
    mode, dest = CONFIG_DESTS[config]
    cost_model, cap = calibration[kind]
    spec = container_spec() if kind is Virtualization.CONTAINER else vm_spec()
    return MigrationScenario(
        guest_spec=spec,
        profile=profile,
        mode=mode,
        destination=dest,
        link=LinkSpec(bandwidth_bps=bandwidth_bps, processing_cap_bps=cap, seed=0),
        cost_model=cost_model,
        scale=scale,
        seed=derive_seed(seed_base, stable_index(profile.name)),
    )


def _rel(model: float, ref: float) -> str:
    return f"{(model - ref) / ref:+.4f}" if ref else ""


def cmd_reproduce(args) -> int:
    reference = _packaged_json("measurements.json")
    calibration, provenance = _resolve_calibration(args.calibration)
    out_dir = Path(args.out_dir)
    seed_base = args.seed if args.seed is not None else 0
    scale = args.scale if args.scale is not None else 1.0

    if args.target == "table1":
        header = ["virtualization", "profile", "configuration", "metric",
                  "model", "reference", "relative_error"]
        rows = []
        for kind in Virtualization:
            ref_kind = reference["table1"][kind.value]
            for profile in builtin_profiles():
                report = None
                for config in CONFIG_DESTS:
                    scenario = _reference_scenario(
                        kind, profile, config, calibration, seed_base=seed_base, scale=scale)
                    report = run_migration(scenario).report
                    cells = ref_kind[profile.name][config]
                    for metric, model, ref in [
                        ("total_s", report.total_seconds, cells["total_s"]),
                        ("wire_mb", report.total_wire_bytes / MB, cells["wire_mb"]),
                        ("downtime_s", report.downtime_seconds, cells["downtime_s"]),
                    ]:
                        rows.append([kind.value, profile.name, config, metric,
                                     f"{model:.4f}", f"{ref:.4f}", _rel(model, ref)])
        _write_csv(out_dir / "table1.csv", header, rows)

    elif args.target == "fig4":
        labels = reference["fig4_stages"]["stage_labels"]
        header = ["virtualization", "profile", "stage", "stage_label",
                  "model_s", "reference_s", "relative_error"]
        rows = []
        for kind in Virtualization:
            ref_kind = reference["fig4_stages"][kind.value]
            for profile in builtin_profiles():
                scenario = _reference_scenario(
                    kind, profile, "three_layer_app_not_found", calibration,
                    seed_base=seed_base, scale=scale)
                report = run_migration(scenario).report
                for record in report.stages:
                    ref = ref_kind[profile.name].get(record.stage.value)
                    rows.append([
                        kind.value, profile.name, record.stage.value,
                        labels.get(record.stage.value, record.stage.value),
                        f"{record.seconds:.4f}",
                        f"{ref:.4f}" if ref is not None else "",
                        _rel(record.seconds, ref) if ref else "",
                    ])
        _write_csv(out_dir / "fig4.csv", header, rows)

    else:  # fig5
        ram_rows = []
        bw_rows = []
        for kind in Virtualization:
            profile = profile_by_name("RAM Simulation")
            ram_ref = dict(
                (int(x), y) for x, y in reference["fig5_sweeps"]["ram"][kind.value]
            )
            for ram_mb in sorted(ram_ref):
                scenario = _reference_scenario(
                    kind, profile.with_memory(ram_mb * MB), "three_layer_app_found",
                    calibration, seed_base=seed_base, scale=scale)
                report = run_migration(scenario).report
                ref = ram_ref[ram_mb]
                ram_rows.append([kind.value, ram_mb, f"{report.total_seconds:.4f}",
                                 f"{ref:.4f}", _rel(report.total_seconds, ref)])
            bw_ref = dict(
                (float(x), y) for x, y in reference["fig5_sweeps"]["bandwidth"][kind.value]
            )
            for bw in sorted(bw_ref):
                scenario = _reference_scenario(
                    kind, profile, "three_layer_app_found", calibration,
                    seed_base=seed_base, scale=scale, bandwidth_bps=bw * MB)
                report = run_migration(scenario).report
                ref = bw_ref[bw]
                bw_rows.append([kind.value, f"{bw:g}", f"{report.total_seconds:.4f}",
                                f"{ref:.4f}", _rel(report.total_seconds, ref)])
        _write_csv(out_dir / "fig5_ram.csv",
                   ["virtualization", "ram_mb", "model_total_s", "reference_total_s",
                    "relative_error"], ram_rows)
        _write_csv(out_dir / "fig5_bandwidth.csv",
                   ["virtualization", "bandwidth_mbps", "model_total_s", "reference_total_s",
                    "relative_error"], bw_rows)

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
        with open(path, encoding="utf-8") as fh:
            reference = json.load(fh)
    else:
        reference = _packaged_json("measurements.json")

    results = {}
    for kind in Virtualization:
        if reference.get("fig4_stages", {}).get(kind.value):
            results[kind] = fit_cost_model(reference, kind)
    if not results:
        raise CalibrationError("reference data holds no stage measurements")

    _write_json(Path(args.out), calibration_to_dict(results))
    for kind, result in results.items():
        print(
            f"{kind.value}: objective={result.objective:.4f} "
            f"stage residuals within 30%: {result.within_30pct:.0%} "
            f"cap={result.processing_cap_bps / MB:.1f} Mbps"
        )
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

    p_cal = sub.add_parser("calibrate", parents=[shared],
                           help="fit the cost model to reference measurements")
    p_cal.add_argument("--reference", default=None,
                       help="reference measurements JSON (default: packaged)")
    p_cal.add_argument("--out", required=True, help="calibration JSON output path")
    p_cal.set_defaults(func=cmd_calibrate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
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
