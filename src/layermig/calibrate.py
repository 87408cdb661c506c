"""Fit the stage cost model against reference measurements.

The byte quantities behind every stage (wire bytes, scanned bytes,
cloned bytes, memory size) come from actually running the simulator;
the fit then chooses the rates and fixed terms that best reproduce the
measured per-stage durations and the per-configuration totals and
downtimes, minimizing squared relative error.  The optimizer is a
deterministic coordinate descent with golden-section line searches and
a fixed iteration budget, so refitting identical inputs always yields
an identical calibration file.

The objective is built once per fit from those simulator runs: every
distinct stage record gets one row, its wire, scanned and local bytes
sit in float64 arrays grouped by stage family (sync, clone, suspend,
restore, other), each total or downtime cell is a row of record
indices, and the observations' measured values are a vector.  One
evaluation computes every record's predicted seconds with a few
elementwise operations per family, then the cell totals and the error
sum.  Both sums are taken with ``np.cumsum``, which adds strictly left
to right like a Python ``for`` loop or ``sum()``; ``np.sum``, ``@`` and
``dot`` add pairwise or in BLAS order and would change the last bits of
the objective, hence the golden-section path and the fitted values.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .guest import GuestSpec, Virtualization, container_spec, vm_spec
from .migrator import (
    DOWNTIME_STAGES,
    CostModel,
    DestinationState,
    MigrationMode,
    MigrationScenario,
    Stage,
    StageRecord,
    default_cost_model,
    run_migration,
)
from .netsim import MB, LinkSpec

CONTAINER_PROCESSING_CAP = 50.0 * MB  # bits/s; saturation point of the sync engine
INITIAL_VM_PROCESSING_CAP = 45.0 * MB  # bits/s; the VM fit's starting point
FIT_SEED = 2024
SWEEPS = 30
LINE_SEARCH_STEPS = 40

CONFIG_DESTS = {
    "two_layer": (MigrationMode.TWO_LAYER, DestinationState(has_base=True)),
    "three_layer_app_not_found": (MigrationMode.THREE_LAYER, DestinationState(has_base=True)),
    "three_layer_app_found": (
        MigrationMode.THREE_LAYER,
        DestinationState(has_base=True, has_app=True),
    ),
}

# (name, lower bound, upper bound); rates in bytes/s, times in seconds.
PARAM_SPACE = [
    ("clone_rate", 20 * MB, 2000 * MB),
    ("stage_fixed_overhead", 1e-3, 5.0),
    ("suspend_fixed", 1e-3, 10.0),
    ("suspend_per_byte", 1e-12, 1e-7),
    ("restore_fixed", 1e-3, 10.0),
    ("restore_per_byte", 1e-12, 1e-7),
    ("other_tasks_fixed", 1e-2, 10.0),
    ("scan_rate", 10 * MB, 10_000 * MB),
]
CAP_PARAM = ("processing_cap", 5 * MB, 100 * MB)  # fitted for VMs only


class CalibrationError(Exception):
    """Reference data unusable: empty or underdetermined."""


def reference_link() -> LinkSpec:
    return LinkSpec(bandwidth_bps=100 * MB, latency_s=0.0, jitter_s=0.0, seed=0)


def _extract_features(
    spec: GuestSpec, profiles, link: LinkSpec
) -> dict[str, dict[str, tuple[StageRecord, ...]]]:
    """Per (profile, configuration) stage records from real simulator runs.

    Only the byte fields matter here; durations are recomputed from the
    candidate parameters during the fit.
    """
    features: dict[str, dict[str, tuple[StageRecord, ...]]] = {}
    throwaway = default_cost_model(spec.virtualization)
    for profile in profiles:
        per_config = {}
        for config, (mode, dest) in CONFIG_DESTS.items():
            scenario = MigrationScenario(
                guest_spec=spec,
                profile=profile,
                mode=mode,
                destination=dest,
                link=link,
                cost_model=throwaway,
                scale=1.0,
                seed=FIT_SEED,
            )
            per_config[config] = run_migration(scenario).report.stages
        features[profile.name] = per_config
    return features


def _observations(reference: dict, kind: str, profiles, features) -> tuple[list, list]:
    """The fit's observations over the simulator runs ``features``.

    Stage observations are ``(profile name, record, measured seconds)``
    for each measured stage of the three-layer, app-not-found runs; cell
    observations are ``(records, downtime only, measured seconds)`` for
    each measured total or downtime of a configuration.
    """
    stages_ref = reference.get("fig4_stages", {}).get(kind, {})
    cells_ref = reference.get("table1", {}).get(kind, {})
    stage_obs = []
    for profile in profiles:
        measured = stages_ref[profile.name]
        for record in features[profile.name]["three_layer_app_not_found"]:
            value = measured.get(record.stage.value)
            if value:
                stage_obs.append((profile.name, record, float(value)))
    cell_obs = []
    for profile in profiles:
        for config, values in cells_ref.get(profile.name, {}).items():
            records = features[profile.name].get(config)
            if not records:
                continue
            if values.get("total_s"):
                cell_obs.append((records, False, float(values["total_s"])))
            if values.get("downtime_s"):
                cell_obs.append((records, True, float(values["downtime_s"])))
    return stage_obs, cell_obs


SYNC_STAGES = frozenset(
    {
        Stage.SYNC_BASE_FILESYSTEM,
        Stage.SYNC_APP_FILESYSTEM,
        Stage.SYNC_INSTANCE_FILESYSTEM,
        Stage.SYNC_INSTANCE_MEMORY,
    }
)
CLONE_STAGES = frozenset({Stage.CLONE_BASE_AS_APP, Stage.CLONE_APP_AS_INSTANCE})


class _Objective:
    """Mean squared relative error of fixed observations, as arrays.

    Built once per fit; see the module docstring for why every sum is a
    ``np.cumsum``.
    """

    def __init__(self, stage_obs: list, cell_obs: list, link: LinkSpec):
        rows: dict[StageRecord, int] = {}
        stage_rows = [rows.setdefault(r, len(rows)) for _, r, _ in stage_obs]
        cell_rows = [
            [rows.setdefault(r, len(rows)) for r in records
             if not downtime_only or r.stage in DOWNTIME_STAGES]
            for records, downtime_only, _ in cell_obs
        ]
        # Row ``pad`` of the prediction vector holds 0.0 and fills the
        # cell matrix past each cell's last record.
        self.pad = len(rows)
        self.cells = np.full((len(cell_rows), max([1] + [len(r) for r in cell_rows])), self.pad)
        for i, r in enumerate(cell_rows):
            self.cells[i, : len(r)] = r
        self.stage_rows = np.array(stage_rows, dtype=np.intp)
        self.measured = np.array([m for *_, m in stage_obs] + [m for *_, m in cell_obs])
        self.bandwidth = link.bandwidth_bps

        records = list(rows)
        wire = np.array([r.wire_bytes for r in records], dtype=np.float64)
        scanned = np.array([r.scanned_bytes for r in records], dtype=np.float64)
        local = np.array([r.local_bytes for r in records], dtype=np.float64)

        def family(stages) -> np.ndarray:
            return np.array([i for i, r in enumerate(records) if r.stage in stages], dtype=np.intp)

        self.sync = family(SYNC_STAGES)
        self.sync_bits = wire[self.sync] * 8.0
        self.sync_scanned = scanned[self.sync]
        self.clone = family(CLONE_STAGES)
        self.clone_local = local[self.clone]
        self.suspend = family({Stage.SUSPEND_INSTANCE})
        self.suspend_local = local[self.suspend]
        self.restore = family({Stage.RESTORE_INSTANCE})
        self.restore_local = local[self.restore]
        self.other = family(
            set(Stage) - SYNC_STAGES - CLONE_STAGES - {Stage.SUSPEND_INSTANCE, Stage.RESTORE_INSTANCE}
        )

    def evaluate(self, params: dict[str, float]) -> tuple[np.ndarray, np.ndarray]:
        """Predicted seconds and relative error of each stage observation, then each cell."""
        pred = np.zeros(self.pad + 1)
        effective = min(self.bandwidth, params["processing_cap"])
        pred[self.sync] = (
            params["stage_fixed_overhead"]
            + self.sync_bits / effective
            + self.sync_scanned / params["scan_rate"]
        )
        pred[self.clone] = self.clone_local / params["clone_rate"]
        pred[self.suspend] = params["suspend_fixed"] + params["suspend_per_byte"] * self.suspend_local
        pred[self.restore] = params["restore_fixed"] + params["restore_per_byte"] * self.restore_local
        pred[self.other] = params["other_tasks_fixed"]
        totals = np.cumsum(pred[self.cells], axis=1)[:, -1]
        predicted = np.concatenate((pred[self.stage_rows], totals))
        return predicted, (predicted - self.measured) / self.measured

    def __call__(self, params: dict[str, float]) -> float:
        _, rel = self.evaluate(params)
        return float(np.cumsum(rel * rel)[-1] / len(rel))


@dataclass
class FitResult:
    cost_model: CostModel
    processing_cap_bps: float
    objective: float
    stage_residuals: list[dict]
    within_30pct: float


def fit_cost_model(
    reference: dict,
    virtualization: Virtualization,
    *,
    spec: GuestSpec | None = None,
    profiles=None,
) -> FitResult:
    """Fit one virtualization kind's cost model to the reference data.

    Stage durations (three-layer, app-not-found breakdown) and the
    per-configuration total/downtime cells all enter the objective as
    squared relative errors.  The container processing cap is pinned at
    its known 50 Mbps saturation point; the VM cap is fitted.
    """
    from .workloads import builtin_profiles

    kind = virtualization.value
    stages_ref = reference.get("fig4_stages", {}).get(kind, {})
    if not stages_ref:
        raise CalibrationError(f"reference contains no stage measurements for {kind!r}")

    spec = spec or (container_spec() if virtualization is Virtualization.CONTAINER else vm_spec())
    profiles = profiles or builtin_profiles()
    profiles = [p for p in profiles if p.name in stages_ref]
    if not profiles:
        raise CalibrationError("no reference profiles match the built-in workloads")
    link = reference_link()
    features = _extract_features(spec, profiles, link)

    stage_obs, cell_obs = _observations(reference, kind, profiles, features)
    if len(stage_obs) < len(PARAM_SPACE):
        raise CalibrationError(
            f"{len(stage_obs)} stage observations cannot determine {len(PARAM_SPACE)} parameters"
        )
    objective = _Objective(stage_obs, cell_obs, link)

    initial = default_cost_model(virtualization).to_dict()
    params = {name: initial[name] for name, _, _ in PARAM_SPACE}
    fit_cap = virtualization is Virtualization.VM
    params["processing_cap"] = INITIAL_VM_PROCESSING_CAP if fit_cap else CONTAINER_PROCESSING_CAP

    space = list(PARAM_SPACE) + ([CAP_PARAM] if fit_cap else [])

    def line_search(name: str, lo: float, hi: float) -> None:
        """Golden-section minimization of one coordinate in log space."""
        phi = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = math.log(lo), math.log(hi)
        c = b - phi * (b - a)
        d = a + phi * (b - a)

        def at(x: float) -> float:
            params[name] = math.exp(x)
            return objective(params)

        fc, fd = at(c), at(d)
        for _ in range(LINE_SEARCH_STEPS):
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - phi * (b - a)
                fc = at(c)
            else:
                a, c, fc = c, d, fd
                d = a + phi * (b - a)
                fd = at(d)
        best = c if fc < fd else d
        params[name] = math.exp(best)

    for _ in range(SWEEPS):
        for name, lo, hi in space:
            line_search(name, lo, hi)

    final = objective(params)
    n = len(stage_obs)
    predicted, rel = objective.evaluate(params)
    residuals = [
        {
            "profile": name,
            "stage": record.stage.value,
            "measured_s": measured,
            "predicted_s": round(float(p), 4),
            "relative_error": round(float(e), 4),
        }
        for (name, record, measured), p, e in zip(stage_obs, predicted[:n], rel[:n])
    ]

    cap = params.pop("processing_cap")
    return FitResult(
        cost_model=CostModel(**params),
        processing_cap_bps=cap,
        objective=final,
        stage_residuals=residuals,
        within_30pct=int(np.count_nonzero(np.abs(rel[:n]) <= 0.30)) / n,
    )


def calibration_to_dict(results: dict[Virtualization, FitResult]) -> dict:
    payload: dict = {"schema": "layermig.calibration/v1", "fitted": True}
    for virtualization, result in results.items():
        payload[virtualization.value] = {
            "cost_model": result.cost_model.to_dict(),
            "processing_cap_bps": result.processing_cap_bps,
            "fit": {
                "objective": result.objective,
                "stage_residuals": result.stage_residuals,
                "stage_residuals_within_30pct": result.within_30pct,
            },
        }
    return payload


def load_calibration(path_or_dict) -> dict[Virtualization, tuple[CostModel, float]]:
    """Calibration file -> {virtualization: (cost model, processing cap)}."""
    if isinstance(path_or_dict, dict):
        data = path_or_dict
    else:
        with open(path_or_dict, encoding="utf-8") as fh:
            data = json.load(fh)
    out = {}
    for virtualization in Virtualization:
        section = data.get(virtualization.value)
        if section:
            out[virtualization] = (
                CostModel(**section["cost_model"]),
                float(section["processing_cap_bps"]),
            )
    if not out:
        raise CalibrationError("calibration file holds no cost models")
    return out
