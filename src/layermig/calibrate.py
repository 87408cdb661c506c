"""Fit the stage cost model against reference measurements.

The byte quantities behind every stage (wire bytes, scanned bytes,
cloned bytes, memory size) come from ``migrator.simulate``, which runs
the simulator without pricing it.  Every stage's seconds are linear in
one term vector θ: ``migrator.stage_features`` gives the record's row,
and ``migrator.cost_terms`` gives θ from a cost model and a link,
holding the fixed and per-byte terms and the reciprocals of the rates,
exactly as ``migrator.price`` charges a simulated stage.  A total
or downtime cell is the sum of its stages' rows.  Minimizing the squared
relative error of the measured stages and cells is therefore the linear
least-squares problem ``min ||Aθ - 1||²``, where each row of A is an
observation's row divided by its measured seconds, under the boxes that
``PARAM_SPACE`` and ``CAP_PARAM`` put on each term.

The wire term is 1/min(link bandwidth, processing cap).  The VM cap's
box never exceeds the 100 Mbps reference link, so the term is 1/cap and
one more linear column; the container's pinned cap makes it a constant,
a term whose box is a single point, which the solve moves to the
right-hand side.  ``bvls`` solves the problem exactly in a finite
number of least-squares steps, with no starting point or iteration
budget to choose, and refitting identical inputs always yields an
identical calibration file.  The fit reports each parameter it left on
a bound, as the data do not identify it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ConfigError, calibration_block, read_json
from .guest import GuestSpec, Virtualization, container_spec, vm_spec
from .migrator import (
    COST_TERMS,
    DOWNTIME_STAGES,
    CostModel,
    DestinationState,
    MigrationMode,
    MigrationScenario,
    StageRecord,
    cost_terms,
    simulate,
    stage_features,
    stage_seconds,
)
from .netsim import MB, LinkSpec

CONTAINER_PROCESSING_CAP = 50.0 * MB  # bits/s; saturation point of the sync engine
INITIAL_VM_PROCESSING_CAP = 45.0 * MB  # bits/s; the VM cap of ``--calibration default``
FIT_SEED = 2024

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
    """Per (profile, configuration) unpriced stage records from real
    simulator runs; the fit prices them."""
    features: dict[str, dict[str, tuple[StageRecord, ...]]] = {}
    for profile in profiles:
        per_config = {}
        for config, (mode, dest) in CONFIG_DESTS.items():
            scenario = MigrationScenario(
                guest_spec=spec,
                profile=profile,
                mode=mode,
                destination=dest,
                link=link,
                cost_model=None,
                scale=1.0,
                seed=FIT_SEED,
            )
            per_config[config] = simulate(scenario)[0]
        features[profile.name] = per_config
    return features


def _observations(reference: dict, kind: str, profiles, features) -> tuple[list, list]:
    """The fit's observations over the simulator runs ``features``.

    Stage observations are ``(profile name, record, measured seconds)``
    for each measured stage of the three-layer, app-not-found runs; cell
    observations are ``(records, measured seconds)`` for each measured
    total or downtime of a configuration, a downtime's records being its
    downtime stages.
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
                cell_obs.append((records, float(values["total_s"])))
            if values.get("downtime_s"):
                downtime = [r for r in records if r.stage in DOWNTIME_STAGES]
                cell_obs.append((downtime, float(values["downtime_s"])))
    return stage_obs, cell_obs


def bvls(A: np.ndarray, b: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """argmin ||Ax - b|| subject to lo <= x <= hi, by bounded-variable
    least squares (Stark and Parker, Computational Statistics 10, 1995).

    Every variable starts on its lower bound.  Each round frees the bound
    variable whose gradient points furthest into the box and solves least
    squares over the free variables, stepping back to the first bound
    crossed until that solution lies inside the box.  The solve ends when
    no bound variable's gradient points inward; a variable on a bound is
    returned exactly equal to it.  Columns are scaled to unit norm first.
    """
    norm = np.linalg.norm(A, axis=0)
    norm[norm == 0] = 1.0
    A, lo_s, hi_s = A / norm, lo * norm, hi * norm
    x = lo_s.copy()
    free, tried = np.zeros(len(x), dtype=bool), np.zeros(len(x), dtype=bool)
    tol = 1e-12 * max(1.0, float(np.linalg.norm(b)))
    while True:
        w = A.T @ (b - A @ x)
        inward = ~free & ~tried & (((x < hi_s) & (w > tol)) | ((x > lo_s) & (w < -tol)))
        if not inward.any():
            return np.where(x == lo_s, lo, np.where(x == hi_s, hi, x / norm))
        t = int(np.argmax(np.where(inward, np.abs(w), -1.0)))
        free[t], start = True, x
        while True:
            z = x.copy()
            z[free] = np.linalg.lstsq(A[:, free], b - A[:, ~free] @ x[~free], rcond=None)[0]
            out = free & ((z < lo_s) | (z > hi_s))
            if not out.any():
                x = z
                free &= (x > lo_s) & (x < hi_s)
                break
            bound = np.where(z < lo_s, lo_s, hi_s)
            steps = np.full(len(x), np.inf)
            steps[out] = (bound[out] - x[out]) / (z[out] - x[out])
            step = steps.min()
            if step == 0 and x is start:  # t would leave the box at once
                free[t] = False
                break
            x = np.clip(x + step * (z - x), lo_s, hi_s)
            x[steps == step] = bound[steps == step]
            free &= (x > lo_s) & (x < hi_s)
        if (x == start).all():
            tried[t] = True
        else:
            tried[:] = False


@dataclass
class FitResult:
    cost_model: CostModel
    processing_cap_bps: float
    objective: float
    stage_residuals: list[dict]
    within_30pct: float
    at_bound: list[str]  # fitted parameters the solve left on a bound


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
    observed = [[r] for _, r, _ in stage_obs] + [records for records, _ in cell_obs]
    measured = [m for *_, m in stage_obs] + [m for _, m in cell_obs]
    rows = np.array([np.sum([stage_features(r) for r in records], axis=0) for records in observed])

    # Each term's box, from its parameter's; a rate's term is its reciprocal.
    caps = CAP_PARAM[1:] if virtualization is Virtualization.VM else (CONTAINER_PROCESSING_CAP,) * 2
    boxes = {name: (lo, hi) for name, lo, hi in PARAM_SPACE}
    boxes["effective_rate"] = tuple(min(link.bandwidth_bps, cap) for cap in caps)
    lo, hi = np.array([(1.0 / boxes[name][1], 1.0 / boxes[name][0]) if reciprocal else boxes[name]
                       for name, reciprocal in COST_TERMS]).T
    theta = bvls(rows / np.array(measured)[:, None], np.ones(len(measured)), lo, hi)

    values, at_bound = {}, []
    for (name, reciprocal), term, term_lo, term_hi in zip(COST_TERMS, theta.tolist(), lo, hi):
        if term_lo < term_hi and term in (term_lo, term_hi):
            at_bound.append(CAP_PARAM[0] if name == "effective_rate" else name)
        if reciprocal:  # a rate on a bound takes the bound's exact value
            box_lo, box_hi = boxes[name]
            term = float(box_hi if term == term_lo else box_lo if term == term_hi else 1.0 / term)
        values[name] = term
    cap = values.pop("effective_rate")
    cost_model = CostModel(**values)

    # The fit's predictions come from the simulator's own stage formula.
    theta = cost_terms(cost_model, LinkSpec(link.bandwidth_bps, processing_cap_bps=cap))
    predicted = [sum(stage_seconds(stage_features(r), theta) for r in records)
                 for records in observed]
    rel = [(p - m) / m for p, m in zip(predicted, measured)]
    n = len(stage_obs)
    residuals = [dict(profile=name, stage=record.stage.value, measured_s=m,
                      predicted_s=round(p, 4), relative_error=round(e, 4))
                 for (name, record, m), p, e in zip(stage_obs, predicted, rel)]
    return FitResult(
        cost_model=cost_model,
        processing_cap_bps=cap,
        objective=sum(e * e for e in rel) / len(rel),
        stage_residuals=residuals,
        within_30pct=sum(abs(e) <= 0.30 for e in rel[:n]) / n,
        at_bound=sorted(at_bound),
    )


def calibration_to_dict(results: dict[Virtualization, FitResult]) -> dict:
    payload: dict = {"schema": "layermig.calibration/v1", "fitted": True}
    for virtualization, result in results.items():
        payload[virtualization.value] = {
            "cost_model": result.cost_model.to_dict(),
            "processing_cap_bps": result.processing_cap_bps,
            "fit": {
                "at_bound": result.at_bound,
                "objective": result.objective,
                "stage_residuals": result.stage_residuals,
                "stage_residuals_within_30pct": result.within_30pct,
            },
        }
    return payload


def load_calibration(path_or_dict) -> dict[Virtualization, tuple[CostModel, float]]:
    """Calibration file -> {virtualization: (cost model, processing cap)}.

    A file that cannot be read, is not a JSON object, holds no block of
    either kind or holds a block :func:`config.calibration_block`
    refuses raises :class:`ConfigError`."""
    data = path_or_dict if isinstance(path_or_dict, dict) else read_json(
        path_or_dict, "calibration file")
    if not isinstance(data, dict):
        raise ConfigError("calibration file must be a JSON object")
    out = {kind: calibration_block(data[kind.value], f"calibration.{kind.value}")
           for kind in Virtualization if data.get(kind.value)}
    if not out:
        raise ConfigError("calibration file holds no cost models")
    return out
