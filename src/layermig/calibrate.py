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

import math
from dataclasses import asdict, dataclass, replace
from typing import TYPE_CHECKING

from .config import (
    CONFIG_DESTS,
    ConfigError,
    ReferenceRecord,
    calibrated,
    calibration_block,
    read_reference,
)
from .guest import Virtualization, container_spec, vm_spec
from .migrator import (
    COST_TERMS,
    CostModel,
    MigrationScenario,
    cost_terms,
    simulate,
    stage_features,
    stage_seconds,
)
from .netsim import MB, LinkSpec
from .workloads import AppProfile, builtin_profiles

if TYPE_CHECKING:
    import numpy as np

CONTAINER_PROCESSING_CAP = 50.0 * MB  # bits/s; saturation point of the sync engine
INITIAL_VM_PROCESSING_CAP = 45.0 * MB  # bits/s; the VM cap of ``--calibration default``
REFERENCE_BANDWIDTH = 100.0 * MB  # bits/s; the testbed's inter-MEC link
FIT_SEED = 2024
_SPECS = {Virtualization.CONTAINER: container_spec(), Virtualization.VM: vm_spec()}

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


def at_sweep_point(scenario: MigrationScenario, sweep: str, x: float) -> MigrationScenario:
    """``scenario`` at point ``x`` of a sweep: with ``x`` MB of RAM when
    ``sweep`` is "ram", or on an ``x`` Mbps link when it is "bandwidth".
    The records' own checks apply; a value they refuse raises
    ValueError, or OverflowError for an infinite RAM size."""
    if sweep == "ram":
        return replace(scenario, profile=scenario.profile.with_memory(int(x * MB)))
    return replace(scenario, link=replace(scenario.link, bandwidth_bps=x * MB))


def reference_scenario(record: ReferenceRecord, profile: AppProfile, calibration, seed: int,
                       scale: float) -> MigrationScenario:
    """The migration that ``record`` measured, on the reference link, and
    at the sweep point of a Fig. 5 record.  It is priced by
    ``calibration``'s model for the kind, or left without a cost model
    or cap when ``calibration`` is None."""
    mode, destination = CONFIG_DESTS[record.configuration]
    cost_model, cap = None, math.inf
    if calibration is not None:
        cost_model, cap = calibrated(calibration, record.kind)
    scenario = MigrationScenario(
        guest_spec=_SPECS[record.kind],
        profile=profile,
        mode=mode,
        destination=destination,
        link=LinkSpec(bandwidth_bps=REFERENCE_BANDWIDTH, processing_cap_bps=cap, seed=0),
        cost_model=cost_model,
        scale=scale,
        seed=seed,
    )
    if record.figure.startswith("fig5_"):  # fig5_ram or fig5_bandwidth
        return at_sweep_point(scenario, record.figure.removeprefix("fig5_"), record.x)
    return scenario


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
    import numpy as np

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


def fit_cost_model(reference: dict, virtualization: Virtualization, *, profiles=None) -> FitResult:
    """Fit one virtualization kind's cost model to the reference data.

    The Fig. 4 stage durations and the Table 1 total and downtime cells
    of ``profiles`` (default: the built-in ones) all enter the objective
    as squared relative errors.  The container processing cap is pinned
    at its known 50 Mbps saturation point; the VM cap is fitted.
    """
    import numpy as np

    by_name = {p.name: p for p in (builtin_profiles() if profiles is None else profiles)}
    records = [r for r in read_reference(reference)[0]
               if r.kind is virtualization and r.profile in by_name]
    stage_obs = [r for r in records if r.figure == "fig4"]
    if not stage_obs:
        raise CalibrationError(f"no reference profiles match: the reference holds no stage "
                               f"measurements of {virtualization.value!r} for the profiles to fit")
    if len(stage_obs) < len(PARAM_SPACE):
        raise CalibrationError(
            f"{len(stage_obs)} stage observations cannot determine {len(PARAM_SPACE)} parameters"
        )
    cell_obs = [r for r in records if r.figure == "table1" and r.metric != "wire_mb"]

    # One unpriced run per (profile, configuration); each observation is
    # the features of the stages its record's metric sums.
    runs, observed = {}, []
    for record in stage_obs + cell_obs:
        key = record.profile, record.configuration
        if key not in runs:
            scenario = reference_scenario(record, by_name[record.profile], None, FIT_SEED, 1.0)
            runs[key] = simulate(scenario)[0]
        observed.append([stage_features(s) for s in record.summed_stages(runs[key])])
    measured = [r.value for r in stage_obs + cell_obs]
    rows = np.array([[sum(column) for column in zip(*features)] for features in observed])

    # Each term's box, from its parameter's; a rate's term is its reciprocal.
    caps = CAP_PARAM[1:] if virtualization is Virtualization.VM else (CONTAINER_PROCESSING_CAP,) * 2
    boxes = {name: (lo, hi) for name, lo, hi in PARAM_SPACE}
    boxes["effective_rate"] = tuple(min(REFERENCE_BANDWIDTH, cap) for cap in caps)
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
    theta = cost_terms(cost_model, LinkSpec(REFERENCE_BANDWIDTH, processing_cap_bps=cap))
    seconds = {f: stage_seconds(f, theta) for f in set().union(*observed)}
    predicted = [sum(seconds[f] for f in features) for features in observed]
    rel = [(p - m) / m for p, m in zip(predicted, measured)]
    n = len(stage_obs)
    residuals = [dict(profile=r.profile, stage=r.metric, measured_s=r.value,
                      predicted_s=round(p, 4), relative_error=round(e, 4))
                 for r, p, e in zip(stage_obs, predicted, rel)]
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
            "cost_model": asdict(result.cost_model),
            "processing_cap_bps": result.processing_cap_bps,
            "fit": {
                "at_bound": result.at_bound,
                "objective": result.objective,
                "stage_residuals": result.stage_residuals,
                "stage_residuals_within_30pct": result.within_30pct,
            },
        }
    return payload


def load_calibration(data) -> dict[Virtualization, tuple[CostModel, float]]:
    """A calibration file's JSON value -> {virtualization: (cost model,
    processing cap)}.

    A value that is not a JSON object, holds no block of either kind or
    holds a block :func:`config.calibration_block` refuses raises
    :class:`ConfigError`."""
    if not isinstance(data, dict):
        raise ConfigError("calibration file must be a JSON object")
    out = {kind: calibration_block(data[kind.value], f"calibration.{kind.value}")
           for kind in Virtualization if data.get(kind.value)}
    if not out:
        raise ConfigError("calibration file holds no cost models")
    return out
