import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layermig.calibrate import (
    CAP_PARAM,
    CONTAINER_PROCESSING_CAP,
    MB,
    PARAM_SPACE,
    _extract_features,
    _Objective,
    _observations,
    calibration_to_dict,
    fit_cost_model,
    reference_link,
)
from layermig.cli import _packaged_json
from layermig.guest import Virtualization, container_spec, vm_spec
from layermig.migrator import DOWNTIME_STAGES, Stage, default_cost_model
from layermig.workloads import builtin_profiles, profile_by_name

# --- pure-Python reference: one record and one observation at a time --------


def predict_stage(params, record, link):
    stage = record.stage
    effective = min(link.bandwidth_bps, params["processing_cap"])
    if stage in (
        Stage.SYNC_BASE_FILESYSTEM,
        Stage.SYNC_APP_FILESYSTEM,
        Stage.SYNC_INSTANCE_FILESYSTEM,
        Stage.SYNC_INSTANCE_MEMORY,
    ):
        return (
            params["stage_fixed_overhead"]
            + record.wire_bytes * 8.0 / effective
            + record.scanned_bytes / params["scan_rate"]
        )
    if stage in (Stage.CLONE_BASE_AS_APP, Stage.CLONE_APP_AS_INSTANCE):
        return record.local_bytes / params["clone_rate"]
    if stage is Stage.SUSPEND_INSTANCE:
        return params["suspend_fixed"] + params["suspend_per_byte"] * record.local_bytes
    if stage is Stage.RESTORE_INSTANCE:
        return params["restore_fixed"] + params["restore_per_byte"] * record.local_bytes
    return params["other_tasks_fixed"]


def reference_objective(params, stage_obs, cell_obs, link):
    err = 0.0
    for _, record, measured in stage_obs:
        rel = (predict_stage(params, record, link) - measured) / measured
        err += rel * rel
    for records, downtime_only, measured in cell_obs:
        total = sum(
            predict_stage(params, r, link)
            for r in records
            if not downtime_only or r.stage in DOWNTIME_STAGES
        )
        rel = (total - measured) / measured
        err += rel * rel
    return err / (len(stage_obs) + len(cell_obs))


# --- fixtures ------------------------------------------------------------------


@pytest.fixture(scope="module")
def problems():
    """Per kind: (stage observations, cell observations, link), built from
    the packaged measurements exactly as ``fit_cost_model`` builds them."""
    reference = _packaged_json("measurements.json")
    link = reference_link()
    out = {}
    for kind, spec in ((Virtualization.CONTAINER, container_spec()),
                       (Virtualization.VM, vm_spec())):
        stages_ref = reference["fig4_stages"][kind.value]
        profiles = [p for p in builtin_profiles() if p.name in stages_ref]
        features = _extract_features(spec, profiles, link)
        stage_obs, cell_obs = _observations(reference, kind.value, profiles, features)
        out[kind] = (stage_obs, cell_obs, link)
    return out


def log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


PARAMS = st.fixed_dictionaries({name: log_uniform(lo, hi) for name, lo, hi in PARAM_SPACE})


# --- tests ---------------------------------------------------------------------


def test_observations_cover_stages_and_cells(problems):
    for stage_obs, cell_obs, _ in problems.values():
        assert len(stage_obs) >= len(PARAM_SPACE)
        assert any(downtime_only for _, downtime_only, _ in cell_obs)
        assert any(not downtime_only for _, downtime_only, _ in cell_obs)


@pytest.mark.parametrize("kind", list(Virtualization))
def test_objective_equals_reference_at_initial_values(problems, kind):
    # The fit starts here, with some parameters still Python ints.
    stage_obs, cell_obs, link = problems[kind]
    initial = default_cost_model(kind).to_dict()
    params = {name: initial[name] for name, _, _ in PARAM_SPACE}
    params["processing_cap"] = 45.0 * MB if kind is Virtualization.VM else CONTAINER_PROCESSING_CAP
    assert _Objective(stage_obs, cell_obs, link)(params) == reference_objective(
        params, stage_obs, cell_obs, link)


@settings(max_examples=60, deadline=None)
@given(params=PARAMS, cap=log_uniform(CAP_PARAM[1], CAP_PARAM[2]))
def test_objective_is_bit_identical_to_reference(problems, params, cap):
    for kind, (stage_obs, cell_obs, link) in problems.items():
        drawn = dict(params, processing_cap=cap if kind is Virtualization.VM
                     else CONTAINER_PROCESSING_CAP)
        objective = _Objective(stage_obs, cell_obs, link)
        assert objective(drawn) == reference_objective(drawn, stage_obs, cell_obs, link)
        predicted, _ = objective.evaluate(drawn)
        stage_pred = [predict_stage(drawn, r, link) for _, r, _ in stage_obs]
        assert predicted[:len(stage_obs)].tolist() == stage_pred


def test_fit_residuals_come_from_the_fitted_model():
    profiles = [profile_by_name("Game Server")]
    result = fit_cost_model(_packaged_json("measurements.json"), Virtualization.CONTAINER,
                            profiles=profiles)
    params = dict(vars(result.cost_model), processing_cap=result.processing_cap_bps)
    features = _extract_features(container_spec(), profiles, reference_link())
    records = features["Game Server"]["three_layer_app_not_found"]
    by_stage = {r.stage.value: predict_stage(params, r, reference_link()) for r in records}
    assert result.stage_residuals
    for row in result.stage_residuals:
        predicted = by_stage[row["stage"]]
        assert row["profile"] == "Game Server"
        assert row["predicted_s"] == round(predicted, 4)
        assert row["relative_error"] == round((predicted - row["measured_s"]) / row["measured_s"], 4)
    rel = [(by_stage[r["stage"]] - r["measured_s"]) / r["measured_s"] for r in result.stage_residuals]
    assert result.within_30pct == sum(abs(e) <= 0.30 for e in rel) / len(rel)
    payload = calibration_to_dict({Virtualization.CONTAINER: result})
    assert payload["container"]["fit"]["stage_residuals"] == result.stage_residuals
