import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layermig.calibrate import (
    CAP_PARAM,
    CONTAINER_PROCESSING_CAP,
    FIT_SEED,
    PARAM_SPACE,
    REFERENCE_BANDWIDTH,
    CalibrationError,
    bvls,
    calibration_to_dict,
    fit_cost_model,
    load_calibration,
    reference_scenario,
)
from layermig.cli import _packaged_json
from layermig.config import CONFIG_DESTS, ReferenceRecord, read_reference
from layermig.guest import Virtualization, container_spec, vm_spec
from layermig.migrator import (
    DOWNTIME_STAGES,
    CostModel,
    DestinationState,
    MigrationMode,
    MigrationScenario,
    Stage,
    cost_terms,
    default_cost_model,
    run_migration,
    simulate,
    stage_features,
    stage_seconds,
)
from layermig.netsim import LinkSpec, transfer_time
from layermig.workloads import builtin_profiles, profile_by_name

SYNC = (
    Stage.SYNC_BASE_FILESYSTEM,
    Stage.SYNC_APP_FILESYSTEM,
    Stage.SYNC_INSTANCE_FILESYSTEM,
    Stage.SYNC_INSTANCE_MEMORY,
)

# --- pure-Python reference: one record and one observation at a time --------


def predict_stage(params, record, link, link_s=0.0):
    """One stage's seconds, in the simulator's arithmetic order: the link's
    round trips, then each term's amount times its cost, left to right."""
    stage = record.stage
    if stage in SYNC:
        effective = min(link.bandwidth_bps, params["processing_cap"])
        return (
            link_s
            + record.wire_bytes * 8.0 * (1.0 / effective)
            + record.scanned_bytes * (1.0 / params["scan_rate"])
            + params["stage_fixed_overhead"]
        )
    if stage in (Stage.CLONE_BASE_AS_APP, Stage.CLONE_APP_AS_INSTANCE):
        return record.local_bytes * (1.0 / params["clone_rate"])
    if stage is Stage.SUSPEND_INSTANCE:
        return params["suspend_fixed"] + record.local_bytes * params["suspend_per_byte"]
    if stage is Stage.RESTORE_INSTANCE:
        return params["restore_fixed"] + record.local_bytes * params["restore_per_byte"]
    return params["other_tasks_fixed"]


def reference_objective(params, stage_obs, cell_obs, link):
    err = 0.0
    for _, record, measured in stage_obs:
        rel = (predict_stage(params, record, link) - measured) / measured
        err += rel * rel
    for records, measured in cell_obs:
        total = sum(predict_stage(params, r, link) for r in records)
        rel = (total - measured) / measured
        err += rel * rel
    return err / (len(stage_obs) + len(cell_obs))


def params_of(cost_model, cap):
    return dict(vars(cost_model), processing_cap=cap)


# The packaged calibration before the exact solve, fitted by 30 sweeps of
# golden-section line searches.
SEARCHED = {
    Virtualization.CONTAINER: dict(
        clone_rate=131055762.36738536, other_tasks_fixed=2.1537949129844076,
        restore_fixed=0.40158927009609824, restore_per_byte=1.7970785342703377e-09,
        scan_rate=9999999884.692917, stage_fixed_overhead=0.6016986301171149,
        suspend_fixed=0.27129519325126866, suspend_per_byte=1.3379429985685362e-09,
        processing_cap=50000000.0,
    ),
    Virtualization.VM: dict(
        clone_rate=155952059.65909475, other_tasks_fixed=3.6335586691979063,
        restore_fixed=2.275281881452027, restore_per_byte=1.2408928392682955e-09,
        scan_rate=80042444.71188161, stage_fixed_overhead=3.2554987322884825,
        suspend_fixed=1.9240919929104667, suspend_per_byte=4.90905082094312e-09,
        processing_cap=61908077.428982854,
    ),
}

# --- fixtures ------------------------------------------------------------------


REFERENCE_LINK = LinkSpec(bandwidth_bps=REFERENCE_BANDWIDTH)


def reference_runs(spec, profiles):
    """{(profile name, configuration): unpriced stage records} of the
    fit's migrations, each scenario built here by hand."""
    return {(profile.name, config): simulate(MigrationScenario(
                guest_spec=spec, profile=profile, mode=mode, destination=dest,
                link=REFERENCE_LINK, cost_model=None, scale=1.0, seed=FIT_SEED))[0]
            for profile in profiles for config, (mode, dest) in CONFIG_DESTS.items()}


@pytest.fixture(scope="module")
def problems():
    """Per kind: (stage observations, cell observations, link), built from
    the packaged reference records as ``fit_cost_model`` builds them.  A
    stage observation is (profile name, stage record, measured seconds),
    a cell observation (the stage records of a total or a downtime,
    measured seconds).  The stages each observation sums are picked by a
    rule written out here, an oracle independent of
    ``ReferenceRecord.summed_stages``."""
    records, _ = read_reference(_packaged_json("measurements.json"))
    out = {}
    for kind, spec in ((Virtualization.CONTAINER, container_spec()),
                       (Virtualization.VM, vm_spec())):
        runs = reference_runs(spec, builtin_profiles())
        measured = [r for r in records if r.kind is kind]
        stage_obs = [(r.profile, s, r.value) for r in measured if r.figure == "fig4"
                     for s in runs[r.profile, r.configuration] if s.stage.value == r.metric]
        cell_obs = [([s for s in runs[r.profile, r.configuration]
                      if r.metric == "total_s" or s.stage in DOWNTIME_STAGES], r.value)
                    for r in measured if r.figure == "table1" and r.metric != "wire_mb"]
        out[kind] = (stage_obs, cell_obs, REFERENCE_LINK)
    return out


@pytest.fixture(scope="module")
def fits():
    reference = _packaged_json("measurements.json")
    return {kind: fit_cost_model(reference, kind) for kind in Virtualization}


def log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


PARAMS = st.fixed_dictionaries({name: log_uniform(lo, hi) for name, lo, hi in PARAM_SPACE})


# --- the stage formula ---------------------------------------------------------


def test_observations_cover_stages_and_cells(problems):
    for stage_obs, cell_obs, _ in problems.values():
        assert len(stage_obs) >= len(PARAM_SPACE)
        downtime = [all(r.stage in DOWNTIME_STAGES for r in records) for records, _ in cell_obs]
        assert any(downtime) and not all(downtime)


@settings(max_examples=60, deadline=None)
@given(params=PARAMS, cap=log_uniform(CAP_PARAM[1], CAP_PARAM[2]))
def test_stage_formula_is_bit_identical_to_reference(problems, params, cap):
    for kind, (stage_obs, cell_obs, link) in problems.items():
        drawn = dict(params, processing_cap=cap if kind is Virtualization.VM
                     else CONTAINER_PROCESSING_CAP)
        theta = cost_terms(CostModel(**params),
                           LinkSpec(link.bandwidth_bps, processing_cap_bps=drawn["processing_cap"]))
        records = {r for _, r, _ in stage_obs} | {r for records, _ in cell_obs for r in records}
        for record in records:
            assert stage_seconds(stage_features(record), theta) == predict_stage(drawn, record, link)


MIGRATIONS = {
    "container-stale-jitter": dict(
        profile="RAM Simulation", spec=container_spec(), mode=MigrationMode.THREE_LAYER,
        dest=DestinationState(True, True, True),
        link=LinkSpec(100e6, latency_s=0.02, jitter_s=0.005, processing_cap_bps=50e6, seed=3)),
    "vm-app-not-found": dict(
        profile="Face Detection", spec=vm_spec(), mode=MigrationMode.THREE_LAYER,
        dest=DestinationState(has_base=True), link=LinkSpec(100e6, processing_cap_bps=45e6)),
    "container-two-layer-empty": dict(
        profile="Video Streaming", spec=container_spec(), mode=MigrationMode.TWO_LAYER,
        dest=DestinationState(), link=LinkSpec(20e6, latency_s=0.01, jitter_s=0.002, seed=1)),
}


@pytest.mark.parametrize("name", list(MIGRATIONS))
def test_run_migration_charges_the_stage_formula(name):
    m = MIGRATIONS[name]
    cost_model = default_cost_model(m["spec"].virtualization)
    report = run_migration(MigrationScenario(
        guest_spec=m["spec"], profile=profile_by_name(m["profile"]), mode=m["mode"],
        destination=m["dest"], link=m["link"], cost_model=cost_model, scale=0.01, seed=5,
    )).report
    params = params_of(cost_model, m["link"].processing_cap_bps)
    syncs = 0
    for record in report.stages:
        link_s = 0.0
        if record.stage in SYNC:
            link_s = transfer_time(m["link"], 2, call_index=syncs)
            syncs += 1
        assert record.seconds == predict_stage(params, record, m["link"], link_s)
    assert syncs >= 2


def test_summed_stages_add_up_to_the_report_sums():
    calibration = load_calibration(_packaged_json("calibration_default.json"))
    record = ReferenceRecord("table1", Virtualization.VM, "Face Detection",
                             "three_layer_app_not_found", "total_s", 1.0)
    scenario = reference_scenario(record, profile_by_name(record.profile), calibration, 3, 0.01)
    report = run_migration(scenario).report
    stage = next(s for s in report.stages if s.stage is Stage.SYNC_INSTANCE_MEMORY)
    for metric, expected in (("total_s", report.total_seconds),
                             ("downtime_s", report.downtime_seconds),
                             (stage.stage.value, stage.seconds)):
        summed = record._replace(metric=metric).summed_stages(report.stages)
        assert sum(s.seconds for s in summed) == expected, metric
    assert record._replace(metric=stage.stage.value).summed_stages(report.stages) == [stage]
    assert len(record.summed_stages(report.stages)) == len(report.stages)


# --- the solver ------------------------------------------------------------------


def assert_kkt(A, b, lo, hi, x):
    """Every free term has zero gradient; a term on a bound has a
    gradient pointing out of the box."""
    assert np.all((lo <= x) & (x <= hi))
    gradient = A.T @ (A @ x - b)
    tol = 1e-7 * np.linalg.norm(A, axis=0) * np.linalg.norm(b)
    for j in range(len(x)):
        if lo[j] == hi[j]:
            continue
        if x[j] == lo[j]:
            assert gradient[j] >= -tol[j]
        elif x[j] == hi[j]:
            assert gradient[j] <= tol[j]
        else:
            assert abs(gradient[j]) <= tol[j]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 9), extra=st.integers(0, 40),
       boxes=st.sampled_from(["wide", "tight"]))
def test_bvls_satisfies_kkt(seed, n, extra, boxes):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(0, 9, n)  # column norms from 1 to 1e9
    A = rng.standard_normal((n + extra, n)) * scale
    truth = rng.standard_normal(n) / scale
    b = A @ truth + 0.3 * rng.standard_normal(n + extra)
    if boxes == "wide":  # the optimum lies inside the box
        lo, hi = truth - 1e6 / scale, truth + 1e6 / scale
    else:  # boxes beside, around and on the optimum
        lo = truth + rng.uniform(-2.0, 1.0, n) / scale
        hi = lo + rng.uniform(0.0, 2.0, n) / scale
        pinned = rng.random(n) < 0.2
        hi[pinned] = lo[pinned]
    x = bvls(A, b, lo, hi)
    assert_kkt(A, b, lo, hi, x)
    if boxes == "wide":
        assert np.all((lo < x) & (x < hi))


def test_bvls_returns_bounds_exactly():
    A = np.array([[1.0, 0.0], [0.0, 1e9], [1.0, 1e9]])
    b = np.array([3.0, -2.0, 1.0])
    lo, hi = np.array([0.1, 1e-10]), np.array([0.7, 5e-9])
    assert bvls(A, b, lo, hi).tolist() == [0.7, 1e-10]


# --- the fit ---------------------------------------------------------------------


@pytest.mark.parametrize("kind", list(Virtualization))
def test_fit_beats_the_searched_calibration(problems, fits, kind):
    stage_obs, cell_obs, link = problems[kind]
    result = fits[kind]
    fitted = params_of(result.cost_model, result.processing_cap_bps)
    objective = reference_objective(fitted, stage_obs, cell_obs, link)
    assert result.objective == objective
    assert objective < reference_objective(SEARCHED[kind], stage_obs, cell_obs, link)
    for name, value in SEARCHED[kind].items():
        assert fitted[name] == pytest.approx(value, rel=1e-3)


def test_fit_names_the_parameters_on_a_bound(fits):
    container = fits[Virtualization.CONTAINER]
    assert container.at_bound == ["scan_rate"]
    assert container.cost_model.scan_rate == dict((n, hi) for n, _, hi in PARAM_SPACE)["scan_rate"]
    assert container.processing_cap_bps == CONTAINER_PROCESSING_CAP
    assert fits[Virtualization.VM].at_bound == []
    payload = calibration_to_dict(fits)
    assert payload["container"]["fit"]["at_bound"] == ["scan_rate"]
    assert payload["vm"]["fit"]["at_bound"] == []


def test_calibrate_is_identical_across_blas_threads(tmp_path):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"cal-{threads}.json"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-m", "layermig.cli", "calibrate", "--out", str(out)],
                       env=env, check=True, capture_output=True)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_fit_residuals_come_from_the_fitted_model():
    profiles = [profile_by_name("Game Server")]
    result = fit_cost_model(_packaged_json("measurements.json"), Virtualization.CONTAINER,
                            profiles=profiles)
    params = params_of(result.cost_model, result.processing_cap_bps)
    records = reference_runs(container_spec(), profiles)["Game Server", "three_layer_app_not_found"]
    by_stage = {r.stage.value: predict_stage(params, r, REFERENCE_LINK) for r in records}
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


def test_fit_of_no_profiles_is_refused():
    with pytest.raises(CalibrationError, match="no reference profiles match"):
        fit_cost_model(_packaged_json("measurements.json"), Virtualization.CONTAINER, profiles=[])
