import dataclasses
import hashlib
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layermig.calibrate import PARAM_SPACE
from layermig.guest import GuestSpec, Virtualization, container_spec, vm_spec
from layermig.migrator import (
    DOWNTIME_STAGES,
    CostModel,
    DestinationState,
    MigrationMode,
    MigrationReport,
    MigrationScenario,
    Stage,
    StageRecord,
    default_cost_model,
    plan,
    price,
    run_migration,
    simulate,
)
from layermig.netsim import LinkSpec
from layermig.workloads import builtin_profiles, profile_by_name
from oracles import materialize, materialize_memory, traced_peak

TWO = MigrationMode.TWO_LAYER
THREE = MigrationMode.THREE_LAYER

TAIL = [
    Stage.SUSPEND_INSTANCE,
    Stage.SYNC_INSTANCE_FILESYSTEM,
    Stage.SYNC_INSTANCE_MEMORY,
    Stage.RESTORE_INSTANCE,
    Stage.OTHER_TASKS,
]

# The eight valid (mode, destination) combinations and their golden plans.
GOLDEN_PLANS = {
    (THREE, DestinationState(False, False, False)): [
        Stage.SYNC_BASE_FILESYSTEM, Stage.CLONE_BASE_AS_APP, Stage.SYNC_APP_FILESYSTEM,
        Stage.CLONE_APP_AS_INSTANCE, *TAIL,
    ],
    (THREE, DestinationState(True, False, False)): [
        Stage.CLONE_BASE_AS_APP, Stage.SYNC_APP_FILESYSTEM, Stage.CLONE_APP_AS_INSTANCE, *TAIL,
    ],
    (THREE, DestinationState(True, True, False)): [Stage.CLONE_APP_AS_INSTANCE, *TAIL],
    (THREE, DestinationState(True, True, True)): TAIL,
    (TWO, DestinationState(False, False, False)): [
        Stage.SYNC_BASE_FILESYSTEM, Stage.CLONE_APP_AS_INSTANCE, *TAIL,
    ],
    (TWO, DestinationState(True, False, False)): [Stage.CLONE_APP_AS_INSTANCE, *TAIL],
    (TWO, DestinationState(True, True, False)): [Stage.CLONE_APP_AS_INSTANCE, *TAIL],
    (TWO, DestinationState(True, False, True)): TAIL,
}


def fast_link(**kw):
    defaults = dict(bandwidth_bps=100e6, processing_cap_bps=50e6, seed=0)
    defaults.update(kw)
    return LinkSpec(**defaults)


def scenario(profile="Video Streaming", mode=THREE, dest=DestinationState(True, True, False),
             *, spec=None, scale=0.01, seed=21, link=None, cost_model=None, **kw):
    spec = spec or container_spec()
    return MigrationScenario(
        guest_spec=spec,
        profile=profile_by_name(profile) if isinstance(profile, str) else profile,
        mode=mode,
        destination=dest,
        link=link or fast_link(),
        cost_model=cost_model or default_cost_model(spec.virtualization),
        scale=scale,
        seed=seed,
        **kw,
    )


# --- plan ----------------------------------------------------------------------


def test_plan_golden_sequences():
    for (mode, dest), expected in GOLDEN_PLANS.items():
        assert plan(mode, dest) == expected, (mode, dest)


def test_plan_app_found_example():
    assert plan(THREE, DestinationState(True, True, False)) == [
        Stage.CLONE_APP_AS_INSTANCE, *TAIL,
    ]


def test_plan_stale_instance_starts_at_suspend():
    assert plan(THREE, DestinationState(True, True, True))[0] is Stage.SUSPEND_INSTANCE


def test_two_layer_never_syncs_app_filesystem():
    for dest in (DestinationState(False, False, False), DestinationState(True, False, False),
                 DestinationState(True, False, True)):
        assert Stage.SYNC_APP_FILESYSTEM not in plan(TWO, dest)
        assert Stage.CLONE_BASE_AS_APP not in plan(TWO, dest)


def test_inconsistent_destination_rejected():
    with pytest.raises(ValueError):
        plan(THREE, DestinationState(has_base=False, has_app=True))
    with pytest.raises(ValueError):
        plan(THREE, DestinationState(has_base=True, has_app=False, has_stale_instance=True))
    with pytest.raises(ValueError):
        plan(TWO, DestinationState(has_base=False, has_stale_instance=True))


# --- run_migration -------------------------------------------------------------


def test_vm_600mb_migration_holds_one_epoch_array():
    # The Fig. 5 RAM sweep's 600 MB VM cell: the epoch array flows from
    # suspend to restore by reference, so the peak holds it about once.
    profile = profile_by_name("RAM Simulation").with_memory(600_000_000)
    s = scenario(profile, THREE, DestinationState(True, True, False), spec=vm_spec(), scale=1.0)
    epochs_bytes = 4 * math.ceil(600_000_000 / 4096)
    run_migration(s)  # names the files once per process
    outcome, peak = traced_peak(run_migration, s)
    assert outcome.destination.memory == outcome.source_at_suspend.memory
    assert peak <= 1.6 * epochs_bytes


def assert_destination_matches_source(outcome):
    source = outcome.source_at_suspend
    dest = outcome.destination
    assert materialize(dest.instance) == materialize(source.instance)
    assert dest.memory == source.memory
    assert materialize_memory(dest.memory) == materialize_memory(source.memory)


@pytest.mark.parametrize("combo", list(GOLDEN_PLANS), ids=lambda c: f"{c[0].value}-{int(c[1].has_base)}{int(c[1].has_app)}{int(c[1].has_stale_instance)}")
def test_execute_all_branches_end_byte_equal(combo):
    mode, dest = combo
    outcome = run_migration(scenario(mode=mode, dest=dest, staleness_epochs=2))
    assert [r.stage for r in outcome.report.stages] == GOLDEN_PLANS[combo]
    assert_destination_matches_source(outcome)
    # The checkpoint travels as a tree of its own, never in an instance tree.
    for guest in (outcome.source_at_suspend, outcome.destination):
        assert not any(path.startswith("checkpoint/") for path in guest.instance.paths())


def test_execute_vm_branches_end_byte_equal():
    outcome = run_migration(
        scenario(mode=THREE, dest=DestinationState(True, True, False),
                 spec=vm_spec(), scale=0.002)
    )
    assert_destination_matches_source(outcome)


def test_report_arithmetic_invariants():
    report = run_migration(scenario()).report
    assert report.total_seconds == sum(s.seconds for s in report.stages)
    assert report.total_wire_bytes == sum(s.wire_bytes for s in report.stages)
    expected_downtime = sum(
        s.seconds for s in report.stages if s.stage in DOWNTIME_STAGES
    )
    assert report.downtime_seconds == expected_downtime


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(CostModel)])
def test_nan_cost_fields_rejected(field):
    with pytest.raises(ValueError):
        dataclasses.replace(default_cost_model(Virtualization.CONTAINER), **{field: math.nan})


@pytest.mark.parametrize("value", [math.inf, -math.inf])
@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(CostModel)])
def test_infinite_cost_fields_rejected(field, value):
    with pytest.raises(ValueError):
        dataclasses.replace(default_cost_model(Virtualization.CONTAINER), **{field: value})


@pytest.mark.parametrize("field", ["clone_rate", "scan_rate"])
def test_rate_with_an_infinite_reciprocal_rejected(field):
    assert 1.0 / 5e-324 == math.inf
    with pytest.raises(ValueError):
        dataclasses.replace(default_cost_model(Virtualization.CONTAINER), **{field: 5e-324})


def test_downtime_of_prefix_stages_is_zero():
    report = MigrationReport(
        scenario(mode=THREE, dest=DestinationState(True, True, False)),
        stages=(
            StageRecord(Stage.SYNC_BASE_FILESYSTEM, 4.0, 100),
            StageRecord(Stage.CLONE_BASE_AS_APP, 2.0, 0),
        ),
    )
    assert report.downtime_seconds == 0.0


def test_downtime_identical_whether_app_found_or_not():
    found = run_migration(scenario(dest=DestinationState(True, True, False))).report
    missing = run_migration(scenario(dest=DestinationState(True, False, False))).report
    assert found.downtime_seconds == missing.downtime_seconds


def test_three_layer_not_found_is_slower_than_two_layer():
    three = run_migration(scenario(mode=THREE, dest=DestinationState(True, False, False))).report
    two = run_migration(scenario(mode=TWO, dest=DestinationState(True, False, False))).report
    assert three.total_seconds >= two.total_seconds


def test_three_layer_found_moves_fewer_bytes_than_two_layer():
    three = run_migration(scenario(mode=THREE, dest=DestinationState(True, True, False))).report
    two = run_migration(scenario(mode=TWO, dest=DestinationState(True, False, False))).report
    assert three.total_wire_bytes <= two.total_wire_bytes


def test_degenerate_scenario_downtime_lower_bound():
    # No app bytes, no memory, no background churn, and a wire and scan
    # so fast that their per-byte terms fall below a double's precision:
    # downtime collapses to the fixed suspend/restore costs plus the two
    # sync stages' fixed and latency terms.  (Rates must be finite.)
    spec = dataclasses.replace(container_spec(), virtualization_overhead_bytes=0)
    cm = dataclasses.replace(default_cost_model(Virtualization.CONTAINER), scan_rate=1e300)
    link = LinkSpec(bandwidth_bps=1e300, latency_s=0.025, seed=0)
    report = run_migration(
        scenario(profile="No Application", dest=DestinationState(True, True, False),
                 spec=spec, cost_model=cm, link=link, scale=1.0)
    ).report
    expected = (
        cm.suspend_fixed
        + (2 * 0.025 + cm.stage_fixed_overhead)
        + (2 * 0.025 + cm.stage_fixed_overhead)
        + cm.restore_fixed
    )
    assert report.downtime_seconds == pytest.approx(expected, rel=1e-12)


def test_stale_instance_sync_moves_less_than_full_instance():
    stale = run_migration(scenario(profile="RAM Simulation", mode=THREE,
                                   dest=DestinationState(True, True, True),
                                   staleness_epochs=1)).report
    fresh = run_migration(scenario(profile="RAM Simulation", mode=THREE,
                                   dest=DestinationState(True, True, False))).report
    assert stale.total_wire_bytes < fresh.total_wire_bytes


def test_staleness_epochs_increase_wire_bytes():
    previous = -1
    for epochs in (0, 1, 4):
        report = run_migration(scenario(profile="RAM Simulation", mode=THREE,
                                        dest=DestinationState(True, True, True),
                                        staleness_epochs=epochs)).report
        assert report.total_wire_bytes > previous or previous < 0
        previous = report.total_wire_bytes


def test_report_json_round_trip():
    report = run_migration(scenario()).report
    payload = report.to_json_dict()
    again = json.loads(json.dumps(payload, sort_keys=True))
    assert again == payload
    assert payload["schema"] == "layermig.report/v1"
    assert payload["total_seconds"] == report.total_seconds
    assert [s["stage"] for s in payload["stages"]] == [s.stage.value for s in report.stages]


def test_execute_is_deterministic():
    a = run_migration(scenario(seed=77)).report.to_json_dict()
    b = run_migration(scenario(seed=77)).report.to_json_dict()
    assert a == b


def test_jitter_perturbs_sync_stages_deterministically():
    link = fast_link(latency_s=0.02, jitter_s=0.01, seed=5)
    a = run_migration(scenario(link=link)).report
    b = run_migration(scenario(link=link)).report
    assert a.total_seconds == b.total_seconds
    flat = run_migration(scenario(link=fast_link(latency_s=0.02))).report
    assert a.total_seconds != flat.total_seconds


def log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


LINKS = st.builds(
    LinkSpec,
    bandwidth_bps=log_uniform(1e6, 1e10),
    latency_s=st.sampled_from([0.0, 1e-3, 0.05]),
    jitter_s=st.sampled_from([0.0, 1e-3, 0.05]),
    processing_cap_bps=st.just(math.inf) | log_uniform(1e6, 1e10),
    seed=st.integers(0, 99),
)
COST_MODELS = st.builds(
    CostModel, **{name: log_uniform(lo, hi) for name, lo, hi in PARAM_SPACE})


@settings(max_examples=40, deadline=None)
@given(combo=st.sampled_from(list(GOLDEN_PLANS)), vm=st.booleans(),
       profile=st.sampled_from(builtin_profiles()), link=LINKS, cost_model=COST_MODELS,
       round_trips=st.integers(0, 5), speedup=log_uniform(1.0, 100.0))
def test_wire_bytes_ignore_link_and_costs_and_time_falls_with_bandwidth(
        combo, vm, profile, link, cost_model, round_trips, speedup):
    mode, dest = combo
    spec, scale = (vm_spec(), 0.001) if vm else (container_spec(), 0.01)

    def make(link, cost_model=None, round_trips=2):
        return scenario(profile, mode, dest, spec=spec, scale=scale,
                        link=link, cost_model=cost_model, round_trips=round_trips)

    drawn = make(link, cost_model, round_trips)
    work = simulate(drawn)[0]
    assert simulate(make(fast_link()))[0] == work
    report = price(work, drawn)
    assert report.to_json_dict() == run_migration(drawn).report.to_json_dict()
    faster = price(work, dataclasses.replace(
        drawn, link=dataclasses.replace(link, bandwidth_bps=link.bandwidth_bps * speedup)))
    assert faster.total_seconds <= report.total_seconds


# SHA-256 of each report's sorted JSON, pinned so that any drift in the
# report schema or its serialization fails here.
GOLDEN_REPORTS = {
    "container-stale-instance": (
        lambda: scenario(
            profile="RAM Simulation", dest=DestinationState(True, True, True),
            link=LinkSpec(bandwidth_bps=100_000_000, latency_s=0.02, jitter_s=0.005,
                          processing_cap_bps=50e6, seed=3),
            seed=5,
        ),
        "564e481eb5a28ea3548ced53bd86bde4ed089d70e2a2965a3d4b37f97d823422",
    ),
    "vm-app-not-found": (
        lambda: scenario(
            profile="Face Detection", dest=DestinationState(has_base=True), spec=vm_spec(),
            link=LinkSpec(bandwidth_bps=100_000_000, processing_cap_bps=45e6), seed=6,
        ),
        "68fc5a37267d7b8766d762784c35354be14eb50528c04b5cdce97f4078ebafab",
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN_REPORTS))
def test_report_json_is_byte_identical_to_golden(name):
    make, digest = GOLDEN_REPORTS[name]
    report = run_migration(make()).report
    text = json.dumps(report.to_json_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
