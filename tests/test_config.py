import json
import math

import pytest

from layermig.cli import main
from layermig.config import build_scenario
from layermig.guest import GuestSpec, Virtualization, container_spec, vm_spec
from layermig.migrator import CostModel, DestinationState, MigrationMode, MigrationScenario, default_cost_model
from layermig.netsim import LinkSpec
from layermig.workloads import AppProfile, per_kind, profile_by_name

MB = 1_000_000
C = Virtualization.CONTAINER
V = Virtualization.VM
THREE = MigrationMode.THREE_LAYER
TWO = MigrationMode.TWO_LAYER

CALIBRATION = {
    C: (default_cost_model(C), 50.0 * MB),
    V: (default_cost_model(V), 45.0 * MB),
}

INLINE_COST = {
    "clone_rate": 1e8, "suspend_fixed": 0.2, "suspend_per_byte": 1e-9, "restore_fixed": 0.3,
    "restore_per_byte": 2e-9, "scan_rate": 5e8, "stage_fixed_overhead": 0.4,
    "other_tasks_fixed": 1.0,
}


def expected(**kw):
    fields = dict(
        guest_spec=container_spec(),
        profile=profile_by_name("No Application"),
        mode=THREE,
        destination=DestinationState(has_base=True, has_app=True, has_stale_instance=False),
        link=LinkSpec(bandwidth_bps=100.0 * MB, latency_s=0.0, jitter_s=0.0,
                      processing_cap_bps=50.0 * MB, seed=0),
        cost_model=default_cost_model(C),
        scale=1.0,
        seed=0,
        block_size=2048,
        chunk_size=4 * 1024 * 1024,
        round_trips=2,
        staleness_epochs=3,
    )
    fields.update(kw)
    return MigrationScenario(**fields)


PINNED = {
    "defaults": ({}, expected()),
    "inline-profile-scalar-install": (
        {"profile": {"name": "tiny", "install_bytes": 1234, "memory_bytes": 5_000_000,
                     "memory_churn_rate": 0.25},
         "virtualization": "vm"},
        expected(
            guest_spec=vm_spec(),
            profile=AppProfile(name="tiny", install_bytes=per_kind(1234, 1234),
                               memory_bytes=5_000_000, memory_churn_rate=0.25,
                               memory_wire_ratio=per_kind(0.2, 0.2)),
            link=LinkSpec(bandwidth_bps=100.0 * MB, processing_cap_bps=45.0 * MB),
            cost_model=default_cost_model(V),
        ),
    ),
    "guest-overrides": (
        {"profile": "Game Server",
         "guest": {"base_tree_size": 1_000_000, "fs_wire_ratio": 0.9, "scan_unchanged": True}},
        expected(
            guest_spec=GuestSpec(
                virtualization=C, base_tree_size=1_000_000, virtualization_overhead_bytes=1_400_000,
                base_wire_ratio=0.30, fs_wire_ratio=0.9, scan_unchanged=True),
            profile=profile_by_name("Game Server"),
        ),
    ),
    "inline-cost-model": (
        {"cost_model": INLINE_COST, "seed": 4.0},
        expected(
            cost_model=CostModel(**INLINE_COST),
            link=LinkSpec(bandwidth_bps=100.0 * MB, processing_cap_bps=float("inf")),
            seed=4,
        ),
    ),
    "processing-cap-given": (
        {"link": {"bandwidth_mbps": 20, "latency_ms": 5, "jitter_ms": 1,
                  "processing_cap_mbps": 30, "seed": 7}},
        expected(link=LinkSpec(bandwidth_bps=20 * MB, latency_s=0.005, jitter_s=0.001,
                               processing_cap_bps=30 * MB, seed=7)),
    ),
    "processing-cap-null": (
        {"virtualization": "vm", "link": {"bandwidth_mbps": 1000, "processing_cap_mbps": None}},
        expected(guest_spec=vm_spec(), cost_model=default_cost_model(V),
                 link=LinkSpec(bandwidth_bps=1000 * MB, processing_cap_bps=45.0 * MB)),
    ),
    "two-layer": (
        {"profile": "Video Streaming", "mode": "two_layer", "destination": {"has_base": True},
         "block_size": 2048.0, "round_trips": 3},
        expected(profile=profile_by_name("Video Streaming"), mode=TWO,
                 destination=DestinationState(has_base=True), round_trips=3),
    ),
    "stale-instance": (
        {"profile": "RAM Simulation", "destination": {"has_stale_instance": True},
         "staleness_epochs": 1, "seed": 9, "scale": 0.05, "block_size": 4096,
         "chunk_size": 1_048_576},
        expected(profile=profile_by_name("RAM Simulation"),
                 destination=DestinationState(True, True, True), staleness_epochs=1,
                 seed=9, scale=0.05, block_size=4096, chunk_size=1_048_576),
    ),
}


@pytest.mark.parametrize("name", list(PINNED))
def test_build_scenario_matches_explicit_scenario(name):
    config, scenario = PINNED[name]
    built = build_scenario(config, CALIBRATION)
    assert built == scenario
    assert built.echo() == scenario.echo()
    assert json.dumps(built.echo(), sort_keys=True) == json.dumps(scenario.echo(), sort_keys=True)


def test_build_scenario_overrides_seed_and_scale():
    built = build_scenario({"seed": 3, "scale": 0.5}, CALIBRATION, seed=8, scale=0.25)
    assert built == expected(seed=8, scale=0.25)


# --- invalid configs exit 2 -----------------------------------------------------

VALID = {"profile": "Game Server", "seed": 11}

INVALID = {
    "profile-without-install": ({"profile": {"name": "x"}}, []),
    "unknown-profile-name": ({"profile": "Nope"}, []),
    "negative-install-bytes": ({"profile": {"name": "x", "install_bytes": -5}}, []),
    "zero-base-tree": ({"guest": {"base_tree_size": 0}}, []),
    "zero-clone-rate": ({"cost_model": dict(INLINE_COST, clone_rate=0)}, []),
    "scale-override-above-one": (VALID, ["--scale", "2"]),
    "fractional-block-size": ({"block_size": 100.7}, []),
    "block-size-past-max-block-size": ({"block_size": 2**23 + 1}, []),
    "fractional-seed": ({"seed": 1.5}, []),
    "fractional-link-seed": ({"link": {"seed": 2.5}}, []),
    "fractional-guest-bytes": ({"guest": {"memory_floor_bytes": 10.5}}, []),
    "fractional-memory-bytes": ({"profile": {"name": "x", "install_bytes": 1, "memory_bytes": 0.5}}, []),
    "churn-rate-above-one": ({"profile": {"name": "x", "install_bytes": 1, "memory_churn_rate": 2}}, []),
    # A profile's files live under app/<slug>: these slugs leave the
    # tree, or put the application's files on the data's.
    "profile-name-leaving-the-tree": ({"profile": {"name": "../../etc", "install_bytes": 1}},
                                      ["--scale", "0.1"]),
    "profile-name-dot-dot": ({"profile": {"name": "..", "install_bytes": 1}}, ["--scale", "0.1"]),
    "zero-memory-wire-ratio": ({"profile": {"name": "x", "install_bytes": 1, "memory_bytes": 10_000,
                                            "memory_wire_ratio": 0},
                                "destination": {"has_stale_instance": True}}, []),
    "negative-vm-memory-wire-ratio": (
        {"profile": {"name": "x", "install_bytes": 1,
                     "memory_wire_ratio": {"container": 0.2, "vm": -0.5}},
         "virtualization": "vm", "destination": {"has_stale_instance": True}}, []),
    "zero-base-wire-ratio": ({"guest": {"base_wire_ratio": 0}}, []),
    "zero-fs-wire-ratio": ({"guest": {"fs_wire_ratio": 0.0}}, []),
    "zero-memory-floor-wire-ratio": ({"virtualization": "vm",
                                      "guest": {"memory_floor_wire_ratio": 0}}, []),
    "nan-bandwidth": ({"link": {"bandwidth_mbps": math.nan}}, []),
    "nan-latency": ({"link": {"latency_ms": math.nan}}, []),
    "nan-scan-rate": ({"cost_model": dict(INLINE_COST, scan_rate=math.nan)}, []),
}


@pytest.mark.parametrize("name", list(INVALID))
def test_invalid_config_exits_2(name, tmp_path, capsys):
    config, extra = INVALID[name]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "r.json"), *extra])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("override", [["--scale", "2"], ["--scale", "0"], ["--scale", "-1"]])
def test_bad_override_exits_2_whichever_calibration(override, tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(VALID), encoding="utf-8")
    for calibration in ([], ["--calibration", "default"],
                        ["--calibration", str(tmp_path / "missing.json")]):
        code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "r.json"),
                     *override, *calibration])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
    for command in (["sweep", "--param", "ram", "--values", "100"],
                    ["reproduce", "--target", "fig5", "--out-dir", str(tmp_path / "out")]):
        assert main([*command, *override, "--calibration", str(tmp_path / "missing.json")]) == 2


def test_config_error_reported_before_missing_calibration(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"profile": "Nope"}), encoding="utf-8")
    code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "r.json"),
                 "--calibration", str(tmp_path / "missing.json")])
    assert code == 2
