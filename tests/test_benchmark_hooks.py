"""The benchmark's tracer wraps ``layermig`` functions by name, from
outside the package (``perfbench/tracer.py``'s ``BOUNDARIES``).  A
rename there would break ``perfbench/run.py --trace 1`` without failing
any other test, so this one reads the list as the tracer has it."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import layermig
from layermig.guest import Virtualization, container_spec
from layermig.migrator import DestinationState, MigrationMode, MigrationScenario, default_cost_model
from layermig.netsim import LinkSpec
from layermig.workloads import profile_by_name

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = load_tracer()


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in TRACER.BOUNDARIES],
                         ids=[TRACER.span_name(m, a) for m, a, _ in TRACER.BOUNDARIES])
def test_every_boundary_resolves(module, attr):
    owner = importlib.import_module(f"layermig.{module}")
    for name in attr.split("."):
        owner = getattr(owner, name)
    assert callable(owner)


def test_a_traced_migration_counts_its_boundaries_and_restores_them():
    scenario = MigrationScenario(
        guest_spec=container_spec(), profile=profile_by_name("Game Server"),
        mode=MigrationMode.THREE_LAYER, destination=DestinationState(),
        link=LinkSpec(bandwidth_bps=1e8), cost_model=default_cost_model(Virtualization.CONTAINER),
        scale=0.01,
    )
    wrapped = ("sync_tree", "apply_tree_delta")  # imported by name into the migrator
    originals = {name: getattr(layermig.migrator, name) for name in wrapped}
    tracer = TRACER.Tracer()
    with TRACER.installed(tracer):
        layermig.run_migration(scenario)
    assert {name: getattr(layermig.migrator, name) for name in wrapped} == originals
    calls = {name: counters["calls"] for name, counters in tracer.counters.items()}
    # A migration to an empty destination passes every tree and guest boundary.
    for name in ("layer_store.FileTree", "guest.build_guest", "guest.checkpoint", "guest.restore",
                 "delta_sync.sync_tree", "delta_sync.apply_tree_delta", "netsim.transfer_time",
                 "migrator.run_migration"):
        assert calls.get(name, 0) > 0, name
    assert calls["delta_sync.sync_tree"] == 4  # base, app, instance files, memory
