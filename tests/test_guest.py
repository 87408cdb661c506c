from dataclasses import replace

import pytest

from layermig.guest import (
    CHECKPOINT_PREFIX,
    VM_STATE_FILE,
    CorruptInstanceError,
    InvalidStateError,
    RunState,
    Virtualization,
    build_guest,
    checkpoint,
    container_spec,
    restore,
    vm_spec,
)
from layermig.layer_store import MemoryChunkContent
from layermig.workloads import profile_by_name
from oracles import is_superset, materialize, materialize_memory

MB = 1_000_000


def test_no_application_adds_nothing_beyond_base():
    g = build_guest(container_spec(), profile_by_name("No Application"), seed=1, scale=0.01)
    assert g.app.total_length == g.base.total_length


def test_face_detection_app_layer_size_at_scale_one():
    g = build_guest(container_spec(), profile_by_name("Face Detection"), seed=1, scale=1.0)
    added = g.app.total_length - g.base.total_length
    assert added == 655 * MB


def test_vm_install_size_differs():
    g = build_guest(vm_spec(), profile_by_name("Face Detection"), seed=1, scale=1.0)
    added = g.app.total_length - g.base.total_length
    assert added == 565 * MB


def test_scale_is_exactly_linear_for_trees():
    profile = profile_by_name("Video Streaming")
    full = build_guest(container_spec(), profile, seed=2, scale=1.0)
    small = build_guest(container_spec(), profile, seed=2, scale=0.01)
    assert small.base.total_length * 100 == full.base.total_length
    assert small.app.total_length * 100 == full.app.total_length
    assert small.instance.total_length * 100 == full.instance.total_length


def test_layer_parentage_and_superset():
    g = build_guest(container_spec(), profile_by_name("Video Streaming"), seed=3, scale=0.01)
    assert is_superset(g.app, g.base)
    assert is_superset(g.instance, g.app)


@pytest.mark.parametrize("app_layer", [True, False])
def test_layers_share_the_base_group(app_layer):
    # Every tree derived from the base holds its base/ group as the same
    # object, through checkpoint and restore too.
    g = build_guest(vm_spec(), profile_by_name("Video Streaming"), seed=3, scale=0.01,
                    app_layer=app_layer)
    base = g.base.group("base/")
    assert base is not None and len(base) == len(g.base)
    trees = [g.app, g.instance] if app_layer else [g.instance]
    assert all(tree.group("base/") is base for tree in trees)
    suspended = checkpoint(g)
    assert suspended.instance.group("base/") is base
    assert restore(suspended).instance.group("base/") is base
    if app_layer:
        assert suspended.instance.group("app/") is g.app.group("app/")


def test_two_layer_guest_has_no_app_layer():
    g = build_guest(container_spec(), profile_by_name("Video Streaming"),
                    seed=3, scale=0.01, app_layer=False)
    assert g.app is None
    assert is_superset(g.instance, g.base)


def test_checkpoint_grows_instance_tree_by_memory_size():
    profile = profile_by_name("RAM Simulation")  # 330 MB RAM by default
    g = build_guest(container_spec(), profile, seed=4, scale=1.0)
    suspended = checkpoint(g)
    assert suspended.run_state is RunState.SUSPENDED
    chunks = [
        e for _, e in suspended.instance.subtree(CHECKPOINT_PREFIX).items()
        if isinstance(e, MemoryChunkContent)
    ]
    total = sum(c.length for c in chunks)
    assert 0 <= total - 330 * MB < g.memory.page_size
    assert g.run_state is RunState.RUNNING  # original untouched


def test_vm_checkpoint_adds_state_floor_file():
    g = build_guest(vm_spec(), profile_by_name("No Application"), seed=4, scale=0.01)
    suspended = checkpoint(g)
    state = suspended.instance.get(VM_STATE_FILE)
    assert state is not None
    assert state.length == round(600 * MB * 0.01)


def test_checkpoint_twice_is_invalid():
    g = build_guest(container_spec(), profile_by_name("Game Server"), seed=5, scale=0.01)
    with pytest.raises(InvalidStateError):
        checkpoint(checkpoint(g))


def test_restore_running_guest_is_invalid():
    g = build_guest(container_spec(), profile_by_name("Game Server"), seed=5, scale=0.01)
    with pytest.raises(InvalidStateError):
        restore(g)


def test_checkpoint_restore_round_trip_preserves_memory():
    g = build_guest(container_spec(), profile_by_name("Video Streaming"), seed=6, scale=0.01)
    resumed = restore(checkpoint(g))
    assert resumed.run_state is RunState.RUNNING
    assert resumed.memory == g.memory
    assert materialize_memory(resumed.memory) == materialize_memory(g.memory)
    assert resumed.instance == g.instance


def test_recheckpoint_without_churn_is_bit_identical():
    g = build_guest(container_spec(), profile_by_name("Video Streaming"), seed=7, scale=0.01)
    first = checkpoint(g)
    second = checkpoint(restore(first))
    a = first.instance.subtree(CHECKPOINT_PREFIX)
    b = second.instance.subtree(CHECKPOINT_PREFIX)
    assert materialize(a) == materialize(b)


def test_restore_with_missing_checkpoint_is_corrupt():
    g = checkpoint(build_guest(container_spec(), profile_by_name("Game Server"),
                               seed=8, scale=0.01))
    chunk_paths = [
        p for p, e in g.instance.subtree(CHECKPOINT_PREFIX).items()
        if isinstance(e, MemoryChunkContent)
    ]
    broken = replace(g, instance=g.instance.without(chunk_paths))
    with pytest.raises(CorruptInstanceError):
        restore(broken)


# One chunk of a several-chunk checkpoint altered, the others intact.
FOREIGN_CHUNKS = {
    "foreign-seed": lambda chunk: replace(chunk, seed=chunk.seed + 1),
    "foreign-page-size": lambda chunk: replace(chunk, page_size=2 * chunk.page_size),
    "partial-page": lambda chunk: replace(chunk, epochs=chunk.epochs[:-2]),
    "page-and-a-half": lambda chunk: replace(chunk, epochs=chunk.epochs + b"\0\0"),
}


@pytest.mark.parametrize("alter", FOREIGN_CHUNKS.values(), ids=FOREIGN_CHUNKS.keys())
@pytest.mark.parametrize("index", [0, 2])
def test_restore_rejects_a_chunk_the_checkpoint_did_not_write(alter, index):
    g = checkpoint(build_guest(container_spec(), profile_by_name("RAM Simulation"),
                               seed=8, scale=0.01), chunk_size=64 * 1024)
    path = f"{CHECKPOINT_PREFIX}/mem-{index:05d}.img"
    chunk = g.instance.get(path)
    assert chunk is not None and g.instance.get(f"{CHECKPOINT_PREFIX}/mem-00003.img") is not None
    broken = replace(g, instance=g.instance.with_entries({path: alter(chunk)}))
    with pytest.raises(CorruptInstanceError):
        restore(broken)
    assert restore(g).memory == g.memory


def test_build_guest_rejects_bad_scale():
    with pytest.raises(ValueError):
        build_guest(container_spec(), profile_by_name("Game Server"), seed=1, scale=0.0)
    with pytest.raises(ValueError):
        build_guest(container_spec(), profile_by_name("Game Server"), seed=1, scale=1.5)
