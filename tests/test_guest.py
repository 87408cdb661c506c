import json
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from layermig.guest import (
    CorruptInstanceError,
    Virtualization,
    build_guest,
    checkpoint,
    container_spec,
    restore,
    vm_spec,
)
from layermig.layer_store import (
    CHECKPOINT_PREFIX,
    DEFAULT_CHUNK_SIZE,
    DEFAULT_PAGE_SIZE,
    VM_STATE_FILE,
    FileTree,
    LiteralContent,
    MemoryChunkContent,
    synthetic_files,
)
from layermig.workloads import AppProfile, per_kind, profile_by_name
from oracles import (
    assert_same_tree,
    is_superset,
    materialize,
    materialize_memory,
    serialize_memory_by_chunk,
)

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
    # object.
    g = build_guest(vm_spec(), profile_by_name("Video Streaming"), seed=3, scale=0.01,
                    app_layer=app_layer)
    base = g.base.group("base/")
    assert base is not None and len(base) == len(g.base)
    trees = [g.app, g.instance] if app_layer else [g.instance]
    assert all(tree.group("base/") is base for tree in trees)
    if app_layer:
        assert g.instance.group("app/") is g.app.group("app/")


@pytest.mark.parametrize("spec", [container_spec, vm_spec])
def test_checkpoint_and_restore_keep_the_instance_tree(spec):
    # The checkpoint is a tree of its own, which restore reads alone: no
    # layer tree ever holds a checkpoint path.
    g = build_guest(spec(), profile_by_name("RAM Simulation"), seed=3, scale=0.01)
    tree = checkpoint(g)
    assert tree.paths()
    assert all(p.startswith(CHECKPOINT_PREFIX + "/") for p in tree.paths())
    assert restore(tree) == g.memory
    for layer in (g.base, g.app, g.instance):
        assert not any(p.startswith(CHECKPOINT_PREFIX + "/") for p in layer.paths())


def test_two_layer_guest_has_no_app_layer():
    g = build_guest(container_spec(), profile_by_name("Video Streaming"),
                    seed=3, scale=0.01, app_layer=False)
    assert g.app is None
    assert is_superset(g.instance, g.base)


def test_checkpoint_holds_the_memory_size():
    profile = profile_by_name("RAM Simulation")  # 330 MB RAM by default
    g = build_guest(container_spec(), profile, seed=4, scale=1.0)
    chunks = [e for _, e in checkpoint(g).items() if isinstance(e, MemoryChunkContent)]
    total = sum(c.length for c in chunks)
    assert 0 <= total - 330 * MB < g.memory.page_size


def test_vm_checkpoint_adds_state_floor_file():
    g = build_guest(vm_spec(), profile_by_name("No Application"), seed=4, scale=0.01)
    state = checkpoint(g).get(VM_STATE_FILE)
    assert state is not None
    assert state.length == round(600 * MB * 0.01)


def test_checkpoint_restore_round_trip_preserves_memory():
    g = build_guest(container_spec(), profile_by_name("Video Streaming"), seed=6, scale=0.01)
    memory = restore(checkpoint(g))
    assert memory == g.memory
    assert materialize_memory(memory) == materialize_memory(g.memory)


def test_recheckpoint_without_churn_is_bit_identical():
    g = build_guest(container_spec(), profile_by_name("Video Streaming"), seed=7, scale=0.01)
    first = checkpoint(g)
    second = checkpoint(replace(g, memory=restore(first)))
    assert materialize(first) == materialize(second)


def test_restore_with_missing_checkpoint_is_corrupt():
    tree = checkpoint(build_guest(container_spec(), profile_by_name("Game Server"),
                                  seed=8, scale=0.01))
    chunk_paths = [p for p, e in tree.items() if isinstance(e, MemoryChunkContent)]
    with pytest.raises(CorruptInstanceError):
        restore(tree.without(chunk_paths))


# One chunk of a several-chunk checkpoint altered, the others intact.
FOREIGN_CHUNKS = {
    "foreign-seed": lambda chunk: replace(chunk, seed=chunk.seed + 1),
    "foreign-page-size": lambda chunk: replace(chunk, page_size=2 * chunk.page_size),
    "partial-page": lambda chunk: replace(chunk, epochs=chunk.epochs[:-2]),
    "page-and-a-half": lambda chunk: replace(chunk, epochs=bytes(chunk.epochs) + b"\0\0"),
}


@pytest.mark.parametrize("alter", FOREIGN_CHUNKS.values(), ids=FOREIGN_CHUNKS.keys())
@pytest.mark.parametrize("index", [0, 2])
def test_restore_rejects_a_chunk_the_checkpoint_did_not_write(alter, index):
    g = build_guest(container_spec(), profile_by_name("RAM Simulation"), seed=8, scale=0.01)
    tree = checkpoint(g, chunk_size=64 * 1024)
    path = f"{CHECKPOINT_PREFIX}/mem-{index:05d}.img"
    chunk = tree.get(path)
    assert chunk is not None and tree.get(f"{CHECKPOINT_PREFIX}/mem-00003.img") is not None
    with pytest.raises(CorruptInstanceError):
        restore(tree.with_entries({path: alter(chunk)}))
    assert restore(tree) == g.memory


# A meta.json that serialize_memory never writes, each refused as corrupt.
MALFORMED_META = {
    "pages-missing": lambda meta: {k: v for k, v in meta.items() if k != "pages"},
    "json-list": lambda meta: list(meta.items()),
    "negative-epoch": lambda meta: {**meta, "epoch": -1},
    "float-pages": lambda meta: {**meta, "pages": float(meta["pages"])},
    "bool-page-size": lambda meta: {**meta, "page_size": True},
    "string-seed": lambda meta: {**meta, "seed": str(meta["seed"])},
    "zero-page-size": lambda meta: {**meta, "page_size": 0},
    "churn-rate-missing": lambda meta: {k: v for k, v in meta.items() if k != "churn_rate"},
    "churn-rate-string": lambda meta: {**meta, "churn_rate": "0.5"},
    "not-json": lambda meta: "{",
    "not-utf-8": lambda meta: b"\xff",
}


@pytest.mark.parametrize("malform", MALFORMED_META.values(), ids=MALFORMED_META.keys())
def test_restore_rejects_malformed_metadata(malform):
    tree = checkpoint(build_guest(container_spec(), profile_by_name("Game Server"),
                                  seed=8, scale=0.01))
    path = f"{CHECKPOINT_PREFIX}/meta.json"
    meta = malform(json.loads(tree.get(path).data))
    data = meta if isinstance(meta, bytes) else meta.encode() if isinstance(meta, str) \
        else json.dumps(meta).encode()
    with pytest.raises(CorruptInstanceError):
        restore(tree.with_entries({path: LiteralContent(data)}))


def test_restore_from_metadata_with_another_churn_rate_is_unequal():
    g = build_guest(container_spec(), profile_by_name("Game Server"), seed=8, scale=0.01)
    tree = checkpoint(g)
    path = f"{CHECKPOINT_PREFIX}/meta.json"
    meta = json.loads(tree.get(path).data)
    assert meta["churn_rate"] == g.memory.churn_rate != 0.5
    data = json.dumps({**meta, "churn_rate": 0.5}).encode()
    restored = restore(tree.with_entries({path: LiteralContent(data)}))
    assert restored.churn_rate == 0.5 and restored != g.memory


def test_build_guest_rejects_bad_scale():
    with pytest.raises(ValueError):
        build_guest(container_spec(), profile_by_name("Game Server"), seed=1, scale=0.0)
    with pytest.raises(ValueError):
        build_guest(container_spec(), profile_by_name("Game Server"), seed=1, scale=1.5)


# --- group-built guests: oracle against the constructor ----------------------


def ref_trees(spec, app, seed, scale, app_layer, virt_nonce):
    """``build_guest``'s base, application and instance trees as the
    FileTree constructor builds them from the merged ``synthetic_files``
    mappings: every path normalized, sorted and grouped."""
    kind, slug = spec.virtualization, app.name.lower().replace(" ", "-")

    def files(prefix, size, seed, wire_ratio, epoch=0):
        return dict(synthetic_files(prefix, round(size * scale), seed,
                                    wire_ratio=wire_ratio, epoch=epoch))

    base = files("base", spec.base_tree_size, seed ^ 0xB5E, spec.base_wire_ratio)
    app_files = {**files(f"app/{slug}", app.install_bytes[kind], seed ^ 0xA99, spec.fs_wire_ratio),
                 **files(f"data/{slug}", app.data_bytes, seed ^ 0xDA7A, spec.fs_wire_ratio)}
    instance = {**files(f"inst/{slug}", app.instance_unique_file_bytes, seed ^ 0x1457,
                        spec.fs_wire_ratio),
                **files("virt", spec.virtualization_overhead_bytes, seed ^ 0x717, 1.0, virt_nonce)}
    app_tree = FileTree({**base, **app_files}) if app_layer else None
    return FileTree(base), app_tree, FileTree({**base, **app_files, **instance})


SIZES = st.integers(0, 3 * DEFAULT_CHUNK_SIZE + 5)
# Past 10^5 files, index order and path order part: "f100000" < "f10001".
PAST_FIVE_DIGITS = (10**5 + 1) * DEFAULT_CHUNK_SIZE + 1


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from([container_spec, vm_spec]),
       base_bytes=st.integers(1, 3 * DEFAULT_CHUNK_SIZE),
       name=st.sampled_from(["Face Detection", "a{}b", "x{0}/{y}", ".hidden", "A B/C"]),
       install=SIZES, data=SIZES, unique=SIZES, pages=st.integers(0, 40),
       scale=st.sampled_from([0.001, 0.37, 1.0]), app_layer=st.booleans(),
       virt_nonce=st.integers(0, 2), seed=st.integers(0, 2**32),
       chunk_size=st.sampled_from([DEFAULT_PAGE_SIZE, 3 * DEFAULT_PAGE_SIZE + 100,
                                   DEFAULT_CHUNK_SIZE]))
@example(kind=container_spec, base_bytes=1, name="a{}b", install=PAST_FIVE_DIGITS, data=0,
         unique=0, pages=10**5 + 1, scale=1.0, app_layer=True, virt_nonce=0, seed=5,
         chunk_size=DEFAULT_PAGE_SIZE)
def test_group_built_guests_match_the_constructor(kind, base_bytes, name, install, data, unique,
                                                  pages, scale, app_layer, virt_nonce, seed,
                                                  chunk_size):
    spec = replace(kind(), base_tree_size=base_bytes)
    app = AppProfile(name=name, install_bytes=per_kind(install, install), data_bytes=data,
                     instance_unique_file_bytes=unique, memory_bytes=pages * DEFAULT_PAGE_SIZE)
    g = build_guest(spec, app, seed, scale, app_layer=app_layer, virt_nonce=virt_nonce)
    ref_base, ref_app, ref_instance = ref_trees(spec, app, seed, scale, app_layer, virt_nonce)
    assert_same_tree(g.base, ref_base)
    assert_same_tree(g.instance, ref_instance)
    if app_layer:
        assert_same_tree(g.app, ref_app)
    else:
        assert g.app is None
    # The checkpoint group, against the files written chunk by chunk.
    tree = checkpoint(g, chunk_size)
    written = serialize_memory_by_chunk(g.memory, chunk_size, wire_ratio=g.memory_wire_ratio)
    state = tree.get(VM_STATE_FILE)
    assert (state is not None) == bool(round(spec.memory_floor_bytes * scale))
    if state is not None:
        written[VM_STATE_FILE] = state
    assert_same_tree(tree, FileTree(written))
