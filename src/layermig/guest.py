"""Guest lifecycle: build a layered guest from a base image and an
application profile, checkpoint it (suspend it and serialize its memory
into a checkpoint tree of its own, as CRIU dumps to an image directory),
and restore its memory from a checkpoint tree.

A checkpoint is only that tree: the guest itself holds no suspended
state, and whoever holds a checkpoint tree, the source or the
destination it was synced to, can restore the memory it holds."""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields

from .layer_store import (
    DEFAULT_CHUNK_SIZE,
    VM_STATE_FILE,
    FileTree,
    MemoryImage,
    SyntheticContent,
    new_memory_image,
    normalize_path,
    restore_memory,
    serialize_memory,
    synthetic_files,
)
from .netsim import MB, require_finite


class Virtualization(enum.Enum):
    CONTAINER = "container"
    VM = "vm"


class CorruptInstanceError(Exception):
    """A checkpoint tree whose files are missing or inconsistent."""


@dataclass(frozen=True)
class GuestSpec:
    """Static properties of the encapsulation technology.

    ``virtualization_overhead_bytes`` is background state that differs on
    every migration regardless of the application (packaging metadata,
    logs, device state); it is charged as irreducible instance-layer
    transfer.  The wire ratios and the VM-only memory floor are
    calibration constants fitted from reference measurements: container
    filesystems compress roughly 2:1 on the wire, VM image trees sync
    poorly enough to expand, and an idle VM's save file is large but
    almost entirely zero pages.
    """

    virtualization: Virtualization
    base_tree_size: int
    virtualization_overhead_bytes: int
    base_wire_ratio: float = 1.0
    fs_wire_ratio: float = 1.0
    scan_unchanged: bool = False
    memory_floor_bytes: int = 0
    memory_floor_wire_ratio: float = 1.0

    def __post_init__(self):
        require_finite(self)
        if self.base_tree_size <= 0:
            raise ValueError("base_tree_size must be positive")
        for f in fields(self):
            if f.type in ("int", "float") and getattr(self, f.name) < 0:
                raise ValueError(f"{f.name} must be >= 0")
            if f.name.endswith("wire_ratio") and not getattr(self, f.name) > 0:
                raise ValueError(f"{f.name} must be positive")


def container_spec() -> GuestSpec:
    return GuestSpec(
        virtualization=Virtualization.CONTAINER,
        base_tree_size=400 * MB,
        virtualization_overhead_bytes=1_400_000,
        base_wire_ratio=0.30,
        fs_wire_ratio=0.48,
        scan_unchanged=False,
    )


def vm_spec() -> GuestSpec:
    return GuestSpec(
        virtualization=Virtualization.VM,
        base_tree_size=2_700 * MB,
        virtualization_overhead_bytes=65 * MB,
        base_wire_ratio=0.20,
        fs_wire_ratio=1.60,
        scan_unchanged=True,
        memory_floor_bytes=600 * MB,
        memory_floor_wire_ratio=0.01,
    )


@dataclass(frozen=True)
class GuestInstance:
    """A built guest: the trees of its base, application and instance
    layers, and its memory image.

    Each layer tree holds its layer's own files and every file of the
    layers below it.  In two-layer packaging ``app`` is None and
    ``instance`` holds the application files.
    """

    spec: GuestSpec
    base: FileTree
    app: FileTree | None
    instance: FileTree
    memory: MemoryImage
    seed: int
    scale: float
    memory_wire_ratio: float = 1.0


def _scaled(size: int, scale: float) -> int:
    return round(size * scale)


def profile_slug(name: str) -> str:
    """The directory name of a profile's files: ``name`` in lower case,
    spaces as "-".  Raises ValueError for a name whose slug is not a
    normal path (see :func:`normalize_path`): "../../etc" would leave
    the tree, and ".." would put the application's files on the data's.
    """
    slug = name.lower().replace(" ", "-")
    try:
        normal = normalize_path(slug) == slug
    except ValueError:
        normal = False
    if not normal:
        raise ValueError(f"profile name {name!r} does not make a normal path")
    return slug


def build_guest(
    spec: GuestSpec,
    app,
    seed: int,
    scale: float = 1.0,
    *,
    app_layer: bool = True,
    virt_nonce: int = 0,
) -> GuestInstance:
    """Construct a running guest for an application profile.

    Tree byte sizes scale linearly with ``scale``; the memory image is
    quantized to whole pages.  ``virt_nonce`` keys the content of the
    always-churning virtualization files so that successive migrations
    of the same guest produce distinct background state.
    """
    if not 0 < scale <= 1:
        raise ValueError("scale must be in (0, 1]")
    kind = spec.virtualization
    slug = profile_slug(app.name)
    fs_ratio = spec.fs_wire_ratio

    # Each call makes one group; the trees adopt them whole and share them.
    base = synthetic_files("base", _scaled(spec.base_tree_size, scale), seed=seed ^ 0xB5E,
                           wire_ratio=spec.base_wire_ratio)
    app_groups = (
        synthetic_files(f"app/{slug}", _scaled(app.install_bytes[kind], scale),
                        seed=seed ^ 0xA99, wire_ratio=fs_ratio),
        synthetic_files(f"data/{slug}", _scaled(app.data_bytes, scale),
                        seed=seed ^ 0xDA7A, wire_ratio=fs_ratio),
    )
    instance_groups = (
        synthetic_files(f"inst/{slug}", _scaled(app.instance_unique_file_bytes, scale),
                        seed=seed ^ 0x1457, wire_ratio=fs_ratio),
        synthetic_files("virt", _scaled(spec.virtualization_overhead_bytes, scale),
                        seed=seed ^ 0x717, epoch=virt_nonce, wire_ratio=1.0),
    )
    # In two-layer packaging the application files live inside the instance.
    app_tree = FileTree.of_groups(base, *app_groups) if app_layer else None
    instance = FileTree.of_groups(base, *app_groups, *instance_groups)

    memory = new_memory_image(
        _scaled(app.memory_bytes, scale), seed=seed ^ 0x3E3, churn_rate=app.memory_churn_rate,
    )
    return GuestInstance(
        spec=spec,
        base=FileTree.of_groups(base),
        app=app_tree,
        instance=instance,
        memory=memory,
        seed=seed,
        scale=scale,
        memory_wire_ratio=app.memory_wire_ratio[kind],
    )


def checkpoint(g: GuestInstance, chunk_size: int = DEFAULT_CHUNK_SIZE) -> FileTree:
    """The checkpoint tree of the guest suspended now: its memory
    serialized in chunks of ``chunk_size`` bytes.  The guest itself is
    left as it is.

    VM guests additionally write a save-state file (device and mapping
    state plus untouched RAM) whose size does not depend on the
    application.
    """
    files = serialize_memory(g.memory, chunk_size, wire_ratio=g.memory_wire_ratio)
    floor = _scaled(g.spec.memory_floor_bytes, g.scale)
    if floor:  # "vmstate.img" sorts after the chunks and "meta.json"
        files[VM_STATE_FILE] = SyntheticContent(
            seed=g.seed ^ 0x54A7E, length=floor, epoch=g.memory.epoch,
            wire_ratio=g.spec.memory_floor_wire_ratio,
        )
    return FileTree.of_groups(files)


def restore(tree: FileTree) -> MemoryImage:
    """The memory image a checkpoint tree holds, rebuilt from its
    serialized chunks, so a destination whose checkpoint arrived over
    the wire resumes with exactly the bytes the source had at suspend
    time.  Chunks that all arrived as the source wrote them give back
    the source's epoch bytes themselves, not a copy (see
    :func:`restore_memory`).  Raises :class:`CorruptInstanceError` for a
    tree whose chunks or metadata are missing or inconsistent.
    """
    try:
        return restore_memory(tree)
    except ValueError as exc:
        raise CorruptInstanceError(str(exc)) from exc
