"""The layered migration state machine, with stage cost and wire-byte
accounting.

A migration walks an ordered list of stages chosen from what the
destination already holds (instance, application, base, or nothing) and
whether the scenario runs the two-layer or three-layer model.  It runs
in two steps.  ``simulate`` executes the stages against real trees, sync
stages running the real delta engine between source and destination,
and records each stage's work; it never reads the link or the cost
model, so one simulation serves every link.  ``price`` then charges
each stage one linear formula: its ``stage_features`` row over
``COST_TERMS`` times the ``cost_terms`` of the scenario's cost model and
link, plus the link's round trips for a sync stage.  The calibration fit
stacks the same rows.  Every migration ends with ``CLOSING_STAGES``:
suspend, instance filesystem sync, in-memory-state sync, restore and
other tasks.  Service downtime is the span from suspending the instance
to restoring it at the destination, every closing stage but the last
(``DOWNTIME_STAGES``).  The two downtime syncs move two separate trees,
as the paper's framework syncs the instance filesystem and the
in-memory state as two stages: the instance tree, then the checkpoint
tree that suspending the instance wrote.
"""

from __future__ import annotations

import enum
from dataclasses import MISSING, dataclass, fields, replace

from .delta_sync import (
    DEFAULT_BLOCK_SIZE,
    MAX_BLOCK_SIZE,
    MIN_BLOCK_SIZE,
    apply_tree_delta,
    sync_tree,
)
from .guest import (
    GuestInstance,
    GuestSpec,
    Virtualization,
    build_guest,
    checkpoint,
    restore,
)
from .layer_store import DEFAULT_CHUNK_SIZE, FileTree, advance_memory
from .netsim import MB, LinkSpec, effective_rate, require_finite, require_rate, transfer_time


class MigrationMode(enum.Enum):
    TWO_LAYER = "two_layer"
    THREE_LAYER = "three_layer"


class Stage(enum.Enum):
    SYNC_BASE_FILESYSTEM = "sync_base_filesystem"
    CLONE_BASE_AS_APP = "clone_base_as_app"
    SYNC_APP_FILESYSTEM = "sync_app_filesystem"
    CLONE_APP_AS_INSTANCE = "clone_app_as_instance"
    SUSPEND_INSTANCE = "suspend_instance"
    SYNC_INSTANCE_FILESYSTEM = "sync_instance_filesystem"
    SYNC_INSTANCE_MEMORY = "sync_instance_memory"
    RESTORE_INSTANCE = "restore_instance"
    OTHER_TASKS = "other_tasks"


def _record_dict(record) -> dict:
    """A dataclass record's fields, one level deep, enums as their values."""
    return {
        name: value.value if isinstance(value := getattr(record, name), enum.Enum) else value
        for name in record.__dataclass_fields__
    }


# The stages every migration ends with, in order; the service is
# stopped during all of them but the last.
CLOSING_STAGES = (Stage.SUSPEND_INSTANCE, Stage.SYNC_INSTANCE_FILESYSTEM,
                  Stage.SYNC_INSTANCE_MEMORY, Stage.RESTORE_INSTANCE, Stage.OTHER_TASKS)
DOWNTIME_STAGES = frozenset(CLOSING_STAGES[:-1])


SYNC_STAGES = frozenset({Stage.SYNC_BASE_FILESYSTEM, Stage.SYNC_APP_FILESYSTEM,
                         Stage.SYNC_INSTANCE_FILESYSTEM, Stage.SYNC_INSTANCE_MEMORY})

# The terms every stage time is linear in, in the order of a
# ``stage_features`` row: (name, charged as its reciprocal).  A name is a
# ``CostModel`` field or ``effective_rate``, the link's bits/s.
COST_TERMS = (
    ("effective_rate", True),  # per wire bit of a sync stage
    ("scan_rate", True),  # per byte a sync stage compares
    ("stage_fixed_overhead", False),  # per sync stage
    ("clone_rate", True),  # per byte a clone copies
    ("suspend_fixed", False),
    ("suspend_per_byte", False),  # per byte of memory
    ("restore_fixed", False),
    ("restore_per_byte", False),  # per byte of memory
    ("other_tasks_fixed", False),
)


@dataclass(frozen=True)
class DestinationState:
    """What the destination MEC already holds before migration starts."""

    has_base: bool = False
    has_app: bool = False
    has_stale_instance: bool = False

    def validate(self, mode: MigrationMode) -> None:
        if self.has_app and not self.has_base:
            raise ValueError("destination cannot hold an app layer without the base")
        if self.has_stale_instance:
            if mode is MigrationMode.THREE_LAYER and not self.has_app:
                raise ValueError("three-layer stale instance requires the app layer")
            if not self.has_base:
                raise ValueError("stale instance requires the base layer")


@dataclass(frozen=True)
class CostModel:
    """Calibrated stage costs.

    Rates are bytes/s, fixed terms seconds.  ``stage_fixed_overhead``
    is charged once per sync stage (session setup, file-list walk);
    ``scan_rate`` converts scanned target bytes into comparison time at
    the sender.
    """

    clone_rate: float
    suspend_fixed: float
    suspend_per_byte: float
    restore_fixed: float
    restore_per_byte: float
    scan_rate: float
    stage_fixed_overhead: float
    other_tasks_fixed: float

    def __post_init__(self):
        require_finite(self)
        require_rate("clone_rate", self.clone_rate)
        require_rate("scan_rate", self.scan_rate)
        for f in fields(self):
            if not getattr(self, f.name) >= 0:
                raise ValueError(f"{f.name} must be >= 0")


def default_cost_model(virtualization: Virtualization) -> CostModel:
    """Uncalibrated cost models, used by ``--calibration default``."""
    if virtualization is Virtualization.CONTAINER:
        return CostModel(
            clone_rate=130 * MB,
            suspend_fixed=0.30,
            suspend_per_byte=1.5e-9,
            restore_fixed=0.40,
            restore_per_byte=2.4e-9,
            scan_rate=2000 * MB,
            stage_fixed_overhead=0.5,
            other_tasks_fixed=2.5,
        )
    return CostModel(
        clone_rate=170 * MB,
        suspend_fixed=1.8,
        suspend_per_byte=4.5e-9,
        restore_fixed=2.4,
        restore_per_byte=1.0e-9,
        scan_rate=65 * MB,
        stage_fixed_overhead=0.6,
        other_tasks_fixed=3.7,
    )


@dataclass(frozen=True)
class StageRecord:
    """One stage's work and, once ``price`` has charged it, its seconds
    (0 in the records ``simulate`` returns)."""

    stage: Stage
    seconds: float = 0.0
    wire_bytes: int = 0
    # The rest of the work behind the duration: bytes compared by the
    # sync engine, and bytes processed locally (layer size for clones,
    # memory size for suspend/restore).
    scanned_bytes: int = 0
    local_bytes: int = 0


def stage_features(record: StageRecord) -> tuple:
    """The record's work, one amount per ``COST_TERMS`` entry."""
    if record.stage in SYNC_STAGES:
        return (record.wire_bytes * 8.0, record.scanned_bytes, 1, 0, 0, 0, 0, 0, 0)
    if record.stage in (Stage.CLONE_BASE_AS_APP, Stage.CLONE_APP_AS_INSTANCE):
        return (0, 0, 0, record.local_bytes, 0, 0, 0, 0, 0)
    if record.stage is Stage.SUSPEND_INSTANCE:
        return (0, 0, 0, 0, 1, record.local_bytes, 0, 0, 0)
    if record.stage is Stage.RESTORE_INSTANCE:
        return (0, 0, 0, 0, 0, 0, 1, record.local_bytes, 0)
    return (0, 0, 0, 0, 0, 0, 0, 0, 1)


def cost_terms(cost_model: CostModel, link: LinkSpec) -> tuple[float, ...]:
    """θ: the seconds one unit of each ``COST_TERMS`` entry costs."""
    values = dict(vars(cost_model), effective_rate=effective_rate(link))
    return tuple(1.0 / values[name] if reciprocal else values[name]
                 for name, reciprocal in COST_TERMS)


def stage_seconds(row, theta, start: float = 0.0) -> float:
    """``start`` plus ``row · theta``, added left to right.  A zero amount
    is skipped, so a term with no work costs nothing even if infinite."""
    seconds = start
    for amount, term in zip(row, theta):
        if amount:
            seconds += amount * term
    return seconds


@dataclass(frozen=True)
class MigrationReport:
    """The priced stages of one migration of ``scenario``."""

    scenario: MigrationScenario
    stages: tuple[StageRecord, ...]

    @property
    def total_seconds(self) -> float:
        return sum(s.seconds for s in self.stages)

    @property
    def downtime_seconds(self) -> float:
        return sum(s.seconds for s in self.stages if s.stage in DOWNTIME_STAGES)

    @property
    def total_wire_bytes(self) -> int:
        return sum(s.wire_bytes for s in self.stages)

    def to_json_dict(self) -> dict:
        return {
            "schema": "layermig.report/v1",
            "scenario": self.scenario.echo(),
            "mode": self.scenario.mode.value,
            "destination": _record_dict(self.scenario.destination),
            "stages": [_record_dict(s) for s in self.stages],
            "total_seconds": self.total_seconds,
            "downtime_seconds": self.downtime_seconds,
            "total_wire_bytes": self.total_wire_bytes,
        }


@dataclass(frozen=True)
class MigrationScenario:
    """Everything needed to run one migration deterministically."""

    guest_spec: GuestSpec
    profile: object  # AppProfile-shaped: name, sizes, churn, wire ratios
    mode: MigrationMode
    destination: DestinationState
    link: LinkSpec
    cost_model: CostModel
    scale: float = 1.0
    seed: int = 0
    block_size: int = DEFAULT_BLOCK_SIZE
    chunk_size: int = DEFAULT_CHUNK_SIZE
    round_trips: int = 2
    staleness_epochs: int = 3

    def __post_init__(self):
        self.destination.validate(self.mode)
        require_finite(self)
        if not 0 < self.scale <= 1:
            raise ValueError("scale must be in (0, 1]")
        if not MIN_BLOCK_SIZE <= self.block_size <= MAX_BLOCK_SIZE:
            raise ValueError(f"block_size must be in [{MIN_BLOCK_SIZE}, {MAX_BLOCK_SIZE}]")
        if self.chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        if self.round_trips < 0 or self.staleness_epochs < 0:
            raise ValueError("round_trips and staleness_epochs must be >= 0")

    def echo(self) -> dict:
        link = _record_dict(self.link)
        if link["processing_cap_bps"] == float("inf"):
            link["processing_cap_bps"] = None  # no cap; strict JSON holds no infinity
        return {
            "profile": self.profile.name,
            "virtualization": self.guest_spec.virtualization.value,
            "mode": self.mode.value,
            "destination": _record_dict(self.destination),
            "link": link,
            **{name: getattr(self, name) for name in SCENARIO_SCALARS},
        }


# The scalar fields of a scenario, those with a default, by name and type:
# what a config sets directly and what ``echo`` reports as it is.
SCENARIO_SCALARS = {f.name: f.type for f in fields(MigrationScenario) if f.default is not MISSING}


def plan(mode: MigrationMode, dest: DestinationState) -> list[Stage]:
    """Stage order for one migration, as a function of what the
    destination already holds: a prefix that puts a clone of the lower
    layers in place as the new instance, then ``CLOSING_STAGES``.

    A missing base is synced, a missing app (three-layer) is cloned from
    the base and synced, and unless a found (stale) instance is there
    the app is cloned as the instance.  ``DestinationState.validate``
    rules out a stale instance without the layers below it.  Two-layer
    mode never emits application-layer stages: its app is the base, and
    the app files travel inside the instance sync.
    """
    dest.validate(mode)
    stages: list[Stage] = []
    if not dest.has_base:
        stages.append(Stage.SYNC_BASE_FILESYSTEM)
    if mode is MigrationMode.THREE_LAYER and not dest.has_app:
        stages += [Stage.CLONE_BASE_AS_APP, Stage.SYNC_APP_FILESYSTEM]
    if not dest.has_stale_instance:
        stages.append(Stage.CLONE_APP_AS_INSTANCE)
    return stages + list(CLOSING_STAGES)


@dataclass
class MigrationOutcome:
    """Report plus the concrete guests, for end-to-end verification."""

    report: MigrationReport
    source_at_suspend: GuestInstance
    destination: GuestInstance


def simulate(
    scenario: MigrationScenario,
) -> tuple[tuple[StageRecord, ...], GuestInstance, GuestInstance]:
    """Execute every planned stage against real trees: each stage's
    unpriced record, the source at suspend time and the migrated guest.

    Sync stages call the delta engine with the destination's actual
    basis.  Suspending the source makes its checkpoint tree, which the
    memory sync sends on its own; a stale instance at the destination
    holds the checkpoint tree it was suspended with, the basis of that
    sync.  The destination guest is built once, from the trees the syncs
    left there, with its memory restored from the checkpoint that
    arrived: it must equal the source's at suspend time, which is
    asserted before returning.  The scenario's link, cost model and
    round trips are never read: only ``price`` depends on them.
    """
    spec = scenario.guest_spec
    mode = scenario.mode
    dest_state = scenario.destination
    app_layer = mode is MigrationMode.THREE_LAYER

    source = build_guest(
        spec, scenario.profile, scenario.seed, scenario.scale,
        app_layer=app_layer, virt_nonce=1,
    )

    # Destination holdings. Bases and app layers are bit-identical across
    # MECs by construction; a stale instance is this same guest as it was
    # checkpointed some epochs ago (older memory, older background state).
    dest_base_tree = source.base if dest_state.has_base else None
    dest_app_tree = source.app if (app_layer and dest_state.has_app) else None
    dest_instance_tree: FileTree | None = None
    dest_checkpoint = FileTree()
    if dest_state.has_stale_instance:
        stale = build_guest(spec, scenario.profile, scenario.seed, scenario.scale,
                            app_layer=app_layer, virt_nonce=0)
        dest_instance_tree = stale.instance
        dest_checkpoint = checkpoint(stale, scenario.chunk_size)
        source = replace(source, memory=advance_memory(source.memory, scenario.staleness_epochs))

    source_checkpoint: FileTree | None = None
    work: list[StageRecord] = []

    def run_sync(stage: Stage, basis: FileTree, target: FileTree) -> FileTree:
        tree_delta, stats = sync_tree(
            basis, target, scenario.block_size, verify_unchanged=spec.scan_unchanged
        )
        work.append(StageRecord(stage, wire_bytes=stats.wire_bytes,
                                scanned_bytes=stats.scanned_bytes))
        return apply_tree_delta(basis, tree_delta)

    for stage in plan(mode, dest_state):
        if stage is Stage.SYNC_BASE_FILESYSTEM:
            dest_base_tree = run_sync(stage, FileTree(), source.base)

        elif stage is Stage.CLONE_BASE_AS_APP:
            assert dest_base_tree is not None
            dest_app_tree = dest_base_tree
            work.append(StageRecord(stage, local_bytes=dest_base_tree.total_length))

        elif stage is Stage.SYNC_APP_FILESYSTEM:
            assert dest_app_tree is not None and source.app is not None
            dest_app_tree = run_sync(stage, dest_app_tree, source.app)

        elif stage is Stage.CLONE_APP_AS_INSTANCE:
            lower = dest_app_tree if mode is MigrationMode.THREE_LAYER else dest_base_tree
            assert lower is not None
            dest_instance_tree = lower
            work.append(StageRecord(stage, local_bytes=lower.total_length))

        elif stage is Stage.SUSPEND_INSTANCE:
            source_checkpoint = checkpoint(source, scenario.chunk_size)
            work.append(StageRecord(stage, local_bytes=source.memory.total_bytes))

        elif stage is Stage.SYNC_INSTANCE_FILESYSTEM:
            assert source_checkpoint is not None and dest_instance_tree is not None
            dest_instance_tree = run_sync(stage, dest_instance_tree, source.instance)

        elif stage is Stage.SYNC_INSTANCE_MEMORY:
            assert source_checkpoint is not None
            dest_checkpoint = run_sync(stage, dest_checkpoint, source_checkpoint)

        elif stage is Stage.RESTORE_INSTANCE:
            assert source_checkpoint is not None and dest_instance_tree is not None
            work.append(StageRecord(stage, local_bytes=source.memory.total_bytes))

        else:  # OTHER_TASKS
            work.append(StageRecord(stage))

    assert dest_base_tree is not None and dest_instance_tree is not None
    dest_guest = GuestInstance(
        source.spec, dest_base_tree, dest_app_tree, dest_instance_tree,
        restore(dest_checkpoint), source.seed, source.scale, source.memory_wire_ratio,
    )

    # Internal consistency: the migrated guest must hold exactly the
    # source's state at suspend time.  A mismatch means a sync stage
    # went wrong and the report would be meaningless.
    if dest_guest.instance != source.instance:
        raise RuntimeError("destination instance tree diverged from source at suspend")
    if dest_guest.memory != source.memory:
        raise RuntimeError("destination memory diverged from source at suspend")
    return tuple(work), source, dest_guest


def price(work: tuple[StageRecord, ...], scenario: MigrationScenario) -> MigrationReport:
    """The report of ``scenario`` whose stages did ``work``, the records
    ``simulate`` returns for it or for a scenario that differs from it
    only in link, cost model or round trips.

    Each stage is charged ``stage_seconds`` of its record, plus, for a
    sync stage, ``transfer_time``'s round trips, their jitter indexed by
    the sync stages before it.
    """
    theta = cost_terms(scenario.cost_model, scenario.link)
    records: list[StageRecord] = []
    syncs = 0
    for record in work:
        link_s = 0.0
        if record.stage in SYNC_STAGES:
            link_s = transfer_time(scenario.link, scenario.round_trips, call_index=syncs)
            syncs += 1
        seconds = stage_seconds(stage_features(record), theta, link_s)
        records.append(StageRecord(record.stage, seconds, record.wire_bytes,
                                   record.scanned_bytes, record.local_bytes))
    return MigrationReport(scenario, tuple(records))


def run_migration(scenario: MigrationScenario) -> MigrationOutcome:
    """``simulate`` the scenario, then ``price`` its work."""
    work, source_at_suspend, destination = simulate(scenario)
    return MigrationOutcome(price(work, scenario), source_at_suspend, destination)
