"""Layered live migration for edge services: an incremental
file-synchronization core, guests split into base, application and
instance trees, the migration state machine, and a deterministic network
and cost model."""

from .delta_sync import (
    BasisMismatchError,
    CorruptDeltaError,
    FileDelta,
    FileSignature,
    SyncStats,
    apply_delta,
    apply_tree_delta,
    compute_delta,
    compute_signature,
    sync_tree,
)
from .guest import (
    GuestInstance,
    GuestSpec,
    CorruptInstanceError,
    Virtualization,
    build_guest,
    checkpoint,
    container_spec,
    restore,
    vm_spec,
)
from .layer_store import (
    FileTree,
    MemoryImage,
    advance_memory,
    new_memory_image,
    serialize_memory,
)
from .migrator import (
    CostModel,
    DestinationState,
    MigrationMode,
    MigrationReport,
    MigrationScenario,
    Stage,
    default_cost_model,
    plan,
    price,
    run_migration,
    simulate,
)
from .netsim import LinkSpec, effective_rate, transfer_time
from .workloads import AppProfile, builtin_profiles, profile_by_name

__version__ = "0.1.0"
