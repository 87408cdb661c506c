"""Application and guest profiles used to generate migration scenarios.

The five built-in profiles carry the published installation, data and
memory sizes of the reference workloads.  Their per-kind memory wire
ratios are calibration constants: they reproduce the measured
data-transferred figures for the app-found configuration, where only
the instance layer crosses the wire (for example the face-detection
workload checkpoints roughly 100 MB of RAM but ships about 10 MB).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

from .guest import GuestSpec, Virtualization, container_spec
from .migrator import (
    CostModel,
    DestinationState,
    MigrationMode,
    MigrationScenario,
    default_cost_model,
)
from .netsim import LinkSpec

MB = 1_000_000


def per_kind(container: float, vm: float) -> dict[Virtualization, float]:
    return {Virtualization.CONTAINER: container, Virtualization.VM: vm}


@dataclass(frozen=True, eq=False)
class AppProfile:
    name: str
    install_bytes: Mapping[Virtualization, int]
    data_bytes: int = 0
    memory_bytes: int = 0
    memory_churn_rate: float = 0.0
    instance_unique_file_bytes: int = 0
    memory_wire_ratio: Mapping[Virtualization, float] = field(
        default_factory=lambda: per_kind(0.2, 0.2)
    )

    def __post_init__(self):
        for size in (self.data_bytes, self.memory_bytes, self.instance_unique_file_bytes):
            if size < 0:
                raise ValueError("profile sizes must be >= 0")
        if any(v < 0 for v in self.install_bytes.values()):
            raise ValueError("install sizes must be >= 0")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AppProfile)
            and self.name == other.name
            and dict(self.install_bytes) == dict(other.install_bytes)
            and self.data_bytes == other.data_bytes
            and self.memory_bytes == other.memory_bytes
            and self.memory_churn_rate == other.memory_churn_rate
            and self.instance_unique_file_bytes == other.instance_unique_file_bytes
            and dict(self.memory_wire_ratio) == dict(other.memory_wire_ratio)
        )

    def with_memory(self, memory_bytes: int) -> "AppProfile":
        return replace(self, memory_bytes=memory_bytes)


def builtin_profiles() -> list[AppProfile]:
    """The five reference workloads with their published constants."""
    return [
        AppProfile(
            name="Game Server",
            install_bytes=per_kind(700_000, 700_000),
            memory_bytes=1 * MB,
            memory_churn_rate=0.01,
            memory_wire_ratio=per_kind(0.20, 0.20),
        ),
        AppProfile(
            name="RAM Simulation",
            install_bytes=per_kind(100_000, 100_000),
            memory_bytes=330 * MB,
            memory_churn_rate=0.5,
            memory_wire_ratio=per_kind(0.29, 0.18),
        ),
        AppProfile(
            name="Video Streaming",
            install_bytes=per_kind(280 * MB, 230 * MB),
            data_bytes=50 * MB,
            memory_bytes=30 * MB,
            memory_churn_rate=0.01,
            memory_wire_ratio=per_kind(0.20, 0.20),
        ),
        AppProfile(
            name="Face Detection",
            install_bytes=per_kind(655 * MB, 565 * MB),
            memory_bytes=100 * MB,
            memory_churn_rate=0.01,
            memory_wire_ratio=per_kind(0.086, 0.22),
        ),
        AppProfile(
            name="No Application",
            install_bytes=per_kind(0, 0),
            memory_bytes=0,
            memory_churn_rate=0.0,
        ),
    ]


def profile_by_name(name: str) -> AppProfile:
    for profile in builtin_profiles():
        if profile.name == name:
            return profile
    raise KeyError(f"no built-in profile named {name!r}")


def profile_to_dict(profile: AppProfile) -> dict:
    return {
        "name": profile.name,
        "install_bytes": {k.value: v for k, v in profile.install_bytes.items()},
        "data_bytes": profile.data_bytes,
        "memory_bytes": profile.memory_bytes,
        "memory_churn_rate": profile.memory_churn_rate,
        "instance_unique_file_bytes": profile.instance_unique_file_bytes,
        "memory_wire_ratio": {k.value: v for k, v in profile.memory_wire_ratio.items()},
    }


def profile_from_dict(data: dict) -> AppProfile:
    install = data["install_bytes"]
    if isinstance(install, (int, float)):
        install = {"container": install, "vm": install}
    ratios = data.get("memory_wire_ratio", {"container": 0.2, "vm": 0.2})
    return AppProfile(
        name=data["name"],
        install_bytes={Virtualization(k): int(v) for k, v in install.items()},
        data_bytes=int(data.get("data_bytes", 0)),
        memory_bytes=int(data.get("memory_bytes", 0)),
        memory_churn_rate=float(data.get("memory_churn_rate", 0.0)),
        instance_unique_file_bytes=int(data.get("instance_unique_file_bytes", 0)),
        memory_wire_ratio={Virtualization(k): float(v) for k, v in ratios.items()},
    )


def load_profiles(path) -> list[AppProfile]:
    """Profiles from a user JSON file: either one object or a list."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict):
        data = [data]
    return [profile_from_dict(item) for item in data]


def derive_seed(base: int, index: int) -> int:
    return (base * 0x9E3779B97F4A7C15 + index * 0xBF58476D1CE4E5B9 + 1) & 0xFFFFFFFFFFFFFFFF


def stable_index(*parts: object) -> int:
    """16-bit index from a blake2b digest of ``parts``; unlike ``hash()``
    it does not change with ``PYTHONHASHSEED``."""
    material = "\x1f".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.blake2b(material, digest_size=2).digest(), "big")


def scenario_matrix(
    profiles: Sequence[AppProfile],
    modes: Sequence[MigrationMode],
    dest_states: Sequence[DestinationState],
    links: Sequence[LinkSpec],
    scale: float = 1.0,
    seed: int = 0,
    *,
    guest_spec: GuestSpec | None = None,
    cost_model: CostModel | None = None,
) -> list[MigrationScenario]:
    """Cartesian product of the inputs, one deterministic scenario each.

    Invalid (mode, destination) pairs are excluded up front, so callers
    can pass one destination list for both modes.
    """
    spec = guest_spec or container_spec()
    cm = cost_model or default_cost_model(spec.virtualization)
    scenarios = []
    index = 0
    for profile in profiles:
        for mode in modes:
            for dest in dest_states:
                try:
                    dest.validate(mode)
                except ValueError:
                    continue
                for link in links:
                    scenarios.append(
                        MigrationScenario(
                            guest_spec=spec,
                            profile=profile,
                            mode=mode,
                            destination=dest,
                            link=link,
                            cost_model=cm,
                            scale=scale,
                            seed=derive_seed(seed, index),
                        )
                    )
                    index += 1
    return scenarios
