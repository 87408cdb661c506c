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
from dataclasses import dataclass, field, fields, replace
from typing import Mapping

from .guest import Virtualization, profile_slug
from .netsim import MB, is_finite, require_finite


def per_kind(container: float, vm: float) -> dict[Virtualization, float]:
    return {Virtualization.CONTAINER: container, Virtualization.VM: vm}


@dataclass(frozen=True)
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
        require_finite(self)
        profile_slug(self.name)  # the directory of the profile's files
        if not all(map(is_finite, (*self.install_bytes.values(), *self.memory_wire_ratio.values()))):
            raise ValueError("per-kind values must be finite")
        for f in fields(self):
            if f.type == "int" and getattr(self, f.name) < 0:
                raise ValueError("profile sizes must be >= 0")
        if any(v < 0 for v in self.install_bytes.values()):
            raise ValueError("install sizes must be >= 0")
        if any(not v > 0 for v in self.memory_wire_ratio.values()):
            raise ValueError("memory_wire_ratio must be positive")
        if not 0.0 <= self.memory_churn_rate <= 1.0:
            raise ValueError("memory_churn_rate must be within [0, 1]")

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


def derive_seed(base: int, index: int) -> int:
    return (base * 0x9E3779B97F4A7C15 + index * 0xBF58476D1CE4E5B9 + 1) & 0xFFFFFFFFFFFFFFFF


def stable_index(*parts: object) -> int:
    """16-bit index from a blake2b digest of ``parts``; unlike ``hash()``
    it does not change with ``PYTHONHASHSEED``."""
    material = "\x1f".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.blake2b(material, digest_size=2).digest(), "big")
