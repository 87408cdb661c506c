"""Deterministic transfer-time model for the inter-MEC link.

Throughput is the smaller of the raw link bandwidth and a processing
cap that models how fast the sync engine can compare and compress data;
above the cap, extra bandwidth buys nothing.  The wire bits are a term
of the stage-cost formula, charged at that rate; ``transfer_time`` is
the rest of a sync stage's link time, its latency once per round trip
with an optional seeded jitter term.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields

MB = 1_000_000  # bytes in a megabyte, and bits/s in a megabit per second


def is_finite(value) -> bool:
    """False only for a float NaN or infinity; an int is always finite."""
    return not isinstance(value, float) or math.isfinite(value)


def require_finite(record, *, skip: tuple[str, ...] = ()) -> None:
    """Raise ValueError for the first int or float field of a dataclass
    record, other than those in ``skip``, that is not finite."""
    for f in fields(record):
        if f.type in ("int", "float") and f.name not in skip and not is_finite(getattr(record, f.name)):
            raise ValueError(f"{f.name} must be finite")


def require_rate(name: str, value: float) -> None:
    """A rate is divided by: it must be positive with a finite reciprocal,
    which rules out NaN, 0 and the subnormals that 1 / rate overflows on."""
    if not (value > 0 and math.isfinite(1.0 / value)):
        raise ValueError(f"{name} must be positive, with a finite reciprocal")


@dataclass(frozen=True)
class LinkSpec:
    bandwidth_bps: float
    latency_s: float = 0.0
    jitter_s: float = 0.0
    processing_cap_bps: float = float("inf")
    seed: int = 0

    def __post_init__(self):
        # An infinite processing cap is the default: no cap.
        require_finite(self, skip=("processing_cap_bps",))
        require_rate("bandwidth", self.bandwidth_bps)
        require_rate("processing cap", self.processing_cap_bps)
        if not (self.latency_s >= 0 and self.jitter_s >= 0):
            raise ValueError("latency and jitter must be >= 0")


def effective_rate(link: LinkSpec) -> float:
    """Achievable throughput in bits/s: min(bandwidth, processing cap)."""
    return min(link.bandwidth_bps, link.processing_cap_bps)


def _jitter_sample(link: LinkSpec, call_index: int) -> float:
    """Uniform in [-jitter, +jitter], a pure function of (seed, call_index)."""
    if link.jitter_s == 0.0:
        return 0.0
    material = f"layermig.jitter:{link.seed}:{call_index}".encode()
    word = int.from_bytes(hashlib.blake2b(material, digest_size=8).digest(), "big")
    unit = word / float(1 << 64)  # [0, 1)
    return (2.0 * unit - 1.0) * link.jitter_s


def transfer_time(link: LinkSpec, round_trips: int = 2, *, call_index: int = 0) -> float:
    """Seconds the link's round trips take.

    One jitter value is sampled per call and applied to every round
    trip, clamped so latency plus jitter never goes negative; the value
    is identical across runs for the same (link, call_index).
    """
    return round_trips * max(0.0, link.latency_s + _jitter_sample(link, call_index))
