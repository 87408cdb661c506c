"""Deterministic transfer-time model for the inter-MEC link.

Throughput is the smaller of the raw link bandwidth and a processing
cap that models how fast the sync engine can compare and compress data;
above the cap, extra bandwidth buys nothing.  Latency applies once per
round trip with an optional seeded jitter term.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

MB = 1_000_000  # bytes in a megabyte, and bits/s in a megabit per second


@dataclass(frozen=True)
class LinkSpec:
    bandwidth_bps: float
    latency_s: float = 0.0
    jitter_s: float = 0.0
    processing_cap_bps: float = float("inf")
    seed: int = 0

    def __post_init__(self):
        # Each check is written so that NaN, which fails every comparison, fails it.
        if not self.bandwidth_bps > 0:
            raise ValueError("bandwidth must be positive")
        if not self.processing_cap_bps > 0:
            raise ValueError("processing cap must be positive")
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


def transfer_time(
    link: LinkSpec,
    wire_bytes: int,
    round_trips: int = 2,
    *,
    call_index: int = 0,
) -> float:
    """Seconds to move ``wire_bytes`` across the link.

    One jitter value is sampled per call and applied to every round
    trip, clamped so latency plus jitter never goes negative.  Monotone
    non-decreasing in ``wire_bytes`` and identical across runs for the
    same (link, call_index).
    """
    if wire_bytes < 0:
        raise ValueError("wire_bytes must be >= 0")
    per_trip = max(0.0, link.latency_s + _jitter_sample(link, call_index))
    return round_trips * per_trip + wire_bytes * 8.0 / effective_rate(link)
