"""Nearest-rank percentiles, for op times and model errors alike."""

from __future__ import annotations

import math

TAIL_LADDER = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


def percentile(ordered: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank percentile of sorted samples, and how many lie beyond it."""
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def tail(ordered: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it): the highest percentile of
    TAIL_LADDER with at least TAIL_BEYOND samples beyond it, or the
    maximum when there are too few samples."""
    for p in TAIL_LADDER:
        value, beyond = percentile(ordered, p)
        if beyond >= TAIL_BEYOND:
            return p, value, beyond
    return 100.0, ordered[-1], 0
