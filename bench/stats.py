"""Order statistics used by every workload.

Percentiles use the nearest-rank rule on the sorted samples, so a
reported value is always one that was measured.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

MIN_BEYOND = 10   # samples that must lie above a reported percentile


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank ``pct``-th percentile of a non-empty sample."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0 < pct <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {pct}")
    ordered = sorted(samples)
    return ordered[_rank(len(ordered), pct) - 1]


def _rank(count: int, pct: float) -> int:
    """1-based nearest rank, in exact decimal arithmetic (99.9 % of 10000 is 9990)."""
    return max(1, math.ceil(Fraction(str(pct)) / 100 * count))


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank percentile."""
    return count - _rank(count, pct)


def min_samples_for(pct: float) -> int:
    """Smallest sample count that leaves MIN_BEYOND samples above ``pct``."""
    count = MIN_BEYOND + 1
    while samples_beyond(count, pct) < MIN_BEYOND:
        count += 1
    return count


def highest_reportable(count: int, ladder=(50, 75, 90, 99, 99.9, 99.99)) -> float | None:
    """Highest percentile of ``ladder`` with at least MIN_BEYOND samples above it."""
    ok = [p for p in ladder if samples_beyond(count, p) >= MIN_BEYOND]
    return max(ok) if ok else None


def median(samples: Sequence[float]) -> float:
    """Median; the mean of the middle pair for an even count."""
    if not samples:
        raise ValueError("median of an empty sample")
    ordered = sorted(samples)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def fail_ratio(failed: int, attempted: int) -> dict:
    """Failed over attempted, with its base; no attempts is itself an error."""
    if attempted < 1:
        raise ValueError("fail ratio needs at least one attempt")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside 0..attempted={attempted}")
    return {"value": failed / attempted, "failed": failed, "attempted": attempted}
