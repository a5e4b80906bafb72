"""Fixed-bucket latency histograms: p50/p95/p99 instead of flat totals.

A mean over a counter pair ("requests", "seconds_total") hides exactly
what the paper's workflow argument needs visible: the tail.  One slow
corpus sweep among a thousand cache hits disappears into the average but
dominates the p99.  :class:`LatencyHistogram` is the replacement -- a
fixed log-spaced bucket ladder (0.5ms .. 10s, plus overflow) every
endpoint and span kind observes into.

Fixed buckets are the deliberate choice over exact reservoirs:

* observation is O(log buckets) (one bisect) and lock-cheap,
* two histograms MERGE by adding bucket counts -- which is what makes
  fleet aggregation exact: per-worker counts sum to fleet counts with no
  approximation beyond the shared bucket resolution (see
  :mod:`repro.telemetry.board`),
* quantiles interpolate inside the winning bucket, so p50/p95/p99 are
  bounded by bucket width, never by sample count.

The bucket bounds are shared module constants: the stats board packs raw
bucket counts into its per-worker slots and any reader rebuilds the same
quantiles from them.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from typing import Any, Sequence

__all__ = [
    "BUCKET_BOUNDS_SECONDS",
    "N_BUCKETS",
    "LatencyHistogram",
    "bucket_index",
    "estimate_quantile",
    "summarize_counts",
]

#: Upper bounds (seconds) of the finite buckets, log-spaced 1-2.5-5 per
#: decade from 0.5ms to 10s -- wide enough for a cache hit and a cold
#: corpus sweep on one ladder.  Observations above the last bound land in
#: the overflow bucket.
BUCKET_BOUNDS_SECONDS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Finite buckets plus the overflow bucket.
N_BUCKETS = len(BUCKET_BOUNDS_SECONDS) + 1


def bucket_index(seconds: float) -> int:
    """The bucket one observation falls into (last index = overflow)."""
    return bisect_right(BUCKET_BOUNDS_SECONDS, seconds)


def estimate_quantile(counts: Sequence[int], q: float) -> float:
    """The ``q``-quantile (0..1) estimated from bucket counts.

    Linear interpolation inside the winning bucket; the overflow bucket
    reports its lower bound (the last finite bound) -- a deliberate
    under-estimate that keeps the value finite.
    """
    total = sum(counts)
    if total <= 0:
        return 0.0
    rank = q * total
    cumulative = 0.0
    for index, count in enumerate(counts):
        if count == 0:
            continue
        if cumulative + count >= rank:
            low = BUCKET_BOUNDS_SECONDS[index - 1] if index > 0 else 0.0
            if index >= len(BUCKET_BOUNDS_SECONDS):
                return BUCKET_BOUNDS_SECONDS[-1]
            high = BUCKET_BOUNDS_SECONDS[index]
            fraction = (rank - cumulative) / count
            return low + (high - low) * fraction
        cumulative += count
    return BUCKET_BOUNDS_SECONDS[-1]


def summarize_counts(
    counts: Sequence[int], seconds_total: float
) -> dict[str, Any]:
    """The JSON summary block every histogram consumer renders."""
    count = sum(counts)
    return {
        "count": count,
        "seconds_total": seconds_total,
        "p50": estimate_quantile(counts, 0.50),
        "p95": estimate_quantile(counts, 0.95),
        "p99": estimate_quantile(counts, 0.99),
        "buckets": list(counts),
    }


class LatencyHistogram:
    """A thread-safe fixed-bucket histogram over the shared ladder."""

    __slots__ = ("_lock", "_counts", "_seconds_total")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts = [0] * N_BUCKETS
        self._seconds_total = 0.0

    def observe(self, seconds: float) -> None:
        index = bucket_index(seconds)
        with self._lock:
            self._counts[index] += 1
            self._seconds_total += seconds

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold another histogram in (bucket-wise addition, exact)."""
        other_counts, other_total = other.snapshot()
        with self._lock:
            for index, count in enumerate(other_counts):
                self._counts[index] += count
            self._seconds_total += other_total

    def snapshot(self) -> tuple[list[int], float]:
        with self._lock:
            return list(self._counts), self._seconds_total

    @property
    def count(self) -> int:
        with self._lock:
            return sum(self._counts)

    @property
    def seconds_total(self) -> float:
        with self._lock:
            return self._seconds_total

    def quantile(self, q: float) -> float:
        counts, _ = self.snapshot()
        return estimate_quantile(counts, q)

    def to_dict(self) -> dict[str, Any]:
        counts, seconds_total = self.snapshot()
        return summarize_counts(counts, seconds_total)
