"""Generation-aware response caching for the serving tier.

The paper's section-5 workload is *repetitive*: the same registered pairs
are matched again and again by different users and applications, and the
repository changes far less often than it is queried.  The serving tier
exploits that with a response cache that is

* **keyed on the canonical request hash** -- the SHA-256 of the endpoint
  plus the request's normalised ``to_dict()`` form, serialised with sorted
  keys.  Two requests that differ only in JSON formatting, key order, or
  explicitly-spelled-out defaults hash identically, so *near-repeated*
  queries hit too;
* **invalidated by the repository's monotone clocks** -- every entry
  records the ``(generation, match_generation)`` pair it was computed
  under (captured *before* execution, so a write racing the computation
  can only over-invalidate, never serve stale).  A lookup whose current
  clocks differ evicts the entry and recomputes: a freshly registered
  schema or a newly stored match set can never be answered with pre-write
  knowledge;
* **bounded** -- least-recently-used entries are evicted beyond
  ``max_entries``.

The cache stores plain response dicts (the JSON envelopes), never live
objects, so a hit is one lock-protected dict lookup plus serialisation.
Cache semantics are documented for operators in ``docs/serving.md``.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Any, NamedTuple

__all__ = [
    "CacheStats",
    "ResponseCache",
    "canonical_request_key",
    "clocks_outdated",
]

#: The staleness watermark an entry is stored under: the repository's
#: ``(generation, match_generation)`` at compute time.  ``None`` components
#: mean "this endpoint/service does not depend on that clock" (e.g. a
#: repository-less service), which compares equal forever -- exactly right,
#: since nothing those responses depend on can change.
Clocks = tuple


def canonical_request_key(endpoint: str, payload: dict) -> str:
    """The cache key for one request: SHA-256 over canonical JSON.

    ``payload`` should be the *normalised* request form (a parsed request's
    ``to_dict()``), not the raw wire bytes, so equivalent requests collide.
    """
    canonical = json.dumps(
        {"endpoint": endpoint, "request": payload},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CacheStats:
    """Counters one cache backend has accumulated.

    ``errors`` counts transport failures talking to a *remote* tier (see
    :mod:`repro.server.distcache`); the in-process cache never errors, so
    it stays 0 here.
    """

    hits: int = 0
    misses: int = 0
    invalidations: int = 0     # entries evicted because a clock moved
    evictions: int = 0         # entries evicted by the LRU bound
    errors: int = 0            # degraded lookups (remote tier unreachable)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
            "errors": self.errors,
            "hit_rate": self.hit_rate,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CacheStats":
        """Rebuild from :meth:`to_dict` (the cache-server wire form)."""
        return cls(
            hits=payload.get("hits", 0),
            misses=payload.get("misses", 0),
            invalidations=payload.get("invalidations", 0),
            evictions=payload.get("evictions", 0),
            errors=payload.get("errors", 0),
        )


class _Entry(NamedTuple):
    value: Any
    clocks: Clocks


def clocks_outdated(entry_clocks: Clocks, watermark: Clocks) -> bool:
    """True if an entry stored under ``entry_clocks`` predates ``watermark``.

    Component-wise: a ``None`` on either side means "does not depend on /
    does not constrain that clock" and never outdates.  This is the
    *eviction* predicate of the nudge broadcast -- per-lookup validation
    stays exact equality (``entry.clocks != clocks``), which also catches
    clock regressions from a restored-from-backup store.
    """
    return any(
        entry is not None and mark is not None and entry < mark
        for entry, mark in zip(entry_clocks, watermark)
    )


class ResponseCache:
    """A lock-protected, clock-validated, LRU-bounded response cache.

    This is also the in-process implementation of the
    :class:`~repro.server.distcache.CacheBackend` protocol (``get`` /
    ``put`` / ``evict_watermark`` / ``stats`` / ``describe``), the local
    tier of the distributed cache, and the store inside the shared
    ``repro cache-serve`` server.
    """

    def __init__(self, max_entries: int = 1024):
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        #: Per-live-entry hit counts (dropped with the entry, so the map
        #: is bounded by max_entries) -- the ``hot_keys`` observability.
        self._hits_by_key: dict[str, int] = {}
        self._lock = threading.Lock()
        self._stats = CacheStats()

    def get(self, key: str, clocks: Clocks) -> Any | None:
        """The cached value, or None on miss / clock-invalidated entry.

        An entry computed under different clocks is *deleted* on sight
        (counted as an invalidation), so one write sweeps stale answers
        out lazily as they are asked for again.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._stats = replace(self._stats, misses=self._stats.misses + 1)
                return None
            if entry.clocks != clocks:
                del self._entries[key]
                self._hits_by_key.pop(key, None)
                self._stats = replace(
                    self._stats,
                    misses=self._stats.misses + 1,
                    invalidations=self._stats.invalidations + 1,
                )
                return None
            self._entries.move_to_end(key)
            self._hits_by_key[key] = self._hits_by_key.get(key, 0) + 1
            self._stats = replace(self._stats, hits=self._stats.hits + 1)
            return entry.value

    def put(self, key: str, value: Any, clocks: Clocks) -> None:
        """Insert (or refresh) one entry; trims LRU entries beyond the bound."""
        with self._lock:
            self._entries[key] = _Entry(value, clocks)
            self._entries.move_to_end(key)
            evicted = 0
            while len(self._entries) > self.max_entries:
                dropped, _ = self._entries.popitem(last=False)
                self._hits_by_key.pop(dropped, None)
                evicted += 1
            if evicted:
                self._stats = replace(
                    self._stats, evictions=self._stats.evictions + evicted
                )

    def evict_watermark(self, watermark: Clocks) -> int:
        """Drop every entry stored under clocks older than ``watermark``.

        The receiving end of the write nudge: a repository write
        broadcasts its post-write clocks and each tier sweeps the entries
        that write could have changed *now*, instead of waiting for each
        to be looked up again.  Returns the number evicted (counted as
        invalidations).  A lost nudge costs nothing but that eagerness --
        per-lookup clock validation remains the correctness backstop.
        """
        watermark = tuple(watermark)
        with self._lock:
            stale = [
                key
                for key, entry in self._entries.items()
                if clocks_outdated(entry.clocks, watermark)
            ]
            for key in stale:
                del self._entries[key]
                self._hits_by_key.pop(key, None)
            if stale:
                self._stats = replace(
                    self._stats,
                    invalidations=self._stats.invalidations + len(stale),
                )
            return len(stale)

    def hot_keys(self, limit: int = 64) -> list[tuple[str, int]]:
        """The ``limit`` most-hit live keys as ``(key, hits)``, hottest first."""
        with self._lock:
            ranked = sorted(
                self._hits_by_key.items(), key=lambda item: (-item[1], item[0])
            )
            return ranked[:limit]

    def clear(self) -> None:
        """Drop every entry (stats survive)."""
        with self._lock:
            self._entries.clear()
            self._hits_by_key.clear()

    def describe(self) -> dict[str, Any]:
        """Operational identity + counters (the /metrics ``tier`` block)."""
        with self._lock:
            return {
                "kind": "local",
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "stats": self._stats.to_dict(),
            }

    def close(self) -> None:
        """Nothing to release (protocol symmetry with the remote tiers)."""
        return None

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def stats(self) -> CacheStats:
        """A point-in-time snapshot of the counters."""
        with self._lock:
            return self._stats
