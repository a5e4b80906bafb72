"""The serving tier: MATCH as shared, continuously available infrastructure.

The paper's enterprise framing demands more than a library -- matching is
a *service* many users and applications hit concurrently against one
repository.  This package is that tier, stdlib-only:

* :class:`MatchServer` -- a ``ThreadingHTTPServer`` JSON API over one
  shared :class:`~repro.service.MatchService` (``/match``,
  ``/corpus-match``, ``/network-match``, ``/schemas``, ``/healthz``,
  ``/metrics``), with the typed request/response envelopes as the wire
  protocol;
* :class:`ResponseCache` -- generation-aware caching: responses are keyed
  on the canonical request hash and invalidated by the repository's
  ``generation`` / ``match_generation`` clocks, so repeated queries are
  O(lookup) and writes can never be answered stale;
* :class:`MatchServiceClient` -- the urllib client speaking the same
  typed envelopes;
* :func:`serve_until_shutdown` -- SIGINT/SIGTERM graceful shutdown that
  drains in-flight requests (wrapped by the ``repro serve`` CLI);
* :func:`serve_process_pool` -- prefork process-pool serving: N workers
  share one listening socket and one pooled-WAL SQLite store, with the
  DB-backed clocks keeping every worker's response cache exact
  (``repro serve --workers N``);
* :mod:`repro.server.distcache` -- the distributed cache tier: the
  :class:`CacheBackend` protocol, a shared loopback TCP cache server
  (``repro cache-serve``) any number of replicas mount via
  :class:`RemoteCache` or the two-level :class:`TieredCache`, write
  nudges that evict by clock watermark fleet-wide, and cache warming
  from the repository's hottest recorded request hashes (bench E22).

The tier is fully instrumented by :mod:`repro.telemetry`: every POST runs
under an (optional) span tree surfaced via ``X-Harmonia-Trace`` and the
envelope's ``trace`` block, ``/metrics`` reports per-endpoint and per-span
latency histograms (p50/p95/p99), slow requests export as JSONL trace
logs (``repro serve --trace-log``), and prefork pools aggregate all
workers' counters through one mmap-backed fleet-stats file -- see
``docs/observability.md``.

Bench E19 measures the tier (multi-client throughput, cold-vs-warm-cache
speedup, invalidation correctness); ``docs/serving.md`` documents the
endpoints, cache semantics, and deployment notes.
"""

from repro.server.app import MatchServer, serve_until_shutdown
from repro.server.cache import CacheStats, ResponseCache, canonical_request_key
from repro.server.client import MatchServerError, MatchServiceClient
from repro.server.distcache import (
    CacheBackend,
    CacheServer,
    RemoteCache,
    TieredCache,
    attach_cache_nudge,
    build_cache,
    warm_cache,
)
from repro.server.procpool import serve_process_pool

__all__ = [
    "CacheBackend",
    "CacheServer",
    "CacheStats",
    "MatchServer",
    "MatchServerError",
    "MatchServiceClient",
    "RemoteCache",
    "ResponseCache",
    "TieredCache",
    "attach_cache_nudge",
    "build_cache",
    "canonical_request_key",
    "serve_process_pool",
    "serve_until_shutdown",
    "warm_cache",
]
