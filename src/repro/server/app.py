"""Match-as-a-service: the concurrent HTTP front of the MatchService.

Smith et al. frame enterprise schema matching as shared infrastructure --
"hundreds to thousands of schemata" served to many users and applications
continuously, not a desktop tool run once.  :class:`MatchServer` is that
serving tier, stdlib-only (``http.server.ThreadingHTTPServer``):

============  ======  ====================================================
endpoint      method  body / response
============  ======  ====================================================
``/match``          POST    :class:`~repro.service.requests.MatchRequest`
                            ``.to_dict()`` in, ``MatchResponse`` envelope out
``/corpus-match``   POST    ``CorpusMatchRequest`` in, ``CorpusMatchResponse`` out
``/network-match``  POST    ``NetworkMatchRequest`` in, ``NetworkMatchResponse`` out
``/schemas``        GET     the registered schema names
``/healthz``        GET     liveness + version + repository clocks + cache stats
``/metrics``        GET     per-endpoint request/latency/cache counters
============  ======  ====================================================

Every worker thread shares ONE :class:`~repro.service.MatchService` --
one profile cache, one feature space, one corpus index, one mapping graph
-- which is exactly why those caches are lock-protected.  Responses are
cached in a generation-aware :class:`~repro.server.cache.ResponseCache`:
repeated and near-repeated queries are one dict lookup, while any write to
the bound repository (register, unregister, store_matches) moves a clock
and lazily sweeps the stale entries.  The ``X-Harmonia-Cache`` response
header says whether a POST was served ``hit`` or ``miss``.

Error mapping: undecodable JSON or an invalid request body is 400, an
unregistered schema name is 404, an unknown path is 404, anything
unexpected is 500 -- always as an ``{"error": ...}`` JSON body.

Every serve setting lives in one frozen :class:`ServeConfig`.
:func:`run_server` is a server's whole life -- open the repository, build
the service and server, serve until SIGINT/SIGTERM, then stop accepting,
drain in-flight handler threads (``daemon_threads = False`` +
``block_on_close``) and close -- and both the threaded ``repro serve`` and
every process-pool worker run it.  :func:`serve_until_shutdown` is the
same serve/drain sequence for an already-built server; see
``docs/serving.md``.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Iterator, Mapping

from repro import __version__
from repro.repository.store import MetadataRepository
from repro.schema.schema import Schema
from repro.server.cache import canonical_request_key
from repro.service import (
    CorpusMatchRequest,
    MatchOptions,
    MatchRequest,
    MatchService,
    NetworkMatchRequest,
)
from repro.telemetry import (
    BUCKET_BOUNDS_SECONDS,
    FleetStats,
    StatsBoard,
    Trace,
    TraceLogWriter,
    Tracer,
    activate_trace,
    span,
)

__all__ = [
    "MatchServer",
    "ServeConfig",
    "endpoint_clocks",
    "endpoint_executor",
    "run_server",
    "serve_until_shutdown",
]

_CACHE_TIERS = ("auto", "local", "shared", "tiered")

#: The POST endpoints and the request envelope each one decodes.
_REQUEST_TYPES = {
    "/match": MatchRequest,
    "/corpus-match": CorpusMatchRequest,
    "/network-match": NetworkMatchRequest,
}


def endpoint_clocks(repository, endpoint: str) -> tuple:
    """The staleness watermark a response of this endpoint depends on.

    ``/match`` output is a function of the registry contents only
    (``generation``); corpus and network matching also fold stored
    matches in (``match_generation``).  Without a repository nothing a
    response depends on can change, so the watermark is constant.

    The clocks come from the repository *backend*: on a file-backed store
    they are persisted and transactional with writes, so under
    process-pool serving a write in ANY process moves the watermark every
    worker reads.  Shared between the live request path and cache warming
    (:func:`repro.server.distcache.warm_cache`) so a warmed entry is
    watermarked exactly as a served one would be.
    """
    if repository is None:
        return (None, None)
    generation, match_generation = repository.clocks()
    if endpoint == "/match":
        return (generation, None)
    return (generation, match_generation)


def endpoint_executor(service: MatchService, endpoint: str):
    """The service method serving one POST endpoint (None if unknown)."""
    return {
        "/match": service.match,
        "/corpus-match": service.corpus_match,
        "/network-match": service.network_match,
    }.get(endpoint)


@dataclass(frozen=True)
class ServeConfig:
    """Every ``repro serve`` setting, validated once.

    One field per ``repro serve`` flag, named after its argparse dest and
    holding the flag's default (``repro serve --help`` and
    ``docs/serving.md`` say what each does).  The CLI builds one;
    :func:`run_server`, :class:`MatchServer` and the prefork pool all read
    it, so no layer re-declares a serve parameter.  An invalid value or
    combination raises ``ValueError`` here, which the CLI turns into exit
    status 2 before it opens or binds anything.
    """

    db: str | None = None  # None: an in-memory registry
    workers: int = 1  # > 1: a prefork pool over one socket and the db file
    pool_size: int = 4  # SQLite connections per process
    host: str = "127.0.0.1"
    port: int = 8765  # 0: an ephemeral port
    cache_size: int = 1024
    threshold: float = 0.15  # for requests that name no options
    access_log: bool = False
    refresh_interval: float | None = None  # None: refresh on the query path
    corpus_shards: int = 1
    cache_url: str | None = None
    cache_tier: str = "auto"
    cache_timeout: float = 1.0
    warm_cache: int = 0
    trace_log: str | None = None
    slow_ms: float = 250.0
    trace_sample: float | None = None  # None: keep the service's tracer

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.workers > 1 and self.db is None:
            raise ValueError(
                "workers > 1 needs db: the worker processes share one WAL "
                "repository file, not one address space"
            )
        if self.workers > 1 and not hasattr(os, "fork"):  # pragma: no cover
            raise ValueError("workers > 1 needs os.fork (POSIX only)")
        if self.pool_size < 1:
            raise ValueError(f"pool_size must be >= 1, got {self.pool_size}")
        if self.cache_size <= 0:
            raise ValueError(f"cache_size must be positive, got {self.cache_size}")
        MatchOptions(threshold=self.threshold)  # raises on an out-of-range value
        tier, url = self.cache_tier, self.cache_url
        if tier not in _CACHE_TIERS:
            raise ValueError(f"cache_tier must be one of {_CACHE_TIERS}, got {tier!r}")
        if tier in ("shared", "tiered") and url is None:
            raise ValueError(f"cache_tier {tier!r} needs cache_url")
        if tier == "local" and url is not None:
            raise ValueError(f"cache_tier 'local' would ignore cache_url {url!r}")
        if self.cache_timeout <= 0:
            raise ValueError(
                f"cache_timeout must be positive, got {self.cache_timeout}"
            )
        if self.warm_cache < 0:
            raise ValueError(f"warm_cache must be >= 0, got {self.warm_cache}")
        interval = self.refresh_interval
        if interval is not None and interval <= 0:
            raise ValueError(f"refresh_interval must be positive, got {interval}")
        if self.corpus_shards < 1:
            raise ValueError(f"corpus_shards must be >= 1, got {self.corpus_shards}")
        if self.slow_ms < 0:
            raise ValueError(f"slow_ms must be >= 0, got {self.slow_ms}")
        sample = self.trace_sample
        if sample is not None and not 0.0 <= sample <= 1.0:
            raise ValueError(f"trace_sample must be in [0, 1], got {sample}")


class MatchServer(ThreadingHTTPServer):
    """The threaded JSON front of one shared :class:`MatchService`.

    Parameters
    ----------
    service:
        The service every handler thread shares.  Bind it to a
        :class:`~repro.repository.store.MetadataRepository` for by-name
        requests, ``/corpus-match``, ``/network-match``, and cache
        invalidation on writes.
    config:
        The :class:`ServeConfig`; the server reads its address, cache,
        warming, access-log and tracing fields.  A port in use raises
        ``OSError`` here (the CLI exits 2); port ``0`` is ephemeral (see
        :attr:`port` / :attr:`url`).
    listen_socket:
        An already-bound, listening socket to adopt instead of binding:
        how process-pool workers share ONE listener, whose kernel accept
        queue load-balances connections (see :mod:`repro.server.procpool`).
    cache:
        A ready :class:`~repro.server.distcache.CacheBackend` to serve from
        instead of the one the config describes (tests inject fake,
        remote or tiered backends here).
    fleet / fleet_index:
        A :class:`repro.telemetry.FleetStats` mapping and this worker's
        region under prefork serving: ``/metrics`` then reports per-worker
        blocks plus exact fleet totals.  ``None`` keeps metrics private.
    """

    #: Graceful shutdown: in-flight handler threads are joined by
    #: ``server_close`` instead of being killed with the process.
    daemon_threads = False
    block_on_close = True
    #: Listen backlog, as on the process-pool listener.  socketserver's
    #: default of 5 overflows when a burst of clients connects while
    #: handler threads hold the interpreter lock, and each dropped SYN
    #: costs its client a one-second retransmit.
    request_queue_size = 128
    #: Flush accumulated request-hash counters to the repository's
    #: ``request_stats`` table after this many POSTs (and always on
    #: close), keeping the warming source fresh without a database write
    #: per request.
    hot_flush_every = 64

    def __init__(
        self,
        service: MatchService,
        config: ServeConfig = ServeConfig(),
        *,
        listen_socket: socket.socket | None = None,
        cache=None,
        fleet: FleetStats | None = None,
        fleet_index: int = 0,
    ):
        from repro.server.distcache import attach_cache_nudge, build_cache, warm_cache

        self.service = service
        self.cache = cache if cache is not None else build_cache(
            cache_size=config.cache_size,
            cache_url=config.cache_url,
            tier=config.cache_tier,
            timeout=config.cache_timeout,
        )
        if config.trace_sample is not None:
            service.tracer = Tracer(sample_rate=config.trace_sample)
        self.trace_writer = (
            TraceLogWriter(config.trace_log, slow_ms=config.slow_ms)
            if config.trace_log is not None
            else None
        )
        self.fleet = fleet
        self.fleet_index = fleet_index
        #: Per-endpoint counters and latency histograms, plus per-span-kind
        #: histograms: a private in-memory board for a threaded server, or
        #: this worker's region of the shared fleet stats file under
        #: prefork serving (what lets any worker report fleet totals).
        if fleet is not None:
            self.board = fleet.worker_board(fleet_index)
            self.board.set_pid(os.getpid())
        else:
            self.board = StatsBoard()
        self.quiet = not config.access_log
        self.started_at = time.perf_counter()
        # Operators correlate this with external logs; it never enters a
        # duration computation (uptime uses perf_counter above).
        self.started_at_unix = time.time()  # wall clock on purpose
        # Hot-request tracking: per-key counters accumulate in memory and
        # flush to the repository in batches -- the warming source for
        # the NEXT replica to start.
        self._hot_lock = threading.Lock()
        self._hot_requests: dict[str, list] = {}
        self._hot_pending = 0
        # Nudge: writes through THIS process's repository broadcast their
        # post-write clocks into the cache tier (shared tiers are thereby
        # swept for the whole fleet).  Lost nudges are safe: every lookup
        # still validates clocks.
        self._nudge = None
        if service.repository is not None:
            self._nudge = attach_cache_nudge(service.repository, self.cache)
        self.warmed_entries = warm_cache(service, self.cache, config.warm_cache)
        if listen_socket is None:
            super().__init__((config.host, config.port), MatchRequestHandler)
        else:
            address = listen_socket.getsockname()[:2]
            super().__init__(address, MatchRequestHandler, bind_and_activate=False)
            # Adopt the shared socket: close the unbound placeholder the
            # TCPServer constructor made, take over the inherited one, and
            # fill in what server_bind would have derived.  No activate --
            # the parent already called listen().
            self.socket.close()
            self.socket = listen_socket
            self.server_name, self.server_port = address

    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        return self.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.server_address[0]}:{self.port}"

    # ------------------------------------------------------------------
    # Hot-request tracking (the cache-warming source)
    # ------------------------------------------------------------------
    def note_request(self, key: str, endpoint: str, payload: dict) -> None:
        """Count one request hash; flush to the repository in batches."""
        if self.service.repository is None:
            return
        with self._hot_lock:
            record = self._hot_requests.get(key)
            if record is None:
                self._hot_requests[key] = [endpoint, payload, 1]
            else:
                record[2] += 1
            self._hot_pending += 1
            due = self._hot_pending >= self.hot_flush_every
        if due:
            self.flush_hot_requests()

    def flush_hot_requests(self) -> None:
        """Write accumulated request counters to the repository now.

        One bulk upsert per flush, outside the counter lock; a flush that
        fails (store closing under us at shutdown) re-queues nothing --
        request stats are best-effort observability, never worth failing
        a request or a shutdown over.
        """
        repository = self.service.repository
        if repository is None:
            return
        with self._hot_lock:
            if not self._hot_requests:
                return
            batch = [
                (key, endpoint, payload, count)
                for key, (endpoint, payload, count) in self._hot_requests.items()
            ]
            self._hot_requests = {}
            self._hot_pending = 0
        try:
            repository.record_requests(batch)
        except Exception:
            pass

    def server_close(self) -> None:
        """Flush warming counters, detach the nudge, release the cache."""
        try:
            self.flush_hot_requests()
        finally:
            if self._nudge is not None and self.service.repository is not None:
                self.service.repository.remove_write_listener(self._nudge)
            if self.trace_writer is not None:
                self.trace_writer.close()
            if self.fleet is not None:
                self.fleet.close()
            self.cache.close()
            super().server_close()

    def sync_gauges(self) -> None:
        """Mirror cache/cascade/corpus gauges into the fleet stats region.

        A no-op without a fleet mapping: the threaded server reads those
        blocks live, only prefork workers need them published where other
        workers can sum them.
        """
        if self.fleet is None:
            return
        stats = self.cache.stats.to_dict()
        stats["entries"] = len(self.cache)
        corpus = self.service.corpus_status()
        self.board.set_gauges(
            cache=stats,
            cascade=self.service.cascade_status(),
            corpus={
                "initialized": 1 if corpus.get("initialized") else 0,
                "n_indexed": corpus.get("n_indexed", 0),
            },
        )

    def cache_payload(self) -> dict[str, Any]:
        """The cache block of /healthz and /metrics: aggregate + per-tier."""
        stats = self.cache.stats
        return {
            "entries": len(self.cache),
            **stats.to_dict(),
            "warm_hit_ratio": stats.hit_rate,
            "warmed_entries": self.warmed_entries,
            "tier": self.cache.describe(),
        }

    # ------------------------------------------------------------------
    # Endpoint payloads (called by the handler; all return JSON dicts)
    # ------------------------------------------------------------------
    def healthz_payload(self) -> dict[str, Any]:
        repository = self.service.repository
        generation, match_generation = (
            repository.clocks() if repository is not None else (None, None)
        )
        return {
            "status": "ok",
            "version": __version__,
            "uptime_seconds": time.perf_counter() - self.started_at,
            "started_at_unix": self.started_at_unix,
            "repository": {
                "bound": repository is not None,
                "n_registered": len(repository) if repository is not None else 0,
                "generation": generation,
                "match_generation": match_generation,
                "backend": (
                    repository.describe_backend() if repository is not None else None
                ),
            },
            "cache": self.cache_payload(),
            "corpus": self.service.corpus_status(),
            "cascade": self.service.cascade_status(),
        }

    def metrics_payload(self) -> dict[str, Any]:
        self.sync_gauges()
        snapshot = self.board.snapshot()
        payload = {
            "endpoints": snapshot["endpoints"],
            "spans": snapshot["spans"],
            "latency_bucket_bounds": list(BUCKET_BOUNDS_SECONDS),
            "cache": self.cache_payload(),
            "corpus": self.service.corpus_status(),
            "cascade": self.service.cascade_status(),
        }
        if self.fleet is not None:
            payload["fleet"] = self.fleet.payload()
        return payload

    def schemas_payload(self) -> dict[str, Any]:
        repository = self.service.repository
        names = sorted(repository.schema_names()) if repository is not None else []
        return {"n_registered": len(names), "names": names}


class _RequestError(Exception):
    """An error with a definite HTTP status (raised by decode/execute)."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


class MatchRequestHandler(BaseHTTPRequestHandler):
    """Routes HTTP verbs+paths onto the shared service, with caching."""

    server: MatchServer
    #: Keep-alive with explicit Content-Length on every response.
    protocol_version = "HTTP/1.1"
    #: Socket timeout: an idle keep-alive connection releases its handler
    #: thread after this long, bounding how long graceful shutdown (which
    #: joins every handler thread) can wait on a silent client.
    timeout = 10

    _GET_ROUTES = {
        "/healthz": "healthz_payload",
        "/metrics": "metrics_payload",
        "/schemas": "schemas_payload",
    }

    # -- plumbing -------------------------------------------------------
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.server.quiet:
            super().log_message(format, *args)

    def _respond(
        self,
        status: int,
        payload: dict,
        cache: str | None = None,
        trace_id: str | None = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if cache is not None:
            self.send_header("X-Harmonia-Cache", cache)
        if trace_id is not None:
            self.send_header("X-Harmonia-Trace", trace_id)
        self.end_headers()
        self.wfile.write(body)

    # -- GET ------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        started = time.perf_counter()
        path = self.path.split("?", 1)[0]
        route = self._GET_ROUTES.get(path)
        if route is None:
            status, payload = 404, {"error": f"unknown endpoint {path!r}"}
        else:
            status, payload = 200, getattr(self.server, route)()
        # Record before responding: once the client has the reply, a
        # follow-up /metrics read must already see this request counted.
        # Unknown paths bucket under one key so a URL-sweeping client
        # cannot grow the metrics map without bound.
        self.server.board.record_endpoint(
            path if route is not None else "(unknown)",
            time.perf_counter() - started,
            error=status >= 400,
        )
        self._respond(status, payload)

    # -- POST -----------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - http.server API
        started = time.perf_counter()
        path = self.path.split("?", 1)[0]
        cache_status: str | None = None
        ambient: Trace | None = None
        try:
            status, payload, cache_status, ambient = self._execute(path)
        except _RequestError as exc:
            status, payload = exc.status, {"error": exc.message}
        except Exception as exc:  # pragma: no cover - defensive 500
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        elapsed = time.perf_counter() - started
        endpoint = path if path in _REQUEST_TYPES else "(unknown)"
        # Record before responding (see do_GET); unknown paths bucket.
        self.server.board.record_endpoint(
            endpoint, elapsed, error=status >= 400, cache=cache_status
        )
        # The trace to report.  A cache hit replays the STORED envelope's
        # trace (that is the execution the response describes -- the
        # ambient hit-path trace is a lone cache.get and is never folded
        # anywhere).  On fresh executions the ambient trace is preferred:
        # the envelope's trace block is a snapshot taken BEFORE the
        # response was cached, so only the ambient copy (the same trace,
        # serialised later) carries the cache.put span.
        trace_payload: dict | None = None
        envelope_trace = (
            payload.get("trace")
            if status == 200 and isinstance(payload, Mapping)
            else None
        )
        if cache_status == "hit" and envelope_trace:
            trace_payload = envelope_trace
        elif ambient is not None and len(ambient):
            trace_payload = ambient.to_dict()
        elif envelope_trace:
            trace_payload = envelope_trace
        if trace_payload is not None and cache_status != "hit":
            # Fresh executions only: a cache hit replays a STORED trace --
            # folding it into histograms or the slow log again would count
            # work that did not run.
            self.server.board.record_trace(trace_payload)
            if self.server.trace_writer is not None:
                self.server.trace_writer.maybe_write(
                    endpoint, trace_payload, elapsed
                )
        self.server.sync_gauges()
        self._respond(
            status,
            payload,
            cache=cache_status,
            trace_id=(
                trace_payload.get("trace_id") if trace_payload is not None else None
            ),
        )

    def _execute(
        self, path: str
    ) -> tuple[int, dict, str | None, "Trace | None"]:
        executor = endpoint_executor(self.server.service, path)
        if executor is None:
            # Drain the body first: with keep-alive, leaving declared
            # Content-Length bytes unread would desynchronise the next
            # request on this connection.
            self._read_body()
            raise _RequestError(404, f"unknown endpoint {path!r}")
        request = self._decode_request(path)
        normalised = request.to_dict()
        key = canonical_request_key(path, normalised)
        # Counted hit or miss: warming replays what clients actually ask.
        self.server.note_request(key, path, normalised)
        # Captured BEFORE execution: a write landing mid-computation makes
        # the stored watermark stale, so the entry invalidates on its next
        # lookup instead of serving pre-write knowledge.
        clocks = endpoint_clocks(self.server.service.repository, path)
        # Server-side sampling: with a slow-request log configured, open a
        # trace for this request whether or not the client opted in -- the
        # service reuses it, and every span site below records into it.
        ambient: Trace | None = None
        if (
            self.server.trace_writer is not None
            and self.server.service.tracer.sample()
        ):
            ambient = Trace()
        with activate_trace(ambient):
            with span("cache.get"):
                cached = self.server.cache.get(key, clocks)
            if cached is not None:
                return 200, cached, "hit", ambient
            try:
                envelope = executor(request).to_dict()
            except KeyError as exc:
                raise _RequestError(404, f"not registered: {exc}") from exc
            except (ValueError, TypeError) as exc:
                raise _RequestError(400, str(exc)) from exc
            finally:
                # The inline schemata this request decoded are fresh objects
                # no later request passes again: keep them out of the
                # service's shared profile and feature caches.
                self.server.service.release(
                    ref
                    for ref in (request.source, getattr(request, "target", None))
                    if isinstance(ref, Schema)
                )
            with span("cache.put"):
                self.server.cache.put(key, envelope, clocks)
        return 200, envelope, "miss", ambient

    def _read_body(self) -> bytes:
        length = int(self.headers.get("Content-Length") or 0)
        return self.rfile.read(length) if length else b""

    def _decode_request(self, path: str):
        body = self._read_body()
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _RequestError(400, f"request body is not JSON: {exc}") from exc
        request_type = _REQUEST_TYPES[path]
        try:
            request = request_type.from_dict(payload)
            if not isinstance(payload, Mapping) or "options" not in payload:
                # A body that names no options inherits the SERVER's
                # defaults (what `repro serve --threshold` configures),
                # not the library defaults from_dict would fill in.
                request = replace(request, options=self.server.service.options)
            return request
        except (KeyError, TypeError, ValueError) as exc:
            raise _RequestError(
                400, f"invalid {request_type.__name__} body: {exc}"
            ) from exc


@contextmanager
def _stop_on_signals() -> Iterator[threading.Event]:
    """An event SIGINT/SIGTERM set inside the block (old handlers restored)."""
    stop = threading.Event()
    previous = {
        signum: signal.signal(signum, lambda *_: stop.set())
        for signum in (signal.SIGINT, signal.SIGTERM)
    }
    try:
        yield stop
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)


def _serve_until(server, stop: threading.Event, announce=None) -> None:
    """The one serve/stop/drain sequence: serve until ``stop`` is set.

    The accept loop runs on a worker thread (``shutdown()`` must not be
    called from the thread running ``serve_forever``).  On stop the
    listener closes first, then every in-flight handler thread is joined
    (``daemon_threads = False``), so accepted requests get their response.
    """
    accept_loop = threading.Thread(
        target=server.serve_forever, name="harmonia-serve", daemon=True
    )
    accept_loop.start()
    try:
        if announce is not None:
            announce(server)
        stop.wait()
    finally:
        server.shutdown()
        accept_loop.join()
        server.server_close()


def serve_until_shutdown(server, announce: Callable | None = None) -> None:
    """Run any ``socketserver`` server until SIGINT/SIGTERM, then drain it.

    ``repro cache-serve`` runs its
    :class:`~repro.server.distcache.CacheServer` through this.  Call it on
    the main thread, where Python delivers signals; ``announce(server)``
    runs once the accept loop is up.
    """
    with _stop_on_signals() as stop:
        _serve_until(server, stop, announce)


def run_server(
    config: ServeConfig,
    *,
    corpus: Mapping[str, Schema] | None = None,
    listen_socket: socket.socket | None = None,
    fleet: FleetStats | None = None,
    fleet_index: int = 0,
    announce: Callable[[MatchServer], None] | None = None,
) -> int:
    """One server's whole life, as ``repro serve`` and every pool worker run it.

    Opens the ``config.db`` repository (registering the ``{name: Schema}``
    ``corpus``), builds the service and the :class:`MatchServer`, starts
    the corpus refresh worker if configured, and serves until
    SIGINT/SIGTERM; then drains, stops the refresh worker and closes the
    repository.  The signal handlers go in first, so a shutdown during the
    (numpy-heavy) service build is not lost.  Returns 0; ``sqlite3.Error``
    (unopenable repository) and ``OSError`` (unbindable address) propagate.
    """
    with _stop_on_signals() as stop, MetadataRepository(
        path=config.db, pool_size=config.pool_size
    ) as repository:
        for name, schema in (corpus or {}).items():
            repository.register(schema, name=name)
        service = MatchService(
            repository=repository,
            options=MatchOptions(threshold=config.threshold),
            corpus_shards=config.corpus_shards,
        )
        try:
            if config.refresh_interval is not None:
                service.start_corpus_refresh(config.refresh_interval)
            server = MatchServer(
                service,
                config,
                listen_socket=listen_socket,
                fleet=fleet,
                fleet_index=fleet_index,
            )
            _serve_until(server, stop, announce)
        finally:
            service.stop_corpus_refresh()
    return 0
