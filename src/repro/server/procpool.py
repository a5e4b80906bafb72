"""Process-pool serving: prefork workers sharing one socket and one store.

The threaded :class:`~repro.server.app.MatchServer` scales until the GIL:
every handler thread shares one interpreter, so compute-bound MATCH
requests serialise no matter how many threads run.  This module is the
classic prefork answer, stdlib-only:

* the parent binds ONE listening socket, then forks N workers
  (``os.fork``);
* every worker adopts the inherited socket (``MatchServer`` with
  ``listen_socket=``) and runs the ordinary threaded server over it --
  the kernel's accept queue load-balances connections across workers;
* every worker opens its OWN
  :class:`~repro.repository.backends.PooledSqliteBackend` on the same
  WAL database file (SQLite connections must never cross a fork), so all
  workers serve one shared store;
* response caches are per-process by default, but their invalidation
  watermarks -- the ``generation`` / ``match_generation`` clocks -- live
  in the database and move transactionally with every write, so a write
  through ANY process (or any outside writer on the same file) makes
  every worker's stale entries invalidate on their next lookup.
  Exactness is measured by bench E20's interleaved write/read sweep.
  With ``cache_url`` every worker instead joins one shared cache tier
  (``repro cache-serve``; see :mod:`repro.server.distcache`), so a miss
  computed by one worker is a hit for all of them -- bench E22.

Shutdown: SIGTERM/SIGINT to the parent fans out as SIGTERM to every
worker; each worker stops accepting, drains its in-flight handler
threads (the same graceful path as the threaded server), and exits; the
parent reaps them all and returns 0.  A worker that dies on its own
takes the pool down (the parent terminates the rest and returns 1) --
supervision belongs to the operator's init system, not to a hidden
respawn loop.

``repro serve --db repo.db --workers N`` is the CLI front; see
``docs/serving.md`` for deployment notes and pool sizing.
"""

from __future__ import annotations

import os
import signal
import socket
import sys
import threading
from typing import Callable

from repro.repository.store import MetadataRepository
from repro.server.app import MatchServer
from repro.server.distcache import build_cache
from repro.service import MatchOptions, MatchService
from repro.telemetry import FleetStats

__all__ = ["serve_process_pool"]


def _worker_main(
    listen_socket: socket.socket,
    db_path: str,
    options: MatchOptions | None,
    cache_size: int,
    pool_size: int,
    busy_timeout: float,
    quiet: bool,
    refresh_interval: float | None = None,
    corpus_shards: int = 1,
    cache_url: str | None = None,
    cache_tier: str = "auto",
    cache_timeout: float = 1.0,
    warm_limit: int = 0,
    trace_log: str | None = None,
    slow_ms: float = 250.0,
    trace_sample: float | None = None,
    fleet_path: str | None = None,
    fleet_index: int = 0,
) -> int:
    """One worker: open the shared store, serve the inherited socket.

    Runs entirely inside the forked child.  Signal handlers are installed
    FIRST so a shutdown that lands during the (numpy-heavy) service
    build-up is not lost; the serve loop then mirrors
    :func:`~repro.server.app.serve_until_shutdown`.
    """
    stop = threading.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: stop.set())
    repository = MetadataRepository(
        path=db_path, pool_size=pool_size, busy_timeout=busy_timeout
    )
    try:
        service = MatchService(
            repository=repository, options=options, corpus_shards=corpus_shards
        )
        # Each worker builds its own cache tier AFTER the fork (sockets to
        # a shared cache server must never cross one, same rule as SQLite
        # connections); with --cache-url every worker's shared tier is the
        # same cache process, so one worker's computed miss (or one
        # write's nudge) serves the whole pool.
        #
        # Stats follow the same post-fork rebuild rule: the parent created
        # the zeroed fleet-stats file BEFORE forking, and each worker maps
        # it here, binding its metrics board to its own page-aligned
        # region.  Any worker answering /metrics reads all regions and
        # reports fleet totals.
        fleet = FleetStats.attach(fleet_path) if fleet_path is not None else None
        server = MatchServer(
            service,
            cache_size=cache_size,
            quiet=quiet,
            listen_socket=listen_socket,
            cache=build_cache(
                cache_size=cache_size,
                cache_url=cache_url,
                tier=cache_tier,
                timeout=cache_timeout,
            ),
            warm_limit=warm_limit,
            trace_log=trace_log,
            slow_ms=slow_ms,
            trace_sample=trace_sample,
            fleet=fleet,
            fleet_index=fleet_index,
        )
        if refresh_interval is not None:
            # Each worker keeps its own corpus snapshots warm; the shared
            # generation clock in the WAL store makes every worker's
            # staleness check see writes from ANY worker.
            service.start_corpus_refresh(refresh_interval)
        if not stop.is_set():
            accept_loop = threading.Thread(
                target=server.serve_forever, name="harmonia-worker", daemon=True
            )
            accept_loop.start()
            stop.wait()
            server.shutdown()
            accept_loop.join()
        server.server_close()
        service.stop_corpus_refresh()
    finally:
        repository.close()
    return 0


def serve_process_pool(
    db_path: str,
    n_workers: int,
    host: str = "127.0.0.1",
    port: int = 8765,
    options: MatchOptions | None = None,
    cache_size: int = 1024,
    pool_size: int = 4,
    busy_timeout: float = 30.0,
    quiet: bool = True,
    announce: Callable[[str, int], None] | None = None,
    refresh_interval: float | None = None,
    corpus_shards: int = 1,
    cache_url: str | None = None,
    cache_tier: str = "auto",
    cache_timeout: float = 1.0,
    warm_limit: int = 0,
    trace_log: str | None = None,
    slow_ms: float = 250.0,
    trace_sample: float | None = None,
) -> int:
    """Run ``n_workers`` prefork servers over one socket and one store.

    Blocks until SIGTERM/SIGINT, then drains and reaps every worker.
    Returns the parent's exit status: 0 after a clean signalled shutdown,
    1 if any worker died on its own.  Raises ``OSError`` if the socket
    cannot be bound (the CLI maps that to exit status 2) and
    ``RuntimeError`` on platforms without ``os.fork``.

    ``announce(url, n_workers)`` is called once the pool is accepting.
    """
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    if not hasattr(os, "fork"):  # pragma: no cover - POSIX-only guard
        raise RuntimeError("process-pool serving needs os.fork (POSIX)")

    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    # One stats file, one page-aligned region per worker, created BEFORE
    # the forks so every child maps the same inode.  Workers write their
    # own region; /metrics on any worker reads them all.
    fleet_path = db_path + ".fleet-stats"
    FleetStats.create(fleet_path, n_workers)
    try:
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen(128)
        # Non-blocking BEFORE the forks: every worker's selector wakes on
        # each new connection, and the workers that lose the accept race
        # must get BlockingIOError ("no request" to socketserver) instead
        # of blocking in accept() where they would never see shutdown.
        listener.setblocking(False)
        bound_port = listener.getsockname()[1]

        workers: list[int] = []
        for fleet_index in range(n_workers):
            pid = os.fork()
            if pid == 0:
                # The child never returns into the caller's stack: serve,
                # flush, and _exit (skipping the parent's atexit state,
                # which the fork copied but does not own).
                status = 1
                try:
                    status = _worker_main(
                        listener,
                        db_path,
                        options,
                        cache_size,
                        pool_size,
                        busy_timeout,
                        quiet,
                        refresh_interval,
                        corpus_shards,
                        cache_url,
                        cache_tier,
                        cache_timeout,
                        warm_limit,
                        trace_log,
                        slow_ms,
                        trace_sample,
                        fleet_path,
                        fleet_index,
                    )
                finally:
                    sys.stdout.flush()
                    sys.stderr.flush()
                    os._exit(status)
            workers.append(pid)
        # The workers own the socket now; the parent only supervises.
        listener.close()

        stop_requested = threading.Event()

        def _shutdown(signum, frame) -> None:
            stop_requested.set()
            for pid in workers:
                try:
                    os.kill(pid, signal.SIGTERM)
                except ProcessLookupError:  # already gone
                    pass

        previous = {
            signum: signal.signal(signum, _shutdown)
            for signum in (signal.SIGINT, signal.SIGTERM)
        }
        try:
            if announce is not None:
                announce(f"http://{host}:{bound_port}", n_workers)
            failed = False
            remaining = set(workers)
            while remaining:
                # Blocks until a child exits; EINTR is retried by Python
                # after our handler has already SIGTERMed the pool, so a
                # shutdown signal turns into a stream of clean reaps.
                pid, status = os.waitpid(-1, 0)
                remaining.discard(pid)
                if not (os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0):
                    failed = True
                if not stop_requested.is_set() and remaining:
                    # A worker died on its own: take the pool down rather
                    # than limp along with fewer workers than promised.
                    failed = True
                    _shutdown(None, None)
            return 1 if failed else 0
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
    finally:
        # Idempotent: already closed in the normal path.
        listener.close()
        FleetStats.remove(fleet_path)
