"""Background refresh for the corpus index, and the sharded-index names.

:class:`CorpusRefreshWorker` is a daemon thread watching the repository's
generation clock and refreshing stale shards of a
:class:`~repro.corpus.index.ShardedCorpusIndex` off the request path.
Each shard publishes its rebuilt state as one reference swap, so a query
never blocks on a refresh in progress: a reader whose shards are fresh
searches the published snapshots lock-free, and the pre-scan
generation-stamp ordering keeps mid-refresh registrations safe (the shard
stays stamped stale and is caught next cycle).  Without a worker, queries
fall back to synchronous incremental refresh -- zero stale results either
way.

The index itself -- hash-range shards and the refresh body, ranked by
the one BM25 scorer of :mod:`repro.search.rank` -- lives in
:mod:`repro.corpus.index`; :class:`ShardedCorpusIndex`, :class:`ShardStats`
and :func:`shard_of_name` are re-exported here.
``repro serve --refresh-interval`` runs the worker; ``/healthz`` and
``/metrics`` surface :meth:`ShardedCorpusIndex.shard_stats` and
:meth:`CorpusRefreshWorker.stats`.  See ``docs/repository.md`` and
``docs/serving.md``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.corpus.index import ShardedCorpusIndex, ShardStats, shard_of_name

__all__ = [
    "shard_of_name",
    "ShardStats",
    "RefreshWorkerStats",
    "ShardedCorpusIndex",
    "CorpusRefreshWorker",
]


@dataclass(frozen=True)
class RefreshWorkerStats:
    """Counters one :class:`CorpusRefreshWorker` has accumulated."""

    running: bool
    interval_seconds: float
    n_cycles: int            # wake-ups (timer or nudge)
    n_refreshes: int         # cycles that found staleness and refreshed
    n_errors: int            # refresh attempts that raised (worker survives)
    last_refresh_seconds: float
    last_error: str          # repr of the latest error, "" when none

    def to_dict(self) -> dict:
        return {
            "running": self.running,
            "interval_seconds": self.interval_seconds,
            "n_cycles": self.n_cycles,
            "n_refreshes": self.n_refreshes,
            "n_errors": self.n_errors,
            "last_refresh_seconds": self.last_refresh_seconds,
            "last_error": self.last_error,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RefreshWorkerStats":
        return cls(
            running=payload["running"],
            interval_seconds=payload["interval_seconds"],
            n_cycles=payload["n_cycles"],
            n_refreshes=payload["n_refreshes"],
            n_errors=payload["n_errors"],
            last_refresh_seconds=payload["last_refresh_seconds"],
            last_error=payload["last_error"],
        )


class CorpusRefreshWorker:
    """A daemon thread keeping a corpus index fresh off the request path.

    Watches the repository's generation clock every ``interval`` seconds
    (or immediately on :meth:`request_refresh`) and refreshes the bound
    index -- a :class:`ShardedCorpusIndex` rebuilds only its stale
    shards -- so queries land on warm snapshots instead of paying the
    synchronous-refresh fallback.  Exactness does not depend on the
    worker: a query that races ahead of it still refreshes synchronously.

    A refresh that raises is counted and kept (see :meth:`stats`); the
    worker never dies of one bad cycle.  ``stop()`` is graceful: wakes
    the thread, waits for the in-flight cycle, joins.
    """

    def __init__(
        self,
        index,
        interval: float = 1.0,
        name: str = "harmonia-corpus-refresh",
    ):
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.index = index
        self.interval = interval
        self.name = name
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()
        self._n_cycles = 0
        self._n_refreshes = 0
        self._n_errors = 0
        self._last_refresh_seconds = 0.0
        self._last_error = ""

    def start(self) -> "CorpusRefreshWorker":
        """Start the daemon thread (idempotent while running)."""
        with self._lock:
            if self._thread is not None and self._thread.is_alive():
                return self
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name=self.name, daemon=True
            )
            self._thread.start()
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Signal the thread, wait for the in-flight cycle, join."""
        with self._lock:
            thread = self._thread
        if thread is None:
            return
        self._stop.set()
        self._wake.set()
        thread.join(timeout)
        with self._lock:
            self._thread = None

    def request_refresh(self) -> None:
        """Nudge the worker to run a cycle now instead of at the interval."""
        self._wake.set()

    @property
    def running(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    def stats(self) -> RefreshWorkerStats:
        with self._lock:
            return RefreshWorkerStats(
                running=self.running,
                interval_seconds=self.interval,
                n_cycles=self._n_cycles,
                n_refreshes=self._n_refreshes,
                n_errors=self._n_errors,
                last_refresh_seconds=self._last_refresh_seconds,
                last_error=self._last_error,
            )

    def _run(self) -> None:
        while not self._stop.is_set():
            self._wake.wait(timeout=self.interval)
            self._wake.clear()
            if self._stop.is_set():
                return
            try:
                if self.index.is_stale():
                    refresh = self.index.refresh()
                    with self._lock:
                        self._n_refreshes += 1
                        self._last_refresh_seconds = refresh.elapsed_seconds
            except Exception as exc:  # pragma: no cover - backend failures
                with self._lock:
                    self._n_errors += 1
                    self._last_error = repr(exc)
            with self._lock:
                self._n_cycles += 1
