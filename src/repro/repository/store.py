"""The enterprise metadata repository: schemata and matches as knowledge.

Section 5: "Large enterprises can have hundreds to thousands of schemata,
illustrating the need to manage schemata as data themselves ... Several
commercial repository tools are available, but these ignore the importance
of schema matches as knowledge artifacts."

:class:`MetadataRepository` stores both: registered schemata and asserted
matches with full provenance, filterable by trust policy.  Storage is
pluggable behind the :class:`~repro.repository.backends.StorageBackend`
protocol; two backends ship (see ``repro/repository/backends.py``):
in-memory (default) and pooled WAL-mode SQLite (persistent, stdlib
``sqlite3``, and shareable by many threads and processes at once).

Beyond schemata and matches, the backends persist *corpus fingerprints* --
per-schema term statistics that the corpus index
(:class:`~repro.corpus.index.ShardedCorpusIndex`) derives once and
reloads on reopen, so indexing a registered corpus does not re-profile
every schema (see ``docs/repository.md``).  The repository
also exposes two monotone staleness clocks, owned by the backend:
:attr:`MetadataRepository.generation` (bumped on register/unregister --
the corpus index's rebuild trigger) and
:attr:`MetadataRepository.match_generation` (bumped whenever stored
matches change -- what the :class:`~repro.network.graph.MappingGraph`
adjacency cache and the serving tier's response cache key on).  On the
SQLite backend the clocks are persisted and move in the same transaction
as the write that bumps them, so they are exact across reopens and across
processes.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from dataclasses import dataclass

from repro.match.correspondence import Correspondence
from repro.repository.backends import StorageBackend, open_backend
from repro.repository.provenance import AssertionMethod, ProvenanceRecord, TrustPolicy
from repro.schema.schema import Schema
from repro.schema.serialize import schema_from_dict, schema_to_dict
from repro.telemetry import span

__all__ = ["StoredMatch", "MetadataRepository"]


@dataclass(frozen=True)
class StoredMatch:
    """One match assertion between elements of two registered schemata."""

    source_schema: str
    target_schema: str
    correspondence: Correspondence
    provenance: ProvenanceRecord


class MetadataRepository:
    """Schemata + match knowledge with provenance and trust filtering.

    One repository may be shared across threads (the serving tier binds a
    single instance under a ``ThreadingHTTPServer``).  The locking
    discipline follows the backend's declaration: a backend with
    ``serialize_calls = True`` (the memory dicts) has every call
    serialised under one internal lock, while a
    ``serialize_calls = False`` backend (the pooled WAL store, which
    hands each caller its own connection) runs reads concurrently and
    only composite read-modify-write operations -- register's no-op
    check, the registered-name guards of ``store_match`` -- serialise.

    Parameters
    ----------
    path:
        In-memory by default; pass a file path for the pooled-WAL SQLite
        backend.
    backend:
        ``None`` (picked by ``path``) or a ready :class:`StorageBackend`
        instance.
    pool_size / busy_timeout:
        Pooled-backend tuning (connections per process; seconds a write
        waits for a busy database) -- ignored by the memory backend.
    """

    def __init__(
        self,
        path: str | None = None,
        backend: StorageBackend | None = None,
        pool_size: int = 4,
        busy_timeout: float = 30.0,
    ):
        self._backend = open_backend(
            backend, path, pool_size=pool_size, busy_timeout=busy_timeout
        )
        self._lock = threading.RLock()
        #: Write listeners: called with the post-write ``(generation,
        #: match_generation)`` after every mutation, OUTSIDE the
        #: repository lock.  The serving tier's cache nudge (see
        #: ``repro.server.distcache``) hangs here -- listeners are a
        #: best-effort broadcast, never a correctness dependency, so a
        #: listener that raises is swallowed.
        self._write_listeners: list = []
        #: Plain reads go through this guard: the real lock for backends
        #: that demand serialised calls, a no-op for backends that handle
        #: their own concurrency (nullcontext is reentrant-safe: it holds
        #: no state).
        self._read_guard = (
            self._lock if self._backend.serialize_calls else nullcontext()
        )

    @property
    def backend(self) -> StorageBackend:
        """The live storage backend (pool stats live on the pooled one)."""
        return self._backend

    def describe_backend(self) -> dict:
        """Operational identity of the backend (kind, path, pool stats)."""
        with self._read_guard:
            return self._backend.describe()

    # ------------------------------------------------------------------
    # Staleness clocks (owned by the backend; see backends.py)
    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        """Monotone registration clock: bumped on register/unregister.

        Derived structures (the corpus index) compare the generation they
        were built at against the current one to detect staleness without
        diffing the whole registry on every query.  The clock is owned by
        the backend: in-memory it is a per-instance counter; on the
        SQLite backend it is persisted and bumped in the same
        transaction as the write, so it survives reopen and is visible
        to every process sharing the database file.
        """
        return self._backend_clocks()[0]

    @property
    def match_generation(self) -> int:
        """Monotone match-knowledge clock: bumped whenever stored matches
        change (store_match / store_matches, and unregister's cascade).

        The :class:`~repro.network.graph.MappingGraph` adjacency cache
        and the serving tier's :class:`~repro.server.cache.ResponseCache`
        compare this clock (together with :attr:`generation`) to decide
        staleness.  Persistence follows :attr:`generation`: in-memory it
        is per-instance; on SQLite it is transactional with the write and
        shared across processes.
        """
        return self._backend_clocks()[1]

    def clocks(self) -> tuple[int, int]:
        """The ``(generation, match_generation)`` pair in ONE backend call.

        Cache-invalidation checks (the mapping graph, the response cache)
        need both clocks; this reads them together instead of paying two
        backend round-trips per check.
        """
        return self._backend_clocks()

    def _backend_clocks(self) -> tuple[int, int]:
        with span("repository.read", op="clocks"), self._read_guard:
            return self._backend.clocks()

    # ------------------------------------------------------------------
    # Write broadcast (the distributed-cache nudge; see server/distcache)
    # ------------------------------------------------------------------
    def add_write_listener(self, listener) -> None:
        """Call ``listener(clocks)`` after every mutation commits.

        ``clocks`` is the post-write ``(generation, match_generation)``
        pair.  Listeners run outside the repository lock and exceptions
        are swallowed: the broadcast is a latency optimisation (it lets a
        cache tier evict stale entries *proactively*); the lazy per-lookup
        clock check remains the correctness backstop when a nudge is lost.
        """
        self._write_listeners.append(listener)

    def remove_write_listener(self, listener) -> None:
        """Detach a listener previously added (missing is a no-op)."""
        try:
            self._write_listeners.remove(listener)
        except ValueError:
            pass

    def _notify_write(self) -> None:
        if not self._write_listeners:
            return
        clocks = self._backend_clocks()
        for listener in list(self._write_listeners):
            try:
                listener(clocks)
            except Exception:
                # Best-effort by contract: a dead cache tier must never
                # fail (or slow) the write that tried to nudge it.
                pass

    # ------------------------------------------------------------------
    # Schemata
    # ------------------------------------------------------------------
    def register(self, schema: Schema, name: str | None = None) -> str:
        """Store a schema (serialised); returns the registered name.

        Re-registering an *identical* schema under its existing name is a
        no-op: the stored payload, the derived corpus fingerprint, and the
        generation clock all stay put, so workflows that re-register their
        whole corpus on every run (the ``corpus-match --db`` CLI) keep the
        persisted index warm.  A *changed* payload replaces the schema,
        drops the stale fingerprint, and bumps the generation.
        """
        schema_name = name if name is not None else schema.name
        payload = schema_to_dict(schema)
        with span("repository.write", op="register"):
            with self._lock:
                if self._backend.get_schema(schema_name) == payload:
                    return schema_name
                self._backend.put_schema(schema_name, payload)
                self._backend.delete_fingerprint(schema_name)
            self._notify_write()
        return schema_name

    def bulk_register_schemas(
        self,
        schemata,
        chunk_size: int = 256,
        fingerprints: dict[str, dict] | None = None,
    ) -> int:
        """Register many schemata in chunked single-transaction writes.

        The bulk-ingestion path (``repro ingest``; see
        ``docs/repository.md``): where :meth:`register` pays two backend
        write transactions per schema (the payload upsert and the
        stale-fingerprint drop), this writes one
        :meth:`~repro.repository.backends.StorageBackend.put_schemas`
        transaction per ``chunk_size`` schemata -- on SQLite one ``BEGIN
        IMMEDIATE``/``COMMIT`` per chunk, the same shape as
        :meth:`store_matches`' one-commit batch.

        ``schemata`` is an iterable of :class:`Schema` objects and/or
        ``(name, payload_dict)`` pairs (the serialised form, as ingest
        loaders produce).  Per-schema semantics match :meth:`register`
        exactly: an identical already-registered payload is skipped (no
        write, no clock movement, fingerprint kept warm); a changed or
        new payload is upserted with its fingerprint dropped -- unless
        ``fingerprints`` carries a precomputed fingerprint for the name,
        which is then persisted in the same transaction (what lets a bulk
        ingest hand the corpus index a fully warm store).  Duplicate
        names within one call collapse to the last occurrence.  Returns
        the number of schemata actually written.
        """
        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        fingerprints = fingerprints or {}
        pairs: dict[str, dict] = {}
        for item in schemata:
            if isinstance(item, Schema):
                pairs[item.name] = schema_to_dict(item)
            else:
                name, payload = item
                pairs[name] = (
                    schema_to_dict(payload) if isinstance(payload, Schema) else payload
                )
        ordered = list(pairs.items())
        written = 0
        with self._lock:
            for start in range(0, len(ordered), chunk_size):
                chunk = ordered[start : start + chunk_size]
                existing = self._backend.get_schemas([name for name, _ in chunk])
                payloads = {
                    name: payload
                    for name, payload in chunk
                    if existing.get(name) != payload
                }
                if not payloads:
                    continue
                self._backend.put_schemas(
                    payloads,
                    {
                        name: fingerprints[name]
                        for name in payloads
                        if name in fingerprints
                    },
                )
                written += len(payloads)
        if written:
            self._notify_write()
        return written

    def schema(self, name: str) -> Schema:
        with span("repository.read", op="schema"):
            with self._read_guard:
                payload = self._backend.get_schema(name)
            if payload is None:
                raise KeyError(f"schema {name!r} is not registered")
            return schema_from_dict(payload)

    def schema_names(self) -> list[str]:
        with span("repository.read", op="schema_names"), self._read_guard:
            return self._backend.schema_names()

    def schema_payload(self, name: str) -> dict:
        """The stored serialised form, without rebuilding the Schema.

        The corpus index hashes this payload to validate fingerprints; it
        is cheaper than :meth:`schema` because no object graph is rebuilt.
        """
        with span("repository.read", op="schema_payload"):
            with self._read_guard:
                payload = self._backend.get_schema(name)
            if payload is None:
                raise KeyError(f"schema {name!r} is not registered")
            return payload

    def schema_payloads(self, names) -> dict[str, dict]:
        """Bulk :meth:`schema_payload`: present names map to payloads,
        missing names are absent (a mid-scan unregister is the caller's
        race to tolerate, not an error)."""
        with self._read_guard:
            return self._backend.get_schemas(list(names))

    def unregister(self, name: str) -> None:
        """Remove a schema, its fingerprint, and every match touching it.

        The backend bumps BOTH clocks with the cascade (derived match
        structures must notice even when no match survived the delete).
        """
        with span("repository.write", op="unregister"):
            with self._lock:
                self._backend.delete_schema(name)
            self._notify_write()

    def __contains__(self, name: str) -> bool:
        with self._read_guard:
            return self._backend.get_schema(name) is not None

    def __len__(self) -> int:
        with self._read_guard:
            return len(self._backend.schema_names())

    # ------------------------------------------------------------------
    # Corpus fingerprints (derived data owned by the corpus index)
    # ------------------------------------------------------------------
    def put_fingerprint(self, name: str, payload: dict) -> None:
        """Persist one schema's derived term statistics (JSON payload)."""
        with self._read_guard:
            self._backend.put_fingerprint(name, payload)

    def put_fingerprints(self, payloads: dict[str, dict]) -> None:
        """Bulk variant of :meth:`put_fingerprint`; one SQLite transaction."""
        with self._read_guard:
            self._backend.put_fingerprints(payloads)

    def get_fingerprint(self, name: str) -> dict | None:
        with self._read_guard:
            return self._backend.get_fingerprint(name)

    def get_fingerprints(self, names) -> dict[str, dict]:
        """Bulk :meth:`get_fingerprint`; missing names are simply absent."""
        with self._read_guard:
            return self._backend.get_fingerprints(list(names))

    def fingerprint_names(self) -> list[str]:
        with self._read_guard:
            return self._backend.fingerprint_names()

    def fingerprint_hashes(self) -> dict[str, str]:
        """name -> fingerprint content hash (the index staleness probe)."""
        with self._read_guard:
            return self._backend.fingerprint_hashes()

    # ------------------------------------------------------------------
    # Request statistics (derived observability data; no clock movement)
    # ------------------------------------------------------------------
    def record_requests(self, records) -> None:
        """Persist per-request-hash hit counters (the cache-warming source).

        ``records`` is an iterable of ``(key, endpoint, payload, count)``;
        an existing key's count grows by ``count``.  Like fingerprints,
        request stats bump no clock -- recording a request can never
        invalidate a cache.
        """
        with self._read_guard:
            self._backend.record_requests(list(records))

    def hot_requests(self, limit: int = 64) -> list[tuple[str, str, dict, int]]:
        """The ``limit`` hottest recorded requests, count-descending.

        What a starting replica replays through its service to warm its
        cache tier (see ``repro.server.distcache.warm_cache``).
        """
        with self._read_guard:
            return self._backend.hot_requests(limit)

    # ------------------------------------------------------------------
    # Matches as knowledge artifacts
    # ------------------------------------------------------------------
    def store_match(
        self,
        source_schema: str,
        target_schema: str,
        correspondence: Correspondence,
        asserted_by: str,
        method: AssertionMethod = AssertionMethod.AUTOMATIC,
        context: str = "general",
        note: str = "",
    ) -> StoredMatch:
        """Assert one correspondence with provenance (sequence = logical time)."""
        (stored,) = self._store(
            "store_match", source_schema, target_schema, [correspondence],
            asserted_by, method, context, note,
        )
        return stored

    def store_matches(
        self,
        source_schema: str,
        target_schema: str,
        correspondences,
        asserted_by: str,
        method: AssertionMethod = AssertionMethod.AUTOMATIC,
        context: str = "general",
    ) -> int:
        """Bulk variant of :meth:`store_match`; returns the count stored.

        The whole batch is written as ONE backend transaction (a single
        commit on SQLite): either every correspondence is stored -- and
        the match-generation clock moves with it -- or none is.  Sequence
        numbers are reserved atomically up front; a batch that fails to
        write leaves a gap in the sequence, which is harmless (sequence
        is logical time, only monotonicity matters).  See
        ``docs/repository.md`` for the guarantee.
        """
        return len(self._store(
            "store_matches", source_schema, target_schema, list(correspondences),
            asserted_by, method, context, "",
        ))

    def _store(
        self,
        op: str,
        source_schema: str,
        target_schema: str,
        batch: list[Correspondence],
        asserted_by: str,
        method: AssertionMethod,
        context: str,
        note: str,
    ) -> list[StoredMatch]:
        """The one match write: check both schemata, reserve sequences,
        add every row in one backend transaction, then notify."""
        with span("repository.write", op=op), self._lock:
            for name in (source_schema, target_schema):
                if name not in self:
                    raise KeyError(f"schema {name!r} is not registered")
            if not batch:
                return []
            first_sequence = self._backend.next_sequences(len(batch))
            stored = [
                StoredMatch(
                    source_schema=source_schema,
                    target_schema=target_schema,
                    correspondence=correspondence,
                    provenance=ProvenanceRecord(
                        asserted_by=asserted_by,
                        method=method,
                        confidence=correspondence.score,
                        sequence=first_sequence + offset,
                        context=context,
                        note=note,
                    ),
                )
                for offset, correspondence in enumerate(batch)
            ]
            self._backend.add_matches(stored)
        self._notify_write()
        return stored

    def matches(
        self,
        source_schema: str | None = None,
        target_schema: str | None = None,
        policy: TrustPolicy | None = None,
    ) -> list[StoredMatch]:
        """Query stored matches in id order, optionally trust-filtered (a
        schema filter reads through the indexed pair or touching query)."""
        if source_schema is not None and target_schema is not None:
            found = self.matches_between(source_schema, target_schema)
        elif source_schema is not None or target_schema is not None:
            found = self.matches_touching(
                target_schema if source_schema is None else source_schema
            )
        else:
            with span("repository.read", op="matches"), self._read_guard:
                found = self._backend.all_matches()
        return [
            match
            for match in found
            if source_schema in (None, match.source_schema)
            and target_schema in (None, match.target_schema)
            and (policy is None or policy.trusts(match.provenance))
        ]

    def matches_touching(self, schema_name: str) -> list[StoredMatch]:
        """All matches with this schema on either side (index-backed on SQLite)."""
        with span("repository.read", op="matches_touching"), self._read_guard:
            return self._backend.matches_touching(schema_name)

    def matches_between(self, first: str, second: str) -> list[StoredMatch]:
        """All matches between two schemata, either orientation (index-backed)."""
        with span("repository.read", op="matches_between"), self._read_guard:
            return self._backend.matches_between(first, second)

    def close(self) -> None:
        with self._lock:
            self._backend.close()

    def __enter__(self) -> "MetadataRepository":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
