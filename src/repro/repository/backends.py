"""Pluggable storage backends for the metadata repository.

The memory/SQLite split that grew inside ``store.py`` is here made an
explicit contract: :class:`StorageBackend` is the protocol any store must
implement to sit under :class:`~repro.repository.store.MetadataRepository`,
and ``tests/test_backend_contract.py`` runs every method of every backend
against the same expectations, so a backend that passes the suite is a
drop-in.

Two implementations ship:

* :class:`InMemoryBackend` -- dicts and lists, the ephemeral default;
* :class:`PooledSqliteBackend` -- the one file backend: WAL-mode SQLite
  behind a bounded connection pool.  ``serialize_calls = False``, so
  concurrent reader threads each borrow their own connection (readers
  never block readers or the writer under WAL), writes run as ``BEGIN
  IMMEDIATE`` transactions with a busy timeout, and N worker *processes*
  can share one database file -- the threaded server, every process-pool
  worker (``repro serve --workers``) and ``repro ingest`` all open it.

**Clocks are a backend concern.**  The ``generation`` /
``match_generation`` staleness clocks (and the provenance ``sequence``
counter) live in the backend, not in ``MetadataRepository``: every
mutator bumps the affected clock *in the same transaction* as the data
write, so on the SQLite backends the clocks are persisted, survive
reopen, and -- crucially -- are visible across processes.  That is what
lets a per-process :class:`~repro.server.cache.ResponseCache` stay exact
under multi-process serving: a ``store_matches`` in one process moves
``match_generation`` in the database, and every other process's next
cache lookup sees the moved clock and recomputes.  (The in-memory
backend keeps plain counters; an in-memory store cannot be shared across
processes in the first place.)
"""

from __future__ import annotations

import json
import queue
import sqlite3
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, Sequence, runtime_checkable

from repro.match.correspondence import (
    Correspondence,
    MatchStatus,
    SemanticAnnotation,
)
from repro.repository.provenance import AssertionMethod, ProvenanceRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (store imports us)
    from repro.repository.store import StoredMatch

__all__ = [
    "StorageBackend",
    "InMemoryBackend",
    "PooledSqliteBackend",
    "PoolStats",
    "open_backend",
]


@runtime_checkable
class StorageBackend(Protocol):
    """What a store must provide to sit under ``MetadataRepository``.

    Contract highlights (the executable version is
    ``tests/test_backend_contract.py``):

    * ``serialize_calls`` declares the backend's threading discipline:
      ``True`` means the backend is NOT safe under concurrent calls and
      the repository must serialise every call under its lock (the
      in-memory dicts).  ``False`` means calls may run concurrently (the
      pooled backend hands every caller its own connection).
    * ``clocks()`` returns the ``(generation, match_generation)`` pair.
      Mutators own the bumps: ``put_schema`` bumps ``generation``;
      ``delete_schema`` bumps both (its cascade may remove matches);
      ``add_matches`` bumps ``match_generation`` for a non-empty batch.
      Each bump commits atomically with its data write.
    * ``add_matches`` is all-or-nothing: either every row of the batch
      is stored (and the clock bumped once) or none is.
    * ``put_schemas`` is the bulk-ingestion write: ONE transaction per
      call that upserts every payload, stores the fingerprints provided
      alongside, drops the (now stale) stored fingerprint of every
      payload *without* one, and bumps ``generation`` by the number of
      payloads -- all atomically.  An empty batch is a no-op (no clock
      movement).  ``get_schemas`` / ``get_fingerprints`` are the bulk
      reads: present names map to their payloads, missing names are
      simply absent (never an error).
    * ``next_sequences(count)`` atomically reserves ``count`` provenance
      sequence numbers and returns the first; allocations are unique and
      increasing across threads and (for file-backed stores) processes.
      Crash between allocation and write may leave gaps -- sequence is
      logical time, gaps are harmless; going backwards is not.
    * ``schema_names`` / ``fingerprint_names`` return sorted names;
      ``all_matches`` returns insertion order.
    * ``record_requests`` / ``hot_requests`` persist per-request-hash hit
      counters -- the serving tier's cache-warming source.  Records are
      ``(key, endpoint, payload, count)``; recording the same key again
      ADDS to its count and refreshes endpoint/payload.  Like
      fingerprints, request stats are derived observability data: they
      never bump a clock.  ``hot_requests`` returns the top ``limit``
      records ordered by count (descending), key as the tiebreak.
    """

    #: True = repository must serialise every call under its own lock.
    serialize_calls: bool

    # -- clocks and sequence -------------------------------------------
    def clocks(self) -> tuple[int, int]: ...
    def next_sequences(self, count: int) -> int: ...

    # -- schemata -------------------------------------------------------
    def put_schema(self, name: str, payload: dict) -> None: ...
    def get_schema(self, name: str) -> dict | None: ...
    def get_schemas(self, names: Sequence[str]) -> dict[str, dict]: ...
    def put_schemas(
        self,
        payloads: dict[str, dict],
        fingerprints: dict[str, dict] | None = None,
    ) -> None: ...
    def schema_names(self) -> list[str]: ...
    def delete_schema(self, name: str) -> None: ...

    # -- matches --------------------------------------------------------
    def add_matches(self, matches: Sequence["StoredMatch"]) -> None: ...
    def all_matches(self) -> list["StoredMatch"]: ...
    def matches_touching(self, schema_name: str) -> list["StoredMatch"]: ...
    def matches_between(self, first: str, second: str) -> list["StoredMatch"]: ...

    # -- corpus fingerprints -------------------------------------------
    def put_fingerprint(self, name: str, payload: dict) -> None: ...
    def put_fingerprints(self, payloads: dict[str, dict]) -> None: ...
    def get_fingerprint(self, name: str) -> dict | None: ...
    def get_fingerprints(self, names: Sequence[str]) -> dict[str, dict]: ...
    def fingerprint_names(self) -> list[str]: ...
    def fingerprint_hashes(self) -> dict[str, str]: ...
    def delete_fingerprint(self, name: str) -> None: ...

    # -- request statistics (cache warming) ----------------------------
    def record_requests(
        self, records: Sequence[tuple[str, str, dict, int]]
    ) -> None: ...
    def hot_requests(self, limit: int) -> list[tuple[str, str, dict, int]]: ...

    # -- lifecycle ------------------------------------------------------
    def describe(self) -> dict: ...
    def close(self) -> None: ...


class InMemoryBackend:
    """Dict-backed storage (the ephemeral default)."""

    serialize_calls = True

    def __init__(self) -> None:
        self.schemata: dict[str, dict] = {}
        self.matches: list["StoredMatch"] = []
        self.fingerprints: dict[str, dict] = {}
        self.request_stats: dict[str, tuple[str, dict, int]] = {}
        self._generation = 0
        self._match_generation = 0
        self._sequence = 0

    # -- clocks and sequence -------------------------------------------
    def clocks(self) -> tuple[int, int]:
        return (self._generation, self._match_generation)

    def next_sequences(self, count: int) -> int:
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        first = self._sequence + 1
        self._sequence += count
        return first

    # -- schemata -------------------------------------------------------
    def put_schema(self, name: str, payload: dict) -> None:
        self.schemata[name] = payload
        self._generation += 1

    def get_schema(self, name: str) -> dict | None:
        return self.schemata.get(name)

    def get_schemas(self, names: Sequence[str]) -> dict[str, dict]:
        return {
            name: self.schemata[name] for name in names if name in self.schemata
        }

    def put_schemas(
        self,
        payloads: dict[str, dict],
        fingerprints: dict[str, dict] | None = None,
    ) -> None:
        if not payloads:
            return
        fingerprints = fingerprints or {}
        for name, payload in payloads.items():
            self.schemata[name] = payload
            fingerprint = fingerprints.get(name)
            if fingerprint is None:
                self.fingerprints.pop(name, None)
            else:
                self.fingerprints[name] = fingerprint
        self._generation += len(payloads)

    def schema_names(self) -> list[str]:
        return sorted(self.schemata)

    def delete_schema(self, name: str) -> None:
        self.schemata.pop(name, None)
        self.fingerprints.pop(name, None)
        self.matches = [
            match
            for match in self.matches
            if name not in (match.source_schema, match.target_schema)
        ]
        self._generation += 1
        # The cascade may have deleted match rows; derived match
        # structures (the mapping graph) must notice even when no
        # match survived.
        self._match_generation += 1

    # -- matches --------------------------------------------------------
    def add_matches(self, matches: Sequence["StoredMatch"]) -> None:
        # Materialise BEFORE extending: an iterable that raises part-way
        # through must leave the store (and the clock) untouched.
        batch = list(matches)
        if not batch:
            return
        self.matches.extend(batch)
        self._match_generation += 1

    def all_matches(self) -> list["StoredMatch"]:
        return list(self.matches)

    def matches_touching(self, schema_name: str) -> list["StoredMatch"]:
        return [
            match
            for match in self.matches
            if schema_name in (match.source_schema, match.target_schema)
        ]

    def matches_between(self, first: str, second: str) -> list["StoredMatch"]:
        pair = {(first, second), (second, first)}
        return [
            match
            for match in self.matches
            if (match.source_schema, match.target_schema) in pair
        ]

    # -- corpus fingerprints -------------------------------------------
    def put_fingerprint(self, name: str, payload: dict) -> None:
        self.fingerprints[name] = payload

    def put_fingerprints(self, payloads: dict[str, dict]) -> None:
        self.fingerprints.update(payloads)

    def get_fingerprint(self, name: str) -> dict | None:
        return self.fingerprints.get(name)

    def get_fingerprints(self, names: Sequence[str]) -> dict[str, dict]:
        return {
            name: self.fingerprints[name]
            for name in names
            if name in self.fingerprints
        }

    def fingerprint_names(self) -> list[str]:
        return sorted(self.fingerprints)

    def fingerprint_hashes(self) -> dict[str, str]:
        return {
            name: payload.get("hash", "")
            for name, payload in self.fingerprints.items()
        }

    def delete_fingerprint(self, name: str) -> None:
        self.fingerprints.pop(name, None)

    # -- request statistics (cache warming) ----------------------------
    def record_requests(
        self, records: Sequence[tuple[str, str, dict, int]]
    ) -> None:
        for key, endpoint, payload, count in records:
            previous = self.request_stats.get(key)
            total = count + (previous[2] if previous is not None else 0)
            self.request_stats[key] = (endpoint, payload, total)

    def hot_requests(self, limit: int) -> list[tuple[str, str, dict, int]]:
        ranked = sorted(
            self.request_stats.items(), key=lambda item: (-item[1][2], item[0])
        )
        return [
            (key, endpoint, payload, count)
            for key, (endpoint, payload, count) in ranked[:limit]
        ]

    # -- lifecycle ------------------------------------------------------
    def describe(self) -> dict:
        return {"kind": "memory"}

    def close(self) -> None:  # pragma: no cover - nothing to release
        return None


# ----------------------------------------------------------------------
# SQLite plumbing (schema, migrations, row codecs)
# ----------------------------------------------------------------------
#: The stored-match columns, in the order of :func:`_match_row`.
_MATCH_COLUMNS = (
    "source_schema", "target_schema", "source_element", "target_element",
    "score", "status", "annotation", "note", "corr_asserted_by",
    "asserted_by", "method", "confidence", "sequence", "context", "prov_note",
)

_INSERT_MATCH = (
    f"INSERT INTO matches ({', '.join(_MATCH_COLUMNS)})"
    f" VALUES ({', '.join('?' * len(_MATCH_COLUMNS))})"
)

#: One-row aggregate read (``{where}`` filters): per row, the columns then
#: the id.  SQLite's JSON keeps 15 digits of a REAL (as does ``quote()``),
#: so the REAL columns travel as 17-digit text: the same double, always.
_SELECT_MATCHES = (
    "SELECT json_group_array(json_array("
    + ", ".join(
        f"printf('%!.17g', {column})" if column in ("score", "confidence") else column
        for column in _MATCH_COLUMNS
    )
    + ", id)) FROM matches {where}"
)

_BUMP_CLOCK = "UPDATE repo_clocks SET value = value + ? WHERE name = ?"

#: Names per IN-clause for the bulk reads: SQLite's default parameter
#: limit is 999 (SQLITE_MAX_VARIABLE_NUMBER); 500 leaves headroom.
_IN_CHUNK = 500


def _chunked(names: Sequence[str], size: int = _IN_CHUNK):
    ordered = list(dict.fromkeys(names))  # dedupe, keep order
    for start in range(0, len(ordered), size):
        yield ordered[start : start + size]


def _upserts(table: str, rows: dict[str, dict]) -> list[tuple]:
    """``INSERT OR REPLACE`` statements for ``name -> payload`` rows of
    ``table``: one multi-row statement per ``_IN_CHUNK // 2`` rows.

    sqlite3 releases the interpreter lock around every statement it
    steps, so one INSERT per row costs a writer racing a busy thread up
    to a switch interval per row (see :meth:`PooledSqliteBackend._read_json`).
    The values stay bound parameters: unlike a ``json_each`` insert, a
    NUL-bearing name or payload is stored whole.
    """
    names = list(rows)
    size = _IN_CHUNK // 2
    statements = []
    for start in range(0, len(names), size):
        chunk = names[start : start + size]
        params: list[str] = []
        for name in chunk:
            params += (name, json.dumps(rows[name]))
        statements.append((
            f"INSERT OR REPLACE INTO {table} (name, payload) VALUES "
            + ",".join(["(?, ?)"] * len(chunk)),
            tuple(params),
        ))
    return statements


def _ensure_sqlite_schema(connection: sqlite3.Connection) -> None:
    """Create/migrate the on-disk layout; idempotent on every open.

    Files written before the pooled backend (rollback journal, older
    table sets) migrate in place on first open.
    """
    with connection:
        connection.execute(
            "CREATE TABLE IF NOT EXISTS schemata ("
            " name TEXT PRIMARY KEY, payload TEXT NOT NULL)"
        )
        connection.execute(
            "CREATE TABLE IF NOT EXISTS matches ("
            " id INTEGER PRIMARY KEY AUTOINCREMENT,"
            " source_schema TEXT NOT NULL, target_schema TEXT NOT NULL,"
            " source_element TEXT NOT NULL, target_element TEXT NOT NULL,"
            " score REAL NOT NULL, status TEXT NOT NULL,"
            " annotation TEXT NOT NULL, note TEXT NOT NULL,"
            " corr_asserted_by TEXT NOT NULL DEFAULT '',"
            " asserted_by TEXT NOT NULL, method TEXT NOT NULL,"
            " confidence REAL NOT NULL, sequence INTEGER NOT NULL,"
            " context TEXT NOT NULL, prov_note TEXT NOT NULL)"
        )
        # Stores created before the correspondence asserter was persisted
        # separately lack the column; add it in place (empty = "fall back
        # to the provenance asserter", the old read behaviour).
        columns = {
            row[1] for row in connection.execute("PRAGMA table_info(matches)")
        }
        if "corr_asserted_by" not in columns:
            connection.execute(
                "ALTER TABLE matches ADD COLUMN"
                " corr_asserted_by TEXT NOT NULL DEFAULT ''"
            )
        # Corpus-index fingerprints arrived after the first stores shipped;
        # CREATE IF NOT EXISTS is the in-place migration (older files gain
        # the table on open, their fingerprints rebuild lazily on demand).
        connection.execute(
            "CREATE TABLE IF NOT EXISTS corpus_fingerprints ("
            " name TEXT PRIMARY KEY, payload TEXT NOT NULL)"
        )
        # Mapping-network-era migration: pair/touching queries (graph
        # rebuilds, reuse priors, cascade deletes) would otherwise scan the
        # whole matches table.  IF NOT EXISTS makes reopening idempotent;
        # older files gain the indexes on first open, with no data change.
        connection.execute(
            "CREATE INDEX IF NOT EXISTS idx_matches_schema_pair"
            " ON matches (source_schema, target_schema)"
        )
        connection.execute(
            "CREATE INDEX IF NOT EXISTS idx_matches_target_schema"
            " ON matches (target_schema)"
        )
        # Backend-era migration: the staleness clocks and the provenance
        # sequence counter move into the store so they are transactional
        # with the writes that bump them and visible across processes.
        # Older files gain the table on open with clocks at 0 and the
        # sequence seeded from the stored maximum (what MetadataRepository
        # used to recompute on every open).
        connection.execute(
            "CREATE TABLE IF NOT EXISTS repo_clocks ("
            " name TEXT PRIMARY KEY, value INTEGER NOT NULL)"
        )
        connection.execute(
            "INSERT OR IGNORE INTO repo_clocks (name, value)"
            " VALUES ('generation', 0), ('match_generation', 0)"
        )
        connection.execute(
            "INSERT OR IGNORE INTO repo_clocks (name, value)"
            " VALUES ('sequence',"
            " COALESCE((SELECT MAX(sequence) FROM matches), 0))"
        )
        # Distributed-cache-era migration: per-request-hash hit counters,
        # the serving tier's cache-warming source.  Older files gain the
        # (empty) table on open; warming simply finds nothing to warm.
        connection.execute(
            "CREATE TABLE IF NOT EXISTS request_stats ("
            " key TEXT PRIMARY KEY, endpoint TEXT NOT NULL,"
            " payload TEXT NOT NULL, count INTEGER NOT NULL)"
        )


def _match_row(match: "StoredMatch") -> tuple:
    correspondence = match.correspondence
    provenance = match.provenance
    return (
        match.source_schema,
        match.target_schema,
        correspondence.source_id,
        correspondence.target_id,
        correspondence.score,
        correspondence.status.value,
        correspondence.annotation.value,
        correspondence.note,
        correspondence.asserted_by,
        provenance.asserted_by,
        provenance.method.value,
        provenance.confidence,
        provenance.sequence,
        provenance.context,
        provenance.note,
    )


def _stored(row: list) -> "StoredMatch":
    from repro.repository.store import StoredMatch

    return StoredMatch(
        source_schema=row[0],
        target_schema=row[1],
        correspondence=Correspondence(
            source_id=row[2],
            target_id=row[3],
            score=float(row[4]),
            status=MatchStatus(row[5]),
            annotation=SemanticAnnotation(row[6]),
            note=row[7],
            # Pre-migration rows stored only the provenance
            # asserter; fall back to it.
            asserted_by=row[8] or row[9],
        ),
        provenance=ProvenanceRecord(
            asserted_by=row[9],
            method=AssertionMethod(row[10]),
            confidence=float(row[11]),
            sequence=row[12],
            context=row[13],
            note=row[14],
        ),
    )


@dataclass(frozen=True)
class PoolStats:
    """Counters one :class:`PooledSqliteBackend` connection pool has seen."""

    pool_size: int      # the bound
    created: int        # connections actually opened (lazy, <= pool_size)
    acquired: int       # total check-outs
    waited: int         # check-outs that blocked on an exhausted pool
    in_use: int         # currently checked out
    high_water: int     # max simultaneously checked out

    def to_dict(self) -> dict:
        return {
            "pool_size": self.pool_size,
            "created": self.created,
            "acquired": self.acquired,
            "waited": self.waited,
            "in_use": self.in_use,
            "high_water": self.high_water,
        }


class PooledSqliteBackend:
    """WAL-mode SQLite behind a bounded connection pool.

    The PgBouncer shape one tier down: many callers, a small fixed set of
    real connections.  Connections are created lazily up to ``pool_size``
    and recycled through a LIFO free list (the hottest connection -- warm
    page cache -- is reused first).  A caller that finds the pool
    exhausted blocks until a connection is returned (counted in
    :attr:`PoolStats.waited`; a persistently high count means the pool is
    undersized for the thread count).

    * **WAL journal** -- readers never block the writer and the writer
      never blocks readers, which is what makes one database file
      shareable by N serving processes;
    * **``BEGIN IMMEDIATE`` writes** -- the write lock is taken up front,
      so a busy database surfaces as a bounded wait (``busy_timeout``)
      instead of a mid-transaction ``SQLITE_BUSY`` after work was done;
    * **``synchronous=NORMAL``** -- the standard WAL durability point:
      transactions are atomic across crashes, the last commits may be
      rolled back by an OS-level power failure (not by a process kill).

    Connections are opened ``check_same_thread=False`` because the pool
    hands a connection to whichever thread acquires it -- exclusive use
    is guaranteed by the pool itself (a connection is in exactly one
    caller's hands between acquire and release), not by sqlite3's
    same-thread assertion.
    """

    serialize_calls = False

    def __init__(
        self,
        path: str,
        pool_size: int = 4,
        busy_timeout: float = 30.0,
    ):
        if pool_size <= 0:
            raise ValueError(f"pool_size must be positive, got {pool_size}")
        self.path = path
        self.pool_size = pool_size
        self.busy_timeout = busy_timeout
        self._free: "queue.LifoQueue[sqlite3.Connection]" = queue.LifoQueue()
        self._stats_lock = threading.Lock()
        self._created = 0
        self._acquired = 0
        self._waited = 0
        self._in_use = 0
        self._high_water = 0
        self._closed = False
        # Open the first connection eagerly: it runs the migrations and
        # switches the database to WAL (a persistent, file-level setting)
        # before any concurrent caller touches the store.
        first = self._connect()
        first.execute("PRAGMA journal_mode=WAL")
        _ensure_sqlite_schema(first)
        self._free.put(first)

    def _connect(self) -> sqlite3.Connection:
        # isolation_level=None = autocommit: transaction boundaries are
        # explicit (BEGIN IMMEDIATE ... COMMIT) so reads outside a write
        # never hold a transaction open and WAL checkpoints stay cheap.
        connection = sqlite3.connect(
            self.path,
            timeout=self.busy_timeout,
            check_same_thread=False,
            isolation_level=None,
        )
        connection.execute(f"PRAGMA busy_timeout={int(self.busy_timeout * 1000)}")
        connection.execute("PRAGMA synchronous=NORMAL")
        with self._stats_lock:
            self._created += 1
        return connection

    def _acquire(self) -> sqlite3.Connection:
        if self._closed:
            raise RuntimeError("backend is closed")
        waited = False
        try:
            connection = self._free.get_nowait()
        except queue.Empty:
            with self._stats_lock:
                can_create = self._created < self.pool_size
            if can_create:
                connection = self._connect()
            else:
                waited = True
                connection = self._free.get()
        with self._stats_lock:
            self._acquired += 1
            self._waited += waited
            self._in_use += 1
            self._high_water = max(self._high_water, self._in_use)
        return connection

    def _release(self, connection: sqlite3.Connection) -> None:
        with self._stats_lock:
            self._in_use -= 1
        self._free.put(connection)

    def _read(self, sql: str, params: tuple = ()) -> list[tuple]:
        connection = self._acquire()
        try:
            return connection.execute(sql, params).fetchall()
        finally:
            self._release(connection)

    def _read_json(self, sql: str, params: tuple = ()):
        """Run a one-row ``json_group_array``/``json_group_object`` query
        and return the parsed aggregate.

        The multi-row reads go through here, not :meth:`_read`: sqlite3
        releases the interpreter lock around every row it steps, and a
        thread that gives the lock up once per row waits up to a switch
        interval (5 ms) to get it back whenever another thread is busy in
        Python -- a 2,000-row scan then takes seconds instead of
        milliseconds, and a corpus refresh racing a query loop starves.
        An aggregate is stepped once, whatever its row count.
        """
        ((text,),) = self._read(sql, params)
        return json.loads(text)

    def _read_payloads(self, table: str, names: Sequence[str]) -> dict[str, dict]:
        """name -> decoded payload for the named rows of ``table``: one
        aggregate query per 500 names, so reading K rows costs
        ``ceil(K / 500)`` queries, not K round-trips."""
        found: dict[str, dict] = {}
        for chunk in _chunked(names):
            marks = ",".join("?" * len(chunk))
            found.update(self._read_json(
                f"SELECT json_group_object(name, json(payload)) FROM {table}"
                f" WHERE name IN ({marks})",
                tuple(chunk),
            ))
        return found

    def _write(self, statements: list[tuple]) -> None:
        connection = self._acquire()
        try:
            connection.execute("BEGIN IMMEDIATE")
            try:
                for sql, params in statements:
                    connection.execute(sql, params)
                connection.execute("COMMIT")
            except BaseException:
                connection.execute("ROLLBACK")
                raise
        finally:
            self._release(connection)

    # -- clocks and sequence -------------------------------------------
    def clocks(self) -> tuple[int, int]:
        values = self._read_json("SELECT json_group_object(name, value) FROM repo_clocks")
        return (values["generation"], values["match_generation"])

    def next_sequences(self, count: int) -> int:
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        connection = self._acquire()
        try:
            connection.execute("BEGIN IMMEDIATE")
            try:
                connection.execute(_BUMP_CLOCK, (count, "sequence"))
                (value,) = connection.execute(
                    "SELECT value FROM repo_clocks WHERE name = 'sequence'"
                ).fetchone()
                connection.execute("COMMIT")
            except BaseException:
                connection.execute("ROLLBACK")
                raise
        finally:
            self._release(connection)
        return value - count + 1

    # -- schemata -------------------------------------------------------
    def put_schema(self, name: str, payload: dict) -> None:
        self._write([
            (
                "INSERT OR REPLACE INTO schemata (name, payload) VALUES (?, ?)",
                (name, json.dumps(payload)),
            ),
            (_BUMP_CLOCK, (1, "generation")),
        ])

    def get_schema(self, name: str) -> dict | None:
        rows = self._read("SELECT payload FROM schemata WHERE name = ?", (name,))
        if not rows:
            return None
        return json.loads(rows[0][0])

    def get_schemas(self, names: Sequence[str]) -> dict[str, dict]:
        return self._read_payloads("schemata", names)

    def put_schemas(
        self,
        payloads: dict[str, dict],
        fingerprints: dict[str, dict] | None = None,
    ) -> None:
        """Bulk upsert as ONE transaction: every payload, every provided
        fingerprint, every stale-fingerprint drop, and one generation bump
        of ``len(payloads)`` commit together or not at all.

        Rows go out as multi-row INSERTs (:func:`_upserts`) and the drops
        as one ``DELETE ... IN`` per 500 names, so a bulk ingest steps a
        handful of statements, not two per schema.
        """
        if not payloads:
            return
        fingerprints = fingerprints or {}
        kept = {
            name: fingerprints[name]
            for name in payloads
            if fingerprints.get(name) is not None
        }
        statements = _upserts("schemata", payloads)
        statements += _upserts("corpus_fingerprints", kept)
        statements += [
            (
                "DELETE FROM corpus_fingerprints"
                f" WHERE name IN ({','.join('?' * len(chunk))})",
                tuple(chunk),
            )
            for chunk in _chunked([name for name in payloads if name not in kept])
        ]
        statements.append((_BUMP_CLOCK, (len(payloads), "generation")))
        self._write(statements)

    def schema_names(self) -> list[str]:
        return sorted(self._read_json("SELECT json_group_array(name) FROM schemata"))

    def delete_schema(self, name: str) -> None:
        self._write([
            ("DELETE FROM schemata WHERE name = ?", (name,)),
            ("DELETE FROM corpus_fingerprints WHERE name = ?", (name,)),
            (
                "DELETE FROM matches WHERE source_schema = ? OR target_schema = ?",
                (name, name),
            ),
            (_BUMP_CLOCK, (1, "generation")),
            # The cascade may have deleted match rows; derived match
            # structures (the mapping graph) must notice even when no
            # match survived.
            (_BUMP_CLOCK, (1, "match_generation")),
        ])

    # -- matches --------------------------------------------------------
    def add_matches(self, matches: Sequence["StoredMatch"]) -> None:
        """Bulk insert as ONE transaction: all rows (and the clock bump)
        commit together, or nothing does."""
        rows = [_match_row(match) for match in matches]
        if not rows:
            return
        self._write(
            [(_INSERT_MATCH, row) for row in rows]
            + [(_BUMP_CLOCK, (1, "match_generation"))]
        )

    def _matches(self, where: str = "", params: tuple = ()) -> list["StoredMatch"]:
        rows = self._read_json(_SELECT_MATCHES.format(where=where), params)
        # An OR over two indexes yields rows out of id order.
        rows.sort(key=lambda row: row[15])
        return [_stored(row) for row in rows]

    def all_matches(self) -> list["StoredMatch"]:
        return self._matches()

    def matches_touching(self, schema_name: str) -> list["StoredMatch"]:
        return self._matches(
            "WHERE source_schema = ? OR target_schema = ?", (schema_name, schema_name)
        )

    def matches_between(self, first: str, second: str) -> list["StoredMatch"]:
        return self._matches(
            "WHERE (source_schema = ? AND target_schema = ?)"
            " OR (source_schema = ? AND target_schema = ?)",
            (first, second, second, first),
        )

    # -- corpus fingerprints -------------------------------------------
    def put_fingerprint(self, name: str, payload: dict) -> None:
        self.put_fingerprints({name: payload})

    def put_fingerprints(self, payloads: dict[str, dict]) -> None:
        """Bulk write as ONE transaction (a cold index build is N schemata).

        Multi-row INSERTs of bound values (:func:`_upserts`), not
        ``json_each``: SQLite's JSON functions cut a key at an escaped
        NUL, so a set-based write over ``json_each`` would store the
        payload of ``"X\\x00y"`` on row ``"X"``.
        """
        self._write(_upserts("corpus_fingerprints", payloads))

    def get_fingerprint(self, name: str) -> dict | None:
        return self.get_fingerprints([name]).get(name)

    def get_fingerprints(self, names: Sequence[str]) -> dict[str, dict]:
        """Bulk fingerprint read: the corpus index's refresh path."""
        return self._read_payloads("corpus_fingerprints", names)

    def fingerprint_names(self) -> list[str]:
        return sorted(
            self._read_json("SELECT json_group_array(name) FROM corpus_fingerprints")
        )

    def fingerprint_hashes(self) -> dict[str, str]:
        """name -> content hash for every fingerprint, in one query.

        The staleness probe of the corpus index: one small entry per
        schema instead of whole term bags.  ``->`` hands the hash over as
        JSON text, whole; ``json_extract`` would cut it at an escaped NUL.
        """
        hashes = self._read_json(
            "SELECT json_group_object(name, payload -> '$.hash')"
            " FROM corpus_fingerprints"
        )
        return {name: value or "" for name, value in hashes.items()}

    def delete_fingerprint(self, name: str) -> None:
        self._write([
            ("DELETE FROM corpus_fingerprints WHERE name = ?", (name,))
        ])

    # -- request statistics (cache warming) ----------------------------
    def record_requests(
        self, records: Sequence[tuple[str, str, dict, int]]
    ) -> None:
        """Bulk upsert of request-hash counters as ONE transaction.

        The serving tier flushes these in amortised batches off the hot
        path; an existing key's count grows, its endpoint/payload refresh.
        """
        batch = list(records)
        if not batch:
            return
        self._write([
            (
                "INSERT INTO request_stats (key, endpoint, payload, count)"
                " VALUES (?, ?, ?, ?)"
                " ON CONFLICT(key) DO UPDATE SET"
                " endpoint = excluded.endpoint, payload = excluded.payload,"
                " count = count + excluded.count",
                (key, endpoint, json.dumps(payload), count),
            )
            for key, endpoint, payload, count in batch
        ])

    def hot_requests(self, limit: int) -> list[tuple[str, str, dict, int]]:
        rows = self._read(
            "SELECT key, endpoint, payload, count FROM request_stats"
            " ORDER BY count DESC, key LIMIT ?",
            (limit,),
        )
        return [
            (row[0], row[1], json.loads(row[2]), row[3]) for row in rows
        ]

    def pool_stats(self) -> PoolStats:
        with self._stats_lock:
            return PoolStats(
                pool_size=self.pool_size,
                created=self._created,
                acquired=self._acquired,
                waited=self._waited,
                in_use=self._in_use,
                high_water=self._high_water,
            )

    def describe(self) -> dict:
        return {
            "kind": "pooled-wal",
            "path": self.path,
            "pool": self.pool_stats().to_dict(),
        }

    def close(self) -> None:
        """Close every pooled connection.

        Callers must have returned their connections (the repository only
        closes at shutdown); connections still checked out are the
        borrower's to close.
        """
        self._closed = True
        while True:
            try:
                self._free.get_nowait().close()
            except queue.Empty:
                return


def open_backend(
    backend: StorageBackend | None,
    path: str | None,
    pool_size: int = 4,
    busy_timeout: float = 30.0,
) -> StorageBackend:
    """Resolve a backend spec to an instance.

    ``None`` picks by path: the pooled SQLite backend when a path is
    given, memory otherwise.  An instance passes through untouched.
    """
    if backend is not None:
        return backend
    if path is None:
        return InMemoryBackend()
    return PooledSqliteBackend(path, pool_size=pool_size, busy_timeout=busy_timeout)
