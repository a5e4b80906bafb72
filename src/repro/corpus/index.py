"""The persistent corpus index: top-k schema retrieval over a repository.

The paper's section-5 registry scenario -- hundreds to thousands of
registered schemata, matched against routinely rather than one pair at a
time -- needs a retrieval stage in front of matching: "complementary search
tools ... to locate potential match candidates from a larger pool of
schemata".  :class:`ShardedCorpusIndex` is that stage, bound to a
:class:`~repro.repository.store.MetadataRepository`:

* **Fingerprints** -- each registered schema is profiled ONCE into a term
  *fingerprint* (the pipeline-normalised term bag of
  :func:`repro.search.index.schema_terms` plus a content hash), persisted
  through the repository backend -- on the SQLite backend fingerprints
  survive process restarts, so reopening a 500-schema repository rebuilds
  the index from stored term bags without re-deserialising or
  re-profiling a single schema.
* **Shards** -- the index partitions fingerprints across ``n_shards``
  hash ranges (:func:`shard_of_name` maps the 32-bit prefix of the name's
  SHA-256 onto contiguous ranges).  Every schema lives in exactly ONE
  shard, so global corpus statistics (document count, document
  frequency, total term mass) are plain sums over shards, and retrieval
  ranks all shards through the one pruned BM25 scorer,
  :func:`repro.search.rank.bm25_top_k` -- the scorer
  :class:`~repro.search.rank.SchemaSearchEngine` ranks one index with.
  One shard is the unsharded case: :class:`CorpusIndex` is that
  constructor.
* **Lazy incremental refresh** -- every query first compares the
  repository's :attr:`~repro.repository.store.MetadataRepository.generation`
  clock against each shard's build stamp, and a stale shard is rebuilt
  incrementally (only added/removed/re-registered names are touched).  A
  stored payload that cannot be deserialised is skipped -- logged once,
  counted on :class:`CorpusRefresh`, never indexed, retried when its
  content changes -- so one malformed record cannot fail every query
  over the registry.

**Concurrency: refresh publishes atomically.**  Each shard's state
(inverted index, content-hash map, generation stamp) is one immutable
snapshot swapped by a single reference assignment, the same pattern as
:class:`~repro.network.graph.MappingGraph`'s adjacency cache.  Readers
whose shards are fresh never take a lock at all; a stale reader enters
the refresh lock, where the refresher rebuilds *aside* (cloning the
published index, touching only the changed entries) and swaps.  A full
forced rebuild therefore never stalls concurrent ``top_candidates``
calls: they keep searching the previous snapshots until the new ones are
published.  :class:`~repro.corpus.sharding.CorpusRefreshWorker` keeps
shards warm off the request path.

The lifecycle (build -> persist -> stale -> incremental refresh) is
documented with a worked example in ``docs/repository.md``.
"""

from __future__ import annotations

import hashlib
import json
import logging
import threading
import time
from collections import Counter
from dataclasses import dataclass

from repro.repository.store import MetadataRepository
from repro.schema.errors import SchemaError
from repro.schema.schema import Schema
from repro.schema.serialize import schema_from_dict
from repro.search.index import SchemaIndex, schema_terms
from repro.search.query import SchemaQuery
from repro.search.rank import SearchHit, bm25_top_k

__all__ = [
    "FINGERPRINT_FORMAT_VERSION",
    "CorpusRefresh",
    "CorpusIndex",
    "ShardStats",
    "ShardedCorpusIndex",
    "payload_hash",
    "build_fingerprint",
    "shard_of_name",
]

logger = logging.getLogger(__name__)

#: Bumped whenever the term derivation changes incompatibly; fingerprints
#: written under another version are re-derived, not trusted.
FINGERPRINT_FORMAT_VERSION = 1

#: Fingerprints persisted per backend transaction during a refresh or a
#: bulk ingest: bounds transaction size (and write-lock hold time on the
#: pooled backend) while keeping a cold build to a handful of commits.
PERSIST_CHUNK = 512

#: What ``schema_from_dict`` raises on a malformed stored payload
#: (unknown format version, missing keys, bad enum values, wrong types).
_UNREADABLE_PAYLOAD = (SchemaError, KeyError, TypeError, ValueError, AttributeError)


def payload_hash(payload: dict) -> str:
    """Content hash of a serialised schema (order-independent).

    The identity the whole subsystem keys on: fingerprints persist it,
    refresh compares it, and the service's inline-source self-exclusion
    reuses it (imported there as ``corpus_payload_hash``).
    """
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def build_fingerprint(payload: dict, content_hash: str | None = None) -> dict:
    """Derive the persistable fingerprint for one serialised schema.

    One linguistic-pipeline pass (deserialise, profile, count terms) --
    the per-schema work the index pays exactly once.  Shared by the
    refresh path here and by the bulk-ingestion pipeline
    (:mod:`repro.corpus.ingest`), which precomputes fingerprints so the
    first query over a freshly ingested corpus derives nothing.
    """
    return _schema_fingerprint(
        schema_from_dict(payload),
        content_hash if content_hash is not None else payload_hash(payload),
    )


def _schema_fingerprint(schema: Schema, content_hash: str) -> dict:
    terms, _root_terms = schema_terms(schema)
    return {
        "format_version": FINGERPRINT_FORMAT_VERSION,
        "hash": content_hash,
        "n_terms": sum(terms.values()),
        "terms": dict(terms),
    }


@dataclass(frozen=True)
class CorpusRefresh:
    """What one :meth:`ShardedCorpusIndex.refresh` actually did."""

    n_indexed: int            # index size after the refresh
    n_added: int              # entries (re)built this refresh
    n_removed: int            # entries dropped (unregistered schemata)
    n_from_fingerprints: int  # of n_added: reloaded from persisted term bags
    n_derived: int            # of n_added: profiled from the live schema
    elapsed_seconds: float
    #: Registered payloads that could not be read: left out of the index
    #: (and retried once their stored content changes).
    n_skipped: int = 0

    @property
    def was_noop(self) -> bool:
        return self.n_added == 0 and self.n_removed == 0


class _IndexState:
    """One published snapshot: index + hashes + the generation stamp.

    Treated as immutable after publication (the refresh path mutates only
    private clones); readers may use a captured state without locking.
    """

    __slots__ = ("index", "hashes", "generation", "unreadable")

    def __init__(
        self,
        index: SchemaIndex,
        hashes: dict[str, str],
        generation: int | None,
        unreadable: dict[str, str],
    ):
        self.index = index
        #: Content hash each indexed entry was built from (the per-entry
        #: staleness signal; see :meth:`ShardedCorpusIndex.refresh`).
        self.hashes = hashes
        self.generation = generation
        #: Content hash of each registered payload that could not be
        #: read: not re-parsed (or re-logged) until that hash changes.
        self.unreadable = unreadable


def shard_of_name(name: str, n_shards: int) -> int:
    """Hash-range shard assignment: stable, uniform, order-free.

    The first 32 bits of SHA-256 over the schema name, mapped onto
    ``n_shards`` contiguous ranges (``prefix * n_shards >> 32``).  Keyed
    on the *name* -- the stable identity fingerprints are stored under --
    so re-registering changed content never migrates a schema between
    shards; only register/unregister moves shard membership.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    prefix = int.from_bytes(
        hashlib.sha256(name.encode("utf-8")).digest()[:4], "big"
    )
    return (prefix * n_shards) >> 32


@dataclass(frozen=True)
class ShardStats:
    """Published state of one shard (a monitoring read, never a refresh)."""

    shard: int                    # shard ordinal, 0-based
    n_indexed: int                # entries in the published snapshot
    built_generation: int | None  # stamp of the published snapshot
    n_refreshes: int              # rebuilds that actually touched entries
    last_refresh_seconds: float   # wall time of the last rebuild

    def to_dict(self) -> dict:
        return {
            "shard": self.shard,
            "n_indexed": self.n_indexed,
            "built_generation": self.built_generation,
            "n_refreshes": self.n_refreshes,
            "last_refresh_seconds": self.last_refresh_seconds,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ShardStats":
        return cls(
            shard=payload["shard"],
            n_indexed=payload["n_indexed"],
            built_generation=payload["built_generation"],
            n_refreshes=payload["n_refreshes"],
            last_refresh_seconds=payload["last_refresh_seconds"],
        )


class _Shard:
    """One partition: a published snapshot plus refresh counters."""

    __slots__ = ("ordinal", "state", "n_refreshes", "last_refresh_seconds")

    def __init__(self, ordinal: int):
        self.ordinal = ordinal
        self.state = _IndexState(SchemaIndex(), {}, None, {})
        self.n_refreshes = 0
        self.last_refresh_seconds = 0.0

    def stats(self) -> ShardStats:
        state = self.state
        return ShardStats(
            shard=self.ordinal,
            n_indexed=len(state.index),
            built_generation=state.generation,
            n_refreshes=self.n_refreshes,
            last_refresh_seconds=self.last_refresh_seconds,
        )


class ShardedCorpusIndex:
    """A lazily maintained inverted index over every registered schema,
    in N hash-range partitions merged exactly.

    ``MatchService(corpus_shards=N)`` binds one under ``corpus_match``.

    Parameters
    ----------
    repository:
        The :class:`MetadataRepository` to index.  The index never mutates
        the registry; it only reads schemata and reads/writes fingerprints.
    n_shards:
        Partition count.  ``1`` is the unsharded index.

    One index may be shared across threads (the serving tier does):
    refreshers serialise on an internal lock and publish finished shard
    snapshots atomically, so a registration landing mid-query can never
    expose half-rebuilt postings -- and a reader whose snapshots are fresh
    proceeds without any locking at all.
    """

    def __init__(self, repository: MetadataRepository, n_shards: int = 1):
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.repository = repository
        self.n_shards = n_shards
        self._shards = [_Shard(ordinal) for ordinal in range(n_shards)]
        #: Stable name -> shard memo (assignment hashes once per name,
        #: not once per refresh scan).
        self._assigned: dict[str, int] = {}
        #: Serialises refreshers (never readers); shards publish by
        #: reference swap, one at a time, as they finish.
        self._refresh_lock = threading.Lock()
        self.last_refresh: CorpusRefresh | None = None

    # ------------------------------------------------------------------
    # Shard assignment
    # ------------------------------------------------------------------
    def shard_of(self, name: str) -> int:
        """The shard ordinal a schema name lives in."""
        shard = self._assigned.get(name)
        if shard is None:
            shard = self._assigned[name] = shard_of_name(name, self.n_shards)
        return shard

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def is_stale(self) -> bool:
        """Whether any shard predates the repository's generation clock."""
        generation = self.repository.generation
        return any(shard.state.generation != generation for shard in self._shards)

    def n_indexed(self) -> int:
        """Entries across published snapshots, WITHOUT refreshing first.

        The monitoring read (``/healthz``): cheap and lock-free, possibly
        one refresh behind -- unlike ``len(index)``, which refreshes.
        """
        return sum(len(shard.state.index) for shard in self._shards)

    def shard_stats(self) -> list[ShardStats]:
        """Per-shard published stats (monitoring read; never refreshes)."""
        return [shard.stats() for shard in self._shards]

    def refresh(self, force: bool = False) -> CorpusRefresh:
        """Bring every shard in sync with the repository (incrementally).

        One registry scan (names + fingerprint hashes) shared by all
        shards; each stale shard is then diffed and rebuilt aside --
        unchanged shards are merely re-stamped, unchanged entries inside
        a changed shard are not re-read at all.  Readers are never
        blocked: they keep searching the published snapshots until each
        shard's finished replacement is swapped in.
        """
        with self._refresh_lock:
            return self._refresh_locked(force)

    def _refresh_locked(self, force: bool) -> CorpusRefresh:
        started = time.perf_counter()
        # Capture the clock ONCE, BEFORE reading the registry (on a
        # file-backed store each clock read is a real query, and this
        # runs per retrieval): a register landing mid-refresh then leaves
        # its shard stamped at the older generation, so the next query
        # refreshes again (over-refresh is safe; stamping the
        # post-refresh clock would mark unseen registrations as indexed
        # forever).  MappingGraph.refresh orders its clocks the same way.
        generation = self.repository.generation
        pending = [
            shard
            for shard in self._shards
            if force or shard.state.generation != generation
        ]
        if not pending:
            refresh = CorpusRefresh(
                n_indexed=self.n_indexed(),
                n_added=0,
                n_removed=0,
                n_from_fingerprints=0,
                n_derived=0,
                elapsed_seconds=time.perf_counter() - started,
            )
            self.last_refresh = refresh
            return refresh

        # ONE registry scan for every pending shard.
        registered = set(self.repository.schema_names())
        persisted = self.repository.fingerprint_hashes()
        members: list[set[str]] = [set() for _ in range(self.n_shards)]
        for name in registered:
            members[self.shard_of(name)].add(name)

        n_added = n_removed = from_fingerprints = skipped = 0
        to_persist: dict[str, dict] = {}
        for shard in pending:
            state = shard.state
            shard_started = time.perf_counter()
            reg = members[shard.ordinal]
            indexed = set(state.index.names)
            removed = indexed - reg
            # An indexed entry is stale when the persisted fingerprint
            # hash no longer matches the hash this index built from:
            # re-registering changed content drops the fingerprint (hash
            # becomes absent), and a *sibling* index over the same
            # repository may already have re-derived and re-persisted it
            # (hash becomes different) -- both must rebuild here,
            # unchanged entries are not touched at all.
            stale = {
                name
                for name in indexed & reg
                if persisted.get(name) != state.hashes.get(name)
            }
            to_build = sorted((reg - indexed) | stale)
            if not removed and not to_build:
                # Shard content untouched by this generation: re-stamp.
                shard.state = _IndexState(
                    state.index, state.hashes, generation, state.unreadable
                )
                continue
            # Rebuild ASIDE: clone the published index (entries shared,
            # postings copied), touch only the difference, then publish
            # the finished snapshot in one reference swap.
            index = state.index.clone()
            hashes = dict(state.hashes)
            unreadable = {
                name: content_hash
                for name, content_hash in state.unreadable.items()
                if name in reg
            }
            for name in removed:
                index.remove(name)
                hashes.pop(name, None)
            # Batched backend reads: one bulk fetch for the fingerprints
            # and one for the payloads, not two round-trips per name.
            fingerprints = self.repository.get_fingerprints(to_build)
            payloads = self.repository.schema_payloads(to_build)
            # Hash every payload BEFORE deriving any fingerprint: SHA-256
            # of a large buffer briefly releases the interpreter lock, and
            # one release per derived fingerprint (every few ms) keeps the
            # lock's forced switch from firing, starving concurrent
            # queries for the whole refresh.
            content_hashes = {
                name: payload_hash(payload) for name, payload in payloads.items()
            }
            for name in to_build:
                payload = payloads.get(name)
                if payload is None:  # unregistered between scan and fetch
                    index.remove(name)
                    hashes.pop(name, None)
                    continue
                content_hash = content_hashes[name]
                if unreadable.get(name) == content_hash:
                    skipped += 1  # still the payload that failed to parse
                    continue
                unreadable.pop(name, None)
                fingerprint = fingerprints.get(name)
                # A fingerprint is trusted only when its format version
                # matches and its content hash equals the hash of the
                # stored payload -- externally edited stores fall back to
                # re-derivation, never to silently stale postings.
                if (
                    fingerprint is None
                    or fingerprint.get("format_version")
                    != FINGERPRINT_FORMAT_VERSION
                    or fingerprint.get("hash") != content_hash
                ):
                    try:
                        schema = schema_from_dict(payload)
                    except _UNREADABLE_PAYLOAD as exc:
                        # Quarantine: an unreadable stored payload stays
                        # out of the index instead of failing every query.
                        logger.warning(
                            "corpus index: skipping unreadable schema %r: %s",
                            name, exc,
                        )
                        index.remove(name)
                        hashes.pop(name, None)
                        unreadable[name] = content_hash
                        skipped += 1
                        continue
                    fingerprint = _schema_fingerprint(schema, content_hash)
                    to_persist[name] = fingerprint
                else:
                    from_fingerprints += 1
                index.add_entry(name, Counter(fingerprint["terms"]))
                hashes[name] = content_hash
                n_added += 1
            n_removed += len(removed)
            # Atomic publish: this shard's readers flip to the finished
            # snapshot in one reference swap; other shards are untouched.
            shard.state = _IndexState(index, hashes, generation, unreadable)
            shard.n_refreshes += 1
            shard.last_refresh_seconds = time.perf_counter() - shard_started

        if to_persist:
            # Chunked bulk persistence: one backend transaction per
            # PERSIST_CHUNK fingerprints, never one commit per schema.
            names = list(to_persist)
            for start in range(0, len(names), PERSIST_CHUNK):
                self.repository.put_fingerprints(
                    {n: to_persist[n] for n in names[start : start + PERSIST_CHUNK]}
                )
        refresh = CorpusRefresh(
            n_indexed=self.n_indexed(),
            n_added=n_added,
            n_removed=n_removed,
            n_from_fingerprints=from_fingerprints,
            n_derived=len(to_persist),
            elapsed_seconds=time.perf_counter() - started,
            n_skipped=skipped,
        )
        self.last_refresh = refresh
        return refresh

    def _fresh_states(self) -> list[_IndexState]:
        """Published per-shard snapshots, refreshed first if stale.

        The reader fast path: when every shard is stamped at the current
        generation the snapshots are returned without locking (one clock
        read) -- the common case whenever a
        :class:`~repro.corpus.sharding.CorpusRefreshWorker` keeps the
        shards warm.  The synchronous fallback (no worker, or a query
        racing ahead of it) refreshes under the lock: exact semantics,
        zero stale results.
        """
        generation = self.repository.generation
        states = [shard.state for shard in self._shards]
        if all(state.generation == generation for state in states):
            return states
        with self._refresh_lock:
            self._refresh_locked(force=False)
            return [shard.state for shard in self._shards]

    # ------------------------------------------------------------------
    # Retrieval
    # ------------------------------------------------------------------
    def top_candidates(
        self,
        query: Schema,
        limit: int = 10,
        exclude: str | None = None,
    ) -> list[SearchHit]:
        """The ``limit`` registered schemata most likely to match ``query``.

        Schema-as-query BM25 ("simply use one's target schema as the
        'query term'", section 2) over the freshly refreshed shards;
        ``exclude`` drops a registered copy of the query schema itself.
        This is the candidate-pruning stage of ``corpus_match``:
        everything outside the returned list is never matched at all.
        Scores are those of ``SchemaSearchEngine`` over one index of the
        whole registry (see the module docstring).
        """
        if limit <= 0:
            raise ValueError(f"limit must be positive, got {limit}")
        states = self._fresh_states()
        return bm25_top_k(
            [state.index for state in states], SchemaQuery(query).terms(), limit, exclude
        )

    def __len__(self) -> int:
        return sum(len(state.index) for state in self._fresh_states())

    @property
    def names(self) -> list[str]:
        """Every indexed name, sorted (shard partitioning has no order)."""
        found: list[str] = []
        for state in self._fresh_states():
            found.extend(state.index.names)
        return sorted(found)


class CorpusIndex(ShardedCorpusIndex):
    """The unsharded corpus index: a :class:`ShardedCorpusIndex` of one shard."""

    def __init__(self, repository: MetadataRepository):
        super().__init__(repository, n_shards=1)

