"""The executable StorageBackend contract, run against every backend.

Every test in this module is parametrized over the two shipping
backends -- in-memory and pooled-WAL SQLite -- and asserts IDENTICAL
behaviour: a backend that passes here is
a drop-in under :class:`~repro.repository.store.MetadataRepository`.
The protocol prose lives on
:class:`~repro.repository.backends.StorageBackend`; this file is the
version that can fail.

Covered per backend: every protocol method; clock ownership (which
mutator bumps which clock, monotonicity, no bumps from reads or
fingerprint writes); delete-then-read; bulk-write atomicity (an iterable
that raises mid-batch stores nothing and moves no clock); sequence
reservation; and a Hypothesis round-trip -- an arbitrary
:class:`~repro.repository.store.StoredMatch` (unicode ids, negative
scores, every status/annotation/method, composed/flipped provenance
notes) comes back byte-identical from storage.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.match import Correspondence, MatchStatus, SemanticAnnotation
from repro.repository import (
    AssertionMethod,
    InMemoryBackend,
    MetadataRepository,
    PooledSqliteBackend,
    ProvenanceRecord,
    StorageBackend,
    open_backend,
)
from repro.repository.store import StoredMatch
from repro.schema import Schema

BACKENDS = ("memory", "pooled")


@pytest.fixture(params=BACKENDS)
def backend(request, tmp_path):
    """One backend instance per param; closed (and reopenable) afterwards."""
    opened = _open(request.param, tmp_path)
    yield opened
    opened.close()


def _open(kind: str, tmp_path) -> StorageBackend:
    path = None if kind == "memory" else str(tmp_path / "contract.db")
    return open_backend(None, path)


def _match(
    source_schema: str = "orders",
    target_schema: str = "invoices",
    source_id: str = "orders.total",
    target_id: str = "invoices.amount",
    score: float = 0.83,
    sequence: int = 1,
    **provenance_overrides,
) -> StoredMatch:
    return StoredMatch(
        source_schema=source_schema,
        target_schema=target_schema,
        correspondence=Correspondence(
            source_id=source_id,
            target_id=target_id,
            score=score,
            status=MatchStatus.ACCEPTED,
            annotation=SemanticAnnotation.EQUIVALENT,
            asserted_by="ingrid",
            note="validated in review",
        ),
        provenance=ProvenanceRecord(
            asserted_by=provenance_overrides.pop("asserted_by", "ingrid"),
            method=provenance_overrides.pop("method", AssertionMethod.HUMAN_VALIDATED),
            confidence=provenance_overrides.pop("confidence", 0.9),
            sequence=sequence,
            **provenance_overrides,
        ),
    )


class TestProtocolConformance:
    def test_satisfies_the_runtime_protocol(self, backend):
        assert isinstance(backend, StorageBackend)

    def test_serialize_calls_declaration(self, backend):
        # The repository keys its whole locking discipline off this flag;
        # it must be a plain bool, and only the pooled backend may claim
        # concurrent-call safety.
        assert isinstance(backend.serialize_calls, bool)
        expected = not isinstance(backend, PooledSqliteBackend)
        assert backend.serialize_calls is expected

    def test_describe_names_the_kind(self, backend):
        description = backend.describe()
        assert description["kind"] in ("memory", "pooled-wal")


class TestSchemata:
    def test_put_get_roundtrip(self, backend):
        payload = {"name": "orders", "elements": [{"id": "orders.total"}]}
        backend.put_schema("orders", payload)
        assert backend.get_schema("orders") == payload

    def test_get_missing_returns_none(self, backend):
        assert backend.get_schema("nope") is None

    def test_names_are_sorted(self, backend):
        for name in ("zeta", "alpha", "mid"):
            backend.put_schema(name, {"name": name})
        assert backend.schema_names() == ["alpha", "mid", "zeta"]

    def test_put_replaces_in_place(self, backend):
        backend.put_schema("orders", {"v": 1})
        backend.put_schema("orders", {"v": 2})
        assert backend.get_schema("orders") == {"v": 2}
        assert backend.schema_names() == ["orders"]

    def test_delete_then_read(self, backend):
        backend.put_schema("orders", {"v": 1})
        backend.put_fingerprint("orders", {"hash": "h", "terms": {}})
        backend.add_matches([_match()])
        backend.delete_schema("orders")
        assert backend.get_schema("orders") is None
        assert backend.schema_names() == []
        # The cascade: fingerprint and every touching match go too.
        assert backend.get_fingerprint("orders") is None
        assert backend.all_matches() == []

    def test_delete_missing_is_a_noop_on_data(self, backend):
        backend.put_schema("orders", {"v": 1})
        backend.delete_schema("never-registered")
        assert backend.schema_names() == ["orders"]


class TestBulkSchemata:
    """The batched ingestion surface: put_schemas / get_schemas /
    get_fingerprints, identical on every backend."""

    def test_put_and_get_many(self, backend):
        backend.put_schemas({f"s{i}": {"v": i} for i in range(5)})
        assert backend.get_schemas(["s0", "s3", "nope"]) == {
            "s0": {"v": 0},
            "s3": {"v": 3},
        }
        assert backend.schema_names() == [f"s{i}" for i in range(5)]

    def test_bulk_reads_omit_missing_names(self, backend):
        assert backend.get_schemas(["ghost"]) == {}
        assert backend.get_fingerprints(["ghost"]) == {}

    def test_fingerprints_land_in_the_same_batch(self, backend):
        backend.put_schemas(
            {"orders": {"v": 1}, "invoices": {"v": 2}},
            fingerprints={"orders": {"hash": "h1", "terms": {"total": 1}}},
        )
        assert backend.get_fingerprint("orders") == {
            "hash": "h1",
            "terms": {"total": 1},
        }
        # A payload written WITHOUT a fingerprint has none.
        assert backend.get_fingerprint("invoices") is None
        assert backend.get_fingerprints(["orders", "invoices"]) == {
            "orders": {"hash": "h1", "terms": {"total": 1}},
        }

    def test_rewrite_without_fingerprint_drops_the_stale_one(self, backend):
        backend.put_schema("orders", {"v": 1})
        backend.put_fingerprint("orders", {"hash": "old", "terms": {}})
        backend.put_schemas({"orders": {"v": 2}})
        assert backend.get_schema("orders") == {"v": 2}
        assert backend.get_fingerprint("orders") is None

    def test_bumps_generation_once_per_payload(self, backend):
        generation, match_generation = backend.clocks()
        backend.put_schemas(
            {f"s{i}": {"v": i} for i in range(7)},
            fingerprints={"s0": {"hash": "h", "terms": {}}},
        )
        assert backend.clocks() == (generation + 7, match_generation)

    def test_empty_batch_is_a_noop(self, backend):
        clocks = backend.clocks()
        backend.put_schemas({})
        assert backend.clocks() == clocks
        assert backend.schema_names() == []

    def test_batches_beyond_the_in_clause_chunk(self, backend):
        # 600 names crosses the SQLite IN-clause chunking boundary (500).
        names = [f"s{i:04d}" for i in range(600)]
        backend.put_schemas(
            {name: {"n": name} for name in names},
            fingerprints={name: {"hash": name, "terms": {}} for name in names},
        )
        assert backend.get_schemas(names) == {name: {"n": name} for name in names}
        fingerprints = backend.get_fingerprints(names)
        assert len(fingerprints) == 600
        assert fingerprints["s0599"] == {"hash": "s0599", "terms": {}}

    def test_names_with_a_nul_keep_their_own_rows(self, backend):
        # A name read from outside (an ingest JSONL line) may carry a NUL;
        # it must never land on the row of its prefix.
        names = ["X", "X\x00y"]
        backend.put_schemas(
            {name: {"n": name} for name in names},
            fingerprints={name: {"hash": name, "terms": {}} for name in names},
        )
        assert backend.schema_names() == names
        assert backend.get_schemas(names) == {name: {"n": name} for name in names}
        assert backend.get_fingerprints(names) == {
            name: {"hash": name, "terms": {}} for name in names
        }
        # The fingerprint-only writes must keep them apart too.
        rehashed = {"X": "h1", "X\x00y": "h2"}
        backend.put_fingerprints(
            {name: {"hash": value, "terms": {}} for name, value in rehashed.items()}
        )
        assert backend.fingerprint_hashes() == rehashed
        assert backend.get_fingerprints(names) == {
            name: {"hash": value, "terms": {}} for name, value in rehashed.items()
        }
        backend.put_fingerprint("X\x00y", {"hash": "one", "terms": {}})
        assert backend.get_fingerprint("X") == {"hash": "h1", "terms": {}}
        assert backend.get_fingerprint("X\x00y") == {"hash": "one", "terms": {}}
        # A NUL inside a hash survives the one-query hash probe.
        backend.put_fingerprint("X", {"hash": "re-X\x00y", "terms": {}})
        assert backend.fingerprint_hashes() == {"X": "re-X\x00y", "X\x00y": "one"}
        # A bulk re-put with a NUL-bearing payload and no fingerprint for
        # the NUL name drops that name's fingerprint only.
        backend.put_schemas(
            {"X\x00y": {"n": "a\x00b"}, "X": {"n": "X"}},
            fingerprints={"X": {"hash": "h3", "terms": {}}},
        )
        assert backend.get_schemas(names) == {
            "X": {"n": "X"}, "X\x00y": {"n": "a\x00b"}
        }
        assert backend.fingerprint_hashes() == {"X": "h3"}


class TestMatches:
    def test_add_and_read_back_in_insertion_order(self, backend):
        first = _match(source_id="a.x", target_id="b.x", sequence=1)
        second = _match(source_id="a.y", target_id="b.y", sequence=2)
        backend.add_matches([first, second])
        assert backend.all_matches() == [first, second]

    def test_matches_touching_either_side(self, backend):
        ab = _match("a", "b", sequence=1)
        bc = _match("b", "c", sequence=2)
        ca = _match("c", "a", sequence=3)
        backend.add_matches([ab, bc, ca])
        assert backend.matches_touching("a") == [ab, ca]
        assert backend.matches_touching("b") == [ab, bc]
        assert backend.matches_touching("nope") == []

    def test_matches_between_is_direction_agnostic(self, backend):
        ab = _match("a", "b", sequence=1)
        ba = _match("b", "a", sequence=2)
        bc = _match("b", "c", sequence=3)
        backend.add_matches([ab, ba, bc])
        assert backend.matches_between("a", "b") == [ab, ba]
        assert backend.matches_between("b", "a") == [ab, ba]
        assert backend.matches_between("a", "c") == []

    def test_empty_batch_stores_nothing(self, backend):
        backend.add_matches([])
        assert backend.all_matches() == []

    def test_scores_round_trip_bit_exactly(self, backend):
        """Scores that 15 significant digits cannot hold come back as the
        same doubles through every read of ``store_matches`` rows."""
        repository = MetadataRepository(backend=backend)
        for name in ("a", "b"):
            repository.register(Schema(name))
        scores = [0.1 + 0.2, 1 / 3, -1 / 3, 2 / 3, -0.30648313129217297, 5e-324]
        repository.store_matches(
            "a",
            "b",
            [Correspondence(f"a.{i}", "b.x", score) for i, score in enumerate(scores)],
            asserted_by="ingrid",
        )
        for read in (
            repository.matches(),
            repository.matches_between("b", "a"),
            repository.matches_touching("a"),
        ):
            assert [m.correspondence.score for m in read] == scores
            assert [m.provenance.confidence for m in read] == scores

    def test_text_with_a_nul_round_trips(self, backend):
        match = _match("a\x00b", "b", "a\x00b.x", "b.\x00", context="c\x00", note="\x00")
        backend.add_matches([match])
        assert backend.all_matches() == [match]
        assert backend.matches_between("b", "a\x00b") == [match]
        assert backend.matches_touching("a\x00b") == [match]
        assert backend.matches_touching("a") == []

    def test_bulk_write_is_atomic(self, backend):
        """An iterable that raises mid-batch must leave the store untouched."""
        backend.add_matches([_match(sequence=1)])
        clocks_before = backend.clocks()

        def poisoned():
            yield _match(source_id="a.1", target_id="b.1", sequence=2)
            yield _match(source_id="a.2", target_id="b.2", sequence=3)
            raise RuntimeError("boom mid-iteration")

        with pytest.raises(RuntimeError, match="boom"):
            backend.add_matches(poisoned())
        assert len(backend.all_matches()) == 1
        assert backend.clocks() == clocks_before


class TestFingerprints:
    PAYLOAD = {"format_version": 1, "hash": "abc123", "terms": {"total": 2}}

    def test_put_get_roundtrip(self, backend):
        backend.put_fingerprint("orders", self.PAYLOAD)
        assert backend.get_fingerprint("orders") == self.PAYLOAD

    def test_get_missing_returns_none(self, backend):
        assert backend.get_fingerprint("nope") is None

    def test_bulk_put_and_sorted_names(self, backend):
        backend.put_fingerprints({
            "zeta": {"hash": "z"},
            "alpha": {"hash": "a"},
        })
        assert backend.fingerprint_names() == ["alpha", "zeta"]

    def test_hashes_in_one_call(self, backend):
        backend.put_fingerprints({
            "orders": {"hash": "h1", "terms": {"a": 1}},
            "invoices": {"hash": "h2", "terms": {"b": 2}},
            "legacy": {"terms": {}},  # pre-hash payloads read as ""
        })
        assert backend.fingerprint_hashes() == {
            "orders": "h1",
            "invoices": "h2",
            "legacy": "",
        }

    def test_delete_then_read(self, backend):
        backend.put_fingerprint("orders", self.PAYLOAD)
        backend.delete_fingerprint("orders")
        assert backend.get_fingerprint("orders") is None
        assert backend.fingerprint_names() == []

    def test_bulk_put_beyond_one_statement(self, backend):
        # 600 rows span several multi-row INSERTs on the pooled backend;
        # one of them replaces a row written before.
        payloads = {
            f"s{i:04d}": {"hash": f"h{i}", "terms": {"t": i}} for i in range(600)
        }
        backend.put_fingerprint("s0300", {"hash": "old", "terms": {}})
        backend.put_fingerprints(payloads)
        assert backend.get_fingerprints(list(payloads)) == payloads
        assert backend.fingerprint_hashes() == {
            name: payload["hash"] for name, payload in payloads.items()
        }


class TestClocks:
    """Which mutator bumps which clock -- identically on every backend."""

    def test_fresh_store_starts_at_zero(self, backend):
        assert backend.clocks() == (0, 0)

    def test_put_schema_bumps_generation_only(self, backend):
        backend.put_schema("orders", {"v": 1})
        assert backend.clocks() == (1, 0)

    def test_delete_schema_bumps_both(self, backend):
        # The cascade may remove match rows, so derived match structures
        # must be invalidated even when no match survived.
        backend.put_schema("orders", {"v": 1})
        backend.delete_schema("orders")
        assert backend.clocks() == (2, 1)

    def test_add_matches_bumps_match_generation_once_per_batch(self, backend):
        backend.add_matches([_match(sequence=1), _match(sequence=2)])
        assert backend.clocks() == (0, 1)

    def test_empty_batch_does_not_bump(self, backend):
        backend.add_matches([])
        assert backend.clocks() == (0, 0)

    def test_reads_and_fingerprints_never_bump(self, backend):
        backend.put_schema("orders", {"v": 1})
        before = backend.clocks()
        backend.get_schema("orders")
        backend.schema_names()
        backend.all_matches()
        backend.put_fingerprint("orders", {"hash": "h"})
        backend.put_fingerprints({"orders": {"hash": "h2"}})
        backend.get_fingerprint("orders")
        backend.fingerprint_hashes()
        backend.delete_fingerprint("orders")
        backend.describe()
        assert backend.clocks() == before

    def test_clocks_are_monotone_over_a_mixed_history(self, backend):
        seen = [backend.clocks()]
        backend.put_schema("a", {"v": 1})
        seen.append(backend.clocks())
        backend.put_schema("b", {"v": 1})
        seen.append(backend.clocks())
        backend.add_matches([_match("a", "b", sequence=1)])
        seen.append(backend.clocks())
        backend.delete_schema("a")
        seen.append(backend.clocks())
        for earlier, later in zip(seen, seen[1:]):
            assert later[0] >= earlier[0]
            assert later[1] >= earlier[1]
            assert later != earlier  # every mutation moved SOME clock


class TestSequences:
    def test_first_allocation_starts_at_one(self, backend):
        assert backend.next_sequences(1) == 1

    def test_blocks_are_contiguous_and_disjoint(self, backend):
        first = backend.next_sequences(3)   # 1, 2, 3
        second = backend.next_sequences(2)  # 4, 5
        assert first == 1
        assert second == 4
        assert backend.next_sequences(1) == 6

    def test_rejects_non_positive_counts(self, backend):
        with pytest.raises(ValueError):
            backend.next_sequences(0)
        with pytest.raises(ValueError):
            backend.next_sequences(-3)


class TestRequestStats:
    """The cache-warming source: counted request hashes, hottest-first.

    ``record_requests`` is a bulk upsert (counts accumulate, the latest
    endpoint/payload wins) and, like fingerprint writes, moves NO clock:
    request statistics are observability, not repository content, so a
    flush can never invalidate anyone's response cache.
    """

    def test_record_and_rank(self, backend):
        backend.record_requests(
            [
                ("key-a", "/match", {"source": "A", "target": "B"}, 3),
                ("key-b", "/corpus-match", {"source": "A"}, 5),
                ("key-c", "/match", {"source": "B", "target": "C"}, 1),
            ]
        )
        hot = backend.hot_requests(2)
        assert [record[0] for record in hot] == ["key-b", "key-a"]
        key, endpoint, payload, count = hot[0]
        assert (endpoint, payload, count) == ("/corpus-match", {"source": "A"}, 5)

    def test_counts_accumulate_and_payload_refreshes(self, backend):
        backend.record_requests([("key-a", "/match", {"v": 1}, 2)])
        backend.record_requests([("key-a", "/match", {"v": 2}, 3)])
        ((key, endpoint, payload, count),) = backend.hot_requests(10)
        assert (key, count) == ("key-a", 5)
        assert payload == {"v": 2}

    def test_ties_break_deterministically_by_key(self, backend):
        backend.record_requests(
            [
                ("key-z", "/match", {}, 4),
                ("key-a", "/match", {}, 4),
            ]
        )
        assert [record[0] for record in backend.hot_requests(10)] == [
            "key-a", "key-z",
        ]

    def test_limit_and_empty_store(self, backend):
        assert backend.hot_requests(10) == []
        backend.record_requests(
            [(f"key-{index}", "/match", {}, index + 1) for index in range(5)]
        )
        assert len(backend.hot_requests(3)) == 3
        backend.record_requests([])  # a no-op flush is legal
        assert len(backend.hot_requests(10)) == 5

    def test_recording_moves_no_clock(self, backend):
        clocks_before = backend.clocks()
        backend.record_requests([("key-a", "/match", {"source": "A"}, 1)])
        assert backend.clocks() == clocks_before


class TestPersistenceAcrossReopen:
    """File-backed backends must survive close/reopen -- clocks included.

    (The in-memory backend is excluded: nothing to reopen.)
    """

    @pytest.fixture
    def kind(self):
        return "pooled"

    def test_data_and_clocks_survive_reopen(self, kind, tmp_path):
        store = _open(kind, tmp_path)
        store.put_schema("orders", {"v": 1})
        store.add_matches([_match(sequence=store.next_sequences(1))])
        store.put_fingerprint("orders", {"hash": "h"})
        clocks = store.clocks()
        store.close()

        reopened = _open(kind, tmp_path)
        try:
            assert reopened.get_schema("orders") == {"v": 1}
            assert len(reopened.all_matches()) == 1
            assert reopened.get_fingerprint("orders") == {"hash": "h"}
            # The backend-era contract: clocks persist, they do NOT
            # restart at zero the way the pre-backend store's did.
            assert reopened.clocks() == clocks
        finally:
            reopened.close()

    def test_sequence_counter_survives_reopen(self, kind, tmp_path):
        store = _open(kind, tmp_path)
        store.next_sequences(5)
        store.close()
        reopened = _open(kind, tmp_path)
        try:
            assert reopened.next_sequences(1) == 6
        finally:
            reopened.close()

    def test_request_stats_survive_reopen(self, kind, tmp_path):
        """The warming source outlives the replica that recorded it --
        that is the whole point: the NEXT server to start warms from it."""
        store = _open(kind, tmp_path)
        store.record_requests([("key-a", "/match", {"source": "A"}, 7)])
        store.close()
        reopened = _open(kind, tmp_path)
        try:
            assert reopened.hot_requests(10) == [
                ("key-a", "/match", {"source": "A"}, 7)
            ]
        finally:
            reopened.close()


class TestOpenBackend:
    def test_default_resolution(self, tmp_path):
        assert isinstance(open_backend(None, None), InMemoryBackend)
        file_store = open_backend(None, str(tmp_path / "a.db"))
        assert isinstance(file_store, PooledSqliteBackend)
        assert file_store.describe()["kind"] == "pooled-wal"
        file_store.close()

    def test_instance_passthrough(self):
        instance = InMemoryBackend()
        assert open_backend(instance, None) is instance


# ----------------------------------------------------------------------
# Crash recovery: SIGKILL a writer mid-batch, reopen, nothing partial
# ----------------------------------------------------------------------
_WRITER_SCRIPT = """
import sys
from repro.match import Correspondence
from repro.repository import MetadataRepository
from repro.schema import Schema, SchemaElement

db_path, batch_size = sys.argv[1], int(sys.argv[2])
repo = MetadataRepository(path=db_path)
for name in ("left", "right"):
    schema = Schema(name=name)
    schema.add(SchemaElement(element_id=f"{name}.e", name="e"))
    repo.register(schema)
batch_index = 0
while True:
    correspondences = [
        Correspondence(source_id=f"left.{batch_index}.{i}", target_id="right.e",
                       score=0.5)
        for i in range(batch_size)
    ]
    repo.store_matches(
        "left", "right", correspondences,
        asserted_by="writer", context=f"batch-{batch_index}",
    )
    print(f"batch {batch_index} committed", flush=True)
    batch_index += 1
"""


class TestCrashRecovery:
    def test_sigkill_mid_store_matches_leaves_no_partial_batch(self, tmp_path):
        """Kill -9 a pooled-WAL writer in its write loop; reopen; every
        stored batch must be complete and ``match_generation`` must equal
        the number of complete batches -- the transactional clock-bump
        contract, enforced against a real dead process rather than a
        raised exception."""
        import signal
        import subprocess
        import sys
        import time

        db_path = str(tmp_path / "crash.db")
        batch_size = 400  # big enough that the kill can land mid-write
        writer = subprocess.Popen(
            [sys.executable, "-c", _WRITER_SCRIPT, db_path, str(batch_size)],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            # Let at least two batches commit so recovery has data to keep.
            committed = 0
            deadline = time.monotonic() + 60
            while committed < 2 and time.monotonic() < deadline:
                line = writer.stdout.readline()
                if "committed" in line:
                    committed += 1
            assert committed >= 2, "writer never committed two batches"
            # No drain of further output: the writer keeps writing while we
            # aim the kill into its ongoing loop.
            time.sleep(0.05)
        finally:
            writer.send_signal(signal.SIGKILL)
            writer.wait(timeout=30)
        assert writer.returncode == -signal.SIGKILL

        store = PooledSqliteBackend(db_path)
        try:
            by_batch: dict[str, int] = {}
            for match in store.all_matches():
                context = match.provenance.context
                by_batch[context] = by_batch.get(context, 0) + 1
            # All-or-nothing: every batch present is a COMPLETE batch.
            assert by_batch, "the two confirmed batches must survive"
            for context, count in by_batch.items():
                assert count == batch_size, f"{context} is partial: {count} rows"
            generation, match_generation = store.clocks()
            # One generation bump per registered schema; one
            # match_generation bump per complete batch -- the clock can
            # never run ahead of (or behind) the surviving data.
            assert generation == 2
            assert match_generation == len(by_batch)
            assert len(by_batch) >= committed
        finally:
            store.close()


# ----------------------------------------------------------------------
# Hypothesis: StoredMatch round-trips byte-identically (satellite 3)
# ----------------------------------------------------------------------
_text = st.text(min_size=0, max_size=40)
_nonempty_text = st.text(min_size=1, max_size=40)
_score = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)

_correspondences = st.builds(
    Correspondence,
    source_id=_nonempty_text,
    target_id=_nonempty_text,
    score=_score,
    status=st.sampled_from(MatchStatus),
    annotation=st.sampled_from(SemanticAnnotation),
    asserted_by=_text,  # "" = pre-migration rows: falls back on read
    note=_text,
)

_provenances = st.builds(
    ProvenanceRecord,
    asserted_by=_nonempty_text,
    method=st.sampled_from(AssertionMethod),
    confidence=_score,
    sequence=st.integers(min_value=0, max_value=2**31),
    context=_text,
    # Composed/flipped reuse provenance lands here verbatim
    # (e.g. "composed via crm: a->b (0.83) * b->c (0.71)").
    note=_text,
)

_stored_matches = st.builds(
    StoredMatch,
    source_schema=_nonempty_text,
    target_schema=_nonempty_text,
    correspondence=_correspondences,
    provenance=_provenances,
)


class TestStoredMatchRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(match=_stored_matches)
    def test_memory(self, match):
        self._roundtrip(InMemoryBackend(), match)

    @settings(max_examples=60, deadline=None)
    @given(match=_stored_matches)
    def test_pooled(self, tmp_path_factory, match):
        path = str(tmp_path_factory.mktemp("rt") / "rt.db")
        self._roundtrip(PooledSqliteBackend(path), match)

    @staticmethod
    def _roundtrip(backend, match: StoredMatch) -> None:
        try:
            backend.add_matches([match])
            (read_back,) = backend.all_matches()
            # Dataclass equality compares every field, enums and floats
            # included -- "byte-identical" for frozen value objects.  One
            # exception is intentional: a correspondence asserted_by of ""
            # reads back as the provenance asserter (the pre-migration
            # fallback) on the SQLite backends.
            if not match.correspondence.asserted_by and not isinstance(
                backend, InMemoryBackend
            ):
                expected_corr = match.correspondence
                assert read_back.correspondence.asserted_by == (
                    match.provenance.asserted_by
                )
                assert read_back.correspondence.source_id == expected_corr.source_id
                assert read_back.correspondence.target_id == expected_corr.target_id
                assert read_back.correspondence.score == expected_corr.score
                assert read_back.correspondence.status == expected_corr.status
                assert read_back.correspondence.annotation == expected_corr.annotation
                assert read_back.correspondence.note == expected_corr.note
                assert read_back.provenance == match.provenance
                assert read_back.source_schema == match.source_schema
                assert read_back.target_schema == match.target_schema
            else:
                assert read_back == match
        finally:
            backend.close()
