"""Metadata repository: every backend, provenance, trust, reuse."""

import pytest

from repro.match import Correspondence, MatchStatus
from repro.repository import (
    AssertionMethod,
    MetadataRepository,
    ProvenanceRecord,
    TrustPolicy,
    compose_matches,
    reuse_candidates,
)
from repro.schema import Schema


def small_schema(name, elements):
    schema = Schema(name)
    root = schema.add_root(name.upper())
    for element in elements:
        schema.add_child(root, element)
    return schema


@pytest.fixture(params=["memory", "pooled"])
def repository(request, tmp_path):
    if request.param == "memory":
        repo = MetadataRepository()
    else:
        repo = MetadataRepository(path=str(tmp_path / "repo.db"))
    yield repo
    repo.close()


class TestSchemaStorage:
    def test_register_and_fetch(self, repository, sample_relational):
        repository.register(sample_relational)
        rebuilt = repository.schema("SA_sample")
        assert len(rebuilt) == len(sample_relational)
        assert "SA_sample" in repository
        assert len(repository) == 1

    def test_fetch_unknown(self, repository):
        with pytest.raises(KeyError):
            repository.schema("missing")

    def test_register_under_alias(self, repository, sample_relational):
        repository.register(sample_relational, name="alias")
        assert "alias" in repository

    def test_unregister_cascades_matches(self, repository):
        a = small_schema("a", ["x"])
        b = small_schema("b", ["y"])
        repository.register(a)
        repository.register(b)
        repository.store_match(
            "a", "b", Correspondence("a.x", "b.y", 0.9), asserted_by="alice"
        )
        repository.unregister("a")
        assert "a" not in repository
        assert repository.matches() == []


class TestMatchKnowledge:
    def test_store_requires_registered_schemas(self, repository):
        with pytest.raises(KeyError):
            repository.store_match(
                "a", "b", Correspondence("x", "y", 0.5), asserted_by="alice"
            )

    def test_sequence_is_logical_time(self, repository):
        a, b = small_schema("a", ["x"]), small_schema("b", ["y"])
        repository.register(a)
        repository.register(b)
        first = repository.store_match(
            "a", "b", Correspondence("a.x", "b.y", 0.5), asserted_by="alice"
        )
        second = repository.store_match(
            "a", "b", Correspondence("a.x", "b.y", 0.6), asserted_by="bob"
        )
        assert second.provenance.sequence == first.provenance.sequence + 1

    def test_single_and_bulk_stores_open_a_write_span(self, repository):
        from repro.telemetry import Tracer, activate_trace

        repository.register(small_schema("a", ["x"]))
        repository.register(small_schema("b", ["y"]))
        trace = Tracer().start()
        with activate_trace(trace):
            repository.store_match(
                "a", "b", Correspondence("a.x", "b.y", 0.5), asserted_by="alice"
            )
            repository.store_matches(
                "a", "b", [Correspondence("a.x", "b.y", 0.6)], asserted_by="bob"
            )
        writes = [
            entry["attrs"]
            for entry in trace.to_dict()["spans"]
            if entry["kind"] == "repository.write"
        ]
        assert writes == [{"op": "store_match"}, {"op": "store_matches"}]

    def test_query_by_schemas(self, repository):
        a, b, c = (small_schema(n, ["x"]) for n in "abc")
        for schema in (a, b, c):
            repository.register(schema)
        repository.store_match(
            "a", "b", Correspondence("a.x", "b.x", 0.5), asserted_by="alice"
        )
        repository.store_match(
            "a", "c", Correspondence("a.x", "c.x", 0.5), asserted_by="alice"
        )
        assert len(repository.matches(source_schema="a")) == 2
        assert len(repository.matches(target_schema="c")) == 1
        assert len(repository.matches_touching("b")) == 1

    def test_bulk_store(self, repository):
        a, b = small_schema("a", ["x", "y"]), small_schema("b", ["x", "y"])
        repository.register(a)
        repository.register(b)
        count = repository.store_matches(
            "a",
            "b",
            [Correspondence("a.x", "b.x", 0.7), Correspondence("a.y", "b.y", 0.6)],
            asserted_by="engine",
        )
        assert count == 2
        assert len(repository.matches()) == 2

    def test_round_trip_preserves_correspondence_fields(self, repository):
        a, b = small_schema("a", ["x"]), small_schema("b", ["y"])
        repository.register(a)
        repository.register(b)
        original = Correspondence(
            "a.x", "b.y", 0.42, status=MatchStatus.ACCEPTED, note="checked"
        )
        repository.store_match(
            "a", "b", original, asserted_by="alice",
            method=AssertionMethod.HUMAN_VALIDATED, context="planning",
        )
        stored = repository.matches()[0]
        assert stored.correspondence.score == pytest.approx(0.42)
        assert stored.correspondence.status is MatchStatus.ACCEPTED
        assert stored.provenance.method is AssertionMethod.HUMAN_VALIDATED
        assert stored.provenance.context == "planning"


class TestTrustPolicies:
    def test_confidence_gate(self):
        record = ProvenanceRecord(
            asserted_by="engine", method=AssertionMethod.AUTOMATIC, confidence=0.3
        )
        assert TrustPolicy(min_confidence=0.2).trusts(record)
        assert not TrustPolicy(min_confidence=0.5).trusts(record)

    def test_bi_policy_requires_human(self):
        automatic = ProvenanceRecord(
            asserted_by="engine", method=AssertionMethod.AUTOMATIC, confidence=0.9
        )
        human = ProvenanceRecord(
            asserted_by="alice", method=AssertionMethod.HUMAN_VALIDATED, confidence=0.9
        )
        policy = TrustPolicy.for_business_intelligence()
        assert not policy.trusts(automatic)
        assert policy.trusts(human)

    def test_search_policy_permissive(self):
        weak = ProvenanceRecord(
            asserted_by="engine", method=AssertionMethod.AUTOMATIC, confidence=0.15
        )
        assert TrustPolicy.for_search().trusts(weak)

    def test_asserter_whitelist(self):
        record = ProvenanceRecord(
            asserted_by="mallory", method=AssertionMethod.HUMAN_VALIDATED, confidence=0.9
        )
        assert not TrustPolicy(trusted_asserters=frozenset({"alice"})).trusts(record)

    def test_composed_exclusion(self):
        composed = ProvenanceRecord(
            asserted_by="composer", method=AssertionMethod.COMPOSED, confidence=0.9
        )
        assert not TrustPolicy(allow_composed=False).trusts(composed)

    def test_policy_filter_in_query(self, repository):
        a, b = small_schema("a", ["x"]), small_schema("b", ["y"])
        repository.register(a)
        repository.register(b)
        repository.store_match(
            "a", "b", Correspondence("a.x", "b.y", 0.1), asserted_by="engine"
        )
        repository.store_match(
            "a", "b", Correspondence("a.x", "b.y", 0.9), asserted_by="alice",
            method=AssertionMethod.HUMAN_VALIDATED,
        )
        trusted = repository.matches(policy=TrustPolicy.for_business_intelligence())
        assert len(trusted) == 1
        assert trusted[0].provenance.asserted_by == "alice"

    def test_provenance_validation(self):
        with pytest.raises(ValueError):
            ProvenanceRecord(asserted_by="", method=AssertionMethod.AUTOMATIC, confidence=0.5)
        with pytest.raises(ValueError):
            ProvenanceRecord(asserted_by="a", method=AssertionMethod.AUTOMATIC, confidence=2.0)


class TestReuse:
    def _pivot_setup(self, repository):
        a = small_schema("a", ["x"])
        b = small_schema("b", ["x"])
        c = small_schema("c", ["x"])
        for schema in (a, b, c):
            repository.register(schema)
        repository.store_match(
            "a", "b", Correspondence("a.x", "b.x", 0.8), asserted_by="alice"
        )
        repository.store_match(
            "b", "c", Correspondence("b.x", "c.x", 0.6), asserted_by="alice"
        )

    def test_composition_via_pivot(self, repository):
        self._pivot_setup(repository)
        composed = compose_matches(repository, "a", "c")
        assert len(composed) == 1
        assert composed[0].pair == ("a.x", "c.x")
        assert composed[0].score == pytest.approx(0.6)  # min of the legs

    def test_composition_direction_flips(self, repository):
        self._pivot_setup(repository)
        composed = compose_matches(repository, "c", "a")
        assert composed[0].pair == ("c.x", "a.x")

    def test_rejected_legs_ignored(self, repository):
        a = small_schema("a", ["x"])
        b = small_schema("b", ["x"])
        c = small_schema("c", ["x"])
        for schema in (a, b, c):
            repository.register(schema)
        repository.store_match(
            "a", "b",
            Correspondence("a.x", "b.x", 0.8, status=MatchStatus.REJECTED),
            asserted_by="alice",
        )
        repository.store_match(
            "b", "c", Correspondence("b.x", "c.x", 0.6), asserted_by="alice"
        )
        assert compose_matches(repository, "a", "c") == []

    def test_reuse_candidates_can_store(self, repository):
        self._pivot_setup(repository)
        candidates = reuse_candidates(repository, "a", "c", store=True)
        assert len(candidates) == 1
        stored = repository.matches(source_schema="a", target_schema="c")
        assert stored[0].provenance.method is AssertionMethod.COMPOSED


class TestMatchGeneration:
    def test_bumps_on_every_match_mutation(self, repository):
        a, b = small_schema("a", ["x"]), small_schema("b", ["y"])
        repository.register(a)
        repository.register(b)
        before = repository.match_generation
        repository.store_match(
            "a", "b", Correspondence("a.x", "b.y", 0.5), asserted_by="alice"
        )
        after_single = repository.match_generation
        assert after_single > before
        repository.store_matches(
            "a", "b", [Correspondence("a.x", "b.y", 0.6)], asserted_by="bob"
        )
        after_bulk = repository.match_generation
        assert after_bulk > after_single
        repository.unregister("b")  # the cascade deletes matches
        assert repository.match_generation > after_bulk

    def test_empty_bulk_store_does_not_bump(self, repository):
        a, b = small_schema("a", ["x"]), small_schema("b", ["y"])
        repository.register(a)
        repository.register(b)
        before = repository.match_generation
        assert repository.store_matches("a", "b", [], asserted_by="alice") == 0
        assert repository.match_generation == before

    def test_schema_registration_does_not_bump(self, repository):
        before = repository.match_generation
        repository.register(small_schema("a", ["x"]))
        assert repository.match_generation == before


class TestMatchesBetween:
    def test_both_orientations(self, repository):
        a, b, c = (small_schema(n, ["x"]) for n in "abc")
        for schema in (a, b, c):
            repository.register(schema)
        repository.store_match(
            "a", "b", Correspondence("a.x", "b.x", 0.5), asserted_by="alice"
        )
        repository.store_match(
            "b", "a", Correspondence("b.x", "a.x", 0.6), asserted_by="alice"
        )
        repository.store_match(
            "a", "c", Correspondence("a.x", "c.x", 0.7), asserted_by="alice"
        )
        between = repository.matches_between("a", "b")
        assert len(between) == 2
        assert {m.source_schema for m in between} == {"a", "b"}
        assert repository.matches_between("b", "c") == []
        # Agrees with the Python-side filter over the full pool.
        pool = repository.matches()
        assert between == [
            m
            for m in pool
            if {m.source_schema, m.target_schema} == {"a", "b"}
        ]


class TestSqliteMigrationIdempotency:
    """Era'd stores must migrate in place, twice, without data loss.

    ``pr1``: before the correspondence asserter was persisted separately
    (no ``corr_asserted_by`` column) and before corpus fingerprints.
    ``pr2``: the asserter column exists; fingerprint tables do not.
    ``pr3``: fingerprints exist; the mapping-network-era pair indexes
    do not.

    Every era predates the clocks table and the pooled backend, so each
    file is also a rollback-journal store switched to WAL on first open.
    """

    _BASE_MATCHES = (
        "CREATE TABLE matches ("
        " id INTEGER PRIMARY KEY AUTOINCREMENT,"
        " source_schema TEXT NOT NULL, target_schema TEXT NOT NULL,"
        " source_element TEXT NOT NULL, target_element TEXT NOT NULL,"
        " score REAL NOT NULL, status TEXT NOT NULL,"
        " annotation TEXT NOT NULL, note TEXT NOT NULL,"
        "{corr_asserted_by}"
        " asserted_by TEXT NOT NULL, method TEXT NOT NULL,"
        " confidence REAL NOT NULL, sequence INTEGER NOT NULL,"
        " context TEXT NOT NULL, prov_note TEXT NOT NULL)"
    )

    def _seed_era_db(self, path, era):
        import sqlite3

        from repro.schema import schema_to_dict

        connection = sqlite3.connect(path)
        connection.execute(
            "CREATE TABLE schemata (name TEXT PRIMARY KEY, payload TEXT NOT NULL)"
        )
        has_corr_column = era != "pr1"
        connection.execute(
            self._BASE_MATCHES.format(
                corr_asserted_by=(
                    " corr_asserted_by TEXT NOT NULL DEFAULT ''," if has_corr_column else ""
                )
            )
        )
        import json

        for name in ("a", "b"):
            connection.execute(
                "INSERT INTO schemata (name, payload) VALUES (?, ?)",
                (name, json.dumps(schema_to_dict(small_schema(name, ["x"])))),
            )
        row = ("a", "b", "a.x", "b.x", 0.8, "candidate", "equivalent", "")
        tail = ("alice", "automatic", 0.8, 1, "general", "")
        if has_corr_column:
            connection.execute(
                "INSERT INTO matches (source_schema, target_schema, source_element,"
                " target_element, score, status, annotation, note, corr_asserted_by,"
                " asserted_by, method, confidence, sequence, context, prov_note)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                row + ("alice",) + tail,
            )
        else:
            connection.execute(
                "INSERT INTO matches (source_schema, target_schema, source_element,"
                " target_element, score, status, annotation, note,"
                " asserted_by, method, confidence, sequence, context, prov_note)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                row + tail,
            )
        if era == "pr3":
            connection.execute(
                "CREATE TABLE corpus_fingerprints ("
                " name TEXT PRIMARY KEY, payload TEXT NOT NULL)"
            )
            connection.execute(
                "INSERT INTO corpus_fingerprints (name, payload) VALUES (?, ?)",
                ("a", json.dumps({"format_version": 1, "hash": "h", "terms": {}})),
            )
        connection.commit()
        connection.close()

    @pytest.mark.parametrize("era", ["pr1", "pr2", "pr3"])
    def test_open_twice_migrates_without_data_loss(self, tmp_path, era):
        import sqlite3

        path = str(tmp_path / f"{era}.db")
        self._seed_era_db(path, era)
        for round_trip in range(2):
            with MetadataRepository(path=path) as repository:
                assert repository.schema_names() == ["a", "b"]
                assert len(repository.schema("a")) == 2
                matches = repository.matches()
                assert len(matches) == 1 + round_trip
                assert matches[0].correspondence.pair == ("a.x", "b.x")
                assert matches[0].correspondence.asserted_by == "alice"
                assert matches[0].provenance.sequence == 1
                if era == "pr3":
                    assert repository.get_fingerprint("a") is not None
                # Clocks start at zero on the migrating open and persist
                # from then on: the first round's store_match moved
                # match_generation, the reopen still sees it.
                assert repository.clocks() == (0, round_trip)
                # The store stays writable after migration; the sequence
                # counter continues from the persisted maximum.
                stored = repository.store_match(
                    "a", "b",
                    Correspondence("a.x", "b.x", 0.5 + round_trip / 10),
                    asserted_by="bob",
                )
                assert stored.provenance.sequence == 2 + round_trip
        connection = sqlite3.connect(path)
        names = {
            row[0]
            for row in connection.execute(
                "SELECT name FROM sqlite_master WHERE type IN ('table', 'index')"
            )
        }
        connection.close()
        assert "corpus_fingerprints" in names
        assert "idx_matches_schema_pair" in names
        assert "idx_matches_target_schema" in names


class TestSqlitePersistence:
    def test_survives_reopen(self, tmp_path, sample_relational):
        path = str(tmp_path / "persistent.db")
        with MetadataRepository(path=path) as repo:
            repo.register(sample_relational)
            repo.register(small_schema("other", ["x"]))
            repo.store_match(
                "SA_sample", "other",
                Correspondence("person_master", "other.x", 0.5),
                asserted_by="alice",
            )
        with MetadataRepository(path=path) as reopened:
            assert len(reopened) == 2
            assert len(reopened.matches()) == 1
            # Sequence counter continues after the stored maximum.
            stored = reopened.store_match(
                "SA_sample", "other",
                Correspondence("person_master", "other.x", 0.6),
                asserted_by="bob",
            )
            assert stored.provenance.sequence == 2


class TestServiceResponsePersistence:
    """A persisted MatchResponse round-trips identically through both backends."""

    def _persist_through(self, path, sample_relational, sample_xml):
        from repro.schema import schema_to_dict
        from repro.service import MatchOptions, MatchService

        repository = MetadataRepository(path=path)
        service = MatchService(repository=repository)
        response = service.match_pair(
            sample_relational, sample_xml, options=MatchOptions(threshold=0.05)
        )
        stored_count = service.persist(response)
        schemata = {
            name: schema_to_dict(repository.schema(name))
            for name in repository.schema_names()
        }
        return response, stored_count, schemata, repository

    def test_sqlite_round_trip_equals_memory(
        self, tmp_path, sample_relational, sample_xml
    ):
        memory_response, memory_count, memory_schemata, memory_repo = (
            self._persist_through(None, sample_relational, sample_xml)
        )
        path = str(tmp_path / "knowledge.db")
        sqlite_response, sqlite_count, sqlite_schemata, sqlite_repo = (
            self._persist_through(path, sample_relational, sample_xml)
        )
        assert memory_count == sqlite_count > 0
        # The response envelopes are identical up to wall time (matching is
        # deterministic; elapsed_seconds is the one measured field) ...
        from dataclasses import replace

        assert replace(memory_response, elapsed_seconds=0.0) == replace(
            sqlite_response, elapsed_seconds=0.0
        )
        # ... the serialised schemata are byte-identical across backends ...
        assert memory_schemata == sqlite_schemata
        # ... and every stored match (correspondence + provenance) agrees.
        assert memory_repo.matches() == sqlite_repo.matches()
        sqlite_repo.close()

        # Reopening the SQLite store reconstructs the same knowledge.
        with MetadataRepository(path=path) as reopened:
            assert reopened.matches() == memory_repo.matches()
            assert {
                name: len(reopened.schema(name)) for name in reopened.schema_names()
            } == {name: len(sample_relational) if name == "SA_sample" else len(sample_xml) for name in memory_repo.schema_names()}
        memory_repo.close()
