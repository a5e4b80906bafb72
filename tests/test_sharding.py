"""The sharded corpus subsystem: partitioned retrieval, bulk ingestion,
and the background refresh worker.

The load-bearing claims, each with the test that can fail it:

* sharded top-k retrieval returns EXACTLY the hits of the exhaustive
  reference engine (``tests/reference_bm25.py``) over one ``SchemaIndex``
  of the same registry --
  same names, same order, scores equal with ``==`` (stronger than the
  1e-9 the E21 bench asserts) -- for any shard count;
* a malformed stored payload is skipped by refresh, never indexed, and
  never fails a query;
* ``bulk_register_schemas`` / ``bulk_ingest`` land the same repository
  state as a ``register()`` loop, just in fewer transactions;
* the refresh worker keeps shards warm without ever being a correctness
  dependency: a query racing ahead of it (or running with no worker at
  all) still sees zero stale results, and the final state under a
  register/refresh/query hammer is exactly the serial rebuild's.
"""

from __future__ import annotations

import json
import logging
import random
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus import (
    CorpusIndex,
    CorpusRefreshWorker,
    RefreshWorkerStats,
    RejectedRecord,
    ShardStats,
    ShardedCorpusIndex,
    bulk_ingest,
    iter_schema_payloads,
    shard_of_name,
)
from repro.repository import MetadataRepository
from repro.schema.serialize import schema_from_dict, schema_to_dict
from repro.search import SchemaIndex, SchemaQuery
from repro.service import MatchService
from repro.service.requests import CorpusMatchRequest
from repro.synthetic import generate_enterprise_corpus, generate_scaled_corpus
from tests.reference_bm25 import ReferenceSearchEngine


@pytest.fixture(scope="module")
def corpus():
    return generate_enterprise_corpus(n_schemata=90, n_domains=6, seed=17)


@pytest.fixture()
def repository(corpus):
    repo = MetadataRepository()
    for name in corpus.names:
        repo.register(corpus.by_name(name).schema)
    return repo


def _reference(repository, query, limit, exclude=None):
    """Exhaustive reference top-k over one unsharded index of the registry."""
    index = SchemaIndex()
    for name in repository.schema_names():
        index.add(repository.schema(name), name=name)
    return ReferenceSearchEngine(index).search(
        SchemaQuery(query), limit=limit, exclude=exclude
    )


def _renamed(corpus, source_name: str, new_name: str):
    payload = schema_to_dict(corpus.by_name(source_name).schema)
    payload["name"] = new_name
    return schema_from_dict(payload)


class TestShardOfName:
    def test_in_range_and_stable(self):
        for name in ("orders", "D0S0", "schema/with:separators", ""):
            for n_shards in (1, 2, 7, 64):
                shard = shard_of_name(name, n_shards)
                assert 0 <= shard < n_shards
                assert shard == shard_of_name(name, n_shards)

    def test_single_shard_is_always_zero(self):
        assert shard_of_name("anything", 1) == 0

    def test_spreads_names_across_shards(self):
        counts = [0] * 8
        for i in range(800):
            counts[shard_of_name(f"schema-{i}", 8)] += 1
        # Uniform would be 100 each; hash-range keeps every shard populated.
        assert min(counts) > 50

    def test_rejects_non_positive_shard_counts(self):
        with pytest.raises(ValueError):
            shard_of_name("orders", 0)


class TestExactness:
    """Sharded retrieval == the reference search engine, bit for bit."""

    @pytest.mark.parametrize("n_shards", [1, 3, 8])
    def test_scores_equal_the_unsharded_engine(self, corpus, repository, n_shards):
        sharded = ShardedCorpusIndex(repository, n_shards=n_shards)
        for query_name in corpus.names[::9]:
            query = corpus.by_name(query_name).schema
            expected = _reference(repository, query, limit=8, exclude=query_name)
            actual = sharded.top_candidates(query, limit=8, exclude=query_name)
            assert [hit.schema_name for hit in actual] == [
                hit.schema_name for hit in expected
            ]
            for got, want in zip(actual, expected):
                assert got.score == want.score  # equality, not approx

    def test_one_shard_corpus_index_is_exact(self, corpus, repository):
        index = CorpusIndex(repository)
        assert index.n_shards == 1
        query = corpus.by_name("D3S2").schema
        assert index.top_candidates(
            query, limit=8, exclude="D3S2"
        ) == _reference(repository, query, limit=8, exclude="D3S2")

    def test_small_limits_and_exclude(self, corpus, repository):
        sharded = ShardedCorpusIndex(repository, n_shards=4)
        query = corpus.by_name("D0S0").schema
        for limit in (1, 2, 30):
            assert sharded.top_candidates(query, limit=limit) == _reference(
                repository, query, limit=limit
            )
        excluded = _reference(repository, query, limit=1)[0].schema_name
        assert sharded.top_candidates(
            query, limit=3, exclude=excluded
        ) == _reference(repository, query, limit=3, exclude=excluded)

    def test_rejects_non_positive_limit(self, repository, corpus):
        sharded = ShardedCorpusIndex(repository, n_shards=2)
        with pytest.raises(ValueError):
            sharded.top_candidates(corpus.by_name("D0S0").schema, limit=0)

    def test_empty_repository_returns_nothing(self, corpus):
        sharded = ShardedCorpusIndex(MetadataRepository(), n_shards=4)
        assert sharded.top_candidates(corpus.by_name("D0S0").schema) == []
        assert len(sharded) == 0 and sharded.names == []

    def test_scaled_corpus_dialects_stay_exact(self, ):
        # The E21 workload in miniature: dialected domains, shared facets.
        scaled = generate_scaled_corpus(120, schemata_per_domain=20)
        repo = MetadataRepository()
        for generated in scaled.schemata:
            repo.register(generated.schema)
        sharded = ShardedCorpusIndex(repo, n_shards=6)
        for query_name in scaled.names[::17]:
            query = scaled.by_name(query_name).schema
            assert sharded.top_candidates(
                query, limit=5, exclude=query_name
            ) == _reference(repo, query, limit=5, exclude=query_name)


class TestShardAssignment:
    def test_rejects_non_positive_shard_count(self, repository):
        with pytest.raises(ValueError):
            ShardedCorpusIndex(repository, n_shards=0)


class TestShardedLifecycle:
    def test_one_registration_rebuilds_one_shard(self, corpus, repository):
        sharded = ShardedCorpusIndex(repository, n_shards=4)
        sharded.refresh()
        before = [stats.n_refreshes for stats in sharded.shard_stats()]
        repository.register(_renamed(corpus, "D0S0", "ZNEWCOMER"))
        assert sharded.is_stale()
        refresh = sharded.refresh()
        assert refresh.n_added == 1 and not sharded.is_stale()
        after = [stats.n_refreshes for stats in sharded.shard_stats()]
        rebuilt = [i for i in range(4) if after[i] > before[i]]
        assert rebuilt == [shard_of_name("ZNEWCOMER", 4)]

    def test_unregister_is_removed_from_its_shard(self, corpus, repository):
        sharded = ShardedCorpusIndex(repository, n_shards=4)
        sharded.refresh()
        repository.unregister("D0S0")
        refresh = sharded.refresh()
        assert refresh.n_removed == 1
        assert "D0S0" not in sharded.names
        assert len(sharded) == len(repository)

    def test_monitoring_reads_never_refresh(self, corpus, repository):
        sharded = ShardedCorpusIndex(repository, n_shards=4)
        assert sharded.n_indexed() == 0        # nothing published yet
        assert all(s.n_indexed == 0 for s in sharded.shard_stats())
        sharded.refresh()
        repository.register(_renamed(corpus, "D0S0", "ZNEWCOMER"))
        assert sharded.n_indexed() == 90       # still the published snapshot
        assert len(sharded) == 91              # len() refreshes first

    def test_shards_partition_the_corpus(self, corpus, repository):
        sharded = ShardedCorpusIndex(repository, n_shards=5)
        sharded.refresh()
        stats = sharded.shard_stats()
        assert sum(s.n_indexed for s in stats) == 90
        assert sorted(sharded.names) == sorted(repository.schema_names())


class TestBulkRegister:
    def test_matches_a_register_loop_exactly(self, corpus):
        loop_repo, bulk_repo = MetadataRepository(), MetadataRepository()
        schemas = [corpus.by_name(name).schema for name in corpus.names[:30]]
        for schema in schemas:
            loop_repo.register(schema)
        written = bulk_repo.bulk_register_schemas(schemas, chunk_size=7)
        assert written == 30
        assert bulk_repo.schema_names() == loop_repo.schema_names()
        assert bulk_repo.generation == loop_repo.generation
        for name in loop_repo.schema_names():
            assert bulk_repo.schema_payload(name) == loop_repo.schema_payload(name)

    def test_identical_payloads_are_skipped(self, corpus, repository):
        generation = repository.generation
        schemas = [corpus.by_name(name).schema for name in corpus.names[:10]]
        written = repository.bulk_register_schemas(schemas)
        assert written == 0
        assert repository.generation == generation

    def test_duplicates_collapse_to_the_last_occurrence(self, corpus):
        repo = MetadataRepository()
        payload_v1 = schema_to_dict(corpus.by_name("D0S0").schema)
        payload_v2 = schema_to_dict(corpus.by_name("D0S1").schema)
        payload_v2["name"] = "D0S0"
        written = repo.bulk_register_schemas(
            [("D0S0", payload_v1), ("D0S0", payload_v2)]
        )
        assert written == 1
        assert repo.schema_payload("D0S0") == payload_v2

    def test_rejects_non_positive_chunk_size(self, corpus):
        with pytest.raises(ValueError):
            MetadataRepository().bulk_register_schemas(
                [corpus.by_name("D0S0").schema], chunk_size=0
            )


class TestIngest:
    def _jsonl(self, corpus, path, names, wrap_every=2):
        with path.open("w") as handle:
            for i, name in enumerate(names):
                payload = schema_to_dict(corpus.by_name(name).schema)
                line = (
                    {"name": name, "schema": payload} if i % wrap_every else payload
                )
                handle.write(json.dumps(line) + "\n")
        return path

    def test_jsonl_and_directory_loaders(self, corpus, tmp_path):
        jsonl = self._jsonl(corpus, tmp_path / "c.jsonl", corpus.names[:8])
        assert [name for name, _ in iter_schema_payloads(jsonl)] == corpus.names[:8]
        directory = tmp_path / "schemas"
        directory.mkdir()
        for name in corpus.names[:3]:
            (directory / f"{name}.json").write_text(
                json.dumps(schema_to_dict(corpus.by_name(name).schema))
            )
        assert len(list(iter_schema_payloads(directory))) == 3

    def test_missing_path_fails_and_nameless_payload_is_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            list(iter_schema_payloads(tmp_path / "nope.jsonl"))
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"elements": []}\n')
        [record] = iter_schema_payloads(bad)
        assert isinstance(record, RejectedRecord)
        assert record.source == f"{bad}:1"
        assert "has no name" in record.reason

    def test_ingest_warms_the_index(self, corpus, tmp_path):
        jsonl = self._jsonl(corpus, tmp_path / "c.jsonl", corpus.names[:20])
        repo = MetadataRepository()
        report = bulk_ingest(repo, iter_schema_payloads(jsonl))
        assert report.n_read == report.n_written == report.n_fingerprinted == 20
        assert report.schemata_per_second > 0
        refresh = CorpusIndex(repo).refresh()
        assert refresh.n_derived == 0 and refresh.n_from_fingerprints == 20
        # Re-ingesting the identical corpus is a no-op.
        again = bulk_ingest(repo, iter_schema_payloads(jsonl))
        assert again.n_written == 0 and again.n_skipped == 20

    def test_fingerprints_can_be_deferred(self, corpus):
        repo = MetadataRepository()
        schemas = [corpus.by_name(name).schema for name in corpus.names[:5]]
        report = bulk_ingest(repo, schemas, fingerprint=False)
        assert report.n_fingerprinted == 0
        refresh = CorpusIndex(repo).refresh()
        assert refresh.n_derived == 5  # derivation happened at refresh time

    def test_thread_executor_and_validation(self, corpus):
        # A two-process fan-out, and the rejection of a width below one.
        repo = MetadataRepository()
        schemas = [corpus.by_name(name).schema for name in corpus.names[:5]]
        report = bulk_ingest(repo, schemas, workers=2)
        assert report.n_written == 5
        with pytest.raises(ValueError, match="workers"):
            bulk_ingest(repo, schemas, workers=0)


#: Stored payloads no refresh can fingerprint: wrong/missing format
#: version, a missing element key, an unknown enum value, a non-list.
_MALFORMED = {
    "BROKEN": {"name": "BROKEN", "elements": [{"bogus": 1}]},
    "BROKEN_KEY": {"format_version": 1, "name": "BROKEN_KEY", "elements": [{"bogus": 1}]},
    "BROKEN_KIND": {
        "format_version": 1,
        "name": "BROKEN_KIND",
        "elements": [{"id": "x", "name": "x", "kind": "no-such-kind"}],
    },
    "BROKEN_TYPE": {"format_version": 1, "name": "BROKEN_TYPE", "elements": 5},
}


class TestMalformedRecords:
    """One unreadable stored payload must not take corpus retrieval down."""

    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_queries_skip_malformed_records(self, corpus, n_shards):
        items = []
        malformed = iter(_MALFORMED.items())
        for position, name in enumerate(corpus.names[:12]):
            items.append((name, schema_to_dict(corpus.by_name(name).schema)))
            if position % 3 == 2:
                items.append(next(malformed))
        repo = MetadataRepository()
        # Stored through the unvalidated store path (bulk_ingest rejects
        # these records): a store written by other means can hold them.
        assert repo.bulk_register_schemas(items) == 16
        service = MatchService(repository=repo, corpus_shards=n_shards)
        refresh = service.corpus_index().refresh()
        assert refresh.n_skipped == 4 and refresh.n_indexed == 12
        assert set(_MALFORMED).isdisjoint(service.corpus_index().names)
        assert repo.fingerprint_names() == sorted(corpus.names[:12])
        response = service.corpus_match(
            CorpusMatchRequest(source=corpus.names[0], top_k=3)
        )
        assert response.candidates
        assert set(_MALFORMED).isdisjoint(
            candidate.target_name for candidate in response.candidates
        )

    def test_a_repaired_record_is_indexed_on_the_next_refresh(self, corpus, caplog):
        repo = MetadataRepository()
        for name in corpus.names[:4]:
            repo.register(corpus.by_name(name).schema)
        repo.bulk_register_schemas([("BROKEN", _MALFORMED["BROKEN"])])
        index = CorpusIndex(repo)
        with caplog.at_level(logging.WARNING, logger="repro.corpus.index"):
            assert index.refresh().n_skipped == 1
            # An unrelated write refreshes the shard again: the unchanged
            # broken payload stays skipped without being re-parsed.
            repo.register(_renamed(corpus, "D0S1", "ZOTHER"))
            assert index.refresh().n_skipped == 1
        assert [r.getMessage().count("'BROKEN'") for r in caplog.records] == [1]
        repo.register(_renamed(corpus, "D0S0", "BROKEN"))
        refresh = index.refresh()
        assert refresh.n_skipped == 0 and refresh.n_derived == 1
        assert "BROKEN" in index.names


#: JSONL lines no ingest may store: not JSON, not an object, no name, a
#: wrapper around a non-object, and every stored-payload shape above.
_MALFORMED_LINES = [
    '{"name": "TRUNCATED", "elements": [',
    "[1, 2, 3]",
    '{"format_version": 1, "elements": []}',
    '{"name": "WRAPPED", "schema": 5}',
    *(json.dumps(payload) for payload in _MALFORMED.values()),
]


class TestIngestPoisonPill:
    """Malformed records interleaved among valid ones: every valid record
    is stored, no malformed one is, and each is reported by source."""

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize(
        "workers", [pytest.param(1, id="serial"), pytest.param(2, id="process")]
    )
    @pytest.mark.parametrize("fingerprint", [True, False])
    def test_fuzzed_jsonl(self, corpus, tmp_path, fingerprint, workers, seed):
        case_id = "serial" if workers == 1 else "process"
        rng = random.Random(f"{seed}:{case_id}:{fingerprint}")  # inputs per case
        valid = rng.sample(corpus.names, 12)
        lines = [json.dumps(schema_to_dict(corpus.by_name(n).schema)) for n in valid]
        for bad in _MALFORMED_LINES:
            lines.insert(rng.randrange(len(lines) + 1), bad)
        jsonl = tmp_path / "fuzz.jsonl"
        jsonl.write_text("\n".join(lines) + "\n")
        bad_sources = {
            f"{jsonl}:{number}"
            for number, line in enumerate(lines, start=1)
            if line in _MALFORMED_LINES
        }

        repo = MetadataRepository()
        report = bulk_ingest(
            repo,
            iter_schema_payloads(jsonl),
            workers=workers,
            fingerprint=fingerprint,
        )
        assert report.n_read == len(lines)
        assert report.n_written == len(valid)
        assert report.n_fingerprinted == (len(valid) if fingerprint else 0)
        assert {record.source for record in report.rejected} == bad_sources
        assert all(record.reason for record in report.rejected)
        assert sorted(repo.schema_names()) == sorted(valid)
        for name in valid:
            assert repo.schema(name).name == name
        refresh = CorpusIndex(repo).refresh()
        assert refresh.n_skipped == 0 and refresh.n_indexed == len(valid)
        assert refresh.n_derived == (0 if fingerprint else len(valid))
        assert json.loads(json.dumps(report.to_dict()))["rejected"] == [
            record._asdict() for record in report.rejected
        ]

    def test_in_memory_items_are_rejected_by_position(self, corpus):
        items = [
            (name, schema_to_dict(corpus.by_name(name).schema))
            for name in corpus.names[:3]
        ]
        items.insert(1, ("BROKEN", _MALFORMED["BROKEN"]))
        report = bulk_ingest(MetadataRepository(), items)
        assert report.n_written == 3
        assert [record[:2] for record in report.rejected] == [("item 2", "BROKEN")]

    def test_cli_reports_rejections_and_exits_1(self, corpus, tmp_path, capsys):
        from repro.cli import main

        jsonl = tmp_path / "mixed.jsonl"
        jsonl.write_text(
            json.dumps(schema_to_dict(corpus.by_name(corpus.names[0]).schema))
            + "\n" + json.dumps(_MALFORMED["BROKEN"]) + "\n"
        )
        db = str(tmp_path / "mixed.db")
        assert main(["ingest", str(jsonl), "--db", db]) == 1
        out = capsys.readouterr().out
        assert "1 rejected" in out and f"rejected {jsonl}:2 (BROKEN)" in out
        assert main(["ingest", str(jsonl), "--db", db, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert [record["source"] for record in payload["rejected"]] == [f"{jsonl}:2"]
        with MetadataRepository(path=db) as repo:
            assert repo.schema_names() == [corpus.names[0]]



class TestRefreshWorker:
    def test_keeps_the_index_fresh(self, corpus, repository):
        sharded = ShardedCorpusIndex(repository, n_shards=3)
        worker = CorpusRefreshWorker(sharded, interval=0.05)
        worker.start()
        try:
            repository.register(_renamed(corpus, "D0S0", "ZLATE"))
            worker.request_refresh()
            deadline = threading.Event()
            for _ in range(200):
                if not sharded.is_stale():
                    break
                deadline.wait(0.02)
            assert not sharded.is_stale()
            stats = worker.stats()
            assert stats.running and stats.n_refreshes >= 1 and stats.n_errors == 0
        finally:
            worker.stop()
        assert not worker.running

    def test_start_is_idempotent_and_stop_is_safe_twice(self, repository):
        worker = CorpusRefreshWorker(ShardedCorpusIndex(repository), interval=0.1)
        assert worker.start() is worker.start()
        worker.stop()
        worker.stop()
        assert not worker.running

    def test_survives_a_failing_refresh(self, repository):
        class Exploding:
            def is_stale(self):
                return True

            def refresh(self):
                raise RuntimeError("backend went away")

        worker = CorpusRefreshWorker(Exploding(), interval=0.02)
        worker.start()
        try:
            for _ in range(100):
                if worker.stats().n_errors >= 2:
                    break
                threading.Event().wait(0.02)
            stats = worker.stats()
            assert stats.n_errors >= 2 and stats.running
            assert "backend went away" in stats.last_error
        finally:
            worker.stop()

    def test_rejects_non_positive_interval(self, repository):
        with pytest.raises(ValueError):
            CorpusRefreshWorker(ShardedCorpusIndex(repository), interval=0)


class TestConcurrencyHammer:
    """Registrations racing the worker racing queries; end state == serial."""

    def test_hammer_converges_to_the_serial_state(self, corpus):
        repo = MetadataRepository()
        for name in corpus.names[:45]:
            repo.register(corpus.by_name(name).schema)
        sharded = ShardedCorpusIndex(repo, n_shards=4)
        worker = CorpusRefreshWorker(sharded, interval=0.01)
        worker.start()
        errors: list[BaseException] = []
        go = threading.Event()

        def registrar():
            go.wait()
            try:
                for name in corpus.names[45:]:
                    repo.register(corpus.by_name(name).schema)
                    worker.request_refresh()
            except BaseException as exc:  # pragma: no cover - diagnostics
                errors.append(exc)

        def querier():
            go.wait()
            try:
                for _ in range(40):
                    hits = sharded.top_candidates(
                        corpus.by_name("D0S0").schema, limit=5, exclude="D0S0"
                    )
                    assert len(hits) > 0
            except BaseException as exc:  # pragma: no cover - diagnostics
                errors.append(exc)

        threads = [threading.Thread(target=registrar)] + [
            threading.Thread(target=querier) for _ in range(3)
        ]
        for thread in threads:
            thread.start()
        go.set()
        for thread in threads:
            thread.join()
        worker.stop()
        assert errors == []
        # Convergence: the hammered index equals a from-scratch serial build.
        sharded.refresh()
        assert len(sharded) == len(repo) == 90
        query = corpus.by_name("D0S0").schema
        assert sharded.top_candidates(
            query, limit=8, exclude="D0S0"
        ) == _reference(repo, query, limit=8, exclude="D0S0")


class TestStatsRoundTrips:
    @given(
        shard=st.integers(min_value=0, max_value=255),
        n_indexed=st.integers(min_value=0, max_value=10**6),
        built_generation=st.none() | st.integers(min_value=0, max_value=10**9),
        n_refreshes=st.integers(min_value=0, max_value=10**6),
        last_refresh_seconds=st.floats(
            min_value=0, allow_nan=False, allow_infinity=False
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_shard_stats(
        self, shard, n_indexed, built_generation, n_refreshes, last_refresh_seconds
    ):
        stats = ShardStats(
            shard=shard,
            n_indexed=n_indexed,
            built_generation=built_generation,
            n_refreshes=n_refreshes,
            last_refresh_seconds=last_refresh_seconds,
        )
        assert ShardStats.from_dict(json.loads(json.dumps(stats.to_dict()))) == stats

    @given(
        running=st.booleans(),
        interval_seconds=st.floats(
            min_value=0.001, allow_nan=False, allow_infinity=False
        ),
        n_cycles=st.integers(min_value=0, max_value=10**9),
        n_refreshes=st.integers(min_value=0, max_value=10**9),
        n_errors=st.integers(min_value=0, max_value=10**9),
        last_refresh_seconds=st.floats(
            min_value=0, allow_nan=False, allow_infinity=False
        ),
        last_error=st.text(max_size=80),
    )
    @settings(max_examples=40, deadline=None)
    def test_worker_stats(
        self,
        running,
        interval_seconds,
        n_cycles,
        n_refreshes,
        n_errors,
        last_refresh_seconds,
        last_error,
    ):
        stats = RefreshWorkerStats(
            running=running,
            interval_seconds=interval_seconds,
            n_cycles=n_cycles,
            n_refreshes=n_refreshes,
            n_errors=n_errors,
            last_refresh_seconds=last_refresh_seconds,
            last_error=last_error,
        )
        assert (
            RefreshWorkerStats.from_dict(json.loads(json.dumps(stats.to_dict())))
            == stats
        )


class TestServiceIntegration:
    def test_corpus_match_is_identical_with_shards(self, corpus, repository):
        flat = MatchService(repository=repository)
        sharded = MatchService(repository=repository, corpus_shards=4)
        request = CorpusMatchRequest(source="D1S0", top_k=3)
        expected = flat.corpus_match(request)
        actual = sharded.corpus_match(request)
        assert [c.target_name for c in actual.candidates] == [
            c.target_name for c in expected.candidates
        ]
        for got, want in zip(actual.candidates, expected.candidates):
            assert got.retrieval_score == want.retrieval_score
            assert got.match_score == want.match_score

    def test_corpus_status_reports_shards_and_worker(self, repository):
        service = MatchService(repository=repository, corpus_shards=3)
        assert service.corpus_status() == {"initialized": False}
        service.start_corpus_refresh(interval=0.1)
        try:
            status = service.corpus_status()
            assert status["initialized"] and status["n_shards"] == 3
            assert len(status["shards"]) == 3
            assert status["refresh_worker"]["running"] is True
            assert RefreshWorkerStats.from_dict(status["refresh_worker"])
        finally:
            service.stop_corpus_refresh()
        assert "refresh_worker" not in service.corpus_status()

    def test_default_service_status_reports_one_shard(self, repository):
        service = MatchService(repository=repository)
        service.corpus_index().refresh()
        status = service.corpus_status()
        assert status["initialized"] and status["n_shards"] == 1
        assert [shard["n_indexed"] for shard in status["shards"]] == [90]
        assert status["n_indexed"] == 90

    def test_service_validates_corpus_shards(self, repository):
        with pytest.raises(ValueError):
            MatchService(repository=repository, corpus_shards=0)

    def test_healthz_payload_carries_the_corpus_section(self, repository):
        from repro.server.app import MatchServer, ServeConfig

        service = MatchService(repository=repository, corpus_shards=2)
        server = MatchServer(service, ServeConfig(port=0))
        try:
            payload = server.healthz_payload()
            assert payload["corpus"] == {"initialized": False}
            service.corpus_index().refresh()
            assert server.healthz_payload()["corpus"]["n_shards"] == 2
            assert server.metrics_payload()["corpus"]["initialized"] is True
        finally:
            server.server_close()
