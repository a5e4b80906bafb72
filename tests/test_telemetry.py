"""The telemetry subsystem: spans, histograms, fleet stats, trace logs.

Unit level: the tracer's span trees (nesting, validation, sampling), the
fixed-bucket latency histograms (quantiles, exact merges), the mmap-ready
stats board (record/snapshot/aggregate), and the slow-request trace log
(write/read/summarise).

Integration level: traces threaded through MatchService and over HTTP
(envelope ``trace`` block, ``X-Harmonia-Trace`` header, client stamping),
``/metrics`` under a concurrent thread-pool hammer (no lost updates:
histogram counts must equal requests served), prefork fleet aggregation
(any worker's ``/metrics`` fleet totals equal the sum of per-worker
totals), and the ``repro trace`` CLI over a real ``--trace-log`` file.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.repository import MetadataRepository
from repro.server import MatchServer, MatchServiceClient
from repro.service import (
    MatchOptions,
    MatchRequest,
    MatchResponse,
    MatchService,
)
from repro.synthetic import generate_clustered_corpus
from repro.telemetry import (
    BUCKET_BOUNDS_SECONDS,
    N_BUCKETS,
    FleetStats,
    LatencyHistogram,
    StatsBoard,
    Trace,
    TraceLogWriter,
    Tracer,
    activate_trace,
    aggregate_snapshots,
    bucket_index,
    current_trace,
    read_trace_log,
    span,
    stage_totals,
    summarize_trace_log,
    validate_trace,
)


# ----------------------------------------------------------------------
# Tracer: span trees
# ----------------------------------------------------------------------
class TestTracer:
    def test_nested_spans_form_a_valid_tree(self):
        trace = Tracer().start()
        with activate_trace(trace):
            with span("service.match"):
                with span("route.compile", route="exact"):
                    pass
                with span("engine.score"):
                    pass
        payload = trace.to_dict()
        assert validate_trace(payload) == []
        kinds = [entry["kind"] for entry in payload["spans"]]
        assert kinds == ["service.match", "route.compile", "engine.score"]
        root = payload["spans"][0]
        assert root["parent"] is None
        assert payload["spans"][1]["parent"] == 0
        assert payload["spans"][1]["attrs"] == {"route": "exact"}
        assert payload["spans"][2]["parent"] == 0

    def test_span_without_active_trace_is_a_noop(self):
        assert current_trace() is None
        with span("engine.score") as entered:
            # The null span accepts annotations and nesting silently.
            entered.annotate(ignored=True)
            with span("cache.get"):
                pass
        assert current_trace() is None

    def test_disabled_tracer_starts_nothing(self):
        tracer = Tracer(enabled=False)
        assert tracer.start() is None
        assert tracer.sample() is False

    def test_sampling_quota_is_deterministic(self):
        tracer = Tracer(sample_rate=0.25)
        admitted = [tracer.sample() for _ in range(8)]
        assert sum(admitted) == 2
        # The pattern is a pure function of the arrival index.
        again = Tracer(sample_rate=0.25)
        assert [again.sample() for _ in range(8)] == admitted

    def test_validate_trace_flags_broken_trees(self):
        assert validate_trace({"spans": []})  # no id, no spans
        bad_parent = {
            "trace_id": "t",
            "total_seconds": 1.0,
            "spans": [
                {"kind": "a", "parent": None, "start_seconds": 0.0, "seconds": 1.0},
                {"kind": "b", "parent": 7, "start_seconds": 0.1, "seconds": 0.1},
            ],
        }
        assert any("parent" in problem for problem in validate_trace(bad_parent))

    def test_stage_totals_sums_by_kind(self):
        trace = Tracer().start()
        with activate_trace(trace):
            with span("service.match"):
                with span("engine.score"):
                    pass
                with span("engine.score"):
                    pass
        totals = stage_totals(trace.to_dict())
        assert set(totals) == {"service.match", "engine.score"}
        assert totals["engine.score"] >= 0.0
        assert totals["service.match"] >= totals["engine.score"]


# ----------------------------------------------------------------------
# Histograms
# ----------------------------------------------------------------------
class TestHistogram:
    def test_bucket_index_brackets_the_bounds(self):
        assert bucket_index(0.0) == 0
        assert bucket_index(BUCKET_BOUNDS_SECONDS[0]) == 1
        assert bucket_index(999.0) == N_BUCKETS - 1

    def test_observe_and_quantiles(self):
        histogram = LatencyHistogram()
        for _ in range(98):
            histogram.observe(0.002)
        histogram.observe(4.0)
        histogram.observe(4.0)
        snapshot = histogram.to_dict()
        assert snapshot["count"] == 100
        assert sum(snapshot["buckets"]) == 100
        # p50 interpolates inside the (0.001, 0.0025] bucket.
        assert 0.001 <= snapshot["p50"] <= 0.0025
        # The 99th rank lands on the two slow observations.
        assert snapshot["p99"] > 2.0

    def test_merge_is_exact_bucket_addition(self):
        left, right = LatencyHistogram(), LatencyHistogram()
        for value in (0.001, 0.02, 0.3):
            left.observe(value)
            right.observe(value)
        merged = LatencyHistogram()
        merged.merge(left)
        merged.merge(right)
        assert merged.to_dict()["count"] == 6
        assert merged.to_dict()["buckets"] == [
            a + b
            for a, b in zip(left.to_dict()["buckets"], right.to_dict()["buckets"])
        ]


# ----------------------------------------------------------------------
# The stats board and fleet aggregation
# ----------------------------------------------------------------------
class TestStatsBoard:
    def test_record_and_snapshot(self):
        board = StatsBoard()
        board.set_pid(123)
        board.record_endpoint("/match", 0.01, cache="miss")
        board.record_endpoint("/match", 0.02, cache="hit")
        board.record_endpoint("/nope", 0.01, error=True)
        snapshot = board.snapshot()
        assert snapshot["pid"] == 123
        match_block = snapshot["endpoints"]["/match"]
        assert match_block["requests"] == 2
        assert match_block["cache_hits"] == 1
        assert match_block["cache_misses"] == 1
        assert match_block["latency"]["count"] == 2
        assert snapshot["endpoints"]["(unknown)"]["errors"] == 1

    def test_record_trace_folds_span_kinds(self):
        board = StatsBoard()
        trace = Tracer().start()
        with activate_trace(trace):
            with span("service.match"):
                with span("engine.score"):
                    pass
        board.record_trace(trace.to_dict())
        spans = board.snapshot()["spans"]
        assert spans["service.match"]["count"] == 1
        assert spans["engine.score"]["count"] == 1

    def test_aggregate_sums_counters_and_buckets(self):
        boards = [StatsBoard(), StatsBoard()]
        for index, board in enumerate(boards):
            board.set_pid(index + 1)
            for _ in range(5 * (index + 1)):
                board.record_endpoint("/match", 0.005, cache="miss")
        totals = aggregate_snapshots([board.snapshot() for board in boards])
        assert totals["endpoints"]["/match"]["requests"] == 15
        assert totals["endpoints"]["/match"]["latency"]["count"] == 15

    def test_fleet_file_round_trip(self, tmp_path):
        path = str(tmp_path / "stats")
        FleetStats.create(path, n_workers=2)
        fleet = FleetStats.attach(path)
        try:
            for index in range(2):
                board = fleet.worker_board(index)
                board.set_pid(1000 + index)
                board.record_endpoint("/match", 0.01, cache="miss")
            # A SECOND attachment (another process in production) sees
            # both regions through the shared file.
            reader = FleetStats.attach(path)
            try:
                payload = reader.payload()
                assert payload["n_workers"] == 2
                assert len(payload["workers"]) == 2
                assert payload["totals"]["endpoints"]["/match"]["requests"] == 2
            finally:
                reader.close()
        finally:
            fleet.close()
        FleetStats.remove(path)
        assert not os.path.exists(path)


# ----------------------------------------------------------------------
# Trace log: write, read, summarise
# ----------------------------------------------------------------------
class TestTraceLog:
    def _trace_payload(self) -> dict:
        trace = Tracer().start()
        with activate_trace(trace):
            with span("service.match"):
                with span("engine.score"):
                    pass
        return trace.to_dict()

    def test_threshold_gates_writes(self, tmp_path):
        path = str(tmp_path / "slow.jsonl")
        writer = TraceLogWriter(path, slow_ms=50.0)
        try:
            assert not writer.maybe_write("/match", self._trace_payload(), 0.01)
            assert writer.maybe_write("/match", self._trace_payload(), 0.2)
        finally:
            writer.close()
        records = list(read_trace_log(path))
        assert len(records) == 1
        assert records[0]["endpoint"] == "/match"
        assert validate_trace(records[0]) == []

    def test_summary_shares_and_percentiles(self, tmp_path):
        path = str(tmp_path / "slow.jsonl")
        writer = TraceLogWriter(path, slow_ms=0.0)
        try:
            for _ in range(3):
                writer.maybe_write("/match", self._trace_payload(), 0.1)
        finally:
            writer.close()
        summary = summarize_trace_log(read_trace_log(path))
        assert summary["n_traces"] == 3
        assert summary["endpoints"] == {"/match": 3}
        assert "service.match" in summary["stages"]
        assert summary["stages"]["service.match"]["spans"] == 3

    def test_bad_json_names_the_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"trace_id": "x"}\nnot json\n')
        with pytest.raises(ValueError, match=r"bad\.jsonl:2"):
            list(read_trace_log(str(path)))


# ----------------------------------------------------------------------
# Service-level tracing
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def traced_service():
    corpus = generate_clustered_corpus(n_domains=2, schemata_per_domain=3, seed=7)
    repository = MetadataRepository()
    for generated in corpus.schemata:
        repository.register(generated.schema)
    service = MatchService(repository=repository)
    yield service, sorted(repository.schema_names())


class TestServiceTracing:
    def test_opt_in_returns_a_valid_span_tree(self, traced_service):
        service, names = traced_service
        response = service.match(
            MatchRequest(
                source=names[0], target=names[1],
                options=MatchOptions(trace=True),
            )
        )
        assert response.trace is not None
        assert validate_trace(response.trace) == []
        kinds = {entry["kind"] for entry in response.trace["spans"]}
        assert "service.match" in kinds
        assert "engine.score" in kinds or "runner.batch" in kinds

    def test_untraced_requests_carry_no_trace(self, traced_service):
        service, names = traced_service
        response = service.match(MatchRequest(source=names[0], target=names[1]))
        assert response.trace is None

    def test_trace_flag_never_changes_scores(self, traced_service):
        service, names = traced_service
        plain = service.match(MatchRequest(source=names[0], target=names[1]))
        traced = service.match(
            MatchRequest(
                source=names[0], target=names[1],
                options=MatchOptions(trace=True),
            )
        )
        assert [c.to_dict() for c in traced.correspondences] == [
            c.to_dict() for c in plain.correspondences
        ]

    def test_trace_survives_envelope_round_trip(self, traced_service):
        service, names = traced_service
        response = service.match(
            MatchRequest(
                source=names[0], target=names[1],
                options=MatchOptions(trace=True),
            )
        )
        rebuilt = MatchResponse.from_dict(json.loads(json.dumps(response.to_dict())))
        assert rebuilt.trace == response.trace


# ----------------------------------------------------------------------
# HTTP integration: headers, envelopes, concurrent metrics
# ----------------------------------------------------------------------
@pytest.fixture
def served(tmp_path):
    corpus = generate_clustered_corpus(n_domains=2, schemata_per_domain=3, seed=7)
    repository = MetadataRepository()
    for generated in corpus.schemata:
        repository.register(generated.schema)
    service = MatchService(repository=repository)
    server = MatchServer(
        service,
        port=0,
        trace_log=str(tmp_path / "slow.jsonl"),
        slow_ms=0.0,
    )
    worker = threading.Thread(target=server.serve_forever, daemon=True)
    worker.start()
    try:
        yield server, MatchServiceClient(server.url), sorted(
            repository.schema_names()
        )
    finally:
        server.shutdown()
        worker.join()
        server.server_close()


class TestHttpTracing:
    def test_opt_in_surfaces_header_and_envelope_fields(self, served):
        server, client, names = served
        response = client.match(
            MatchRequest(
                source=names[0], target=names[1],
                options=MatchOptions(trace=True),
            )
        )
        assert response.trace is not None
        assert validate_trace(response.trace) == []
        assert client.last_trace_id == response.trace["trace_id"]
        # Satellite: the client stamps transport headers onto the envelope.
        assert response.trace_id == response.trace["trace_id"]
        assert response.cache_status == "miss"

    def test_cache_hit_replays_the_stored_trace(self, served):
        server, client, names = served
        request = MatchRequest(
            source=names[0], target=names[1],
            options=MatchOptions(trace=True),
        )
        first = client.match(request)
        second = client.match(request)
        assert second.cache_status == "hit"
        assert second.trace == first.trace
        assert second.trace_id == first.trace_id

    def test_http_spans_include_cache_stages(self, served):
        server, client, names = served
        response = client.match(
            MatchRequest(
                source=names[0], target=names[1],
                options=MatchOptions(trace=True),
            )
        )
        # The envelope snapshot is taken before the response is cached, so
        # it sees cache.get but never cache.put ...
        kinds = {entry["kind"] for entry in response.trace["spans"]}
        assert "cache.get" in kinds
        assert "cache.put" not in kinds
        # ... while the slow-log copy of the SAME trace is serialised after
        # the full request and carries both cache stages.
        server.trace_writer.close()
        logged = list(read_trace_log(server.trace_writer.path))[-1]
        assert logged["trace_id"] == response.trace["trace_id"]
        logged_kinds = {entry["kind"] for entry in logged["spans"]}
        assert "cache.get" in logged_kinds
        assert "cache.put" in logged_kinds

    def test_slow_log_captures_the_request(self, served):
        server, client, names = served
        client.match(
            MatchRequest(
                source=names[0], target=names[1],
                options=MatchOptions(trace=True),
            )
        )
        server.trace_writer.close()
        records = list(read_trace_log(server.trace_writer.path))
        assert records, "slow_ms=0 must log every traced request"
        assert records[0]["endpoint"] == "/match"
        assert validate_trace(records[0]) == []

    def test_metrics_report_histograms_and_spans(self, served):
        server, client, names = served
        client.match(
            MatchRequest(
                source=names[0], target=names[1],
                options=MatchOptions(trace=True),
            )
        )
        metrics = client.metrics()
        match_block = metrics["endpoints"]["/match"]
        assert match_block["requests"] == 1
        assert match_block["latency"]["count"] == 1
        assert sum(match_block["latency"]["buckets"]) == 1
        assert metrics["latency_bucket_bounds"] == list(BUCKET_BOUNDS_SECONDS)
        assert metrics["spans"]["service.match"]["count"] == 1

    def test_healthz_reports_wall_clock_start(self, served):
        server, client, _ = served
        health = client.health()
        assert health["started_at_unix"] == pytest.approx(
            server.started_at_unix
        )
        assert health["started_at_unix"] > 1e9  # a real unix timestamp

    def test_concurrent_hammer_loses_no_updates(self, served):
        """Satellite: histogram counts equal requests served, exactly."""
        server, client, names = served
        n_threads, per_thread = 8, 6
        pairs = [
            (names[i % len(names)], names[(i + 1) % len(names)])
            for i in range(n_threads)
        ]

        def hammer(pair):
            local = MatchServiceClient(server.url)
            for index in range(per_thread):
                local.match(
                    MatchRequest(
                        source=pair[0], target=pair[1],
                        options=MatchOptions(
                            threshold=0.1 + index * 0.01, trace=True
                        ),
                    )
                )

        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            list(pool.map(hammer, pairs))
        metrics = client.metrics()
        match_block = metrics["endpoints"]["/match"]
        expected = n_threads * per_thread
        assert match_block["requests"] == expected
        assert match_block["latency"]["count"] == expected
        assert sum(match_block["latency"]["buckets"]) == expected
        assert match_block["cache_hits"] + match_block["cache_misses"] == expected


# ----------------------------------------------------------------------
# Prefork fleet aggregation (real subprocess, POSIX only)
# ----------------------------------------------------------------------
@pytest.mark.skipif(
    not hasattr(os, "fork"), reason="process-pool serving is POSIX-only"
)
class TestFleetMetrics:
    def test_fleet_totals_equal_sum_of_workers(self, tmp_path):
        db_path = str(tmp_path / "fleet.db")
        corpus = generate_clustered_corpus(
            n_domains=2, schemata_per_domain=3, seed=41
        )
        with MetadataRepository(path=db_path) as repository:
            for generated in corpus.schemata:
                repository.register(generated.schema)
            names = sorted(repository.schema_names())
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--db", db_path, "--workers", "2", "--port", "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            start_new_session=True,
            env={
                **os.environ,
                "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1]),
            },
        )
        try:
            line = process.stdout.readline()
            assert "serving on http://" in line, f"unexpected announce: {line!r}"
            url = line.split("serving on ", 1)[1].split()[0]

            def hammer(index):
                local = MatchServiceClient(url, timeout=60.0)
                for step in range(4):
                    local.match(
                        MatchRequest(
                            source=names[index % len(names)],
                            target=names[(index + 1) % len(names)],
                            options=MatchOptions(threshold=0.1 + step * 0.01),
                        )
                    )

            with ThreadPoolExecutor(max_workers=4) as pool:
                list(pool.map(hammer, range(4)))

            metrics = MatchServiceClient(url, timeout=60.0).metrics()
            fleet = metrics["fleet"]
            assert fleet["n_workers"] == 2
            # Exactness: fleet totals are the SUM of the per-worker
            # regions, with nothing lost and nothing double-counted.
            total = fleet["totals"]["endpoints"]["/match"]
            per_worker = [
                worker["endpoints"].get("/match", {"requests": 0})
                for worker in fleet["workers"]
            ]
            assert total["requests"] == 16
            assert total["requests"] == sum(
                block["requests"] for block in per_worker
            )
            assert total["latency"]["count"] == 16
        finally:
            if process.poll() is None:
                try:
                    os.killpg(os.getpgid(process.pid), signal.SIGKILL)
                except ProcessLookupError:
                    pass
            try:
                process.communicate(timeout=30)
            except (ValueError, subprocess.TimeoutExpired):
                pass


# ----------------------------------------------------------------------
# The `repro trace` CLI
# ----------------------------------------------------------------------
class TestTraceCli:
    def _write_log(self, tmp_path) -> str:
        path = str(tmp_path / "slow.jsonl")
        writer = TraceLogWriter(path, slow_ms=0.0)
        try:
            for _ in range(2):
                trace = Tracer().start()
                with activate_trace(trace):
                    with span("service.match"):
                        with span("engine.score"):
                            pass
                writer.maybe_write("/match", trace.to_dict(), 0.05)
        finally:
            writer.close()
        return path

    def test_table_summary(self, tmp_path, capsys):
        path = self._write_log(tmp_path)
        assert main(["trace", path]) == 0
        output = capsys.readouterr().out
        assert "traces: 2" in output
        assert "service.match" in output
        assert "engine.score" in output

    def test_json_summary(self, tmp_path, capsys):
        path = self._write_log(tmp_path)
        assert main(["trace", path, "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_traces"] == 2

    def test_missing_file_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exit_info:
            main(["trace", str(tmp_path / "absent.jsonl")])
        assert exit_info.value.code == 2

    def test_serve_flag_validation(self):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--slow-ms", "-1"])
        assert exit_info.value.code == 2
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--trace-sample", "1.5"])
        assert exit_info.value.code == 2
