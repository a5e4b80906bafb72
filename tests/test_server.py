"""The serving tier: wire protocol, response cache, HTTP server, CLI."""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.repository import MetadataRepository, ReusePolicy
from repro.repository.provenance import AssertionMethod, TrustPolicy
from repro.schema import parse_ddl
from repro.server import (
    MatchServer,
    MatchServerError,
    MatchServiceClient,
    ResponseCache,
    ServeConfig,
    canonical_request_key,
)
from repro.service import (
    CorpusMatchRequest,
    MatchOptions,
    MatchRequest,
    MatchResponse,
    MatchService,
    NetworkMatchRequest,
)
from repro.synthetic import generate_clustered_corpus
from tests.conftest import SAMPLE_DDL

SCORE_TOLERANCE = 1e-9


# ----------------------------------------------------------------------
# Requests as wire data
# ----------------------------------------------------------------------
class TestRequestWire:
    def test_match_request_round_trip(self):
        request = MatchRequest(
            source="A",
            target="B",
            options=MatchOptions(threshold=0.3, selection="top_k", top_k=2),
            source_element_ids=("a", "b"),
        )
        assert MatchRequest.from_dict(request.to_dict()) == request

    def test_match_request_inline_schema_round_trip(self):
        schema = parse_ddl(SAMPLE_DDL, name="wire_sample")
        request = MatchRequest(source=schema, target="B")
        rebuilt = MatchRequest.from_dict(
            json.loads(json.dumps(request.to_dict()))
        )
        assert isinstance(rebuilt.source, type(schema))
        assert rebuilt.source.name == "wire_sample"
        assert len(rebuilt.source) == len(schema)
        assert rebuilt.target == "B"

    def test_match_request_defaults_fill_gaps(self):
        rebuilt = MatchRequest.from_dict({"source": "A", "target": "B"})
        assert rebuilt == MatchRequest(source="A", target="B")

    def test_malformed_schema_ref_rejected(self):
        with pytest.raises(ValueError, match="schema reference"):
            MatchRequest.from_dict({"source": {"bogus": 1}, "target": "B"})

    def test_corpus_request_round_trip(self):
        request = CorpusMatchRequest(
            source="A",
            top_k=3,
            retrieval_limit=7,
            exclude=("X",),
            reuse=ReusePolicy(boost=0.5, trust=TrustPolicy(min_confidence=0.2)),
            executor="thread",
            max_workers=2,
        )
        assert CorpusMatchRequest.from_dict(request.to_dict()) == request

    def test_corpus_request_reuse_none_survives(self):
        request = CorpusMatchRequest(source="A", reuse=None)
        rebuilt = CorpusMatchRequest.from_dict(request.to_dict())
        assert rebuilt.reuse is None
        # An absent key means "default policy", not "off".
        assert CorpusMatchRequest.from_dict({"source": "A"}).reuse == ReusePolicy()

    def test_network_request_round_trip(self):
        request = NetworkMatchRequest(
            source="A",
            target="C",
            max_hops=3,
            hop_decay=0.8,
            min_score=0.1,
            trust=TrustPolicy(require_human=True),
            verify=True,
            reuse=ReusePolicy(seed_floor=0.1),
        )
        assert NetworkMatchRequest.from_dict(request.to_dict()) == request


# ----------------------------------------------------------------------
# The generation-aware response cache
# ----------------------------------------------------------------------
class TestResponseCache:
    def test_hit_and_miss(self):
        cache = ResponseCache()
        assert cache.get("k", (1, 1)) is None
        cache.put("k", {"x": 1}, (1, 1))
        assert cache.get("k", (1, 1)) == {"x": 1}
        stats = cache.stats
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.hit_rate == 0.5

    def test_clock_movement_invalidates(self):
        cache = ResponseCache()
        cache.put("k", {"x": 1}, (1, 1))
        assert cache.get("k", (1, 2)) is None
        assert cache.stats.invalidations == 1
        assert len(cache) == 0  # evicted, not retained stale

    def test_none_clocks_compare_stable(self):
        # A repository-less service: nothing the response depends on can
        # change, so the constant watermark hits forever.
        cache = ResponseCache()
        cache.put("k", {"x": 1}, (None, None))
        assert cache.get("k", (None, None)) == {"x": 1}

    def test_lru_eviction(self):
        cache = ResponseCache(max_entries=2)
        cache.put("a", 1, (0, 0))
        cache.put("b", 2, (0, 0))
        assert cache.get("a", (0, 0)) == 1  # refresh a; b is now LRU
        cache.put("c", 3, (0, 0))
        assert cache.get("b", (0, 0)) is None
        assert cache.get("a", (0, 0)) == 1
        assert cache.stats.evictions == 1

    def test_max_entries_validated(self):
        with pytest.raises(ValueError):
            ResponseCache(max_entries=0)

    def test_canonical_key_is_order_and_default_insensitive(self):
        explicit = MatchRequest(
            source="A", target="B", options=MatchOptions()
        ).to_dict()
        shuffled = dict(reversed(list(explicit.items())))
        assert canonical_request_key("/match", explicit) == canonical_request_key(
            "/match", shuffled
        )
        # Same request via from_dict with everything defaulted.
        sparse = MatchRequest.from_dict({"source": "A", "target": "B"}).to_dict()
        assert canonical_request_key("/match", sparse) == canonical_request_key(
            "/match", explicit
        )
        assert canonical_request_key("/match", explicit) != canonical_request_key(
            "/corpus-match", explicit
        )


# ----------------------------------------------------------------------
# The HTTP server (in-process, ephemeral port)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def corpus_schemata():
    corpus = generate_clustered_corpus(
        n_domains=2, schemata_per_domain=3, seed=2009
    )
    return [generated.schema for generated in corpus.schemata]


@pytest.fixture
def served(corpus_schemata):
    """A live server over a freshly seeded in-memory repository."""
    repository = MetadataRepository()
    for schema in corpus_schemata:
        repository.register(schema)
    service = MatchService(repository=repository)
    server = MatchServer(service, ServeConfig(port=0))
    worker = threading.Thread(target=server.serve_forever, daemon=True)
    worker.start()
    try:
        yield server, MatchServiceClient(server.url), service
    finally:
        server.shutdown()
        worker.join()
        server.server_close()


class TestMatchServer:
    def test_healthz(self, served):
        server, client, _ = served
        health = client.health()
        assert health["status"] == "ok"
        from repro import __version__

        assert health["version"] == __version__
        assert health["repository"]["bound"] is True
        assert health["repository"]["n_registered"] == 6

    def test_schemas_endpoint(self, served):
        _, client, _ = served
        payload = client.schemas()
        assert payload["n_registered"] == 6
        assert "D0S0" in payload["names"]

    def test_match_round_trips_and_equals_direct(self, served):
        _, client, service = served
        request = MatchRequest(
            source="D0S0", target="D0S1", options=MatchOptions(threshold=0.2)
        )
        over_wire = client.match(request)
        assert isinstance(over_wire, MatchResponse)
        direct = service.match(request)
        assert len(over_wire) == len(direct)
        for ours, theirs in zip(over_wire.correspondences, direct.correspondences):
            assert ours.pair == theirs.pair
            assert abs(ours.score - theirs.score) <= SCORE_TOLERANCE

    def test_inline_requests_leave_the_shared_caches_flat(
        self, served, corpus_schemata
    ):
        """Every inline schema decodes to a fresh object that no later
        request passes again; the server releases it once the response is
        built, so inline traffic cannot grow the service's profile cache or
        its shared feature space."""
        from repro.schema.serialize import schema_from_dict, schema_to_dict

        _, client, service = served
        options = {execution: MatchOptions(execution=execution) for execution in ("exact", "batch")}

        def renamed(schema, round_number):
            # A distinct inline schema per round: every request misses the
            # response cache and runs (with the same compiled options).
            payload = schema_to_dict(schema)
            payload["name"] = f"{schema.name}_inline{round_number}"
            return schema_from_dict(payload)

        def sizes():
            return (
                len(service.space.profiles),
                len(service.space._features),
                len(service.space._pinned),
            )

        def send(round_number):
            source = renamed(corpus_schemata[0], round_number)
            target = renamed(corpus_schemata[1], round_number)
            for execution in ("exact", "batch"):
                client.match(
                    MatchRequest(source=source, target=target, options=options[execution])
                )
                assert client.last_cache_status == "miss"
            client.corpus_match(CorpusMatchRequest(source=source, top_k=2))
            assert client.last_cache_status == "miss"

        send(0)  # registered candidates of /corpus-match stay cached
        baseline = sizes()
        for round_number in range(1, 11):
            send(round_number)
        assert sizes() == baseline

    def test_new_options_values_reuse_the_cached_features(self, served):
        """Each distinct options value compiles its own engine and runner,
        but every default ensemble shares one synonym lexicon, so a client
        varying the threshold re-derives no canonical feature and pins
        nothing new in the shared feature space."""
        _, client, service = served
        space = service.space

        def sizes():
            return (len(space._features), len(space._pinned), len(space._interners))

        def send(threshold):
            for execution in ("exact", "batch"):
                client.match(
                    MatchRequest(
                        source="D0S0",
                        target="D0S1",
                        options=MatchOptions(threshold=threshold, execution=execution),
                    )
                )
                assert client.last_cache_status == "miss"

        send(0.10)
        baseline = sizes()
        for step in range(1, 11):
            send(0.10 + 0.01 * step)
        assert sizes() == baseline

    def test_repeated_request_served_from_cache(self, served):
        _, client, _ = served
        request = MatchRequest(source="D0S0", target="D0S1")
        first = client.match(request)
        assert client.last_cache_status == "miss"
        second = client.match(request)
        assert client.last_cache_status == "hit"
        assert first == second

    def test_sparse_body_inherits_server_default_options(self, corpus_schemata):
        """A wire body with no "options" key runs under the SERVER's
        defaults (what `repro serve --threshold` configures), not the
        library defaults; an explicit "options" key still wins."""
        repository = MetadataRepository()
        for schema in corpus_schemata:
            repository.register(schema)
        service = MatchService(
            repository=repository, options=MatchOptions(threshold=0.9)
        )
        server = MatchServer(service, ServeConfig(port=0))
        worker = threading.Thread(target=server.serve_forever, daemon=True)
        worker.start()
        try:
            client = MatchServiceClient(server.url)
            sparse = client.post_json(
                "/match", {"source": "D0S0", "target": "D0S1"}
            )
            assert sparse["options"]["threshold"] == 0.9
            explicit = client.post_json(
                "/match",
                {
                    "source": "D0S0",
                    "target": "D0S1",
                    "options": {"threshold": 0.2},
                },
            )
            assert explicit["options"]["threshold"] == 0.2
            assert len(explicit["correspondences"]) >= len(
                sparse["correspondences"]
            )
        finally:
            server.shutdown()
            worker.join()
            server.server_close()

    def test_near_repeated_request_hits_too(self, served):
        _, client, _ = served
        client.match(MatchRequest(source="D0S0", target="D0S1"))
        # Same request, sparsely spelled: defaults omitted on the wire.
        client.post_json("/match", {"source": "D0S0", "target": "D0S1"})
        assert client.last_cache_status == "hit"

    def test_inline_schema_request(self, served, sample_relational):
        _, client, _ = served
        response = client.match(
            MatchRequest(source=sample_relational, target="D0S0")
        )
        assert response.source_name == sample_relational.name

    def test_corpus_match_round_trip(self, served):
        _, client, service = served
        request = CorpusMatchRequest(source="D0S0", top_k=2)
        over_wire = client.corpus_match(request)
        direct = service.corpus_match(request)
        assert over_wire.candidate_names == direct.candidate_names
        assert over_wire.n_registered == 6

    def test_unknown_endpoint_404(self, served):
        _, client, _ = served
        with pytest.raises(MatchServerError) as caught:
            client.post_json("/bogus", {})
        assert caught.value.status == 404
        with pytest.raises(MatchServerError) as caught:
            client.get_json("/bogus")
        assert caught.value.status == 404

    def test_undecodable_body_400(self, served):
        server, _, _ = served
        request = urllib.request.Request(
            server.url + "/match",
            data=b"not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(request, timeout=10)
        assert caught.value.code == 400

    def test_invalid_request_body_400(self, served):
        _, client, _ = served
        with pytest.raises(MatchServerError) as caught:
            client.post_json("/match", {"source": "D0S0"})  # no target
        assert caught.value.status == 400

    def test_unregistered_schema_404(self, served):
        _, client, _ = served
        with pytest.raises(MatchServerError) as caught:
            client.post_json(
                "/match", MatchRequest(source="NOPE", target="D0S0").to_dict()
            )
        assert caught.value.status == 404

    def test_metrics_accumulate(self, served):
        _, client, _ = served
        request = MatchRequest(source="D0S0", target="D0S1")
        client.match(request)
        client.match(request)
        endpoints = client.metrics()["endpoints"]
        assert endpoints["/match"]["requests"] == 2
        assert endpoints["/match"]["cache_hits"] == 1
        assert endpoints["/match"]["cache_misses"] == 1

    def test_cascade_counters_on_health_and_metrics(self, served):
        from repro.cascade import CascadePlan

        _, client, _ = served
        # Always present, zeroed before any cascaded request -- monitoring
        # asserts on the block unconditionally.
        before = client.metrics()["cascade"]
        assert before["requests"] == 0
        assert before["oracle_calls"] == 0

        request = MatchRequest(
            source="D0S0",
            target="D0S1",
            options=MatchOptions(cascade=CascadePlan(band=0.4, budget=10)),
        )
        response = client.match(request)
        assert response.cascade is not None
        assert response.cascade.n_escalated <= 10

        for payload in (client.health(), client.metrics()):
            counters = payload["cascade"]
            assert counters["requests"] == 1
            assert counters["escalated"] <= 10
            assert counters["oracle_calls"] <= counters["escalated"]
            assert counters["compiled_plans"] == 1
            assert counters["oracle_cache_hits"] >= 0
        # The cached-response replay does not double-count oracle spend.
        client.match(request)
        assert client.metrics()["cascade"]["requests"] == 1


class TestCacheInvalidationOverHttp:
    """Satellite contract: writes mid-session evict entries keyed under the
    old generation clocks, and the recomputed answers match fresh state."""

    def test_register_invalidates_match_entries(self, served, sample_relational):
        server, client, _ = served
        request = MatchRequest(source="D0S0", target="D0S1")
        client.match(request)
        client.match(request)
        assert client.last_cache_status == "hit"
        server.service.repository.register(sample_relational, name="NEWCOMER")
        client.match(request)
        assert client.last_cache_status == "miss"
        assert server.cache.stats.invalidations >= 1

    def test_stored_matches_invalidate_corpus_and_network_entries(self, served):
        server, client, service = served
        repository = service.repository
        # Seed the mapping network: persist D0S0<->D0S1 and D0S1<->D0S2.
        options = MatchOptions(selection="stable_marriage")
        for pair in (("D0S0", "D0S1"), ("D0S1", "D0S2")):
            service.persist(service.match_pair(*pair, options=options))

        corpus_request = CorpusMatchRequest(source="D0S0", top_k=2)
        network_request = NetworkMatchRequest(source="D0S0", target="D0S2")
        before_corpus = client.corpus_match(corpus_request)
        before_network = client.network_match(network_request)
        client.corpus_match(corpus_request)
        assert client.last_cache_status == "hit"
        client.network_match(network_request)
        assert client.last_cache_status == "hit"

        # The write: a human validates a brand-new D0S1<->D0S2 leg hanging
        # off an element that already pivots D0S0 -> D0S1, so the routed
        # D0S0 -> D0S2 answer must change.
        old_generation = repository.match_generation
        invalidations_before = server.cache.stats.invalidations
        pivot = repository.matches(source_schema="D0S0", target_schema="D0S1")[0]
        from repro.match import Correspondence

        repository.store_matches(
            "D0S1",
            "D0S2",
            [
                Correspondence(
                    source_id=pivot.correspondence.target_id,
                    target_id="freshly_validated_target",
                    score=1.0,
                )
            ],
            asserted_by="validator",
            method=AssertionMethod.HUMAN_VALIDATED,
        )
        assert repository.match_generation > old_generation

        after_corpus = client.corpus_match(corpus_request)
        assert client.last_cache_status == "miss"
        after_network = client.network_match(network_request)
        assert client.last_cache_status == "miss"
        # Both stale entries are gone: whether the write's nudge swept them
        # or the per-lookup clock check refused them, the counter moved.
        assert server.cache.stats.invalidations >= invalidations_before + 2

        # Recomputed, not stale: the fresh answers fold the new assertion.
        fresh = MatchService(repository=repository)
        assert after_network.correspondences == (
            fresh.network_match(network_request).correspondences
        )
        assert after_corpus.candidate_names == (
            fresh.corpus_match(corpus_request).candidate_names
        )
        # And the new pair actually changed the routed answer.
        assert after_network.correspondences != before_network.correspondences
        assert before_corpus.n_registered == after_corpus.n_registered


# ----------------------------------------------------------------------
# The serve CLI (exit codes; the smoke test with SIGINT lives in CI)
# ----------------------------------------------------------------------
class TestServeCli:
    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as caught:
            main(["--version"])
        assert caught.value.code == 0
        assert f"harmonia {__version__}" in capsys.readouterr().out

    def test_port_in_use_exits_2(self):
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            with pytest.raises(SystemExit) as caught:
                main(["serve", "--port", str(port)])
            assert caught.value.code == 2
        finally:
            blocker.close()

    def test_bad_cache_size_exits_2(self):
        with pytest.raises(SystemExit) as caught:
            main(["serve", "--cache-size", "0"])
        assert caught.value.code == 2

    def test_unopenable_db_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as caught:
            main(["serve", "--db", str(tmp_path)])  # a directory, not a file
        assert caught.value.code == 2

    def test_unparseable_corpus_file_exits_2(self, tmp_path):
        bad = tmp_path / "broken.sql"
        bad.write_text("CREATE TABLE (")
        with pytest.raises(SystemExit) as caught:
            main(["serve", str(bad)])
        assert caught.value.code == 2


# ----------------------------------------------------------------------
# ServeConfig: one validated object from the CLI to every worker
# ----------------------------------------------------------------------
#: (ServeConfig kwargs, the same mistake as `repro serve` flags).
_INVALID_CONFIGS = [
    ({"workers": 0}, ["--workers", "0"]),
    ({"workers": 2}, ["--workers", "2"]),
    ({"pool_size": 0}, ["--pool-size", "0"]),
    ({"cache_size": 0}, ["--cache-size", "0"]),
    ({"threshold": 1.5}, ["--threshold", "1.5"]),
    ({"cache_tier": "shared"}, ["--cache-tier", "shared"]),
    ({"cache_tier": "tiered"}, ["--cache-tier", "tiered"]),
    (
        {"cache_tier": "local", "cache_url": "127.0.0.1:1"},
        ["--cache-tier", "local", "--cache-url", "127.0.0.1:1"],
    ),
    ({"cache_tier": "bogus"}, ["--cache-tier", "bogus"]),
    ({"cache_timeout": 0.0}, ["--cache-timeout", "0"]),
    ({"warm_cache": -1}, ["--warm-cache", "-1"]),
    ({"refresh_interval": 0.0}, ["--refresh-interval", "0"]),
    ({"corpus_shards": 0}, ["--corpus-shards", "0"]),
    ({"slow_ms": -1.0}, ["--slow-ms", "-1"]),
    ({"trace_sample": 1.5}, ["--trace-sample", "1.5"]),
    ({"trace_sample": -0.1}, ["--trace-sample", "-0.1"]),
]


class TestServeConfig:
    @pytest.mark.parametrize(
        "kwargs, argv", _INVALID_CONFIGS, ids=[" ".join(a) for _, a in _INVALID_CONFIGS]
    )
    def test_invalid_values_raise_and_the_cli_exits_2_unbound(
        self, kwargs, argv, monkeypatch
    ):
        with pytest.raises(ValueError):
            ServeConfig(**kwargs)

        def must_not_run(*args, **kwargs):
            raise AssertionError("opened or bound before validation")

        monkeypatch.setattr(socket.socket, "bind", must_not_run)
        monkeypatch.setattr(MetadataRepository, "__init__", must_not_run)
        with pytest.raises(SystemExit) as caught:
            main(["serve", "--port", "0", *argv])
        assert caught.value.code == 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_flag_reaches_the_serving_process(self, tmp_path, workers):
        """A flag dropped anywhere between the CLI and the (forked) workers
        shows up here as a default value on the wire."""
        if workers > 1 and not hasattr(os, "fork"):
            pytest.skip("process-pool serving is POSIX-only")
        db_path = str(tmp_path / "config.db")
        with MetadataRepository(path=db_path) as repository:
            for generated in generate_clustered_corpus(
                n_domains=2, schemata_per_domain=3, seed=7
            ).schemata:
                repository.register(generated.schema)
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--db", db_path,
                "--port", "0", "--workers", str(workers),
                "--threshold", "0.9", "--corpus-shards", "2",
                "--cache-size", "7", "--warm-cache", "0",
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
            assert "serving on http://" in line, line
            client = MatchServiceClient(line.split("serving on ", 1)[1].split()[0])
            served = client.post_json("/match", {"source": "D0S0", "target": "D0S1"})
            assert served["options"]["threshold"] == 0.9
            # Under --workers 2 a /healthz may land on a worker that has
            # not built its corpus index yet; every one that has must
            # report the configured shard count.
            shard_counts = []
            for _ in range(20):
                client.post_json("/corpus-match", {"source": "D0S0", "top_k": 2})
                health = client.health()
                assert health["cache"]["tier"]["max_entries"] == 7
                if health["corpus"]["initialized"]:
                    shard_counts.append(health["corpus"]["n_shards"])
                    if len(shard_counts) >= 2:
                        break
            assert shard_counts and set(shard_counts) == {2}, shard_counts
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=60) == 0
        finally:
            if process.poll() is None:
                os.killpg(os.getpgid(process.pid), signal.SIGKILL)
            process.communicate(timeout=30)
