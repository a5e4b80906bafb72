"""Cross-replica staleness referee + fault injection for the shared tier.

The distributed-cache claim is strong: N serving replicas may share one
cache process, writes land through ANY repository connection on the same
store, and no replica may ever serve a pre-write answer -- whether the
write's nudge reached the cache tier or not.  This file is the referee:

* a 3-replica fleet (each its own pooled connection onto ONE WAL SQLite
  file, each mounting ONE shared :class:`CacheServer` through a
  :class:`TieredCache`) is swept with interleaved writes and reads, and
  every served answer is compared against a freshly computed in-process
  referee -- zero stale tolerated, scores to 1e-9;
* the shared cache is then killed mid-sweep (and separately replaced
  with a server that hangs): the fleet must degrade to
  uncached-but-correct within the client timeout, surface the transport
  errors on ``/metrics``, and re-attach cleanly once the cache is back
  on the same port;
* cache warming is run end to end: one replica's recorded request hashes
  become a brand-new replica's pre-warmed entries.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.match import Correspondence
from repro.repository import AssertionMethod, MetadataRepository
from repro.schema import parse_ddl
from repro.server import (
    MatchServer,
    MatchServiceClient,
    RemoteCache,
    ResponseCache,
    TieredCache,
)
from repro.server.distcache import CacheServer, attach_cache_nudge
from repro.service import (
    CorpusMatchRequest,
    MatchOptions,
    MatchRequest,
    MatchService,
    NetworkMatchRequest,
)
from repro.synthetic import generate_clustered_corpus
from tests.conftest import SAMPLE_DDL
from tests.test_cache_contract import _PoisonedServer

SCORE_TOLERANCE = 1e-9
N_REPLICAS = 3
SWEEP_ROUNDS = 3
OPTIONS = MatchOptions(threshold=0.15)


def _same_correspondences(ours, theirs) -> bool:
    mine = {c.pair: c for c in ours}
    reference = {c.pair: c for c in theirs}
    return set(mine) == set(reference) and all(
        abs(mine[pair].score - reference[pair].score) <= SCORE_TOLERANCE
        for pair in mine
    )


class _Replica:
    """One in-process serving replica: own store connection, shared cache."""

    def __init__(self, db_path: str, cache, warm_limit: int = 0):
        self.repository = MetadataRepository(
            path=db_path, pool_size=2
        )
        self.service = MatchService(repository=self.repository)
        self.server = MatchServer(
            self.service, port=0, cache=cache, warm_limit=warm_limit
        )
        self._thread = threading.Thread(
            target=self.server.serve_forever, daemon=True
        )
        self._thread.start()
        self.client = MatchServiceClient(self.server.url)

    def close(self) -> None:
        self.server.shutdown()
        self._thread.join()
        self.server.server_close()
        self.repository.close()


class _Fleet:
    """N replicas over one store, one shared cache server, one writer."""

    def __init__(self, db_path: str, n_replicas: int = N_REPLICAS):
        self.db_path = db_path
        self.shared = CacheServer(port=0, cache_size=4096)
        self._accept = threading.Thread(
            target=self.shared.serve_forever, daemon=True
        )
        self._accept.start()
        self.replicas = [
            _Replica(db_path, self._mount()) for _ in range(n_replicas)
        ]
        # The writer is its own connection -- NOT one of the replicas'
        # repositories, so replica-local nudge listeners never see these
        # writes: exactly the cross-process scenario.  Its own nudge
        # broadcasts into the shared tier only.
        self.writer = MetadataRepository(path=db_path)
        self._writer_cache = RemoteCache(self.shared.address, timeout=2.0)
        attach_cache_nudge(self.writer, self._writer_cache)
        self.referee = MatchService(repository=self.writer)

    def _mount(self) -> TieredCache:
        return TieredCache(
            ResponseCache(max_entries=256),
            RemoteCache(self.shared.address, timeout=2.0),
        )

    def kill_shared(self) -> int:
        """SIGKILL-equivalent for the in-process cache server."""
        port = self.shared.port
        self.shared.shutdown()
        self._accept.join()
        self.shared.server_close()
        return port

    def restart_shared(self, port: int) -> None:
        self.shared = CacheServer(port=port, cache_size=4096)
        self._accept = threading.Thread(
            target=self.shared.serve_forever, daemon=True
        )
        self._accept.start()

    def close(self) -> None:
        for replica in self.replicas:
            replica.close()
        self._writer_cache.close()
        self.writer.close()
        try:
            self.shared.shutdown()
            self._accept.join()
            self.shared.server_close()
        except OSError:
            pass


@pytest.fixture(scope="module")
def seeded_db(tmp_path_factory):
    db_path = str(tmp_path_factory.mktemp("distcache") / "fleet.db")
    corpus = generate_clustered_corpus(
        n_domains=2, schemata_per_domain=3, seed=2009
    )
    with MetadataRepository(path=db_path) as seeder:
        for generated in corpus.schemata:
            seeder.register(generated.schema)
        names = sorted(seeder.schema_names())
    return db_path, names


@pytest.fixture
def fleet(seeded_db, tmp_path):
    import shutil

    source_db, names = seeded_db
    db_path = str(tmp_path / "fleet.db")
    shutil.copy(source_db, db_path)
    built = _Fleet(db_path)
    yield built, names
    built.close()


class TestCrossReplicaStaleness:
    def test_interleaved_write_read_sweep_is_never_stale(self, fleet):
        rig, names = fleet
        referee = rig.referee
        referee.persist(referee.match_pair(names[0], names[1], options=OPTIONS))
        referee.persist(referee.match_pair(names[1], names[2], options=OPTIONS))
        corpus_request = CorpusMatchRequest(source=names[0], top_k=3, options=OPTIONS)
        network_request = NetworkMatchRequest(
            source=names[0], target=names[2], max_hops=2, options=OPTIONS
        )
        pivot = rig.writer.matches(
            source_schema=names[0], target_schema=names[1]
        )[0]

        n_stale = 0
        n_checked = 0
        for round_number in range(SWEEP_ROUNDS):
            # Warm every replica through the shared tier.
            for replica in rig.replicas:
                replica.client.corpus_match(corpus_request)
                replica.client.network_match(network_request)
            # The write, from a connection no replica listens to.
            rig.writer.store_matches(
                names[1],
                names[2],
                [
                    Correspondence(
                        source_id=pivot.correspondence.target_id,
                        target_id=f"validated_round_{round_number}",
                        score=1.0,
                    )
                ],
                asserted_by="validator",
                method=AssertionMethod.HUMAN_VALIDATED,
            )
            fresh_corpus = referee.corpus_match(corpus_request)
            fresh_network = referee.network_match(network_request)
            for replica in rig.replicas:
                served_corpus = replica.client.corpus_match(corpus_request)
                served_network = replica.client.network_match(network_request)
                n_checked += 2
                corpus_fresh = (
                    served_corpus.candidate_names == fresh_corpus.candidate_names
                    and all(
                        _same_correspondences(
                            ours.correspondences, theirs.correspondences
                        )
                        for ours, theirs in zip(
                            served_corpus.candidates, fresh_corpus.candidates
                        )
                    )
                )
                network_fresh = (
                    served_network.paths == fresh_network.paths
                    and _same_correspondences(
                        served_network.correspondences,
                        fresh_network.correspondences,
                    )
                )
                n_stale += (not corpus_fresh) + (not network_fresh)
        assert n_checked == SWEEP_ROUNDS * N_REPLICAS * 2
        assert n_stale == 0

    def test_one_replicas_miss_is_anothers_shared_hit(self, fleet):
        rig, names = fleet
        request = MatchRequest(source=names[0], target=names[1], options=OPTIONS)
        first, second = rig.replicas[0], rig.replicas[1]
        first.client.match(request)
        assert first.client.last_cache_status == "miss"
        # A DIFFERENT replica, first time it has ever seen this request:
        # the shared tier answers.
        second.client.match(request)
        assert second.client.last_cache_status == "hit"
        attribution = second.server.cache.describe()["attribution"]
        assert attribution["shared_hits"] >= 1
        # And /metrics shows the tiered breakdown.
        cache_block = second.client.metrics()["cache"]
        assert cache_block["tier"]["kind"] == "tiered"
        assert cache_block["tier"]["shared"]["reachable"] is True
        assert "warm_hit_ratio" in cache_block

    def test_write_nudge_sweeps_the_shared_tier_immediately(self, fleet):
        rig, names = fleet
        request = MatchRequest(source=names[0], target=names[1], options=OPTIONS)
        rig.replicas[0].client.match(request)
        assert len(rig.shared.cache) >= 1
        invalidations_before = rig.shared.cache.stats.invalidations
        rig.writer.register(parse_ddl(SAMPLE_DDL, name="nudge_newcomer"))
        # No replica has looked anything up yet: the eviction happened on
        # the write path, through the writer's nudge alone.
        assert rig.shared.cache.stats.invalidations > invalidations_before


class TestFaultInjection:
    def test_killed_cache_degrades_to_uncached_but_correct(self, fleet):
        rig, names = fleet
        request = MatchRequest(source=names[0], target=names[1], options=OPTIONS)
        replica = rig.replicas[0]
        replica.client.match(request)
        port = rig.kill_shared()

        # Served answers stay correct -- local tier still validates, the
        # shared tier degrades to misses within the bounded timeout.
        served = replica.client.match(request)
        direct = rig.referee.match(request)
        assert _same_correspondences(served.correspondences, direct.correspondences)
        cold = MatchRequest(source=names[2], target=names[3], options=OPTIONS)
        served_cold = replica.client.match(cold)
        assert _same_correspondences(
            served_cold.correspondences, rig.referee.match(cold).correspondences
        )

        # The degradation is visible, not silent: transport errors are on
        # /metrics and the tier block says the shared side is unreachable.
        cache_block = replica.client.metrics()["cache"]
        assert cache_block["errors"] >= 1
        assert cache_block["tier"]["shared"]["reachable"] is False

        # Back on the same port: replicas re-attach with no intervention.
        rig.restart_shared(port)
        reborn = MatchRequest(source=names[1], target=names[2], options=OPTIONS)
        replica.client.match(reborn)
        other = rig.replicas[1]
        other.client.match(reborn)
        assert other.client.last_cache_status == "hit"
        assert other.server.cache.describe()["shared"]["reachable"] is True

    def test_hung_cache_is_bounded_and_correct(self, fleet):
        rig, names = fleet
        hang = _PoisonedServer(reply=None)
        replica = _Replica(
            rig.db_path,
            TieredCache(
                ResponseCache(max_entries=64),
                RemoteCache(hang.address, timeout=0.3),
            ),
        )
        try:
            request = MatchRequest(
                source=names[0], target=names[1], options=OPTIONS
            )
            started = time.perf_counter()
            served = replica.client.match(request)
            elapsed = time.perf_counter() - started
            direct = rig.referee.match(request)
            assert _same_correspondences(
                served.correspondences, direct.correspondences
            )
            # One get + one put against the hung tier, 0.3 s timeout each:
            # well under an unbounded hang, generously bounded here.
            assert elapsed < 10.0
            assert replica.client.metrics()["cache"]["errors"] >= 1
        finally:
            replica.close()
            hang.close()


class TestCacheWarming:
    def test_recorded_hashes_warm_a_fresh_replica(self, fleet):
        rig, names = fleet
        veteran = rig.replicas[0]
        requests = [
            MatchRequest(source=names[0], target=names[1], options=OPTIONS),
            CorpusMatchRequest(source=names[0], top_k=2, options=OPTIONS),
        ]
        veteran.client.match(requests[0])
        veteran.client.match(requests[0])
        veteran.client.corpus_match(requests[1])
        veteran.server.flush_hot_requests()

        # A brand-new replica with its OWN private cache (nothing shared)
        # must answer the veteran's hottest requests from warm entries.
        newcomer = _Replica(
            rig.db_path, ResponseCache(max_entries=256), warm_limit=8
        )
        try:
            assert newcomer.server.warmed_entries >= 2
            newcomer.client.match(requests[0])
            assert newcomer.client.last_cache_status == "hit"
            newcomer.client.corpus_match(requests[1])
            assert newcomer.client.last_cache_status == "hit"
            payload = newcomer.client.metrics()["cache"]
            assert payload["warmed_entries"] >= 2
            assert payload["warm_hit_ratio"] > 0.0
        finally:
            newcomer.close()

    def test_warmed_entries_are_not_exempt_from_invalidation(self, fleet):
        rig, names = fleet
        request = MatchRequest(source=names[0], target=names[1], options=OPTIONS)
        veteran = rig.replicas[0]
        veteran.client.match(request)
        veteran.server.flush_hot_requests()
        newcomer = _Replica(
            rig.db_path, ResponseCache(max_entries=256), warm_limit=8
        )
        try:
            assert newcomer.server.warmed_entries >= 1
            rig.writer.register(parse_ddl(SAMPLE_DDL, name="warm_newcomer"))
            newcomer.client.match(request)
            assert newcomer.client.last_cache_status == "miss"
            served = newcomer.client.match(request)
            assert _same_correspondences(
                served.correspondences, rig.referee.match(request).correspondences
            )
        finally:
            newcomer.close()
