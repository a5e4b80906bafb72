"""E22 -- the distributed response-cache tier: shared warmth, zero stale.

E19 gave one server a generation-aware response cache; E20 scaled to a
prefork pool with per-process caches.  This bench holds the *shared*
cache tier (``repro cache-serve`` + ``repro serve --cache-url``) to the
claims that justify running one more process:

* **fleet-wide warmth** -- with private per-replica caches, a request
  warmed on one replica is cold on every other: the aggregate warm hit
  ratio across a 2-replica fleet caps out as each replica pays its own
  misses.  With the shared tier mounted, one replica's computed miss is
  every replica's hit -- the aggregate warm hit ratio must beat the
  private-cache fleet outright;
* **score exactness** -- every correspondence served through either
  topology must match a direct in-process referee to 1e-9;
* **zero stale under interleaved writes** -- a writer process (this
  bench) stores matches straight into the shared store between reads;
  every subsequent answer from every replica must equal a freshly
  computed referee answer.  The DB-backed clocks are the backstop; the
  write nudge (and the shared tier's one-sweep-serves-all eviction) only
  make it cheaper;
* **warm starts** -- replicas record their hottest request hashes into
  the store; a brand-new replica started with ``--warm-cache N`` must
  report warmed entries on ``/metrics`` and answer those requests hot.
"""

from __future__ import annotations

import itertools
import os
import signal
import subprocess
import sys
from pathlib import Path

import repro
from repro.match import Correspondence
from repro.repository import AssertionMethod, MetadataRepository
from repro.server import MatchServiceClient
from repro.service import (
    CorpusMatchRequest,
    MatchOptions,
    MatchRequest,
    MatchService,
    NetworkMatchRequest,
)
from repro.synthetic import generate_clustered_corpus

N_REPLICAS = 2
N_DISTINCT_REQUESTS = 12
SCORE_TOLERANCE = 1e-9
SWEEP_ROUNDS = 3
OPTIONS = MatchOptions(threshold=0.15)
_ENV = None


def _env() -> dict:
    global _ENV
    if _ENV is None:
        _ENV = {
            **os.environ,
            "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1]),
        }
    return _ENV


class _Process:
    """One harmonia subprocess; its address parsed from the announce line."""

    def __init__(self, label: str, arguments: list[str], marker: str):
        self.label = label
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", *arguments],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            start_new_session=True,
            env=_env(),
        )
        announce = self.process.stdout.readline()
        assert marker in announce, f"{label}: {announce!r}"
        self.announced = announce.split(marker, 1)[1].split()[0]

    def stop(self) -> int:
        self.process.send_signal(signal.SIGTERM)
        self.process.communicate(timeout=120)
        return self.process.returncode

    def kill(self) -> None:
        if self.process.poll() is None:
            try:
                os.killpg(os.getpgid(self.process.pid), signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.process.communicate(timeout=30)


def _replica(db_path: str, label: str, extra: list[str]) -> _Process:
    return _Process(
        label,
        ["serve", "--db", db_path, "--port", "0", *extra],
        "serving on ",
    )


def _cache_server(label: str = "cache") -> _Process:
    return _Process(label, ["cache-serve", "--port", "0"], "cache-serve on ")


def _fleet_warm_ratio(
    urls: list[str], requests: list[MatchRequest]
) -> tuple[float, int, dict]:
    """Cold-fill through replica 0, then demand warmth from every OTHER
    replica: hits over lookups for the cross-replica pass, counted from
    the X-Harmonia-Cache header -- plus every served score for the referee.
    """
    scores: dict = {}
    first = MatchServiceClient(urls[0])
    for request in requests:
        response = first.match(request)
        scores[(request.source, request.target)] = {
            c.pair: c.score for c in response.correspondences
        }
    hits = 0
    lookups = 0
    for url in urls[1:]:
        client = MatchServiceClient(url)
        for request in requests:
            client.match(request)
            lookups += 1
            hits += client.last_cache_status == "hit"
    return (hits / lookups if lookups else 0.0), lookups, scores


def _same_scores(served: dict, expected: dict) -> float:
    assert set(served) == set(expected)
    return max(
        (abs(score - expected[pair]) for pair, score in served.items()),
        default=0.0,
    )


def _same_correspondences(ours, theirs) -> bool:
    mine = {c.pair: c.score for c in ours}
    reference = {c.pair: c.score for c in theirs}
    return set(mine) == set(reference) and all(
        abs(mine[pair] - reference[pair]) <= SCORE_TOLERANCE for pair in mine
    )


def test_e22_distcache(tmp_path, report_factory):
    corpus = generate_clustered_corpus(
        n_domains=2, schemata_per_domain=4, seed=2009
    )
    db_path = str(tmp_path / "e22.db")
    with MetadataRepository(path=db_path) as seeder:
        for generated in corpus.schemata:
            seeder.register(generated.schema)
        names = sorted(seeder.schema_names())
    requests = [
        MatchRequest(source=source, target=target, options=OPTIONS)
        for source, target in itertools.combinations(names, 2)
    ][:N_DISTINCT_REQUESTS]

    exit_status: dict[str, int] = {}
    ratios: dict[str, float] = {}
    scores: dict[str, dict] = {}
    cross_lookups = 0

    # -- topology A: private per-replica caches ------------------------
    replicas = [
        _replica(db_path, f"private-{index}", []) for index in range(N_REPLICAS)
    ]
    try:
        ratios["private"], cross_lookups, scores["private"] = _fleet_warm_ratio(
            [replica.announced for replica in replicas], requests
        )
    finally:
        for replica in replicas:
            try:
                exit_status[replica.label] = replica.stop()
            finally:
                replica.kill()

    # -- topology B: one shared cache tier -----------------------------
    cache = _cache_server()
    replicas = [
        _replica(
            db_path, f"shared-{index}", ["--cache-url", cache.announced]
        )
        for index in range(N_REPLICAS)
    ]
    metrics_block: dict = {}
    n_stale = 0
    n_checked = 0
    try:
        ratios["shared"], _, scores["shared"] = _fleet_warm_ratio(
            [replica.announced for replica in replicas], requests
        )
        follower = MatchServiceClient(replicas[1].announced)
        metrics_block = follower.metrics()["cache"]

        # -- interleaved write/read sweep across the fleet -------------
        clients = [
            MatchServiceClient(replica.announced) for replica in replicas
        ]
        with MetadataRepository(path=db_path) as repository:
            referee = MatchService(repository=repository)
            referee.persist(
                referee.match_pair(names[0], names[1], options=OPTIONS)
            )
            referee.persist(
                referee.match_pair(names[1], names[2], options=OPTIONS)
            )
            corpus_request = CorpusMatchRequest(
                source=names[0], top_k=3, options=OPTIONS
            )
            network_request = NetworkMatchRequest(
                source=names[0], target=names[2], max_hops=2, options=OPTIONS
            )
            pivot = repository.matches(
                source_schema=names[0], target_schema=names[1]
            )[0]
            for round_number in range(SWEEP_ROUNDS):
                for client in clients:
                    client.corpus_match(corpus_request)
                    client.network_match(network_request)
                repository.store_matches(
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
                for client in clients:
                    served_corpus = client.corpus_match(corpus_request)
                    served_network = client.network_match(network_request)
                    n_checked += 2
                    corpus_fresh = (
                        served_corpus.candidate_names
                        == fresh_corpus.candidate_names
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
    finally:
        for replica in replicas:
            try:
                exit_status[replica.label] = replica.stop()
            finally:
                replica.kill()

    # -- topology C: a warm-started newcomer ---------------------------
    # The stopped replicas flushed their request stats on shutdown; a
    # fresh replica -- with a PRIVATE cache, so nothing is inherited from
    # the shared tier -- must find them and pre-answer the hottest
    # requests before its first client arrives.
    newcomer = _replica(db_path, "warmed", ["--warm-cache", "16"])
    try:
        client = MatchServiceClient(newcomer.announced)
        warm_payload = client.metrics()["cache"]
        warmed_entries = warm_payload["warmed_entries"]
        client.match(requests[0])
        warm_start_hit = client.last_cache_status
    finally:
        try:
            exit_status["warmed"] = newcomer.stop()
        finally:
            newcomer.kill()
    try:
        exit_status["cache-serve"] = cache.stop()
    finally:
        cache.kill()

    # -- referee: direct in-process answers ----------------------------
    with MetadataRepository(path=db_path) as repository:
        referee = MatchService(repository=repository)
        score_drift = 0.0
        for request in requests:
            expected = {
                c.pair: c.score
                for c in referee.match_pair(
                    request.source, request.target, options=OPTIONS
                ).correspondences
            }
            for topology in ("private", "shared"):
                served = scores[topology][(request.source, request.target)]
                score_drift = max(score_drift, _same_scores(served, expected))

    # -- report and assert ---------------------------------------------
    n_elements = sum(len(g.schema) for g in corpus.schemata)
    report = report_factory(
        "E22", "Distributed response-cache tier (shared cache over N replicas)"
    )
    report.row(
        "registered corpus",
        "(schemata; elements)",
        f"{len(names)} ({n_elements:,} elements, WAL SQLite)",
    )
    report.row(
        "fleet under test",
        "(replicas)",
        f"{N_REPLICAS} serve processes over one store + 1 cache-serve",
    )
    report.row(
        f"cross-replica warm hits, private caches ({cross_lookups} lookups)",
        "(cold fleet)",
        f"{ratios['private']:.0%}",
    )
    report.row(
        f"cross-replica warm hits, shared tier ({cross_lookups} lookups)",
        "> private",
        f"{ratios['shared']:.0%}",
    )
    report.row(
        "/metrics warm_hit_ratio (shared follower)",
        "> 0",
        f"{metrics_block.get('warm_hit_ratio', 0.0):.0%} "
        f"(tier: {metrics_block.get('tier', {}).get('kind')})",
    )
    report.row(
        f"served-vs-direct score drift ({len(requests)} requests x 2 topologies)",
        f"<= {SCORE_TOLERANCE:g}",
        f"{score_drift:.2e}",
    )
    report.row(
        f"interleaved sweep ({SWEEP_ROUNDS} writes, {n_checked} re-reads)",
        "0 stale",
        f"{n_stale} stale",
    )
    report.row(
        "warm-started newcomer (--warm-cache 16)",
        "> 0 warmed, first hit",
        f"{warmed_entries} warmed, first request: {warm_start_hit}",
    )
    report.row(
        "clean SIGTERM shutdown",
        "status 0",
        ", ".join(
            f"{label}: {status}" for label, status in sorted(exit_status.items())
        ),
    )

    # The shared tier must turn the cross-replica pass from cold to hot:
    # strictly better than private caches, and actually hot in absolute
    # terms (every request was just computed by the other replica).
    assert ratios["shared"] > ratios["private"]
    assert ratios["shared"] >= 0.9
    assert metrics_block["tier"]["kind"] == "tiered"
    assert metrics_block["warm_hit_ratio"] > 0.0
    assert score_drift <= SCORE_TOLERANCE
    assert n_stale == 0
    assert warmed_entries > 0
    assert warm_start_hit == "hit"
    assert all(status == 0 for status in exit_status.values())
