"""E20 -- process-pool serving: prefork throughput, cross-process exactness.

E19 established the serving tier; this bench holds the *process-pool*
deployment (``repro serve --workers N``: N prefork workers, one shared
listening socket, one pooled-WAL SQLite store) to three contracts against
the threaded single-process server on the same repository:

* **warm throughput** -- under the E19 hammer (8 concurrent clients x 20
  requests over a fixed request set), the warmed worker pool should beat
  the warmed threaded server.  Warm requests are pure-Python cache hits,
  which one server process serialises on its GIL; N worker processes
  hold N independent GILs.  On >= 2 CPUs the ">1x" goal is a wall-clock
  ratio that moves with host load, so it is reported against its floor
  (PASS/MISS), not asserted.  With a single core the clients, the
  hammer, and every server share one CPU, total CPU work is the
  bottleneck, and the measured ratio is a coin-flip around 1.0x -- there
  a non-regression floor is asserted instead and the ratio reported;
* **score exactness** -- every correspondence served by either deployment
  must match a direct in-process MatchService referee to 1e-9: the
  serving topology may never change answers;
* **cross-process invalidation** -- an interleaved write/read sweep where
  the WRITER IS ANOTHER PROCESS (this bench) storing matches straight
  into the shared store: every subsequent served ``/corpus-match`` and
  ``/network-match`` answer must equal a freshly computed referee answer,
  zero stale, because the workers' response caches key on the DB-backed
  ``generation``/``match_generation`` clocks that every write moves
  transactionally.
"""

from __future__ import annotations

import itertools
import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
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

N_CLIENTS = 8
REQUESTS_PER_CLIENT = 20
N_WORKERS = 2
N_DISTINCT_REQUESTS = 16
SCORE_TOLERANCE = 1e-9
SWEEP_ROUNDS = 5
THRESHOLD = 0.15
OPTIONS = MatchOptions(threshold=THRESHOLD)
#: Warm-pool-vs-threaded floor on a single-CPU machine, where the ratio
#: hovers around parity (see module docstring): the pool must at least
#: not regress materially.
SINGLE_CPU_FLOOR = 0.6


class _Server:
    """One ``repro serve`` deployment as a subprocess, URL from announce."""

    def __init__(self, db_path: str, label: str, extra: list[str]):
        self.label = label
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--db", db_path, "--port", "0", *extra,
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
        announce = self.process.stdout.readline()
        assert "serving on http://" in announce, f"{label}: {announce!r}"
        self.url = announce.split("serving on ", 1)[1].split()[0]

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


def _hammer(url: str, requests: list[MatchRequest]) -> float:
    """E19's hammer: N clients, each its own connection loop; returns req/s."""

    def client_session(client_index: int) -> None:
        client = MatchServiceClient(url)
        for i in range(REQUESTS_PER_CLIENT):
            request = requests[
                (client_index * REQUESTS_PER_CLIENT + i) % len(requests)
            ]
            client.match(request)

    started = time.perf_counter()
    with ThreadPoolExecutor(max_workers=N_CLIENTS) as pool:
        for future in [
            pool.submit(client_session, index) for index in range(N_CLIENTS)
        ]:
            future.result()
    return (N_CLIENTS * REQUESTS_PER_CLIENT) / (time.perf_counter() - started)


def _served_scores(url: str, requests: list[MatchRequest]) -> dict:
    client = MatchServiceClient(url)
    return {
        (request.source, request.target): {
            c.pair: c.score for c in client.match(request).correspondences
        }
        for request in requests
    }


def _same_correspondences(ours, theirs) -> bool:
    mine = {c.pair: c for c in ours}
    reference = {c.pair: c for c in theirs}
    return set(mine) == set(reference) and all(
        mine[pair].note == reference[pair].note
        and abs(mine[pair].score - reference[pair].score) <= SCORE_TOLERANCE
        for pair in mine
    )


def test_e20_procpool(tmp_path, report_factory):
    corpus = generate_clustered_corpus(
        n_domains=2, schemata_per_domain=4, seed=2009
    )
    db_path = str(tmp_path / "e20.db")
    with MetadataRepository(path=db_path) as seeder:
        for generated in corpus.schemata:
            seeder.register(generated.schema)
        names = sorted(seeder.schema_names())
    requests = [
        MatchRequest(source=source, target=target, options=OPTIONS)
        for source, target in itertools.combinations(names, 2)
    ][:N_DISTINCT_REQUESTS]

    # -- the same hammer against both deployments ----------------------
    throughput: dict[str, dict[str, float]] = {}
    scores: dict[str, dict] = {}
    exit_status: dict[str, int] = {}
    deployments = [
        ("threaded", []),
        ("procpool", ["--workers", str(N_WORKERS)]),
    ]
    for label, extra in deployments:
        server = _Server(db_path, label, extra)
        try:
            cold = _hammer(server.url, requests)
            warm = _hammer(server.url, requests)
            throughput[label] = {"cold": cold, "warm": warm}
            scores[label] = _served_scores(server.url, requests)
        finally:
            try:
                exit_status[label] = server.stop()
            finally:
                server.kill()

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
            for label, _ in deployments:
                served = scores[label][(request.source, request.target)]
                assert set(served) == set(expected), (
                    f"{label} served different pairs for "
                    f"{request.source}->{request.target}"
                )
                for pair, score in served.items():
                    score_drift = max(score_drift, abs(score - expected[pair]))

    # -- cross-process interleaved write/read sweep --------------------
    server = _Server(
        db_path, "procpool-sweep", ["--workers", str(N_WORKERS)]
    )
    n_stale = 0
    n_checked = 0
    try:
        sweep_clients = [MatchServiceClient(server.url) for _ in range(2)]
        with MetadataRepository(path=db_path) as repository:
            referee = MatchService(repository=repository)
            # Give the a->c network route edges to compose (these two
            # persists are themselves cross-process writes the workers
            # must notice).
            referee.persist(referee.match_pair(names[0], names[1], options=OPTIONS))
            referee.persist(referee.match_pair(names[1], names[2], options=OPTIONS))
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
                # Warm every worker's cache, then write from THIS process,
                # then demand freshness from every client connection.
                for client in sweep_clients:
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
                for client in sweep_clients:
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
        try:
            exit_status["procpool-sweep"] = server.stop()
        finally:
            server.kill()

    # -- report and assert ---------------------------------------------
    warm_advantage = throughput["procpool"]["warm"] / throughput["threaded"]["warm"]
    n_elements = sum(len(g.schema) for g in corpus.schemata)
    report = report_factory(
        "E20", "Process-pool serving (prefork workers over one pooled-WAL store)"
    )
    report.row(
        "registered corpus",
        "(schemata; elements)",
        f"{len(names)} ({n_elements:,} elements, WAL SQLite)",
    )
    report.row(
        "deployment under test",
        "(workers)",
        f"{N_WORKERS} prefork processes vs 1 threaded process "
        f"({os.cpu_count()} CPU visible)",
    )
    report.row(
        f"threaded throughput ({N_CLIENTS} clients x {REQUESTS_PER_CLIENT})",
        "(requests/second)",
        f"cold {throughput['threaded']['cold']:,.0f} / "
        f"warm {throughput['threaded']['warm']:,.0f} req/s",
    )
    report.row(
        f"process-pool throughput ({N_CLIENTS} clients x {REQUESTS_PER_CLIENT})",
        "(requests/second)",
        f"cold {throughput['procpool']['cold']:,.0f} / "
        f"warm {throughput['procpool']['warm']:,.0f} req/s",
    )
    n_cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)
    advantage_goal = "> 1x" if n_cpus >= 2 else f">= {SINGLE_CPU_FLOOR}x (1 CPU)"
    advantage_met = (
        warm_advantage > 1.0 if n_cpus >= 2 else warm_advantage >= SINGLE_CPU_FLOOR
    )
    report.row(
        "warm pool vs warm threaded",
        advantage_goal,
        f"{warm_advantage:.2f}x ({'PASS' if advantage_met else 'MISS'})",
    )
    report.row(
        f"served-vs-direct score drift ({len(requests)} requests x 2 deployments)",
        f"<= {SCORE_TOLERANCE:g}",
        f"{score_drift:.2e}",
    )
    report.row(
        f"cross-process sweep ({SWEEP_ROUNDS} writes, {n_checked} re-reads)",
        "0 stale",
        f"{n_stale} stale",
    )
    report.row(
        "clean SIGTERM shutdown",
        "status 0",
        ", ".join(f"{label}: {status}" for label, status in exit_status.items()),
    )

    # On >= 2 CPUs the warm advantage is reported above against its
    # floor (PASS/MISS), not asserted: it is a wall-clock ratio that moves
    # with host load.  On a single CPU the honest claim is non-regression
    # (see module docstring).  The cold pass is reported but never judged
    # (N workers warming N caches do redundant fills).
    if n_cpus < 2:
        assert warm_advantage >= SINGLE_CPU_FLOOR
    assert score_drift <= SCORE_TOLERANCE
    assert n_stale == 0
    assert all(status == 0 for status in exit_status.values())
