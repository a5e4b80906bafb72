"""Process-pool serving: CLI validation and live multi-process behaviour.

The live tests drive ``repro serve --workers N`` as a real subprocess --
forking from inside a (threaded) pytest process is exactly the hazard the
CLI path avoids, so the tests take the same route production does.  Each
one seeds a pooled-WAL repository, starts the pool, talks to it over
HTTP, and asserts on the parent's exit status and output.

Covered: the announce/round-trip/SIGTERM lifecycle; answers identical to
a direct in-process MatchService (the serving tier must never change
scores); cross-process cache invalidation (a write from THIS process is
seen by every worker's next response); SIGINT; SIGTERM right after a
connection burst (no worker may stay blocked in accept); a SIGKILLed worker taking
the pool down with status 1; and the exit-2 validation of every bad flag
combination.  Bench E20 measures the same tier under load.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.match import Correspondence
from repro.repository import MetadataRepository
from repro.server import MatchServiceClient, serve_process_pool
from repro.service import MatchRequest, MatchService, NetworkMatchRequest
from repro.synthetic import generate_clustered_corpus

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="process-pool serving is POSIX-only"
)


def _seed(db_path: str) -> list[str]:
    corpus = generate_clustered_corpus(
        n_domains=2, schemata_per_domain=3, seed=41
    )
    with MetadataRepository(path=db_path) as repository:
        for generated in corpus.schemata:
            repository.register(generated.schema)
        return sorted(repository.schema_names())


class _Pool:
    """A ``repro serve --workers N`` subprocess plus a client for it."""

    def __init__(self, db_path: str, workers: int, extra: list[str] = ()):
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--db", db_path,
                "--workers", str(workers),
                "--port", "0",
                *extra,
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
        # The announce line prints only once the socket is bound and every
        # worker is forked; it carries the ephemeral port.
        line = self.process.stdout.readline()
        assert "serving on http://" in line, f"unexpected announce: {line!r}"
        url = line.split("serving on ", 1)[1].split()[0]
        self.announce = line
        self.client = MatchServiceClient(url, timeout=60.0)

    def worker_pids(self) -> list[int]:
        listing = subprocess.run(
            ["ps", "--ppid", str(self.process.pid), "-o", "pid="],
            capture_output=True, text=True,
        )
        return [int(token) for token in listing.stdout.split()]

    def stop(self, signum=signal.SIGTERM, timeout: float = 60.0) -> int:
        self.process.send_signal(signum)
        remainder = self.process.communicate(timeout=timeout)[0]
        self.output = self.announce + remainder
        return self.process.returncode

    def kill(self) -> None:
        """Teardown backstop: SIGKILL the whole process group (the parent
        alone would leave workers holding the stdout pipe open)."""
        if self.process.poll() is None:
            try:
                os.killpg(os.getpgid(self.process.pid), signal.SIGKILL)
            except ProcessLookupError:
                pass
        try:
            self.process.communicate(timeout=30)
        except (ValueError, subprocess.TimeoutExpired):
            pass


@pytest.fixture
def pool(tmp_path):
    db_path = str(tmp_path / "pool.db")
    names = _seed(db_path)
    started = _Pool(db_path, workers=2)
    started.names = names
    started.db_path = db_path
    yield started
    started.kill()


class TestProcessPoolServing:
    def test_lifecycle_announce_roundtrip_sigterm(self, pool):
        assert "2 worker processes" in pool.announce
        health = pool.client.health()
        assert health["status"] == "ok"
        assert health["repository"]["n_registered"] == len(pool.names)
        assert health["repository"]["backend"]["kind"] == "pooled-wal"
        assert len(pool.worker_pids()) == 2
        assert pool.stop() == 0
        assert "stopped cleanly" in pool.output
        assert pool.worker_pids() == []

    def test_served_scores_equal_direct_service(self, pool):
        source, target = pool.names[0], pool.names[1]
        served = pool.client.match(MatchRequest(source=source, target=target))
        with MetadataRepository(path=pool.db_path) as repo:
            referee = MatchService(repository=repo).match_pair(source, target)
        assert served.correspondences, "the served answer must be non-trivial"
        assert [
            (c.source_id, c.target_id, c.score)
            for c in served.correspondences
        ] == [
            (c.source_id, c.target_id, c.score)
            for c in referee.correspondences
        ]
        assert pool.stop() == 0

    def test_write_from_another_process_invalidates_every_worker(self, pool):
        """The tentpole's cross-process exactness claim, minimally: a match
        stored by THIS process must change the network-match answers served
        by ALL workers -- their caches key on the DB-backed clocks.  Bench
        E20 runs the full interleaved sweep; this is the smoke version."""
        a, b, c = pool.names[0], pool.names[1], pool.names[2]
        request = NetworkMatchRequest(source=a, target=c, max_hops=2)
        # Warm every worker's cache with the pre-write (edgeless, empty)
        # answer: the kernel load-balances connections, and 8 requests make
        # a one-worker-only streak vanishingly unlikely.
        for _ in range(8):
            assert not pool.client.network_match(request).correspondences
        with MetadataRepository(path=pool.db_path) as repo:
            referee = MatchService(repository=repo)
            # The cross-process write: persist a->b and b->c mappings, which
            # gives the a->c network route something to compose.
            referee.persist(referee.match_pair(a, b))
            referee.persist(referee.match_pair(b, c))
            expected = {
                corr.pair: corr.score
                for corr in referee.network_match(request).correspondences
            }
            for _ in range(8):
                served = pool.client.network_match(request)
                assert {
                    corr.pair: pytest.approx(corr.score, abs=1e-9)
                    for corr in served.correspondences
                } == expected, "a served response missed the cross-process write"
        assert expected  # the write really changed the answer
        assert pool.stop() == 0

    def test_workers_report_cascade_stats_post_fork(self, pool):
        """The /metrics regression for the cascade tier: each prefork worker
        owns its own CascadeCounters (forked before any request), so after
        cascaded traffic the fleet's /metrics responses must carry live
        per-worker oracle-spend counters -- and at least one worker must
        report the spend it actually served."""
        from repro.cascade import CascadePlan
        from repro.service import MatchOptions

        source, target = pool.names[0], pool.names[1]
        options = MatchOptions(cascade=CascadePlan(band=0.4, budget=6))
        for _ in range(6):
            served = pool.client.match(
                MatchRequest(source=source, target=target, options=options)
            )
            assert served.cascade is not None
            assert served.cascade.oracle_calls <= 6
        # The kernel load-balances connections across workers; sample the
        # fleet until a worker that served cascaded traffic answers.
        samples = [pool.client.metrics()["cascade"] for _ in range(8)]
        for counters in samples:
            assert counters["oracle_calls"] <= counters["escalated"]
            assert counters["escalated"] <= counters["ambiguous"]
            assert counters["requests"] >= 0
        assert any(counters["requests"] >= 1 for counters in samples), (
            "no sampled worker reported cascade spend"
        )
        assert pool.stop() == 0

    def test_sigterm_after_a_connection_burst_exits_promptly(self, tmp_path):
        """Every worker's selector wakes on each new connection; the ones
        that lose the accept race must not block in accept(), or SIGTERM
        never reaches their serve loop and the pool hangs."""
        db_path = str(tmp_path / "burst.db")
        _seed(db_path)
        burst = _Pool(db_path, workers=4)
        try:
            # One connection at a time, each landing on an idle pool: every
            # connection wakes all four selectors, so each is a fresh race.
            for _ in range(80):
                assert burst.client.health()["status"] == "ok"
                time.sleep(0.005)
            try:
                status = burst.stop(timeout=20.0)
            except subprocess.TimeoutExpired:
                pytest.fail("the pool did not exit within 20 s of SIGTERM")
            assert status == 0
            assert "stopped cleanly" in burst.output
        finally:
            burst.kill()

    def test_sigint_also_drains_cleanly(self, pool):
        pool.client.health()
        assert pool.stop(signal.SIGINT) == 0
        assert "stopped cleanly" in pool.output

    def test_killed_worker_takes_the_pool_down_with_status_1(self, pool):
        pool.client.health()
        victims = pool.worker_pids()
        assert len(victims) == 2
        os.kill(victims[0], signal.SIGKILL)
        # The parent reaps the corpse, SIGTERMs the survivor, and exits 1
        # on its own -- no signal from the test.
        remainder = pool.process.communicate(timeout=60)[0]
        assert pool.process.returncode == 1
        assert "worker failure" in pool.announce + remainder
        assert pool.worker_pids() == []


class TestServeWorkersCli:
    """Flag validation: every bad combination exits 2 before any fork."""

    def test_zero_workers_exits_2(self):
        with pytest.raises(SystemExit) as caught:
            main(["serve", "--workers", "0"])
        assert caught.value.code == 2

    def test_workers_without_db_exits_2(self):
        with pytest.raises(SystemExit) as caught:
            main(["serve", "--workers", "2"])
        assert caught.value.code == 2

    def test_zero_pool_size_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as caught:
            main([
                "serve", "--db", str(tmp_path / "a.db"), "--pool-size", "0"
            ])
        assert caught.value.code == 2

    def test_unopenable_db_exits_2_before_forking(self, tmp_path):
        with pytest.raises(SystemExit) as caught:
            main(["serve", "--workers", "2", "--db", str(tmp_path)])
        assert caught.value.code == 2


class TestServeProcessPoolApi:
    def test_rejects_non_positive_worker_counts(self, tmp_path):
        with pytest.raises(ValueError, match="n_workers"):
            serve_process_pool(str(tmp_path / "a.db"), 0)
