"""E24 -- telemetry: disabled-path overhead, span coverage, fleet exactness.

Observability must be free when off and honest when on.  Three contracts
over the E19-style served workload:

* **disabled-path overhead <= 2%** -- with no active trace, every
  ``span(...)`` site reduces to one contextvar read returning a shared
  null object.  Measured two ways: a direct microbench of the disabled
  ``span()`` call multiplied by the span sites a request crosses, as a
  fraction of the median untraced request latency; and an A/B of the same
  request stream with the service tracer enabled-but-unopted vs fully
  disabled (the same code path -- the delta is run-to-run noise and must
  stay within the 2% envelope).
* **span trees are complete** -- an opt-in traced request must return a
  structurally valid span tree (``validate_trace`` finds nothing) whose
  root duration lies within 10% of the wall-clock latency measured around
  the call, and whose per-stage breakdown accounts for the bulk of the
  root.
* **fleet aggregation is exact** -- hammering a 2-worker prefork pool,
  any worker's ``/metrics`` fleet block must report totals EQUAL to the
  sum of its per-worker regions, with requests and histogram counts both
  adding up to the number of requests actually sent (no lost updates, no
  double counts).
"""

from __future__ import annotations

import os
import signal
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import repro
from repro.repository import MetadataRepository
from repro.server import MatchServiceClient
from repro.service import MatchOptions, MatchRequest, MatchService
from repro.synthetic import generate_clustered_corpus
from repro.telemetry import Tracer, span, stage_totals, validate_trace

N_WARMUP = 3
N_TIMED = 25
SPAN_MICROBENCH_CALLS = 200_000
#: span sites one /match request crosses when no trace is active
#: (service.match, route.compile, engine.score, envelope.build,
#: cache.get, cache.put -- repository reads resolve before the engine).
SPAN_SITES_PER_REQUEST = 8
OVERHEAD_CEILING = 0.02
ROOT_TOLERANCE = 0.10
THRESHOLD = 0.15


def _median_latency(service, request, n=N_TIMED) -> float:
    samples = []
    for _ in range(n):
        started = time.perf_counter()
        service.match(request)
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def test_e24_telemetry(tmp_path, report_factory):
    report = report_factory(
        "E24", "telemetry: disabled overhead, span coverage, fleet exactness"
    )
    corpus = generate_clustered_corpus(
        n_domains=2, schemata_per_domain=4, seed=2009
    )
    repository = MetadataRepository()
    for generated in corpus.schemata:
        repository.register(generated.schema)
    names = sorted(repository.schema_names())
    request = MatchRequest(
        source=names[0], target=names[1],
        options=MatchOptions(threshold=THRESHOLD),
    )

    # -- 1. disabled-path overhead -----------------------------------
    # Microbench the no-op span site itself.
    started = time.perf_counter()
    for _ in range(SPAN_MICROBENCH_CALLS):
        with span("engine.score"):
            pass
    per_span_seconds = (time.perf_counter() - started) / SPAN_MICROBENCH_CALLS

    service_enabled = MatchService(repository=repository)
    service_disabled = MatchService(
        repository=repository, tracer=Tracer(enabled=False)
    )
    for _ in range(N_WARMUP):
        service_enabled.match(request)
        service_disabled.match(request)
    median_enabled = _median_latency(service_enabled, request)
    median_disabled = _median_latency(service_disabled, request)

    site_overhead = SPAN_SITES_PER_REQUEST * per_span_seconds / median_disabled
    ab_delta = abs(median_enabled - median_disabled) / median_disabled

    report.row(
        "disabled span() call",
        "~free",
        f"{per_span_seconds * 1e9:.0f} ns",
    )
    report.row(
        "span-site overhead per request",
        "<= 2%",
        f"{site_overhead * 100:.4f}% "
        f"({SPAN_SITES_PER_REQUEST} sites / {median_disabled * 1e3:.2f} ms)",
    )
    report.row(
        "unopted-vs-disabled A/B delta",
        "<= 2% (noise)",
        f"{ab_delta * 100:.2f}%",
    )
    assert site_overhead <= OVERHEAD_CEILING

    # -- 2. traced span-tree completeness ----------------------------
    traced_request = MatchRequest(
        source=names[0], target=names[1],
        options=MatchOptions(threshold=THRESHOLD, trace=True),
    )
    service_enabled.match(traced_request)  # warm the traced cache key
    started = time.perf_counter()
    traced = service_enabled.match(traced_request)
    wall_seconds = time.perf_counter() - started
    assert traced.trace is not None
    problems = validate_trace(traced.trace)
    assert problems == [], problems
    root_seconds = traced.trace["total_seconds"]
    root_error = abs(root_seconds - wall_seconds) / wall_seconds
    totals = stage_totals(traced.trace)
    child_seconds = sum(
        seconds for kind, seconds in totals.items() if kind != "service.match"
    )
    report.row(
        "trace validity problems", "0", str(len(problems))
    )
    report.row(
        "root span vs wall latency",
        f"within {ROOT_TOLERANCE:.0%}",
        f"{root_error * 100:.2f}% "
        f"({root_seconds * 1e3:.2f} vs {wall_seconds * 1e3:.2f} ms)",
    )
    report.row(
        "stage coverage of root",
        "most of it",
        f"{child_seconds / root_seconds * 100:.1f}% across "
        f"{len(totals) - 1} stage kinds",
    )
    assert root_error <= ROOT_TOLERANCE

    # -- 3. prefork fleet exactness ----------------------------------
    if not hasattr(os, "fork"):  # pragma: no cover - POSIX-only
        pytest.skip("process-pool serving is POSIX-only")
    db_path = str(tmp_path / "e24.db")
    with MetadataRepository(path=db_path) as seeded:
        for generated in corpus.schemata:
            seeded.register(generated.schema)
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

        def hammer(index: int) -> None:
            client = MatchServiceClient(url, timeout=60.0)
            for step in range(4):
                client.match(
                    MatchRequest(
                        source=names[index % len(names)],
                        target=names[(index + 1) % len(names)],
                        options=MatchOptions(threshold=0.1 + step * 0.01),
                    )
                )

        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(hammer, range(4)))
        n_sent = 16

        metrics = MatchServiceClient(url, timeout=60.0).metrics()
        fleet = metrics["fleet"]
        total = fleet["totals"]["endpoints"]["/match"]
        worker_requests = [
            worker["endpoints"].get("/match", {}).get("requests", 0)
            for worker in fleet["workers"]
        ]
        report.row(
            "fleet workers reporting", "2", str(fleet["n_workers"])
        )
        report.row(
            "fleet /match totals vs sent",
            f"{n_sent} == {n_sent}",
            f"{total['requests']} (workers: "
            + " + ".join(str(count) for count in worker_requests)
            + ")",
        )
        report.row(
            "fleet histogram count vs sent",
            str(n_sent),
            str(total["latency"]["count"]),
        )
        assert total["requests"] == n_sent
        assert total["requests"] == sum(worker_requests)
        assert total["latency"]["count"] == n_sent
        assert sum(total["latency"]["buckets"]) == n_sent
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
