"""The repository's benchmark: one run of one workload (or of all three).

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload case_study|corpus_query|served_mix|all \
        --seed N --seconds S --trace 0|1

The run generates its inputs from ``--seed`` (before any program process
starts), launches the program several times to sample set-up time,
measures the timed phase for ``--seconds``, referees every output, and
prints a report.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A traced run measures the workload twice, untraced and
traced, and reports the difference as the tracing overhead.

Every process the run starts is stopped and waited for, under hard
deadlines; a stuck program turns into failed operations, not a stuck
benchmark.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PYTHON = sys.executable or "python3"

#: Set-up samples per run (each a fresh program launch); the median is
#: reported.
SETUP_REPEATS = 5
#: Hard cap on one workload run, set-up and referees included.
RUN_DEADLINE_S = 165.0
#: Grace between SIGTERM and SIGKILL.
STOP_GRACE_S = 10.0

WORKLOADS = {
    "case_study": {
        "why": "the paper's 3.3 analyst session in-process: all work in matchers, voting, match "
        "and batch, none in repository, corpus or server",
        "main_op": "increment",
        # Over all the run's increments (~700, 28 beyond p96): p96 falls
        # in the middle of the 24 largest concept subtrees of every
        # session, where p98.5 (ten beyond) sat on their few slowest
        # samples and swung with them.
        "tail_percentile": 96,
    },
    "corpus_query": {
        "why": "repository-scale top-k with a registration every 20 queries: corpus, repository, "
        "service and batch on small pairs, no exact engine, no server",
        "main_op": "query",
        "tail_percentile": 85,
        "n_schemata": 600,
        "schemata_per_domain": 50,
        "n_new": 100,
        "n_queries": 800,
        "n_prior_sets": 200,
        "write_every": 20,
        "top_k": 5,
    },
    "served_mix": {
        "why": "matching served over HTTP: an open loop of mostly cached /match plus corpus and "
        "network requests and repository writes, the only workload through server and its cache",
        "main_op": "request",
        "tail_percentile": 96,
        "n_domains": 8,
        "per_domain": 8,
        # (offered rate in req/s, share of --seconds).  Step 0 warms the
        # response cache and is not measured; p50/tail come from step 1,
        # max_rps from steps 1 onwards.
        "steps": [(12.0, 0.2), (12.0, 0.6), (20.0, 0.1), (28.0, 0.1)],
        "mix": {"/match": 0.85, "/corpus-match": 0.10, "/network-match": 0.05},
        "hot_pairs": 24,
        "hot_share": 0.9,
        "write_interval_s": 2.0,
        "register_at": 0.85,
        "latency_limit_ms": 500.0,
        "threads": 2,
        "request_timeout_s": 30.0,
    },
}

#: Quality floors: the values measured at the commit that defined the
#: benchmark.  Increment F1 depends on the seed's generated pair, so it
#: is pinned per seed (seeds 1-12 and the held-out seed 2027), with a
#: general floor for any other seed.
INCREMENT_F1 = {
    1: 0.5512, 2: 0.5461, 3: 0.5953, 4: 0.6321, 5: 0.6137, 6: 0.5855, 7: 0.5757,
    8: 0.5865, 9: 0.5294, 10: 0.6589, 11: 0.6377, 12: 0.5256, 2027: 0.5752,
}
INCREMENT_F1_ANY_SEED = 0.50
CORPUS_RECALL = 1.0


def floors(seed: int) -> dict:
    # Pinned values are rounded to 4 places; allow that rounding.
    return {
        "increment_f1": INCREMENT_F1.get(seed, INCREMENT_F1_ANY_SEED) - 1e-4,
        "corpus_recall": CORPUS_RECALL,
    }


class RunError(Exception):
    """The run could not produce a measurement at all."""


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(samples: list[float], q: float) -> int:
    """How many samples lie above the nearest-rank ``q`` percentile."""
    return len(samples) - max(1, math.ceil(q / 100.0 * len(samples)))


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------
class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        return max(0.5, self.end - time.monotonic())


def child_env() -> dict:
    env = dict(os.environ)
    source = str(ROOT / "src")
    env["PYTHONPATH"] = source + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def stop(process: subprocess.Popen) -> None:
    """SIGTERM, wait, SIGKILL if it does not exit; always reaped."""
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=STOP_GRACE_S)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()


def launch(command: list[str], log: Path) -> tuple[subprocess.Popen, float]:
    handle = open(log, "ab")
    try:
        launched = time.monotonic()
        process = subprocess.Popen(
            command, cwd=ROOT, env=child_env(), stdout=handle, stderr=subprocess.STDOUT
        )
    finally:
        handle.close()
    return process, launched


def run_to_end(command: list[str], log: Path, timeout: float) -> tuple[bool, float]:
    """Run a child to completion under a deadline; (exited 0, launch instant)."""
    process, launched = launch(command, log)
    try:
        process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        pass
    finally:
        stop(process)
    return process.returncode == 0, launched


def log_tail(log: Path, lines: int = 15) -> str:
    try:
        return "\n".join(log.read_text(encoding="utf-8", errors="replace").splitlines()[-lines:])
    except OSError:
        return ""


# ----------------------------------------------------------------------
# In-process workloads: case_study, corpus_query
# ----------------------------------------------------------------------
def run_program(workload: str, workdir: Path, seconds: float, trace: int, repeats: int, deadline: Deadline) -> tuple[list[float], dict | None]:
    """Launch the program ``repeats`` times; the last launch runs the timed phase."""
    setups: list[float] = []
    result = None
    for index in range(repeats):
        role = "run" if index == repeats - 1 else "setup"
        log = workdir / f"program_{workload}.log"
        command = [
            PYTHON, str(BENCH / "programs.py"), workload, str(workdir),
            "--role", role, "--index", str(index), "--seconds", str(seconds),
            "--trace", str(trace if role == "run" else 0),
        ]
        ok, launched = run_to_end(command, log, deadline.left())
        output = workdir / f"result_{index}.json"
        if not ok or not output.exists():
            print(f"program {workload} ({role}) failed:\n{log_tail(log)}", file=sys.stderr)
            return setups, None
        payload = json.loads(output.read_text(encoding="utf-8"))
        setups.append(payload["ready"] - launched)
        if role == "run":
            result = payload
    return setups, result


def measure_case_study(
    seed: int, seconds: float, trace: int, repeats: int, workdir: Path, deadline: Deadline
) -> dict:
    import inputs
    import probe
    import referee

    facts = inputs.case_study_inputs(seed, workdir)
    increments = json.loads((workdir / "increments.json").read_text(encoding="utf-8"))
    if not referee.increments_partition(increments, facts["source_ids"]):
        raise RunError("increment requests do not partition the source schema")
    setups, result = run_program("case_study", workdir, seconds, trace, repeats, deadline)
    if result is None:
        n_ops = 2 + len(increments)
        return failed_measurement(setups, n_ops)
    attempted, failed, notes, extras = referee.case_study(result, facts, floors(seed))
    sessions = result["sessions"]
    q = WORKLOADS["case_study"]["tail_percentile"]
    per_session = [[step["ms"] for step in session["increments"]] for session in sessions]
    # Each session at the reference host speed, from the probes taken
    # between its increments.
    factors = [
        probe.speed_factor([step["probe_ms"] for step in session["increments"]])
        for session in sessions
    ]
    at_ref = [[ms * factor for ms in times] for times, factor in zip(per_session, factors)]
    # The mean is the median over sessions of each session's mean, so a
    # session the probe misjudged moves the run less.
    mean_ms = statistics.median(statistics.fmean(times) for times in per_session)
    mean_at_ref = statistics.median(statistics.fmean(times) for times in at_ref)
    pooled = [ms for times in per_session for ms in times]
    pooled_at_ref = [ms for times in at_ref for ms in times]
    # Increments per second of a session's timed work (its full and
    # auto matches included).
    busy_s = [
        (session["full_ms"] + session["auto_ms"] + sum(times)) / 1000.0
        for session, times in zip(sessions, per_session)
    ]
    extras["session_mean_ms"] = [round(statistics.fmean(times), 2) for times in per_session]
    extras["session_speed_factor"] = [round(factor, 4) for factor in factors]
    return {
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
        "setup_s": setups,
        "peak_rss_mb": result["peak_rss_mb"],
        "main_ms": pooled,
        "mean_ms": mean_ms,
        "tail_ms": percentile(pooled, q),
        "ops_per_s": statistics.median(len(times) / busy for times, busy in zip(per_session, busy_s)),
        "at_ref": {
            "mean_ms": mean_at_ref,
            "tail_ms": percentile(pooled_at_ref, q),
            "ops_per_s": statistics.median(
                len(times) / (busy * factor)
                for times, busy, factor in zip(per_session, busy_s, factors)
            ),
        },
        "full_match_s": [session["full_ms"] / 1000.0 for session in sessions],
        "auto_match_s": [session["auto_ms"] / 1000.0 for session in sessions],
        "write_ms": [],
        "extras": extras,
    }


def measure_corpus_query(
    seed: int, seconds: float, trace: int, repeats: int, workdir: Path, deadline: Deadline
) -> dict:
    import inputs
    import probe
    import referee

    config = WORKLOADS["corpus_query"]
    facts = inputs.corpus_query_inputs(
        seed,
        workdir,
        n_schemata=config["n_schemata"],
        n_new=config["n_new"],
        n_queries=config["n_queries"],
        n_prior_sets=config["n_prior_sets"],
        schemata_per_domain=config["schemata_per_domain"],
    )
    spec = {"write_every": config["write_every"], "top_k": config["top_k"]}
    (workdir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    setups, result = run_program("corpus_query", workdir, seconds, trace, repeats, deadline)
    if result is None:
        return failed_measurement(setups, 1)
    attempted, failed, notes, extras = referee.corpus_query(result, facts, floors(seed), config["top_k"])
    queries = result["queries"]
    after_write = [q["ms"] for q in queries if q["after_write"]]
    extras["after_write_p50_ms"] = statistics.median(after_write) if after_write else None
    main = [q["ms"] for q in queries]
    factor = probe.speed_factor([q["probe_ms"] for q in queries])
    extras["speed_factor"] = factor
    mean_ms = statistics.fmean(main)
    tail_ms = percentile(main, config["tail_percentile"])
    ops_per_s = len(queries) / result["measured_s"]
    return {
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
        "setup_s": setups,
        "peak_rss_mb": result["peak_rss_mb"],
        "main_ms": main,
        "mean_ms": mean_ms,
        "tail_ms": tail_ms,
        "ops_per_s": ops_per_s,
        "at_ref": {"mean_ms": mean_ms * factor, "tail_ms": tail_ms * factor, "ops_per_s": ops_per_s / factor},
        "full_match_s": [],
        "auto_match_s": [],
        "write_ms": [w["ms"] for w in result["writes"]],
        "extras": extras,
    }


def failed_measurement(setups: list[float], attempted: int) -> dict:
    return {
        "attempted": max(1, attempted),
        "failed": max(1, attempted),
        "notes": ["the program did not finish"],
        "setup_s": setups,
        "peak_rss_mb": None,
        "main_ms": [],
        "mean_ms": None,
        "tail_ms": None,
        "ops_per_s": None,
        "at_ref": {},
        "full_match_s": [],
        "auto_match_s": [],
        "write_ms": [],
        "extras": {},
    }


# ----------------------------------------------------------------------
# served_mix
# ----------------------------------------------------------------------
def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def healthy(url: str) -> bool:
    try:
        with urllib.request.urlopen(url + "/healthz", timeout=2.0) as reply:
            return reply.status == 200
    except OSError:
        return False


def peak_rss_of(pid: int) -> float | None:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


def start_server(workdir: Path, traced: bool, deadline: Deadline) -> tuple[subprocess.Popen, str, float]:
    """``repro serve`` (default threaded server, backend and cache) until /healthz answers."""
    port = free_port()
    serve_args = ["--db", str(workdir / "serve.db"), "--port", str(port)]
    if traced:
        command = [PYTHON, str(BENCH / "traced_serve.py"), str(workdir / "spans_server.json"), *serve_args]
    else:
        command = [PYTHON, str(BENCH / "probed_serve.py"), str(workdir / "probes.json"), *serve_args]
    process, launched = launch(command, workdir / "server.log")
    url = f"http://127.0.0.1:{port}"
    limit = time.monotonic() + min(60.0, deadline.left())
    while time.monotonic() < limit and process.poll() is None:
        if healthy(url):
            return process, url, time.monotonic() - launched
        time.sleep(0.005)
    stop(process)
    raise RunError(f"server did not answer /healthz:\n{log_tail(workdir / 'server.log')}")


def measure_served_mix(
    seed: int, seconds: float, trace: int, repeats: int, workdir: Path, deadline: Deadline
) -> dict:
    import inputs
    import probe
    import referee

    config = WORKLOADS["served_mix"]
    steps = [(rate, share * seconds) for rate, share in config["steps"]]
    inputs.served_mix_inputs(
        seed,
        workdir,
        n_domains=config["n_domains"],
        per_domain=config["per_domain"],
        schedule=steps,
        mix=config["mix"],
        hot_pairs=config["hot_pairs"],
        hot_share=config["hot_share"],
        write_interval=config["write_interval_s"],
        register_at=config["register_at"],
    )
    shutil.copyfile(workdir / "serve.db", workdir / "serve_initial.db")
    spec = {"threads": config["threads"], "request_timeout_s": config["request_timeout_s"]}
    (workdir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    requests = json.loads((workdir / "requests.json").read_text(encoding="utf-8"))
    writes = json.loads((workdir / "writes.json").read_text(encoding="utf-8"))

    setups: list[float] = []
    for _ in range(repeats - 1):
        process, _, setup = start_server(workdir, False, deadline)
        stop(process)
        setups.append(setup)
    process, url, setup = start_server(workdir, bool(trace), deadline)
    setups.append(setup)
    load = None
    cache_stats: dict = {}
    peak = None
    try:
        log = workdir / "loadgen.log"
        command = [PYTHON, str(BENCH / "loadgen.py"), str(workdir), "--url", url, "--trace", str(trace)]
        ok, _ = run_to_end(command, log, min(deadline.left(), seconds + 60.0))
        if ok and (workdir / "loadgen.json").exists():
            load = json.loads((workdir / "loadgen.json").read_text(encoding="utf-8"))
        else:
            print(f"load generator failed:\n{log_tail(log)}", file=sys.stderr)
        peak = peak_rss_of(process.pid)
        try:
            with urllib.request.urlopen(url + "/metrics", timeout=5.0) as reply:
                cache_stats = json.loads(reply.read().decode("utf-8")).get("cache", {})
        except OSError:
            cache_stats = {}
    finally:
        stop(process)
    if load is None:
        return failed_measurement(setups, len(requests) + len(writes))
    probes_file = workdir / "probes.json"
    probes = json.loads(probes_file.read_text(encoding="utf-8")) if probes_file.exists() else []

    attempted, failed, notes, extras = referee.served_mix(workdir, load, requests, writes)
    records = load["requests"]
    limit = config["latency_limit_ms"]
    timed = [r for r in records if r is not None and r["ok"] and r["step"] == 1]
    nominal = [r["latency_ms"] for r in timed]
    rate_table = []
    max_rps = 0.0
    for index, (rate, _) in enumerate(steps[1:], start=1):
        step = [r for r in records if r is not None and r["step"] == index]
        latencies = [r["latency_ms"] if r["ok"] else math.inf for r in step]
        late = [r["sent"] - r["due"] for r in step]
        quarter = max(1, len(late) // 4)
        backlog = statistics.median(late[-quarter:]) * 1000.0 if late else math.inf
        tail = percentile(latencies, config["tail_percentile"]) if latencies else math.inf
        meets = tail <= limit and backlog <= limit / 2
        rate_table.append({"rate": rate, "n": len(step), "tail_ms": tail, "late_ms": backlog, "meets": meets})
        if meets:
            max_rps = max(max_rps, rate)
    hits = sum(1 for r in records if r is not None and r.get("cache") == "hit")
    extras.update(
        {
            "rates": rate_table,
            "cache_hit_ratio": hits / max(1, len(records)),
            "cache": cache_stats,
            "late_ms": [(r["sent"] - r["due"]) * 1000.0 for r in records if r is not None],
        }
    )
    # Goodput at the offered load: requests that met the latency limit,
    # per second from the first measured request's due instant to the
    # last completion.
    measured = [r for r in records if r is not None and r["step"] >= 1]
    good = sum(1 for r in measured if r["ok"] and r["latency_ms"] <= limit)
    duration = max(r["done"] for r in measured) - min(r["due"] for r in measured)
    mean_ms = statistics.fmean(nominal) if nominal else None
    tail_ms = percentile(nominal, config["tail_percentile"]) if nominal else None
    # Each request at the reference speed, from the server's probes
    # within two seconds of when it was due.
    at_ref = []
    if probes and nominal:
        instants = [load["origin"] + r["due"] for r in timed]
        factors = probe.speed_factors_at(probes, instants, half_width=2.0)
        at_ref = [ms * factor for ms, factor in zip(nominal, factors)]
        extras["speed_factor"] = probe.speed_factor([ms for _, ms in probes])
    ops_per_s = good / duration
    return {
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
        "setup_s": setups,
        "peak_rss_mb": peak,
        "main_ms": nominal,
        "mean_ms": mean_ms,
        "tail_ms": tail_ms,
        "ops_per_s": ops_per_s,
        # Goodput at a fixed offered load is set by the schedule, not by
        # the host's speed, so it is not scaled.
        "at_ref": {
            "mean_ms": statistics.fmean(at_ref) if at_ref else None,
            "tail_ms": percentile(at_ref, config["tail_percentile"]) if at_ref else None,
            "ops_per_s": ops_per_s,
        },
        "full_match_s": [],
        "auto_match_s": [],
        "write_ms": [w["service_ms"] for w in load["writes"] if w is not None and w["ok"]],
        "max_rps": max_rps,
        "extras": extras,
    }


MEASURE = {
    "case_study": measure_case_study,
    "corpus_query": measure_corpus_query,
    "served_mix": measure_served_mix,
}


# ----------------------------------------------------------------------
# Metrics and report
# ----------------------------------------------------------------------
def end_to_end(workload: str, measured: dict) -> dict:
    """The gated end-to-end metrics (every workload reports every one).

    The main operation's timings and throughput are gated at the
    reference host speed (see ``probe.py``); the report prints them raw
    too.
    """
    at_ref = measured["at_ref"]
    values = {
        "setup_s": (statistics.median(measured["setup_s"]) if measured["setup_s"] else None, "s"),
        "peak_rss_mb": (measured["peak_rss_mb"], "MB"),
        "mean_ms_at_ref": (at_ref.get("mean_ms"), "ms"),
        "tail_ms_at_ref": (at_ref.get("tail_ms"), "ms"),
        "ops_per_s_at_ref": (at_ref.get("ops_per_s"), "1/s"),
    }
    return {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in values.items()
        if value is not None and value > 0
    }


def report(workload: str, seed: int, measured: dict) -> None:
    """Every end-to-end metric by name, with unit and sample count."""
    config = WORKLOADS[workload]
    main = measured["main_ms"]
    q = config["tail_percentile"]
    tail_note = f"p{q}, {beyond(main, q) if main else 0} samples beyond"
    mean_note = config["main_op"]
    if workload == "case_study":
        sessions = len(measured["full_match_s"])
        mean_note = f"median over {sessions} sessions of the session's mean increment"

    def median_of(samples):
        return statistics.median(samples) if samples else None

    at_ref = measured["at_ref"]
    ops_note = (
        "goodput within the latency limit, at the offered load (not scaled)"
        if workload == "served_mix"
        else "closed loop"
    )
    rows = [
        ("setup_s", median_of(measured["setup_s"]), "s", len(measured["setup_s"]), "median of launches"),
        ("peak_rss_mb", measured["peak_rss_mb"], "MB", 1, "matching process"),
        ("error_rate", measured["failed"] / measured["attempted"], "ratio", measured["attempted"], "failed / attempted"),
        ("p50_ms", median_of(main), "ms", len(main), config["main_op"]),
        ("mean_ms", measured["mean_ms"], "ms", len(main), mean_note),
        ("mean_ms_at_ref", at_ref.get("mean_ms"), "ms", len(main), "mean_ms at the reference host speed"),
        ("tail_ms", measured["tail_ms"], "ms", len(main), tail_note),
        ("tail_ms_at_ref", at_ref.get("tail_ms"), "ms", len(main), "tail_ms at the reference host speed"),
        ("full_match_s", median_of(measured["full_match_s"]), "s", len(measured["full_match_s"]), "exact 1378x784"),
        ("auto_match_s", median_of(measured["auto_match_s"]), "s", len(measured["auto_match_s"]), "auto route"),
        ("ops_per_s", measured["ops_per_s"], "1/s", len(main), ops_note),
        ("ops_per_s_at_ref", at_ref.get("ops_per_s"), "1/s", len(main), "ops_per_s at the reference host speed"),
        ("write_p50_ms", median_of(measured["write_ms"]), "ms", len(measured["write_ms"]), "register / store_matches"),
        ("max_rps", measured.get("max_rps"), "req/s", len(config.get("steps", [])[1:]), "highest fixed rate meeting the limit"),
    ]
    print(f"== {workload} seed {seed}")
    for name, value, unit, count, note in rows:
        shown = "n/a" if value is None else f"{value:.4f}"
        print(f"  {name:<13} {shown:>12} {unit:<6} n={count:<5} {note}")
    for note in measured["notes"]:
        print(f"  referee: {note}")
    extras = {k: v for k, v in measured["extras"].items() if k != "late_ms"}
    if extras:
        print(f"  details: {json.dumps(extras, default=str)}")


def per_layer(workload: str, workdir: Path, untraced: dict, traced: dict) -> dict:
    """Per-layer metrics from the traced run's spans (see tracing.py)."""
    import tracing

    dumps = sorted(workdir.glob("spans_*.json"))
    spans, counters = tracing.load(dumps)
    totals = tracing.self_times(spans)
    metrics: dict = {}
    for name in tracing.SPAN_METRICS:
        entry = totals.get(name, {"calls": 0, "self_s": 0.0})
        metrics[f"{name}.busy_s"] = {"value": entry["self_s"], "unit": "s"}
        metrics[f"{name}.calls"] = {"value": entry["calls"], "unit": "count"}

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    metrics["batch.candidate_fraction"] = {
        "value": ratio(counters.get("batch.candidates", 0), counters.get("batch.pairs", 0)),
        "unit": "ratio",
    }
    metrics["corpus.matched_per_returned"] = {
        "value": ratio(counters.get("corpus.matched", 0), counters.get("corpus.returned", 0)),
        "unit": "ratio",
    }
    extras = traced["extras"]
    cache = extras.get("cache", {})
    metrics["server.cache.hit_ratio"] = {"value": extras.get("cache_hit_ratio", 0.0), "unit": "ratio"}
    metrics["server.cache.invalidations"] = {"value": cache.get("invalidations", 0), "unit": "count"}
    late = extras.get("late_ms", [])
    metrics["loadgen.late_ms"] = {"value": statistics.median(late) if late else 0.0, "unit": "ms"}

    # Server wait: client latency not spent in the handler, per request.
    handler = totals.get("server.handler", {"calls": 0, "inclusive_s": 0.0})
    client = totals.get("op.request", {"calls": 0, "inclusive_s": 0.0})
    wait_ms = 0.0
    if handler["calls"] and client["calls"]:
        wait_ms = (client["inclusive_s"] / client["calls"] - handler["inclusive_s"] / handler["calls"]) * 1000.0
    metrics["server.wait_ms"] = {"value": wait_ms, "unit": "ms"}

    # Attribution: the share of the timed operations' wall time that no
    # layer span covers (for served_mix: transport and queueing, i.e.
    # outside the handler and the client's decoding).
    roots = {name: entry for name, entry in totals.items() if tracing.is_root(name)}
    root_time = sum(entry["inclusive_s"] for entry in roots.values())
    if workload == "served_mix":
        covered = handler.get("inclusive_s", 0.0) + totals.get("client.decode", {}).get("inclusive_s", 0.0)
        root_time = client["inclusive_s"] + totals.get("op.write", {}).get("inclusive_s", 0.0)
        unattributed = root_time - covered - totals.get("repository.write", {}).get("inclusive_s", 0.0)
    else:
        unattributed = sum(entry["self_s"] for entry in roots.values())
    metrics["trace.unattributed_share"] = {"value": ratio(unattributed, root_time), "unit": "ratio"}
    base = statistics.median(untraced["main_ms"]) if untraced["main_ms"] else 0.0
    with_trace = statistics.median(traced["main_ms"]) if traced["main_ms"] else 0.0
    metrics["trace.overhead_ratio"] = {"value": ratio(with_trace - base, base), "unit": "ratio"}
    return metrics


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = Deadline(RUN_DEADLINE_S)
    workdir = BENCH / "_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        # A traced run samples set-up once in each of its two passes.
        repeats = 1 if trace else SETUP_REPEATS
        measured = MEASURE[workload](seed, seconds, 0, repeats, workdir, deadline)
        report(workload, seed, measured)
        outcome = {
            "correct": measured["failed"] == 0,
            "attempted": measured["attempted"],
            "failed": measured["failed"],
            "metrics": end_to_end(workload, measured),
        }
        if trace:
            traced_dir = workdir / "traced"
            traced_dir.mkdir()
            traced = MEASURE[workload](seed, seconds, 1, 1, traced_dir, deadline)
            outcome["correct"] = outcome["correct"] and traced["failed"] == 0
            outcome["attempted"] += traced["attempted"]
            outcome["failed"] += traced["failed"]
            outcome["metrics"] = per_layer(workload, traced_dir, measured, traced)
            for note in traced["notes"]:
                print(f"  referee (traced): {note}")
        return outcome
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        parent = workdir.parent
        if parent.exists() and not any(parent.iterdir()):
            parent.rmdir()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure (src/repro missing under {ROOT})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    outcomes = {}
    try:
        for name in names:
            outcomes[name] = run_workload(name, args.seed, args.seconds, args.trace)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        outcome = outcomes[names[0]]
    else:
        outcome = {
            "correct": all(o["correct"] for o in outcomes.values()),
            "attempted": sum(o["attempted"] for o in outcomes.values()),
            "failed": sum(o["failed"] for o in outcomes.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, o in outcomes.items()
                for metric, value in o["metrics"].items()
            },
        }
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
