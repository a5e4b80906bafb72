"""The ``served_mix`` load generator: an open loop through MatchServiceClient.

``run.py`` starts this file as its own process once the server answers
``/healthz``::

    python3 perfbench/loadgen.py <workdir> --url URL --trace 0|1

Requests and repository writes come from the generated schedule
(``requests.json``, ``writes.json``); each is due at a fixed offset from
the start, whatever the server does.  A fixed pool of threads takes the
items in due order, sleeps until each is due and then runs it, so a
stalled server makes later items late rather than fewer.  Latency is
measured from the due instant.  Writes go straight to the repository
file, as another process of the enterprise would write them.
"""

from __future__ import annotations

import argparse
import json
import threading
import time
from pathlib import Path


def _triples(correspondences) -> list:
    return [[c.source_id, c.target_id, c.score] for c in correspondences]


def digest(endpoint: str, response) -> dict:
    """The parts of an envelope the referee compares (kept small)."""
    if endpoint == "/match":
        return {"pairs": _triples(response.correspondences)}
    if endpoint == "/corpus-match":
        return {
            "n_registered": response.n_registered,
            "candidates": [[c.target_name, _triples(c.correspondences)] for c in response.candidates],
        }
    return {
        "paths": [path.to_dict() for path in response.paths],
        "pairs": _triples(response.correspondences),
    }


def build_request(endpoint: str, body: dict):
    from repro.service import CorpusMatchRequest, MatchRequest, NetworkMatchRequest

    kind = {
        "/match": MatchRequest,
        "/corpus-match": CorpusMatchRequest,
        "/network-match": NetworkMatchRequest,
    }[endpoint]
    return kind.from_dict(body)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workdir", type=Path)
    parser.add_argument("--url", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workdir = args.workdir

    recorder = None
    if args.trace:
        import tracing

        recorder = tracing.Recorder("loadgen")
        tracing.install(recorder)

    from repro.match import Correspondence
    from repro.repository import AssertionMethod, MetadataRepository
    from repro.schema.serialize import load_schema
    from repro.server import MatchServiceClient

    spec = json.loads((workdir / "spec.json").read_text(encoding="utf-8"))
    requests = json.loads((workdir / "requests.json").read_text(encoding="utf-8"))
    writes = json.loads((workdir / "writes.json").read_text(encoding="utf-8"))
    timeout = spec["request_timeout_s"]

    items = [("request", index, item) for index, item in enumerate(requests)]
    items += [("write", index, item) for index, item in enumerate(writes)]
    items.sort(key=lambda entry: entry[2]["due"])
    prepared = {
        index: build_request(item["endpoint"], item["body"]) for index, item in enumerate(requests)
    }
    to_register = (
        load_schema(str(workdir / "register.json")) if (workdir / "register.json").exists() else None
    )
    repository = MetadataRepository(path=str(workdir / "serve.db"))
    methods = {
        "/match": "match",
        "/corpus-match": "corpus_match",
        "/network-match": "network_match",
    }

    request_records: list = [None] * len(requests)
    write_records: list = [None] * len(writes)
    cursor = iter(items)
    cursor_lock = threading.Lock()
    origin = time.monotonic() + 0.2

    def write(item) -> None:
        if item["kind"] == "register":
            repository.register(to_register)
        else:
            repository.store_matches(
                item["source"],
                item["target"],
                [Correspondence(source_id=s, target_id=t, score=1.0) for s, t in item["pairs"]],
                asserted_by="validator",
                method=AssertionMethod.HUMAN_VALIDATED,
            )

    def worker() -> None:
        client = MatchServiceClient(args.url, timeout=timeout)
        while True:
            with cursor_lock:
                entry = next(cursor, None)
            if entry is None:
                return
            kind, index, item = entry
            due = origin + item["due"]
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            sent = time.monotonic()
            record = {"due": item["due"], "sent": sent - origin}
            try:
                if kind == "write":
                    if recorder is not None:
                        recorder.span("op.write", write, item)
                    else:
                        write(item)
                else:
                    call = getattr(client, methods[item["endpoint"]])
                    if recorder is not None:
                        response = recorder.span("op.request", call, prepared[index])
                    else:
                        response = call(prepared[index])
                    record["cache"] = client.last_cache_status
                    record["digest"] = digest(item["endpoint"], response)
                record["ok"] = True
            except Exception as exc:  # a failed operation is a measurement
                record["ok"] = False
                record["error"] = f"{type(exc).__name__}: {exc}"
            done = time.monotonic()
            record["done"] = done - origin
            record["latency_ms"] = (done - due) * 1000.0
            record["service_ms"] = (done - sent) * 1000.0
            if kind == "write":
                write_records[index] = record
            else:
                record["endpoint"] = item["endpoint"]
                record["step"] = item["step"]
                request_records[index] = record

    threads = [
        threading.Thread(target=worker, name=f"loadgen-{n}") for n in range(spec["threads"])
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    repository.close()
    if recorder is not None:
        recorder.dump(str(workdir / "spans_loadgen.json"))
    (workdir / "loadgen.json").write_text(
        json.dumps({"origin": origin, "requests": request_records, "writes": write_records}),
        encoding="utf-8",
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
