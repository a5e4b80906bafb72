"""The in-process workload programs: ``case_study`` and ``corpus_query``.

``run.py`` starts this file as a child process, once per set-up sample::

    python3 perfbench/programs.py <workload> <workdir> --role setup|run \
        --index N --seconds S --trace 0|1

Every role loads the generated inputs and builds the program's state;
the time from process launch to that point is the set-up time (the
parent holds the launch instant, the child reports the ready instant,
both on the system-wide monotonic clock).  ``--role setup`` exits there.
``--role run`` then drives the timed phase through the public API only,
and writes its measurements and outputs to ``result_<index>.json``.
Correctness is judged by the parent (``referee.py``) from that file.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import time
from pathlib import Path

from probe import probe_ms


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _triples(correspondences) -> list:
    return [[c.source_id, c.target_id, c.score] for c in correspondences]


class _Ops:
    """Times operations, inside an ``op.<kind>`` root span when tracing."""

    def __init__(self, recorder):
        self.recorder = recorder

    def run(self, kind: str, func, *args):
        started = time.perf_counter()
        if self.recorder is None:
            value = func(*args)
        else:
            value = self.recorder.span(f"op.{kind}", func, *args)
        return value, (time.perf_counter() - started) * 1000.0


# ----------------------------------------------------------------------
# case_study
# ----------------------------------------------------------------------
def case_study(args, workdir: Path, ops: _Ops) -> dict:
    from repro.schema.serialize import load_schema
    from repro.service import MatchOptions, MatchRequest, MatchService

    source = load_schema(str(workdir / "sa.json"))
    target = load_schema(str(workdir / "sb.json"))
    increments = json.loads((workdir / "increments.json").read_text(encoding="utf-8"))
    service = MatchService()
    ready = time.monotonic()
    if args.role == "setup":
        return {"ready": ready}

    exact = MatchOptions(execution="exact")
    sessions = []
    first = None
    started = time.perf_counter()
    deadline = started + args.seconds
    while time.perf_counter() < deadline:
        if sessions:
            service = MatchService()
        full, full_ms = ops.run(
            "full_match", service.match, MatchRequest(source=source, target=target, options=exact)
        )
        auto, auto_ms = ops.run(
            "auto_match", service.match, MatchRequest(source=source, target=target)
        )
        steps = []
        for element_ids in increments:
            response, elapsed_ms = ops.run(
                "increment",
                service.match,
                MatchRequest(source=source, target=target, source_element_ids=tuple(element_ids)),
            )
            steps.append(
                {
                    "ms": elapsed_ms,
                    # Host speed, sampled between increments (untimed).
                    "probe_ms": probe_ms(),
                    "n_source": response.n_source,
                    "n_pairs": response.n_pairs,
                    "pairs": _triples(response.correspondences),
                }
            )
        sessions.append(
            {
                "full_ms": full_ms,
                "full_route": full.route,
                "full_pairs": _triples(full.correspondences),
                "auto_ms": auto_ms,
                "auto_route": auto.route,
                "auto_pairs": _triples(auto.correspondences),
                "increments": steps,
            }
        )
        if first is None:
            first = (service, full, auto)
        # The outputs kept for the referees grow with every session; keep
        # them out of the collector's scans, so later sessions do not pay
        # for the benchmark's own bookkeeping.
        gc.collect()
        gc.freeze()
    measured_s = time.perf_counter() - started
    peak = _peak_rss_mb()

    # Outside the timed phase: the exact engine's scores against the batch
    # runner's on the runner's own candidate pairs.
    from repro.batch.blocking import candidate_pairs

    service, full, auto = first
    runner = service.runner(MatchRequest(source=source, target=target).options)
    candidates = candidate_pairs(
        runner.profile(source), runner.profile(target), runner.space, runner.blocking
    )
    exact_scores = full.result.matrix.scores[candidates.rows, candidates.cols]
    batch_scores = auto.result.matrix.scores[candidates.rows, candidates.cols]
    drift = float(abs(exact_scores - batch_scores).max()) if candidates.n_candidates else 0.0
    return {
        "ready": ready,
        "measured_s": measured_s,
        "peak_rss_mb": peak,
        "sessions": sessions,
        "exact_vs_batch": {"n_candidates": int(candidates.n_candidates), "max_drift": drift},
    }


# ----------------------------------------------------------------------
# corpus_query
# ----------------------------------------------------------------------
def corpus_query(args, workdir: Path, ops: _Ops) -> dict:
    from repro.corpus.ingest import bulk_ingest, iter_schema_payloads
    from repro.match import Correspondence
    from repro.repository import AssertionMethod, MetadataRepository
    from repro.schema.serialize import schema_from_dict
    from repro.service import CorpusMatchRequest, MatchService

    spec = json.loads((workdir / "spec.json").read_text(encoding="utf-8"))
    queries = json.loads((workdir / "queries.json").read_text(encoding="utf-8"))
    priors = json.loads((workdir / "priors.json").read_text(encoding="utf-8"))
    db_path = workdir / f"corpus_{args.index}.db"
    repository = MetadataRepository(path=str(db_path))
    try:
        bulk_ingest(repository, iter_schema_payloads(workdir / "corpus.jsonl"))
        for prior in priors:
            repository.store_matches(
                prior["source"],
                prior["target"],
                [Correspondence(source_id=s, target_id=t, score=1.0) for s, t in prior["pairs"]],
                asserted_by="validator",
                method=AssertionMethod.HUMAN_VALIDATED,
            )
        service = MatchService(repository=repository)
        service.corpus_index().refresh()
        ready = time.monotonic()
        if args.role == "setup":
            return {"ready": ready}

        new_schemata = [
            schema_from_dict(payload)
            for _, payload in iter_schema_payloads(workdir / "new.jsonl")
        ]
        write_every = spec["write_every"]
        top_k = spec["top_k"]
        expected = len(repository)
        records, writes = [], []
        after_write = False
        started = time.perf_counter()
        deadline = started + args.seconds
        for position, name in enumerate(queries):
            if time.perf_counter() >= deadline:
                break
            if position and position % write_every == 0 and new_schemata:
                schema = new_schemata.pop(0)
                _, write_ms = ops.run("write", repository.register, schema)
                writes.append({"ms": write_ms, "name": schema.name})
                expected += 1
                after_write = True
            response, elapsed_ms = ops.run(
                "query", service.corpus_match, CorpusMatchRequest(source=name, top_k=top_k)
            )
            records.append(
                {
                    "ms": elapsed_ms,
                    # Host speed, sampled between queries (untimed).
                    "probe_ms": probe_ms(),
                    "source": name,
                    "after_write": after_write,
                    "expected_registered": expected,
                    "n_registered": response.n_registered,
                    "n_retrieved": response.n_retrieved,
                    "candidates": list(response.candidate_names),
                }
            )
            after_write = False
        measured_s = time.perf_counter() - started
        return {
            "ready": ready,
            "measured_s": measured_s,
            "peak_rss_mb": _peak_rss_mb(),
            "queries": records,
            "writes": writes,
        }
    finally:
        repository.close()


PROGRAMS = {"case_study": case_study, "corpus_query": corpus_query}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(PROGRAMS))
    parser.add_argument("workdir", type=Path)
    parser.add_argument("--role", choices=("setup", "run"), required=True)
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    recorder = None
    if args.trace:
        import tracing

        recorder = tracing.Recorder(args.workload)
        tracing.install(recorder)
    result = PROGRAMS[args.workload](args, args.workdir, _Ops(recorder))
    if recorder is not None and args.role == "run":
        recorder.dump(str(args.workdir / f"spans_{args.workload}.json"))
    (args.workdir / f"result_{args.index}.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
