"""Correctness referees, run by ``run.py`` after the timed phase.

Each referee returns ``(attempted, failed, notes)``: every timed
operation is attempted once, and an operation fails when it raised,
timed out, or its output disagrees with the reference.  ``notes`` says
why, one line per kind of mismatch.
"""

from __future__ import annotations

from pathlib import Path

TOLERANCE = 1e-9


def same_pairs(ours, theirs) -> bool:
    """Same (source, target) pair set, scores equal to 1e-9."""
    mine = {(s, t): score for s, t, score in ours}
    reference = {(s, t): score for s, t, score in theirs}
    return mine.keys() == reference.keys() and all(
        abs(mine[pair] - reference[pair]) <= TOLERANCE for pair in mine
    )


def f1_score(predicted: set, truth: set) -> float:
    hits = len(predicted & truth)
    if not hits:
        return 0.0
    precision, recall = hits / len(predicted), hits / len(truth)
    return 2 * precision * recall / (precision + recall)


# ----------------------------------------------------------------------
# case_study
# ----------------------------------------------------------------------
def case_study(result: dict, facts: dict, floors: dict) -> tuple[int, int, list[str], dict]:
    sessions = result["sessions"]
    notes: list[str] = []
    attempted = failed = 0
    grid = facts["n_source"] * facts["n_target"]
    truth = {tuple(pair) for pair in facts["truth_pairs"]}
    reference = sessions[0] if sessions else None
    engine_check = result["exact_vs_batch"]
    engines_agree = engine_check["n_candidates"] > 0 and engine_check["max_drift"] <= TOLERANCE
    if not engines_agree:
        notes.append(f"exact vs batch scores on candidate pairs: {engine_check}")
    f1_values = []
    for session in sessions:
        steps = session["increments"]
        attempted += 2 + len(steps)
        if not engines_agree or session["full_route"] != "exact" or not same_pairs(
            session["full_pairs"], reference["full_pairs"]
        ):
            failed += 1
            notes.append("full exact match differs from the reference")
        if not engines_agree or session["auto_route"] != "batch" or not same_pairs(
            session["auto_pairs"], reference["auto_pairs"]
        ):
            failed += 1
            notes.append("auto-route match differs from the reference")
        covered = sum(step["n_pairs"] for step in steps) == grid and sum(
            step["n_source"] for step in steps
        ) == facts["n_source"]
        predicted = {(s, t) for step in steps for s, t, _ in step["pairs"]}
        f1 = f1_score(predicted, truth)
        f1_values.append(f1)
        deterministic = all(
            same_pairs(step["pairs"], first["pairs"])
            for step, first in zip(steps, reference["increments"])
        )
        if not covered or f1 < floors["increment_f1"] or not deterministic:
            failed += len(steps)
            notes.append(
                f"increments: grid covered once {covered}, F1 {f1:.4f} "
                f"(floor {floors['increment_f1']}), same as first session {deterministic}"
            )
    extras = {"increment_f1": min(f1_values) if f1_values else 0.0}
    return attempted, failed, sorted(set(notes)), extras


def increments_partition(increments: list, source_ids: list) -> bool:
    """The increment requests name every source element exactly once."""
    named = [element_id for step in increments for element_id in step]
    return len(named) == len(set(named)) and set(named) == set(source_ids)


# ----------------------------------------------------------------------
# corpus_query
# ----------------------------------------------------------------------
def corpus_query(result: dict, facts: dict, floors: dict, top_k: int) -> tuple[int, int, list[str], dict]:
    notes: list[str] = []
    queries, writes = result["queries"], result["writes"]
    attempted = len(queries) + len(writes)
    failed = 0
    domain_of = facts["domain_of"]
    recalls = []
    for record in queries:
        source = record["source"]
        candidates = record["candidates"]
        recalls.append(
            sum(1 for name in candidates if domain_of.get(name) == domain_of[source]) / top_k
        )
        if record["n_registered"] != record["expected_registered"]:
            failed += 1
            notes.append("a query did not see the current registry size")
        elif len(candidates) != top_k or source in candidates:
            failed += 1
            notes.append("a query returned a malformed top-k")
    recall = sum(recalls) / len(recalls) if recalls else 0.0
    if recall < floors["corpus_recall"]:
        failed = attempted
        notes.append(f"top-{top_k} domain recall {recall:.4f} below {floors['corpus_recall']}")
    return attempted, failed, sorted(set(notes)), {"corpus_recall": recall}


# ----------------------------------------------------------------------
# served_mix
# ----------------------------------------------------------------------
def _served_equal(endpoint: str, served: dict, direct: dict) -> bool:
    if endpoint == "/match":
        return same_pairs(served["pairs"], direct["pairs"])
    if endpoint == "/corpus-match":
        return (
            served["n_registered"] == direct["n_registered"]
            and [c[0] for c in served["candidates"]] == [c[0] for c in direct["candidates"]]
            and all(
                same_pairs(ours[1], theirs[1])
                for ours, theirs in zip(served["candidates"], direct["candidates"])
            )
        )
    return served["paths"] == direct["paths"] and same_pairs(served["pairs"], direct["pairs"])


def served_mix(workdir: Path, load: dict, requests: list, writes: list) -> tuple[int, int, list[str], dict]:
    """Every served envelope against a direct in-process answer.

    The repository is replayed write by write on a pristine copy.  A
    response must equal the direct answer for a repository state it could
    have seen: every write finished before the request was sent, plus
    any writes that overlapped it.  Anything older is a stale response.
    """
    import shutil

    from loadgen import build_request, digest
    from repro.match import Correspondence
    from repro.repository import AssertionMethod, MetadataRepository
    from repro.schema.serialize import load_schema
    from repro.service import MatchService

    records, write_records = load["requests"], load["writes"]
    notes: list[str] = []
    attempted = len(records) + len(write_records)
    failed = 0
    bad: set[int] = set()
    for index, record in enumerate(records):
        if record is None or not record["ok"]:
            bad.add(index)
    for record in write_records:
        if record is None or not record["ok"]:
            failed += 1
            notes.append("a repository write failed")
    if bad:
        notes.append(f"{len(bad)} requests failed or never ran")

    # The window of repository states each request could have seen.
    finished = sorted(w["done"] for w in write_records if w is not None)
    started = sorted(w["sent"] for w in write_records if w is not None)
    windows = {}
    for index, record in enumerate(records):
        if index in bad:
            continue
        low = sum(1 for end in finished if end <= record["sent"])
        high = sum(1 for begin in started if begin < record["done"])
        windows[index] = (low, high)

    replay = workdir / "referee.db"
    shutil.copyfile(workdir / "serve_initial.db", replay)
    stale = set(windows)
    with MetadataRepository(path=str(replay)) as repository:
        service = MatchService(repository=repository)
        direct_cache: dict = {}
        for state in range(len(writes) + 1):
            if state:
                item = writes[state - 1]
                if item["kind"] == "register":
                    repository.register(load_schema(str(workdir / "register.json")))
                else:
                    repository.store_matches(
                        item["source"],
                        item["target"],
                        [Correspondence(source_id=s, target_id=t, score=1.0) for s, t in item["pairs"]],
                        asserted_by="validator",
                        method=AssertionMethod.HUMAN_VALIDATED,
                    )
            for index in sorted(stale):
                low, high = windows[index]
                if not low <= state <= high:
                    continue
                endpoint = records[index]["endpoint"]
                body = requests[index]["body"]
                # /match answers depend on the registered schemata only.
                key = (endpoint, repr(sorted(body.items())), 0 if endpoint == "/match" else state)
                if key not in direct_cache:
                    request = build_request(endpoint, body)
                    method = {
                        "/match": service.match,
                        "/corpus-match": service.corpus_match,
                        "/network-match": service.network_match,
                    }[endpoint]
                    direct_cache[key] = digest(endpoint, method(request))
                if _served_equal(endpoint, records[index]["digest"], direct_cache[key]):
                    stale.discard(index)
    if stale:
        notes.append(f"{len(stale)} stale or wrong responses")
    failed += len(bad) + len(stale)
    return attempted, failed, notes, {"stale": len(stale), "checked": len(windows)}
