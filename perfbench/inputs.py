"""Seeded input generation for the three workloads.

Everything here runs in the benchmark process *before* any program
process starts, so generation cost never lands in ``setup_s``.  The
program processes receive only the files written here: schema JSON,
JSONL payload corpora, a repository file, and request lists.  The same
seed always yields byte-identical inputs.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload), encoding="utf-8")


def _truth_correspondences(first, second) -> list[list[str]]:
    """Ground-truth (source id, target id) pairs of two generated schemata.

    Two elements correspond when the generator planted them for the same
    (concept, facet); the synthetic corpora keep element ids stable, so
    this is exact ground truth for schemata of one domain.
    """
    by_facet: dict = {}
    for element_id, facet in second.facet_of_element.items():
        by_facet.setdefault(facet, []).append(element_id)
    return sorted(
        [source_id, target_id]
        for source_id, facet in first.facet_of_element.items()
        for target_id in by_facet.get(facet, ())
    )


# ----------------------------------------------------------------------
# case_study: the section-3.3 analyst session
# ----------------------------------------------------------------------
def case_study_inputs(seed: int, workdir: Path) -> dict:
    """SA/SB as JSON plus the 140 concept-subtree increments.

    Returns the referee's private facts (ground truth, grid size), which
    never reach the program.
    """
    from repro.schema.serialize import dump_schema
    from repro.synthetic import case_study

    pair = case_study(seed)
    source, target = pair.source.schema, pair.target.schema
    dump_schema(source, str(workdir / "sa.json"))
    dump_schema(target, str(workdir / "sb.json"))
    increments = [
        [element.element_id for element in source.subtree(root)]
        for root in source.roots()
    ]
    _write_json(workdir / "increments.json", increments)
    return {
        "truth_pairs": sorted(list(p) for p in pair.truth_pairs),
        "source_ids": list(source.element_ids),
        "n_source": len(source),
        "n_target": len(target),
    }


# ----------------------------------------------------------------------
# corpus_query: repository-scale top-k with interleaved registrations
# ----------------------------------------------------------------------
def corpus_query_inputs(
    seed: int,
    workdir: Path,
    n_schemata: int,
    n_new: int,
    n_queries: int,
    n_prior_sets: int,
    schemata_per_domain: int,
) -> dict:
    """The corpus JSONL, schemata to register mid-run, queries, priors."""
    from repro.schema.serialize import schema_to_dict
    from repro.synthetic import generate_scaled_corpus

    corpus = generate_scaled_corpus(
        n_schemata + n_new, schemata_per_domain=schemata_per_domain, seed=seed
    )
    initial, extra = corpus.schemata[:n_schemata], corpus.schemata[n_schemata:]
    with open(workdir / "corpus.jsonl", "w", encoding="utf-8") as handle:
        for generated in initial:
            handle.write(json.dumps(schema_to_dict(generated.schema)) + "\n")
    with open(workdir / "new.jsonl", "w", encoding="utf-8") as handle:
        for generated in extra:
            handle.write(json.dumps(schema_to_dict(generated.schema)) + "\n")

    rng = random.Random(f"corpus_query::{seed}")
    names = [generated.schema.name for generated in initial]
    queries = rng.sample(names, min(n_queries, len(names)))
    _write_json(workdir / "queries.json", queries)

    # Validated match sets between same-domain schemata, so ReusePolicy
    # has priors to boost with.  Query sources are preferred, so priors
    # are actually consulted during the timed phase.
    by_name = {generated.schema.name: generated for generated in initial}
    members: dict[int, list[str]] = {}
    for name in names:
        members.setdefault(corpus.domain_of[name], []).append(name)
    priors = []
    for source_name in queries[:n_prior_sets]:
        peers = [n for n in members[corpus.domain_of[source_name]] if n != source_name]
        target_name = rng.choice(peers)
        priors.append(
            {
                "source": source_name,
                "target": target_name,
                "pairs": _truth_correspondences(
                    by_name[source_name], by_name[target_name]
                ),
            }
        )
    _write_json(workdir / "priors.json", priors)
    return {
        "domain_of": {
            name: corpus.domain_of[name]
            for name in names + [g.schema.name for g in extra]
        },
        "n_schemata": n_schemata,
    }


# ----------------------------------------------------------------------
# served_mix: matching as shared infrastructure over HTTP
# ----------------------------------------------------------------------
def served_mix_inputs(
    seed: int,
    workdir: Path,
    n_domains: int,
    per_domain: int,
    schedule: list[tuple[float, float]],
    mix: dict[str, float],
    hot_pairs: int,
    hot_share: float,
    write_interval: float,
    register_at: float,
) -> None:
    """The repository file, the request schedule and the write schedule.

    ``schedule`` is a list of (offered rate, seconds) steps; each request
    records the index of its step.  Every request is due at a fixed offset from the start of the
    load, whatever the server does (an open loop).
    """
    from repro.match import Correspondence
    from repro.repository import AssertionMethod, MetadataRepository
    from repro.synthetic import generate_clustered_corpus

    corpus = generate_clustered_corpus(
        n_domains=n_domains, schemata_per_domain=per_domain + 1, seed=seed
    )
    served = [g for g in corpus.schemata if not g.schema.name.endswith(f"S{per_domain}")]
    held_out = [g for g in corpus.schemata if g.schema.name.endswith(f"S{per_domain}")]
    by_name = {g.schema.name: g for g in corpus.schemata}
    names = [g.schema.name for g in served]

    def validated(source_name: str, target_name: str) -> list:
        return [
            Correspondence(source_id=s, target_id=t, score=1.0)
            for s, t in _truth_correspondences(by_name[source_name], by_name[target_name])
        ]

    db_path = workdir / "serve.db"
    with MetadataRepository(path=str(db_path)) as repository:
        for generated in served:
            repository.register(generated.schema)
        # The stored mapping chain D{d}S0 -> D{d}S1 -> ... that
        # /network-match routes through.
        for domain in range(n_domains):
            for ordinal in range(per_domain - 1):
                source_name, target_name = f"D{domain}S{ordinal}", f"D{domain}S{ordinal + 1}"
                repository.store_matches(
                    source_name,
                    target_name,
                    validated(source_name, target_name),
                    asserted_by="validator",
                    method=AssertionMethod.HUMAN_VALIDATED,
                )

    rng = random.Random(f"served_mix::{seed}")
    match_keys = [(a, b) for a in names for b in names if a != b]
    rng.shuffle(match_keys)  # the hot set differs per seed
    corpus_keys = list(names)
    rng.shuffle(corpus_keys)
    network_keys = [
        (f"D{d}S{i}", f"D{d}S{i + 2}")
        for d in range(n_domains)
        for i in range(per_domain - 2)
    ]
    rng.shuffle(network_keys)

    def stratified(shares: dict, count: int, block: int) -> list:
        """``count`` labels in the exact ``shares``, spread evenly.

        Each run of ``block`` consecutive labels holds every label in its
        share (shuffled within the block), so a run's request mix and
        the spacing of its expensive requests do not depend on the seed.
        """
        per_block = {label: round(share * block) for label, share in shares.items()}
        labels: list = []
        while len(labels) < count:
            chunk = [label for label, n in per_block.items() for _ in range(n)]
            rng.shuffle(chunk)
            labels.extend(chunk)
        return labels[:count]

    # Sources cycle through the served names, so every seed's corpus and
    # network requests cover the same share of the registry.
    corpus_cycle = itertools.cycle(corpus_keys)
    network_cycle = itertools.cycle(network_keys)
    # A hot set that the response cache can hold, and a tail over every
    # other ordered pair -- a key space larger than the cache, so tail
    # requests keep missing.
    hot_keys, tail_cycle = match_keys[:hot_pairs], itertools.cycle(match_keys[hot_pairs:])

    def draw(count: int) -> list[tuple[str, dict]]:
        kinds = stratified(mix, count, block=20)
        n_match = kinds.count("/match")
        temperature = iter(stratified({"hot": hot_share, "tail": 1 - hot_share}, n_match, block=10))
        drawn = []
        for kind in kinds:
            if kind == "/match":
                if next(temperature) == "hot":
                    source_name, target_name = rng.choice(hot_keys)
                else:
                    source_name, target_name = next(tail_cycle)
                body = {"source": source_name, "target": target_name}
            elif kind == "/corpus-match":
                body = {"source": next(corpus_cycle), "top_k": 3, "retrieval_limit": 3}
            else:
                source_name, target_name = next(network_cycle)
                body = {"source": source_name, "target": target_name, "max_hops": 2}
            drawn.append((kind, body))
        return drawn

    requests = []
    offset = 0.0
    for step, (rate, seconds) in enumerate(schedule):
        for index, (kind, body) in enumerate(draw(int(round(rate * seconds)))):
            requests.append({"due": offset + index / rate, "step": step, "endpoint": kind, "body": body})
        offset += seconds

    # Writes: validated match sets at a low fixed rate, and one schema
    # registration (which bumps the registry generation and so
    # invalidates every cached /match entry).
    writes = []
    chained = {(f"D{d}S{i}", f"D{d}S{i + 1}") for d in range(n_domains) for i in range(per_domain - 1)}
    extra_pairs = [
        (a, b)
        for a in names
        for b in names
        if a != b and a.split("S")[0] == b.split("S")[0] and (a, b) not in chained
    ]
    rng.shuffle(extra_pairs)
    due = write_interval
    pairs = iter(extra_pairs)
    registered = False
    while due < offset:
        if not registered and due >= register_at * offset:
            writes.append({"due": due, "kind": "register", "name": held_out[0].schema.name})
            registered = True
        else:
            source_name, target_name = next(pairs)
            writes.append(
                {
                    "due": due,
                    "kind": "store_matches",
                    "source": source_name,
                    "target": target_name,
                    "pairs": [
                        [c.source_id, c.target_id]
                        for c in validated(source_name, target_name)
                    ],
                }
            )
        due += write_interval
    if held_out:
        from repro.schema.serialize import dump_schema

        dump_schema(held_out[0].schema, str(workdir / "register.json"))
    _write_json(workdir / "requests.json", requests)
    _write_json(workdir / "writes.json", writes)
