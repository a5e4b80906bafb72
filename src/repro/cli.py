"""Command-line interface: ``harmonia`` / ``python -m repro``.

Subcommands mirror the library's main operations:

* ``match A.sql B.xsd``      -- run a MATCH through the service (auto-routed
  exact/batch; ``--json`` emits the response envelope; ``--cascade``
  escalates ambiguous pairs to a Stage-2 oracle under ``--band`` /
  ``--oracle-budget``)
* ``batch A.sql B.xsd ...``  -- corpus fast path: one source vs a corpus,
  or ``--all-pairs`` over the whole registry
* ``corpus-match A.sql B.xsd C.sql ...`` -- repository-scale top-k match:
  register a corpus (or open a SQLite repository with ``--db``), prune it
  through the corpus index, match the survivors on the fast path, rank
  (``--json`` emits the CorpusMatchResponse envelope)
* ``network-match A C --db repo.db`` -- answer A -> C by composing stored
  mappings along pivot paths (``--max-hops``; ``--verify`` seeds a fast-path
  run with the composition; ``--json`` emits the NetworkMatchResponse)
* ``overlap A.sql B.xsd``    -- the Lesson-#3 partition report
* ``summarize A.sql``        -- SUMMARIZE(S) by root containers
* ``tree A.sql``             -- ASCII schema tree
* ``vocab A.sql B.xsd C.sql``-- N-way comprehensive vocabulary + partition
  (``--batch`` routes the pairwise stage through the fast path)
* ``cluster A.sql B.xsd ...``-- cluster a registry, propose COIs
* ``search QUERY A.sql ...`` -- keyword search over a registry
* ``casestudy``              -- regenerate the paper's section-3 study
* ``serve --db repo.db``     -- run the match server (``repro.server``):
  a threaded JSON API over one shared service with generation-aware
  response caching; SIGINT/SIGTERM shut down gracefully (in-flight
  requests drain), bad config or a port in use exits with status 2

Every matching subcommand goes through one :class:`repro.service.MatchService`
instance, so profiles and features are derived once per schema regardless of
how many match operations a command runs.

Schema files are loaded by extension: ``.sql`` via the DDL importer,
``.xsd`` via the XSD importer, ``.json`` via the serialiser.  A file that
cannot be read or parsed exits with status 2 and a one-line diagnostic.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro import __version__
from repro.cascade import CascadePlan
from repro.export.report import concept_match_text, overlap_report_text
from repro.metrics.overlap import matrix_overlap
from repro.schema.errors import ParseError
from repro.schema.relational import load_ddl_file
from repro.schema.schema import Schema
from repro.schema.serialize import load_schema
from repro.schema.xmlschema import load_xsd_file
from repro.service import MatchOptions, MatchService
from repro.summarize.manual import summarize_by_roots
from repro.viz.ascii import render_tree

__all__ = ["main"]

_LOADERS = {
    ".sql": load_ddl_file,
    ".xsd": load_xsd_file,
    ".json": load_schema,
}


def _fail(message: str) -> "SystemExit":
    """Uniform load-failure exit: diagnostic on stderr, status 2."""
    print(f"harmonia: error: {message}", file=sys.stderr)
    return SystemExit(2)


def _load(path: str) -> Schema:
    """Load one schema file by extension, with consistent error handling."""
    for suffix, loader in _LOADERS.items():
        if path.endswith(suffix):
            try:
                return loader(path)
            except OSError as exc:
                raise _fail(f"cannot read {path!r}: {exc.strerror or exc}") from exc
            # ValueError covers json.JSONDecodeError and bad enum payloads;
            # KeyError/TypeError cover structurally invalid serialised JSON.
            except (ParseError, KeyError, TypeError, ValueError) as exc:
                raise _fail(f"cannot parse {path!r}: {exc}") from exc
    raise _fail(f"cannot infer schema format of {path!r} (.sql/.xsd/.json)")


def _load_registry(paths: list[str]) -> dict[str, Schema]:
    """Load many schema files; duplicate schema names get _2/_3 suffixes."""
    registry: dict[str, Schema] = {}
    for path in paths:
        schema = _load(path)
        name = schema.name
        suffix = 2
        while name in registry:
            name = f"{schema.name}_{suffix}"
            suffix += 1
        registry[name] = schema
    return registry


def _cascade_plan(args: argparse.Namespace) -> CascadePlan | None:
    """Build the Stage-2 escalation plan from ``--cascade``/``--band``/
    ``--oracle-budget`` (None when ``--cascade`` was not given)."""
    if args.cascade is None:
        return None
    return CascadePlan(
        band=args.band, budget=args.oracle_budget, oracle=args.cascade
    )


def _add_cascade_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cascade",
        nargs="?",
        const="thesaurus",
        default=None,
        metavar="ORACLE",
        help="escalate ambiguous pairs to a Stage-2 oracle "
        "(optionally named; default oracle: thesaurus)",
    )
    parser.add_argument(
        "--band",
        type=float,
        default=0.25,
        help="ambiguity band: pairs with |confidence| below this escalate "
        "(default: 0.25; only with --cascade)",
    )
    parser.add_argument(
        "--oracle-budget",
        type=int,
        default=None,
        help="max escalated pairs per match (default: unlimited; "
        "only with --cascade)",
    )


def _cmd_match(args: argparse.Namespace) -> int:
    source = _load(args.source)
    target = _load(args.target)
    service = MatchService()
    options = MatchOptions(
        threshold=args.threshold, execution=args.route,
        cascade=_cascade_plan(args),
    )
    response = service.match_pair(source, target, options=options)
    if args.json:
        print(response.to_json(indent=2))
        return 0
    print(
        f"matched {source.name} ({len(source)}) x {target.name} ({len(target)}): "
        f"{response.n_pairs} pairs in {response.elapsed_seconds:.2f}s "
        f"[route={response.route}]"
    )
    if response.cascade is not None:
        report = response.cascade
        print(
            f"  cascade: {report.n_escalated}/{report.n_ambiguous} ambiguous "
            f"pairs escalated, {report.oracle_calls} oracle calls "
            f"({report.oracle_cache_hits} cached)"
            + (" [budget exhausted]" if report.truncated else "")
        )
    candidates = response.correspondences
    for candidate in candidates[: args.limit]:
        print(
            f"  {candidate.score:+.3f}  {source.path(candidate.source_id)}"
            f"  <->  {target.path(candidate.target_id)}"
        )
    if len(candidates) > args.limit:
        print(f"  ... ({len(candidates) - args.limit} more above {args.threshold})")
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    service = MatchService()
    options = MatchOptions(threshold=args.threshold, execution="batch")
    started = time.perf_counter()
    if args.all_pairs:
        registry = _load_registry(args.schemata)
        if len(registry) < 2:
            raise SystemExit("batch --all-pairs needs at least two schemata")
        responses = service.match_all_pairs(
            registry, options=options, executor=args.executor,
            max_workers=args.workers,
        )
    else:
        if len(args.schemata) < 2:
            raise SystemExit("batch needs a source and at least one target")
        source = _load(args.schemata[0])
        corpus = _load_registry(args.schemata[1:])
        responses = service.match_corpus(
            source, corpus, options=options, executor=args.executor,
            max_workers=args.workers,
        )
    elapsed = time.perf_counter() - started

    total_pairs = sum(response.n_pairs for response in responses)
    total_candidates = sum(response.n_candidates for response in responses)
    for response in responses:
        print(
            f"{response.source_name} x {response.target_name}: "
            f"{response.n_pairs:,} pairs, {response.n_candidates:,} candidates "
            f"({response.candidate_fraction:.1%}), "
            f"{len(response.correspondences)} correspondences "
            f"in {response.elapsed_seconds:.2f}s"
        )
        for correspondence in response.correspondences[: args.limit]:
            print(
                f"  {correspondence.score:+.3f}  {correspondence.source_id}"
                f"  <->  {correspondence.target_id}"
            )
    print(
        f"batch total: {len(responses)} match operations, {total_pairs:,} pairs "
        f"({total_candidates:,} scored after blocking) in {elapsed:.2f}s "
        f"[{args.executor}]"
    )
    return 0


def _cmd_corpus_match(args: argparse.Namespace) -> int:
    from repro.repository import MetadataRepository, ReusePolicy
    from repro.service import CorpusMatchRequest

    if args.db is None and not args.corpus:
        raise _fail(
            "corpus-match needs corpus schema files (or --db with a "
            "populated repository)"
        )
    repository = MetadataRepository(path=args.db)
    try:
        for name, schema in _load_registry(args.corpus).items():
            repository.register(schema, name=name)
        # The source is a schema file when it looks like one, else the name
        # of a schema already registered in the repository.
        if any(args.source.endswith(suffix) for suffix in _LOADERS):
            source = _load(args.source)
        else:
            if args.source not in repository:
                raise _fail(
                    f"{args.source!r} is neither a schema file (.sql/.xsd/.json) "
                    "nor a registered schema name"
                )
            source = args.source
        service = MatchService(repository=repository)
        request = CorpusMatchRequest(
            source=source,
            top_k=args.top_k,
            options=MatchOptions(
                threshold=args.threshold, cascade=_cascade_plan(args)
            ),
            retrieval_limit=args.retrieval_limit,
            reuse=None if args.no_reuse else ReusePolicy(),
            executor=args.executor,
            max_workers=args.workers,
        )
        response = service.corpus_match(request)
    finally:
        repository.close()
    if args.json:
        print(response.to_json(indent=2))
        return 0
    print(
        f"corpus-match {response.source_name}: {response.n_registered} registered, "
        f"{response.n_retrieved} retrieved, top {len(response.candidates)} ranked "
        f"in {response.elapsed_seconds:.2f}s "
        f"(retrieval {response.retrieval_seconds:.2f}s, "
        f"reuse {'on' if response.reuse_applied else 'off'})"
    )
    totals = response.cascade_totals()
    if totals is not None:
        print(
            f"  cascade: {totals['n_escalated']}/{totals['n_ambiguous']} "
            f"ambiguous pairs escalated, {totals['oracle_calls']} oracle calls "
            f"({totals['oracle_cache_hits']} cached)"
        )
    for rank, candidate in enumerate(response.candidates, start=1):
        print(
            f"{rank}. {candidate.target_name}: match score "
            f"{candidate.match_score:.2f} (bm25 {candidate.retrieval_score:.1f}), "
            f"{len(candidate)} correspondences"
            + (
                f", {candidate.n_boosted} boosted / {candidate.n_seeded} seeded"
                if response.reuse_applied
                else ""
            )
        )
        for correspondence in candidate.correspondences[: args.limit]:
            print(
                f"     {correspondence.score:+.3f}  {correspondence.source_id}"
                f"  <->  {correspondence.target_id}"
            )
        remaining = len(candidate.correspondences) - args.limit
        if remaining > 0:
            print(f"     ... ({remaining} more)")
    return 0


def _cmd_network_match(args: argparse.Namespace) -> int:
    from repro.repository import MetadataRepository
    from repro.service import NetworkMatchRequest

    repository = MetadataRepository(path=args.db)
    try:
        for name, schema in _load_registry(args.corpus).items():
            repository.register(schema, name=name)

        def endpoint(argument: str) -> str:
            """A schema file registers and contributes its name; otherwise
            the argument must already be a registered name."""
            if any(argument.endswith(suffix) for suffix in _LOADERS):
                schema = _load(argument)
                return repository.register(schema)
            if argument not in repository:
                raise _fail(
                    f"{argument!r} is neither a schema file (.sql/.xsd/.json) "
                    "nor a registered schema name"
                )
            return argument

        source = endpoint(args.source)
        target = endpoint(args.target)
        if source == target:
            raise _fail(
                f"source and target resolve to the same schema {source!r}; "
                "network routing needs two distinct endpoints"
            )
        service = MatchService(repository=repository)
        request = NetworkMatchRequest(
            source=source,
            target=target,
            max_hops=args.max_hops,
            hop_decay=args.decay,
            options=MatchOptions(threshold=args.threshold),
            min_score=args.min_score,
            verify=args.verify,
        )
        response = service.network_match(request)
    finally:
        repository.close()
    if args.json:
        print(response.to_json(indent=2))
        return 0
    print(
        f"network-match {response.source_name} -> {response.target_name}: "
        f"{response.n_paths} pivot path(s) over {response.n_edges} mapped "
        f"pair(s) / {response.n_nodes} schemata (max {response.max_hops} hops) "
        f"in {response.elapsed_seconds:.2f}s"
        + (
            f"; verified on the fast path ({response.n_boosted} boosted, "
            f"{response.n_seeded} seeded)"
            if response.verified
            else ""
        )
    )
    for path in response.paths:
        print(f"  via {' > '.join(path.nodes[1:-1])}: {path.n_pairs} pairs composed")
    for correspondence in response.correspondences[: args.limit]:
        line = (
            f"  {correspondence.score:+.3f}  {correspondence.source_id}"
            f"  <->  {correspondence.target_id}"
        )
        if correspondence.note:
            line += f"  [{correspondence.note}]"
        print(line)
    remaining = len(response.correspondences) - args.limit
    if remaining > 0:
        print(f"  ... ({remaining} more)")
    return 0


def _cmd_overlap(args: argparse.Namespace) -> int:
    source = _load(args.source)
    target = _load(args.target)
    response = MatchService().match_pair(source, target)
    report = matrix_overlap(response.result, args.threshold)
    print(overlap_report_text(report, source.name, target.name))
    return 0


def _cmd_summarize(args: argparse.Namespace) -> int:
    schema = _load(args.schema)
    summary = summarize_by_roots(schema)
    sizes = summary.concept_sizes()
    print(f"{len(summary)} concepts over {len(schema)} elements "
          f"(coverage {summary.coverage():.0%})")
    for concept in summary.concepts:
        print(f"  {concept.label}  ({sizes[concept.concept_id]} elements)")
    return 0


def _cmd_tree(args: argparse.Namespace) -> int:
    print(render_tree(_load(args.schema), max_elements=args.limit))
    return 0


def _cmd_vocab(args: argparse.Namespace) -> int:
    from repro.export.report import partition_table_text
    from repro.nway import nway_match

    registry = _load_registry(args.schemata)
    if len(registry) < 2:
        raise SystemExit("vocab needs at least two schemata")
    execution = "batch" if args.batch else "auto"
    service = MatchService(options=MatchOptions(execution=execution))
    vocabulary, partition = nway_match(registry, service=service)
    print(
        f"comprehensive vocabulary over {len(registry)} schemata: "
        f"{len(vocabulary)} entries"
    )
    print(partition_table_text(partition))
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    from repro.cluster import TermVectorDistance, propose_cois

    registry = _load_registry(args.schemata)
    if len(registry) < 2:
        raise SystemExit("cluster needs at least two schemata")
    distances = TermVectorDistance().matrix(registry)
    proposals = propose_cois(
        distances, n_clusters=args.clusters, min_cohesion=args.min_cohesion
    )
    if not proposals:
        print("no communities of interest found at this cohesion level")
        return 0
    for proposal in proposals:
        print(proposal.describe())
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    from repro.search import KeywordQuery, SchemaIndex, SchemaSearchEngine

    registry = _load_registry(args.schemata)
    index = SchemaIndex()
    for schema in registry.values():
        index.add(schema)
    searcher = SchemaSearchEngine(index)
    hits = searcher.search(KeywordQuery(args.query), limit=args.limit)
    if not hits:
        print(f"no schemata match {args.query!r}")
        return 0
    for hit in hits:
        print(f"  {hit.score:8.2f}  {hit.schema_name}")
    if args.fragments:
        print("fragments:")
        for hit in searcher.search_fragments(KeywordQuery(args.query), limit=args.limit):
            print(f"  {hit.score:8.2f}  {hit.schema_name}/{hit.root_name}")
    return 0


def _cmd_casestudy(args: argparse.Namespace) -> int:
    from repro.metrics.overlap import workflow_overlap
    from repro.synthetic.casestudy import case_study

    pair = case_study(seed=args.seed)
    # The paper reproduction pins its published numbers to the exact grid.
    response = MatchService().match_pair(
        pair.source.schema,
        pair.target.schema,
        options=MatchOptions(execution="exact"),
    )
    result = response.result
    print(
        f"SA: {len(pair.source.schema)} elements / "
        f"{len(pair.source.schema.roots())} concepts; "
        f"SB: {len(pair.target.schema)} elements / "
        f"{len(pair.target.schema.roots())} concepts"
    )
    print(f"full automated match: {response.n_pairs} pairs in "
          f"{response.elapsed_seconds:.2f}s (paper: 10.2s)")
    report = workflow_overlap(
        result, pair.source.truth_summary(), pair.target.truth_summary()
    )
    print()
    print(overlap_report_text(report))
    print()
    print(f"concept-level matches ({len(report.concept_matches)}; paper: 24):")
    print(concept_match_text(report.concept_matches, limit=10))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import os
    import sqlite3

    from repro.repository import MetadataRepository
    from repro.server import MatchServer, build_cache, serve_until_shutdown

    if args.cache_size <= 0:
        raise _fail(f"--cache-size must be positive, got {args.cache_size}")
    if args.cache_tier in ("shared", "tiered") and args.cache_url is None:
        raise _fail(f"--cache-tier {args.cache_tier} needs --cache-url")
    if args.cache_timeout <= 0:
        raise _fail(f"--cache-timeout must be positive, got {args.cache_timeout}")
    if args.warm_cache < 0:
        raise _fail(f"--warm-cache must be >= 0, got {args.warm_cache}")
    if args.workers < 1:
        raise _fail(f"--workers must be >= 1, got {args.workers}")
    if args.pool_size < 1:
        raise _fail(f"--pool-size must be >= 1, got {args.pool_size}")
    if args.refresh_interval is not None and args.refresh_interval <= 0:
        raise _fail(
            f"--refresh-interval must be positive, got {args.refresh_interval}"
        )
    if args.corpus_shards < 1:
        raise _fail(f"--corpus-shards must be >= 1, got {args.corpus_shards}")
    if args.slow_ms < 0:
        raise _fail(f"--slow-ms must be >= 0, got {args.slow_ms}")
    if args.trace_sample is not None and not 0.0 <= args.trace_sample <= 1.0:
        raise _fail(f"--trace-sample must be in [0, 1], got {args.trace_sample}")
    if args.workers > 1:
        if args.db is None:
            raise _fail(
                "--workers > 1 needs --db: the worker processes share one "
                "WAL repository file, not one address space"
            )
        if not hasattr(os, "fork"):
            raise _fail("--workers > 1 needs os.fork (POSIX only)")
        return _serve_process_pool(args)
    try:
        repository = MetadataRepository(path=args.db, pool_size=args.pool_size)
    except sqlite3.Error as exc:
        raise _fail(f"cannot open repository {args.db!r}: {exc}") from exc
    try:
        for name, schema in _load_registry(args.corpus).items():
            repository.register(schema, name=name)
        service = MatchService(
            repository=repository,
            options=MatchOptions(threshold=args.threshold),
            corpus_shards=args.corpus_shards,
        )
        if args.refresh_interval is not None:
            service.start_corpus_refresh(args.refresh_interval)
        try:
            server = MatchServer(
                service,
                host=args.host,
                port=args.port,
                cache_size=args.cache_size,
                quiet=not args.access_log,
                cache=build_cache(
                    cache_size=args.cache_size,
                    cache_url=args.cache_url,
                    tier=args.cache_tier,
                    timeout=args.cache_timeout,
                ),
                warm_limit=args.warm_cache,
                trace_log=args.trace_log,
                slow_ms=args.slow_ms,
                trace_sample=args.trace_sample,
            )
        except OSError as exc:
            raise _fail(
                f"cannot bind {args.host}:{args.port}: {exc.strerror or exc}"
            ) from exc

        def announce(started: MatchServer) -> None:
            print(
                f"harmonia {__version__} serving on {started.url} "
                f"({len(repository)} schemata registered, "
                f"cache {args.cache_size} entries); Ctrl-C to stop",
                flush=True,
            )

        serve_until_shutdown(server, announce=announce)
        service.stop_corpus_refresh()
        print("harmonia: server stopped cleanly", flush=True)
        return 0
    finally:
        repository.close()


def _cmd_ingest(args: argparse.Namespace) -> int:
    import json as json_module
    import sqlite3

    from repro.corpus import bulk_ingest, iter_schema_payloads
    from repro.repository import MetadataRepository

    if args.chunk_size < 1:
        raise _fail(f"--chunk-size must be >= 1, got {args.chunk_size}")
    if args.workers is not None and args.workers < 1:
        raise _fail(f"--workers must be >= 1, got {args.workers}")
    try:
        repository = MetadataRepository(path=args.db, pool_size=args.pool_size)
    except sqlite3.Error as exc:
        raise _fail(f"cannot open repository {args.db!r}: {exc}") from exc
    try:
        try:
            report = bulk_ingest(
                repository,
                iter_schema_payloads(args.source),
                chunk_size=args.chunk_size,
                executor=args.executor,
                max_workers=args.workers,
                fingerprint=not args.no_fingerprints,
            )
        except FileNotFoundError as exc:
            raise _fail(str(exc)) from exc
        except (ValueError, json_module.JSONDecodeError) as exc:
            raise _fail(f"cannot ingest {args.source}: {exc}") from exc
        if args.json:
            print(json_module.dumps(report.to_dict(), indent=2))
        else:
            print(
                f"ingested {report.n_read} schemata into {args.db} "
                f"({report.n_written} written, {report.n_skipped} identical "
                f"skipped, {report.n_fingerprinted} fingerprints)"
            )
            print(
                f"  {report.schemata_per_second:,.0f} schemata/s "
                f"({report.elapsed_seconds:.2f}s total: "
                f"{report.fingerprint_seconds:.2f}s fingerprinting, "
                f"{report.register_seconds:.2f}s registering)"
            )
        return 0
    finally:
        repository.close()


def _serve_process_pool(args: argparse.Namespace) -> int:
    import sqlite3

    from repro.repository import MetadataRepository
    from repro.server import serve_process_pool

    # Seed the corpus BEFORE forking, through a short-lived repository that
    # is fully closed again: SQLite connections must never cross a fork, so
    # the parent holds none while the workers start.
    try:
        repository = MetadataRepository(path=args.db, pool_size=args.pool_size)
    except sqlite3.Error as exc:
        raise _fail(f"cannot open repository {args.db!r}: {exc}") from exc
    try:
        for name, schema in _load_registry(args.corpus).items():
            repository.register(schema, name=name)
        n_schemata = len(repository)
    finally:
        repository.close()

    def announce(url: str, n_workers: int) -> None:
        print(
            f"harmonia {__version__} serving on {url} with {n_workers} "
            f"worker processes ({n_schemata} schemata registered, pooled "
            f"WAL store, {args.pool_size} connections/worker); "
            f"Ctrl-C to stop",
            flush=True,
        )

    try:
        status = serve_process_pool(
            args.db,
            args.workers,
            host=args.host,
            port=args.port,
            options=MatchOptions(threshold=args.threshold),
            cache_size=args.cache_size,
            pool_size=args.pool_size,
            quiet=not args.access_log,
            announce=announce,
            refresh_interval=args.refresh_interval,
            corpus_shards=args.corpus_shards,
            cache_url=args.cache_url,
            cache_tier=args.cache_tier,
            cache_timeout=args.cache_timeout,
            warm_limit=args.warm_cache,
            trace_log=args.trace_log,
            slow_ms=args.slow_ms,
            trace_sample=args.trace_sample,
        )
    except OSError as exc:
        raise _fail(
            f"cannot bind {args.host}:{args.port}: {exc.strerror or exc}"
        ) from exc
    if status == 0:
        print("harmonia: worker pool stopped cleanly", flush=True)
    else:
        print("harmonia: worker pool stopped after a worker failure", flush=True)
    return status


def _cmd_cache_serve(args: argparse.Namespace) -> int:
    from repro.server import CacheServer, serve_until_shutdown

    if args.cache_size <= 0:
        raise _fail(f"--cache-size must be positive, got {args.cache_size}")
    try:
        server = CacheServer(
            host=args.host, port=args.port, cache_size=args.cache_size
        )
    except OSError as exc:
        raise _fail(
            f"cannot bind {args.host}:{args.port}: {exc.strerror or exc}"
        ) from exc

    def announce(started: CacheServer) -> None:
        print(
            f"harmonia {__version__} cache-serve on {started.address} "
            f"({args.cache_size} entries); Ctrl-C to stop",
            flush=True,
        )

    serve_until_shutdown(server, announce=announce)
    print("harmonia: cache server stopped cleanly", flush=True)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.telemetry import (
        format_trace_summary,
        read_trace_log,
        summarize_trace_log,
    )

    try:
        summary = summarize_trace_log(read_trace_log(args.path))
    except OSError as exc:
        raise _fail(f"cannot read trace log {args.path!r}: {exc}") from exc
    except ValueError as exc:
        raise _fail(str(exc)) from exc
    if args.json:
        print(json_module.dumps(summary, indent=2))
        return 0
    if not summary["n_traces"]:
        print(f"no traces in {args.path}")
        return 0
    print(format_trace_summary(summary))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harmonia",
        description="Enterprise schema matching workbench (CIDR 2009 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"harmonia {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    match_parser = subparsers.add_parser("match", help="match two schemata")
    match_parser.add_argument("source")
    match_parser.add_argument("target")
    match_parser.add_argument("--threshold", type=float, default=0.10)
    match_parser.add_argument("--limit", type=int, default=30)
    match_parser.add_argument(
        "--route",
        choices=("auto", "exact", "batch"),
        default="auto",
        help="execution hint for the service router (default: auto)",
    )
    match_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the MatchResponse envelope as JSON",
    )
    _add_cascade_arguments(match_parser)
    match_parser.set_defaults(handler=_cmd_match)

    batch_parser = subparsers.add_parser(
        "batch", help="corpus-scale fast-path matching (source vs corpus)"
    )
    batch_parser.add_argument(
        "schemata", nargs="+", help="source schema followed by the corpus"
    )
    batch_parser.add_argument(
        "--all-pairs",
        action="store_true",
        help="match every pair of the given schemata (N-way) instead of source-vs-corpus",
    )
    batch_parser.add_argument("--threshold", type=float, default=0.15)
    batch_parser.add_argument("--limit", type=int, default=10)
    batch_parser.add_argument(
        "--executor", choices=("serial", "thread", "process"), default="serial"
    )
    batch_parser.add_argument("--workers", type=int, default=None)
    batch_parser.set_defaults(handler=_cmd_batch)

    corpus_parser = subparsers.add_parser(
        "corpus-match",
        help="repository-scale top-k match: one schema vs everything registered",
    )
    corpus_parser.add_argument(
        "source", help="query schema file, or a registered name with --db"
    )
    corpus_parser.add_argument(
        "corpus", nargs="*",
        help="schema files to register before matching (optional with --db)",
    )
    corpus_parser.add_argument(
        "--db", default=None,
        help="SQLite repository path (default: ephemeral in-memory registry)",
    )
    corpus_parser.add_argument("--top-k", type=int, default=5)
    corpus_parser.add_argument("--threshold", type=float, default=0.15)
    corpus_parser.add_argument(
        "--retrieval-limit", type=int, default=None,
        help="candidates to match after index pruning (default: max(3*top_k, 10))",
    )
    corpus_parser.add_argument(
        "--limit", type=int, default=5,
        help="correspondences printed per candidate (text output)",
    )
    corpus_parser.add_argument(
        "--no-reuse", action="store_true",
        help="skip boosting/seeding from previously stored matches",
    )
    corpus_parser.add_argument(
        "--executor", choices=("serial", "thread", "process"), default="serial"
    )
    corpus_parser.add_argument("--workers", type=int, default=None)
    corpus_parser.add_argument(
        "--json", action="store_true",
        help="emit the CorpusMatchResponse envelope as JSON",
    )
    _add_cascade_arguments(corpus_parser)
    corpus_parser.set_defaults(handler=_cmd_corpus_match)

    network_parser = subparsers.add_parser(
        "network-match",
        help="compose a match through the mapping network of stored mappings",
    )
    network_parser.add_argument(
        "source", help="query schema file, or a registered name (with --db)"
    )
    network_parser.add_argument(
        "target", help="target schema file, or a registered name (with --db)"
    )
    network_parser.add_argument(
        "corpus", nargs="*",
        help="additional schema files to register before routing",
    )
    network_parser.add_argument(
        "--db", default=None,
        help="SQLite repository path holding the stored mappings to route through",
    )
    network_parser.add_argument(
        "--max-hops", type=int, default=2,
        help="maximum pivot schemata per composition path (default: 2)",
    )
    network_parser.add_argument(
        "--decay", type=float, default=0.9,
        help="confidence decay per pivot beyond the first (default: 0.9)",
    )
    network_parser.add_argument(
        "--min-score", type=float, default=0.0,
        help="drop composed candidates below this score",
    )
    network_parser.add_argument(
        "--verify", action="store_true",
        help="run the blocked fast path over the pair, seeded by the composition",
    )
    network_parser.add_argument("--threshold", type=float, default=0.15)
    network_parser.add_argument(
        "--limit", type=int, default=10,
        help="correspondences printed (text output)",
    )
    network_parser.add_argument(
        "--json", action="store_true",
        help="emit the NetworkMatchResponse envelope as JSON",
    )
    network_parser.set_defaults(handler=_cmd_network_match)

    overlap_parser = subparsers.add_parser("overlap", help="overlap partition report")
    overlap_parser.add_argument("source")
    overlap_parser.add_argument("target")
    overlap_parser.add_argument("--threshold", type=float, default=0.15)
    overlap_parser.set_defaults(handler=_cmd_overlap)

    summarize_parser = subparsers.add_parser("summarize", help="SUMMARIZE(S) by roots")
    summarize_parser.add_argument("schema")
    summarize_parser.set_defaults(handler=_cmd_summarize)

    tree_parser = subparsers.add_parser("tree", help="print a schema tree")
    tree_parser.add_argument("schema")
    tree_parser.add_argument("--limit", type=int, default=60)
    tree_parser.set_defaults(handler=_cmd_tree)

    vocab_parser = subparsers.add_parser(
        "vocab", help="N-way comprehensive vocabulary and partition"
    )
    vocab_parser.add_argument("schemata", nargs="+")
    vocab_parser.add_argument(
        "--batch",
        action="store_true",
        help="route the pairwise stage through the batch fast path",
    )
    vocab_parser.set_defaults(handler=_cmd_vocab)

    cluster_parser = subparsers.add_parser(
        "cluster", help="cluster a registry and propose COIs"
    )
    cluster_parser.add_argument("schemata", nargs="+")
    cluster_parser.add_argument("--clusters", type=int, default=None)
    cluster_parser.add_argument("--min-cohesion", type=float, default=0.0)
    cluster_parser.set_defaults(handler=_cmd_cluster)

    search_parser = subparsers.add_parser(
        "search", help="keyword search over a registry of schema files"
    )
    search_parser.add_argument("query")
    search_parser.add_argument("schemata", nargs="+")
    search_parser.add_argument("--limit", type=int, default=10)
    search_parser.add_argument("--fragments", action="store_true")
    search_parser.set_defaults(handler=_cmd_search)

    case_parser = subparsers.add_parser(
        "casestudy", help="regenerate the paper's section-3 study"
    )
    case_parser.add_argument("--seed", type=int, default=2009)
    case_parser.set_defaults(handler=_cmd_casestudy)

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the match server (threaded JSON API with response caching)",
    )
    serve_parser.add_argument(
        "corpus", nargs="*",
        help="schema files to register before serving (optional with --db)",
    )
    serve_parser.add_argument(
        "--db", default=None,
        help="SQLite repository path (default: ephemeral in-memory registry)",
    )
    serve_parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes; > 1 preforks a pool sharing one socket and "
             "one pooled-WAL store (needs --db)",
    )
    serve_parser.add_argument(
        "--pool-size", type=int, default=4,
        help="SQLite connections per --db store (per worker process)",
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port", type=int, default=8765,
        help="bind port (0 picks an ephemeral one; in use exits with status 2)",
    )
    serve_parser.add_argument(
        "--cache-size", type=int, default=1024,
        help="response-cache LRU bound (entries)",
    )
    serve_parser.add_argument(
        "--threshold", type=float, default=0.15,
        help="default selection threshold for served requests",
    )
    serve_parser.add_argument(
        "--access-log", action="store_true",
        help="log one line per request to stderr (off by default)",
    )
    serve_parser.add_argument(
        "--refresh-interval", type=float, default=None,
        help="seconds between background corpus-index refresh checks "
             "(default: refresh synchronously on the query path)",
    )
    serve_parser.add_argument(
        "--corpus-shards", type=int, default=1,
        help="partition the corpus index into N hash-range shards "
             "(default: 1, unsharded; retrieval is exact either way)",
    )
    serve_parser.add_argument(
        "--cache-url", default=None, metavar="HOST:PORT",
        help="shared cache server to mount (see `harmonia cache-serve`); "
             "default: per-process cache only",
    )
    serve_parser.add_argument(
        "--cache-tier", choices=("auto", "local", "shared", "tiered"),
        default="auto",
        help="cache topology: local LRU, shared remote, or tiered "
             "local-over-shared (auto: tiered when --cache-url is given)",
    )
    serve_parser.add_argument(
        "--cache-timeout", type=float, default=1.0,
        help="seconds before a shared-cache call degrades to a miss",
    )
    serve_parser.add_argument(
        "--warm-cache", type=int, default=0, metavar="N",
        help="pre-answer the repository's N hottest recorded requests "
             "at startup (0 disables warming)",
    )
    serve_parser.add_argument(
        "--trace-log", default=None, metavar="PATH",
        help="append slow-request traces (one JSON span tree per line) to "
             "this file; summarise with `harmonia trace PATH`",
    )
    serve_parser.add_argument(
        "--slow-ms", type=float, default=250.0, metavar="MS",
        help="requests slower than this land in --trace-log (0 logs every "
             "sampled request)",
    )
    serve_parser.add_argument(
        "--trace-sample", type=float, default=None, metavar="RATE",
        help="fraction of requests to trace server-side, in [0, 1] "
             "(default: trace all; client opt-in via options.trace is "
             "always honoured)",
    )
    serve_parser.set_defaults(handler=_cmd_serve)

    trace_parser = subparsers.add_parser(
        "trace",
        help="summarise a --trace-log file: per-stage time breakdown",
    )
    trace_parser.add_argument("path", help="trace JSONL file to summarise")
    trace_parser.add_argument(
        "--json", action="store_true",
        help="print the summary as JSON instead of the table",
    )
    trace_parser.set_defaults(handler=_cmd_trace)

    cache_serve_parser = subparsers.add_parser(
        "cache-serve",
        help="run the shared response-cache server replicas mount via "
             "--cache-url",
    )
    cache_serve_parser.add_argument("--host", default="127.0.0.1")
    cache_serve_parser.add_argument(
        "--port", type=int, default=8901,
        help="bind port (0 picks an ephemeral one; in use exits with "
             "status 2)",
    )
    cache_serve_parser.add_argument(
        "--cache-size", type=int, default=65536,
        help="shared-cache LRU bound (entries)",
    )
    cache_serve_parser.set_defaults(handler=_cmd_cache_serve)

    ingest_parser = subparsers.add_parser(
        "ingest",
        help="bulk-register a directory or JSONL of schemata into a repository",
    )
    ingest_parser.add_argument(
        "source",
        help="directory of schema *.json files, or a JSONL file "
             "(one serialised schema -- or {name, schema} wrapper -- per line)",
    )
    ingest_parser.add_argument(
        "--db", required=True,
        help="SQLite repository path (created if missing)",
    )
    ingest_parser.add_argument(
        "--pool-size", type=int, default=4,
        help="SQLite connections for the --db store",
    )
    ingest_parser.add_argument(
        "--chunk-size", type=int, default=256,
        help="schemata per backend transaction",
    )
    ingest_parser.add_argument(
        "--executor", choices=("serial", "thread", "process"), default="serial",
        help="how to fan out fingerprint precomputation",
    )
    ingest_parser.add_argument(
        "--workers", type=int, default=None,
        help="worker count for --executor thread/process",
    )
    ingest_parser.add_argument(
        "--no-fingerprints", action="store_true",
        help="skip fingerprint precomputation (the first corpus refresh "
             "will derive them on the query path instead)",
    )
    ingest_parser.add_argument(
        "--json", action="store_true",
        help="print the ingest report as JSON",
    )
    ingest_parser.set_defaults(handler=_cmd_ingest)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
