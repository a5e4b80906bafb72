"""The MatchService facade: one front door for every MATCH invocation.

Section 5 argues that enterprise matching is a *managed operation*: inputs,
configurations and outputs are knowledge artifacts, and callers should not
care which execution strategy realises a MATCH.  :class:`MatchService` is
that seam.  It

* accepts typed :class:`~repro.service.requests.MatchRequest` objects
  (inline schemata or repository references, declarative
  :class:`~repro.service.options.MatchOptions`),
* **auto-routes** between the exact per-grid engine
  (:class:`~repro.match.engine.HarmonyMatchEngine`) and the blocked,
  feature-cached batch fast path (:class:`~repro.batch.BatchMatchRunner`)
  based on workload shape -- pair count for a single pair, registry size
  for corpus and all-pairs sweeps,
* shares **one** :class:`~repro.matchers.profile.FeatureSpace` (which
  owns the profile cache) across every engine and runner it compiles, so
  repeated calls over the same schemata never re-derive linguistic
  features,
* returns JSON-round-trippable
  :class:`~repro.service.response.MatchResponse` envelopes carrying
  provenance, timing and the routing decision, and
* optionally binds to a :class:`~repro.repository.store.MetadataRepository`
  so responses can be persisted and prior matches recalled (the paper's
  matches-as-knowledge loop).

The dataflow (request -> routing -> engine/batch -> response -> repository)
is drawn in ``docs/architecture.md``.

**Thread-safety.**  One service instance may be shared across threads (the
serving tier, :mod:`repro.server`, runs one per process under a
``ThreadingHTTPServer``): compiled-executor caches, the registered-schema
cache, and the lazy corpus index / mapping graph singletons are guarded by
an internal lock, so concurrent ``match_pair`` / ``corpus_match`` /
``network_match`` calls return the serial results -- pair-for-pair, with
scores equal to 1e-9 (thread-order token interning permutes float
summation order by one ulp; regression-tested by a thread-pool hammer in
``tests/test_concurrency.py``).  The lock covers cache *structure*, not
execution: matches themselves run concurrently.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace
from itertools import combinations
from typing import Callable, Iterable, Mapping, Sequence

from repro.batch.runner import BatchMatchRunner, BatchPairOutcome, check_workers
from repro.cascade.executor import CascadeCounters, CascadeExecutor
from repro.cascade.plan import CascadePlan
from repro.corpus.index import ShardedCorpusIndex
from repro.corpus.index import payload_hash as corpus_payload_hash
from repro.corpus.sharding import CorpusRefreshWorker
from repro.match.correspondence import Correspondence
from repro.match.engine import HarmonyMatchEngine, MatchResult
from repro.match.selection import SelectionStrategy
from repro.matchers.profile import FeatureSpace
from repro.network.graph import MappingGraph
from repro.repository.provenance import AssertionMethod, ProvenanceRecord, TrustPolicy
from repro.repository.store import MetadataRepository
from repro.schema.schema import Schema
from repro.schema.serialize import schema_to_dict
from repro.service.corpus_response import CorpusCandidate, CorpusMatchResponse
from repro.service.network_response import NetworkMatchResponse
from repro.service.options import MatchOptions
from repro.service.requests import (
    CorpusMatchRequest,
    MatchRequest,
    NetworkMatchRequest,
    SchemaRef,
)
from repro.service.response import MatchResponse
from repro.telemetry import Tracer, request_trace, span

__all__ = ["MatchService"]

#: Auto-routing default: a workload whose pair grid (single pair) or total
#: pair count (corpus / all-pairs sweep) reaches this many cells goes
#: through the blocked fast path (the paper's 10^6-pair scale; the E16
#: case study sits just above it at 1378 x 784).  Routing is deliberately
#: pair-count-only: blocking's measured recall is a price worth paying at
#: scale, never for a small registry where the exact engine is cheap and
#: lossless.
DEFAULT_AUTO_BATCH_PAIRS = 200_000


class MatchService:
    """The single entry point for matching (see module docstring).

    Parameters
    ----------
    options:
        Service-wide default :class:`MatchOptions`; requests may override
        per call.  The calibrated Harmony defaults when omitted.
    repository:
        Optional :class:`MetadataRepository` enabling schema-by-name
        requests, :meth:`persist` and :meth:`recall`.
    auto_batch_pairs:
        The auto-routing shape threshold (see the module constant).
    asserted_by:
        The asserter recorded on response provenance and persisted matches.
    tracer:
        The :class:`~repro.telemetry.Tracer` gating span-tree tracing for
        requests that opt in via ``MatchOptions.trace`` (a default
        always-sample tracer when omitted).  The serving tier replaces it
        to apply the ``--trace-sample`` knob.
    """

    def __init__(
        self,
        options: MatchOptions | None = None,
        repository: MetadataRepository | None = None,
        auto_batch_pairs: int = DEFAULT_AUTO_BATCH_PAIRS,
        asserted_by: str = "match-service",
        corpus_shards: int = 1,
        tracer: Tracer | None = None,
    ):
        self.options = options if options is not None else MatchOptions()
        self.repository = repository
        if auto_batch_pairs <= 0:
            raise ValueError(f"auto_batch_pairs must be positive, got {auto_batch_pairs}")
        if corpus_shards < 1:
            raise ValueError(f"corpus_shards must be >= 1, got {corpus_shards}")
        self.auto_batch_pairs = auto_batch_pairs
        self.asserted_by = asserted_by
        self.tracer = tracer if tracer is not None else Tracer()
        #: Hash-range partitions of the corpus index (1 = unsharded).
        self.corpus_shards = corpus_shards
        #: One feature space (profile and feature caches), shared by every
        #: engine and runner this service compiles.
        self.space = FeatureSpace()
        self._engines: dict[MatchOptions, HarmonyMatchEngine] = {}
        self._runners: dict[tuple, BatchMatchRunner] = {}
        #: Compiled cascades (plan -> executor), all sharing the service's
        #: oracle cache and spend counters.
        self._cascades: dict[CascadePlan, CascadeExecutor] = {}
        self._oracle_cache = None
        self.cascade_counters = CascadeCounters()
        self._corpus_index: ShardedCorpusIndex | None = None
        self._refresh_worker: CorpusRefreshWorker | None = None
        self._mapping_graph: MappingGraph | None = None
        #: Registered schemata as stable objects, keyed by name and
        #: invalidated by the repository generation (see _registered_schema).
        self._registered: dict[str, Schema] = {}
        self._registered_generation: int | None = None
        #: Guards every shared cache above (compiled engines and runners,
        #: the registered-schema map, and the lazy corpus-index /
        #: mapping-graph singletons).  Reentrant: locked sections resolve
        #: schemata, which locks again.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Compiled executors (cached by options value)
    # ------------------------------------------------------------------
    def oracle_cache(self):
        """The oracle-judgement cache every cascade of this service shares:
        a private in-process :class:`~repro.server.cache.ResponseCache`,
        created when a cascade first compiles."""
        with self._lock:
            if self._oracle_cache is None:
                from repro.server.cache import ResponseCache

                self._oracle_cache = ResponseCache(max_entries=4096)
            return self._oracle_cache

    def cascade_executor(
        self, plan: CascadePlan | None
    ) -> CascadeExecutor | None:
        """The compiled cascade for a plan (None plan -> no cascade).

        Executors cache by plan value and share the service's oracle
        cache and :class:`~repro.cascade.CascadeCounters`, so every
        engine/runner compiled from the same plan reuses one oracle and
        one judgement cache.
        """
        if plan is None:
            return None
        with self._lock:
            executor = self._cascades.get(plan)
            if executor is None:
                executor = CascadeExecutor(
                    plan,
                    cache=self.oracle_cache(),
                    counters=self.cascade_counters,
                )
                self._cascades[plan] = executor
            return executor

    def cascade_status(self) -> dict:
        """Oracle budget/spend/cache state for /healthz and /metrics.

        Always present (zeroed counters before any cascaded request), so
        fleet monitoring can assert on the block unconditionally; the
        ``oracle_cache`` sub-block appears once a cascade has compiled.
        """
        status = self.cascade_counters.to_dict()
        status["compiled_plans"] = len(self._cascades)
        with self._lock:
            cache = self._oracle_cache
        if cache is not None:
            status["oracle_cache"] = cache.describe()
        return status

    def engine(self, options: MatchOptions | None = None) -> HarmonyMatchEngine:
        """The exact engine for a configuration, sharing the service caches.

        This is the sanctioned way for low-level callers (incremental
        matching, sessions, diffing) to obtain an engine without losing
        the shared profile cache.
        """
        options = options if options is not None else self.options
        if options.trace:
            # Tracing is a request concern, not an execution configuration:
            # traced and untraced requests share one compiled engine.
            options = replace(options, trace=False)
        with self._lock:
            engine = self._engines.get(options)
            if engine is None:
                engine = HarmonyMatchEngine(
                    voters=options.build_voters(),
                    merger=options.build_merger(),
                    cascade=self.cascade_executor(options.cascade),
                    space=self.space,
                )
                self._engines[options] = engine
            return engine

    def runner(
        self,
        options: MatchOptions | None = None,
        keep_matrices: bool = True,
    ) -> BatchMatchRunner:
        """The batch runner for a configuration, sharing the service caches."""
        options = options if options is not None else self.options
        if options.trace:
            options = replace(options, trace=False)
        key = (options, keep_matrices)
        with self._lock:
            runner = self._runners.get(key)
            if runner is None:
                runner = BatchMatchRunner(
                    voters=options.build_voters(),
                    merger=options.build_merger(),
                    selection=options.build_selection(),
                    space=self.space,
                    fill_value=options.fill_value,
                    keep_matrices=keep_matrices,
                    cascade=self.cascade_executor(options.cascade),
                )
                self._runners[key] = runner
            return runner

    # ------------------------------------------------------------------
    # Schema resolution
    # ------------------------------------------------------------------
    def resolve(self, ref: SchemaRef) -> Schema:
        """An inline schema as-is; a name through the bound repository."""
        if isinstance(ref, Schema):
            return ref
        if self.repository is None:
            raise ValueError(
                f"schema reference {ref!r} requires a bound MetadataRepository"
            )
        return self._registered_schema(ref)

    def _registered_schema(self, name: str) -> Schema:
        """A registered schema as a *stable* object (generation-cached).

        Repeated by-name and corpus requests reuse one ``Schema`` object
        per registered name, so the id-keyed profile/feature caches hit
        across calls instead of re-deserialising and re-profiling every
        candidate per query.  The cache drops -- and evicts its schemata's
        profiles and their shared-space features, so neither can grow
        without bound -- whenever the repository's generation moves.
        """
        with self._lock:
            generation = self.repository.generation
            if self._registered_generation != generation:
                self.release(self._registered.values())
                self._registered.clear()
                self._registered_generation = generation
            schema = self._registered.get(name)
        if schema is None:
            # Deserialise OUTSIDE the lock (rebuilding an object graph is
            # the expensive part, and it is idempotent); the first insert
            # wins so every caller shares one object -- the id-keyed
            # profile caches depend on that.
            built = self.repository.schema(name)
            with self._lock:
                schema = self._registered.setdefault(name, built)
        return schema

    def release(self, schemata: Iterable[Schema]) -> None:
        """Drop the schemata's cached profiles and shared-space features.

        For schema objects no caller will pass again: superseded
        registered schemata, and the inline schemata a served request
        decoded.  Live objects a caller keeps passing should stay cached.
        """
        for schema in schemata:
            self.space.release(schema)

    def _resolve_registry(
        self, schemata: Mapping[str, SchemaRef]
    ) -> dict[str, Schema]:
        return {name: self.resolve(ref) for name, ref in schemata.items()}

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def route_pair(self, request: MatchRequest, source: Schema, target: Schema) -> tuple[str, str]:
        """The (route, reason) decision for one pair request."""
        execution = request.options.execution
        if request.target_element_ids is not None:
            if execution == "batch":
                raise ValueError(
                    "the batch path cannot restrict the target side; "
                    "use execution='exact' (or 'auto') with target_element_ids"
                )
            return "exact", "target-side restriction requires the exact grid"
        if execution == "exact":
            return "exact", "requested"
        if execution == "batch":
            return "batch", "requested"
        n_rows = (
            len(request.source_element_ids)
            if request.source_element_ids is not None
            else len(source)
        )
        n_pairs = n_rows * len(target)
        if n_pairs >= self.auto_batch_pairs:
            return "batch", (
                f"{n_pairs:,} pairs >= auto_batch_pairs ({self.auto_batch_pairs:,})"
            )
        return "exact", (
            f"{n_pairs:,} pairs < auto_batch_pairs ({self.auto_batch_pairs:,})"
        )

    def _route_sweep(self, total_pairs: int, options: MatchOptions) -> tuple[str, str]:
        """The (route, reason) decision for corpus / all-pairs sweeps.

        Pair-count-only on purpose: a registry of many *small* schemata is
        cheap and lossless on the exact engine (which shares the same
        profile cache); blocking's recall trade-off is only bought when
        the total workload warrants it.
        """
        if options.execution == "exact":
            return "exact", "requested"
        if options.execution == "batch":
            return "batch", "requested"
        if total_pairs >= self.auto_batch_pairs:
            return "batch", (
                f"{total_pairs:,} total pairs >= auto_batch_pairs "
                f"({self.auto_batch_pairs:,})"
            )
        return "exact", (
            f"{total_pairs:,} total pairs < auto_batch_pairs "
            f"({self.auto_batch_pairs:,})"
        )

    # ------------------------------------------------------------------
    # The MATCH operation
    # ------------------------------------------------------------------
    def match(self, request: MatchRequest) -> MatchResponse:
        """Execute one typed MATCH request (route, run, envelope).

        When the request opts in (``options.trace``) and the tracer
        samples it, the returned envelope carries the serialised span
        tree; otherwise every instrumentation site below is a no-op.
        """
        with request_trace(self.tracer, request.options.trace) as trace:
            with span("service.match"):
                response = self._match(request)
            if trace is not None:
                response = replace(response, trace=trace.to_dict())
            return response

    def _match(self, request: MatchRequest) -> MatchResponse:
        source = self.resolve(request.source)
        target = self.resolve(request.target)
        with span("route.compile") as compile_span:
            route, reason = self.route_pair(request, source, target)
            executor = (
                self.runner(request.options)
                if route == "batch"
                else self.engine(request.options)
            )
            compile_span.annotate(route=route)
        source_ids = (
            list(request.source_element_ids)
            if request.source_element_ids is not None
            else None
        )
        if route == "batch":
            result = executor.match_pair(
                source, target, source_element_ids=source_ids
            )
            n_candidates = result.n_candidates
        else:
            target_ids = (
                list(request.target_element_ids)
                if request.target_element_ids is not None
                else None
            )
            result = executor.match(
                source,
                target,
                source_element_ids=source_ids,
                target_element_ids=target_ids,
            )
            n_candidates = result.n_pairs
        with span("envelope.build"):
            return self._envelope(
                result,
                request.options,
                route,
                reason,
                n_candidates,
                selection=None,
            )

    def match_pair(
        self,
        source: SchemaRef,
        target: SchemaRef,
        options: MatchOptions | None = None,
        source_element_ids: Sequence[str] | None = None,
        target_element_ids: Sequence[str] | None = None,
    ) -> MatchResponse:
        """Convenience wrapper building the :class:`MatchRequest` inline."""
        return self.match(
            MatchRequest(
                source=source,
                target=target,
                options=options if options is not None else self.options,
                source_element_ids=(
                    tuple(source_element_ids)
                    if source_element_ids is not None
                    else None
                ),
                target_element_ids=(
                    tuple(target_element_ids)
                    if target_element_ids is not None
                    else None
                ),
            )
        )

    # ------------------------------------------------------------------
    # Corpus and all-pairs sweeps
    # ------------------------------------------------------------------
    def match_corpus(
        self,
        source: SchemaRef,
        corpus: Mapping[str, SchemaRef],
        options: MatchOptions | None = None,
        selection: SelectionStrategy | None = None,
        workers: int = 1,
    ) -> list[MatchResponse]:
        """Match one schema against every schema of a corpus.

        ``selection`` optionally overrides the options-declared strategy
        with a live instance (for in-process callers; the declarative form
        in ``options`` is what serialises).  ``workers`` is the batch
        route's fan-out width (1 = in-process, > 1 = a process pool).
        """
        source_schema = self.resolve(source)
        registry = self._resolve_registry(corpus)
        return self._sweep(
            [(source_schema.name, source_schema, name, registry[name])
             for name in sorted(registry)],
            options, selection, workers,
            lambda runner: runner.match_corpus(
                source_schema, registry, selection=selection, workers=workers
            ),
        )

    def match_all_pairs(
        self,
        schemata: Mapping[str, SchemaRef],
        options: MatchOptions | None = None,
        selection: SelectionStrategy | None = None,
        workers: int = 1,
    ) -> list[MatchResponse]:
        """All C(N,2) pairwise matches of a registry (the N-way front end)."""
        registry = self._resolve_registry(schemata)
        return self._sweep(
            [(a, registry[a], b, registry[b])
             for a, b in combinations(sorted(registry), 2)],
            options, selection, workers,
            lambda runner: runner.match_all_pairs(
                registry, selection=selection, workers=workers
            ),
        )

    def _sweep(
        self,
        pairs: list[tuple[str, Schema, str, Schema]],
        options: MatchOptions | None,
        selection: SelectionStrategy | None,
        workers: int,
        run_batch: Callable[[BatchMatchRunner], list[BatchPairOutcome]],
    ) -> list[MatchResponse]:
        """One sweep of named ``(source, target)`` pairs: route it by its
        total pair count, run it on the batch runner (``run_batch``) or
        pair by pair on the exact engine, and envelope every pair."""
        check_workers(workers)
        options = options if options is not None else self.options
        total = sum(len(source) * len(target) for _, source, _, target in pairs)
        route, reason = self._route_sweep(total, options)
        if route == "batch":
            # Sweep envelopes never carry dense matrices; don't retain them.
            runner = self.runner(options, keep_matrices=False)
            return [
                self._envelope_outcome(outcome, options, route, reason, runner)
                for outcome in run_batch(runner)
            ]
        selection = selection if selection is not None else options.build_selection()
        engine = self.engine(options)
        responses = []
        for source_name, source, target_name, target in pairs:
            result = engine.match(source, target)
            responses.append(
                self._envelope(
                    result, options, route, reason, result.n_pairs, selection,
                    source_name=source_name, target_name=target_name,
                )
            )
        return responses

    # ------------------------------------------------------------------
    # Repository-scale matching: retrieve, match, reuse, rank
    # ------------------------------------------------------------------
    def corpus_index(self) -> ShardedCorpusIndex:
        """The service's corpus index over its bound repository (lazy).

        One index per service, partitioned into ``corpus_shards``
        hash-range shards (bit-identical scores for any count); it
        refreshes itself against the repository's generation clock, so
        callers never rebuild manually.
        """
        if self.repository is None:
            raise ValueError("corpus indexing requires a bound MetadataRepository")
        with self._lock:
            if self._corpus_index is None:
                self._corpus_index = ShardedCorpusIndex(
                    self.repository, n_shards=self.corpus_shards
                )
            return self._corpus_index

    def start_corpus_refresh(self, interval: float = 1.0) -> CorpusRefreshWorker:
        """Start (or return) the background refresh worker for this service.

        The worker watches the repository's generation clock and
        refreshes the corpus index off the request path, so
        ``corpus_match`` queries land on warm snapshots (a query that
        outruns the worker still refreshes synchronously -- the worker is
        a latency optimisation, never a correctness dependency).
        """
        with self._lock:
            worker = self._refresh_worker
            if worker is None or not worker.running:
                worker = CorpusRefreshWorker(self.corpus_index(), interval=interval)
                worker.start()
                self._refresh_worker = worker
            return worker

    def stop_corpus_refresh(self) -> None:
        """Stop the background refresh worker, if one is running."""
        with self._lock:
            worker = self._refresh_worker
            self._refresh_worker = None
        if worker is not None:
            worker.stop()

    def corpus_status(self) -> dict:
        """Corpus + refresh-worker state for /healthz and /metrics.

        A monitoring read: reports the *published* snapshots without
        triggering a refresh, so probing an idle service stays cheap and
        never takes the refresh lock.  ``{"initialized": False}`` until
        the first ``corpus_match`` (or explicit ``corpus_index()`` call)
        builds the index.
        """
        with self._lock:
            index = self._corpus_index
            worker = self._refresh_worker
        if index is None:
            return {"initialized": False}
        status: dict = {
            "initialized": True,
            "n_indexed": index.n_indexed(),
            "stale": index.is_stale(),
            "n_shards": index.n_shards,
            "shards": [stats.to_dict() for stats in index.shard_stats()],
        }
        if worker is not None:
            status["refresh_worker"] = worker.stats().to_dict()
        return status

    def corpus_match(self, request: CorpusMatchRequest) -> CorpusMatchResponse:
        """Match a schema against everything registered; return the top k.

        The repository-scale MATCH (see ``docs/repository.md``):

        1. **retrieve** -- the corpus index prunes the registry to the
           request's ``retrieval_limit`` BM25 candidates.  A by-name
           query excludes its own name; an inline query excludes
           content-identical registered copies of itself.  Two *distinct*
           registered systems with identical schemata stay candidates
           for a by-name query (the consolidation case: the sibling is
           the best match, not a copy);
        2. **match** -- each surviving candidate is matched serially on
           the blocked batch fast path of the shared
           :class:`~repro.batch.BatchMatchRunner` (the execution hint in
           ``request.options`` is ignored: pruning has already decided the
           cost/recall trade, so the per-candidate path is always batch);
        3. **reuse** -- prior assertions boost/seed each candidate's
           correspondences under the request's
           :class:`~repro.repository.reuse.ReusePolicy`.  Priors key on
           registered names: a by-name request uses that name, an inline
           schema uses the name of a content-identical registered copy
           when one exists and skips reuse otherwise (a merely same-named
           registered schema lends neither exclusion nor priors);
        4. **rank** -- candidates order by total positive correspondence
           score (retrieval score breaks ties) and the top k survive.
        """
        if self.repository is None:
            raise ValueError("corpus_match requires a bound MetadataRepository")
        with request_trace(self.tracer, request.options.trace) as trace:
            with span("service.corpus_match"):
                response = self._corpus_match(request)
            if trace is not None:
                response = replace(response, trace=trace.to_dict())
            return response

    def _corpus_match(self, request: CorpusMatchRequest) -> CorpusMatchResponse:
        started = time.perf_counter()
        source = self.resolve(request.source)
        # A by-name request is identified by its registered name; an inline
        # schema is identified by *content only* -- its .name may collide
        # with an unrelated registered schema, which must stay a candidate
        # and must not lend the inline query its stored priors.
        source_name = request.source if isinstance(request.source, str) else None
        excluded = set(request.exclude)
        if source_name is not None:
            excluded.add(source_name)

        with span("corpus.retrieve") as retrieve_span:
            index = self.corpus_index()
            retrieval_started = time.perf_counter()
            limit = request.effective_retrieval_limit
            # An INLINE query's registered copies are dropped besides the
            # name exclusions (an identical copy is the query itself and
            # would waste the top rank on a self-match).  A by-name query
            # keeps content-identical siblings: two distinct registered
            # systems with identical schemata are the paper's consolidation
            # case, and the sibling is the best possible candidate, not a
            # copy.  Identity is decided by the corpus index's persisted
            # content hashes (one map fetch, no payload parsing); the fetch
            # widens until `limit` survivors are found or the index is
            # exhausted.
            source_hash = (
                corpus_payload_hash(schema_to_dict(source))
                if source_name is None
                else None
            )
            identical: list[str] = []
            hits: list = []
            fetch_limit = limit + len(excluded) + 1
            while True:
                fetched = index.top_candidates(source, limit=fetch_limit)
                content_hashes = (
                    self.repository.fingerprint_hashes()
                    if source_hash is not None
                    else {}
                )
                identical.clear()
                hits.clear()
                for hit in fetched:
                    if len(hits) == limit:
                        break
                    if hit.schema_name in excluded:
                        continue
                    if source_hash is not None and source_hash == (
                        content_hashes.get(hit.schema_name)
                        or corpus_payload_hash(
                            self.repository.schema_payload(hit.schema_name)
                        )
                    ):
                        identical.append(hit.schema_name)
                        continue
                    hits.append(hit)
                if len(hits) >= limit or len(fetched) < fetch_limit:
                    break
                fetch_limit *= 2
            retrieval_seconds = time.perf_counter() - retrieval_started
            retrieve_span.annotate(n_retrieved=len(hits))
        n_registered = len(index)
        if source_name is None and identical:
            # The inline query schema lives in the registry (under any
            # name); key reuse priors and the report on that name.
            source_name = min(identical)

        registry = {
            hit.schema_name: self._registered_schema(hit.schema_name)
            for hit in hits
        }
        retrieval_score = {hit.schema_name: hit.score for hit in hits}
        with span("route.compile", route="batch"):
            runner = self.runner(request.options, keep_matrices=False)
        outcomes = runner.match_corpus(
            source, registry, selection=request.options.build_selection()
        )

        reuse_applied = (
            request.reuse is not None
            and source_name is not None
            and source_name in self.repository
        )
        # One snapshot of the stored matches for the whole sweep.
        view = self.mapping_graph().view() if reuse_applied else None
        candidates: list[CorpusCandidate] = []
        with span("envelope.build"):
            for outcome in outcomes:
                correspondences = tuple(outcome.correspondences)
                n_boosted = n_seeded = 0
                if reuse_applied:
                    with span("reuse.apply", target=outcome.target_name):
                        reused = request.reuse.rematch(
                            view, source_name, outcome.target_name, correspondences
                        )
                    correspondences = reused.correspondences
                    n_boosted, n_seeded = reused.n_boosted, reused.n_seeded
                candidates.append(
                    CorpusCandidate(
                        target_name=outcome.target_name,
                        retrieval_score=retrieval_score[outcome.target_name],
                        match_score=sum(max(0.0, c.score) for c in correspondences),
                        n_source=outcome.n_source,
                        n_target=outcome.n_target,
                        n_candidates=outcome.n_candidates,
                        elapsed_seconds=outcome.elapsed_seconds,
                        n_boosted=n_boosted,
                        n_seeded=n_seeded,
                        correspondences=correspondences,
                        cascade=outcome.cascade,
                    )
                )
            candidates.sort(
                key=lambda c: (-c.match_score, -c.retrieval_score, c.target_name)
            )
        return CorpusMatchResponse(
            source_name=source_name if source_name is not None else source.name,
            n_registered=n_registered,
            n_retrieved=len(hits),
            top_k=request.top_k,
            elapsed_seconds=time.perf_counter() - started,
            retrieval_seconds=retrieval_seconds,
            options=request.options,
            reuse_applied=reuse_applied,
            candidates=tuple(candidates[: request.top_k]),
        )

    # ------------------------------------------------------------------
    # Network matching: route through stored mappings
    # ------------------------------------------------------------------
    def mapping_graph(self) -> MappingGraph:
        """The service's mapping network over its bound repository (lazy).

        One graph per service; it refreshes itself against the
        repository's generation and match-generation clocks, so repeated
        :meth:`network_match`, :meth:`corpus_match` reuse and
        :meth:`recall` calls over a warm repository do no store scans.
        """
        if self.repository is None:
            raise ValueError("the mapping network requires a bound MetadataRepository")
        with self._lock:
            if self._mapping_graph is None:
                self._mapping_graph = MappingGraph(self.repository)
            return self._mapping_graph

    def network_match(self, request: NetworkMatchRequest) -> NetworkMatchResponse:
        """Answer MATCH(source, target) by routing through stored mappings.

        The mapping-network MATCH (see ``docs/repository.md``):

        1. **route** -- the cached :class:`MappingGraph` enumerates every
           acyclic pivot path up to ``max_hops`` between the two
           registered names and composes correspondences along each
           (min-leg scoring, per-extra-hop decay, multi-path merge);
        2. **verify** (optional) -- the composed candidates seed a blocked
           E16 fast-path run over the actual pair: fresh output is folded
           with the composed candidates (and any direct stored priors)
           under the request's :class:`~repro.repository.reuse.ReusePolicy`,
           so a composition the fresh evidence confirms is boosted and one
           it cannot see is seeded back as a reviewable candidate.

        Compose-only requests never profile or match a single element --
        the answer is derived entirely from stored knowledge.
        """
        if self.repository is None:
            raise ValueError("network_match requires a bound MetadataRepository")
        with request_trace(self.tracer, request.options.trace) as trace:
            with span("service.network_match"):
                response = self._network_match(request)
            if trace is not None:
                response = replace(response, trace=trace.to_dict())
            return response

    def _network_match(
        self, request: NetworkMatchRequest
    ) -> NetworkMatchResponse:
        started = time.perf_counter()
        with span("network.route") as route_span:
            graph = self.mapping_graph()
            route = graph.route(
                request.source,
                request.target,
                max_hops=request.max_hops,
                hop_decay=request.hop_decay,
                policy=request.trust,
            )
            route_span.annotate(n_paths=len(route.paths))
        graph_seconds = time.perf_counter() - started
        composed = tuple(
            c for c in route.correspondences if c.score >= request.min_score
        )
        n_boosted = n_seeded = 0
        correspondences = composed
        if request.verify:
            with span("route.compile", route="batch"):
                runner = self.runner(request.options)
            result = runner.match_pair(
                self._registered_schema(request.source),
                self._registered_schema(request.target),
            )
            fresh = list(result.candidates(request.options.build_selection()))
            # The request-level trust gate governs the whole pipeline: when
            # the fold's policy does not name its own, direct stored priors
            # are filtered under the same policy that gated the legs.
            reuse = request.reuse
            if request.trust is not None and reuse.trust is None:
                reuse = replace(reuse, trust=request.trust)
            with span("reuse.apply"):
                priors = reuse.priors(
                    graph.view(),
                    request.source,
                    request.target,
                    composed=route.correspondences,
                )
                outcome = reuse.apply(fresh, priors)
            correspondences = outcome.correspondences
            n_boosted, n_seeded = outcome.n_boosted, outcome.n_seeded
        refresh = graph.last_refresh
        return NetworkMatchResponse(
            source_name=request.source,
            target_name=request.target,
            max_hops=request.max_hops,
            hop_decay=request.hop_decay,
            n_nodes=refresh.n_nodes if refresh is not None else 0,
            n_edges=refresh.n_edges if refresh is not None else 0,
            paths=route.paths,
            composed=composed,
            verified=request.verify,
            n_boosted=n_boosted,
            n_seeded=n_seeded,
            elapsed_seconds=time.perf_counter() - started,
            graph_seconds=graph_seconds,
            options=request.options,
            correspondences=correspondences,
        )

    # ------------------------------------------------------------------
    # Envelopes
    # ------------------------------------------------------------------
    def _provenance(
        self, correspondences: tuple[Correspondence, ...], route: str
    ) -> ProvenanceRecord:
        best = max((c.score for c in correspondences), default=0.0)
        return ProvenanceRecord(
            asserted_by=self.asserted_by,
            method=AssertionMethod.AUTOMATIC,
            confidence=best,
            context=f"route={route}",
        )

    def _envelope(
        self,
        result: MatchResult,
        options: MatchOptions,
        route: str,
        reason: str,
        n_candidates: int,
        selection: SelectionStrategy | None,
        source_name: str | None = None,
        target_name: str | None = None,
    ) -> MatchResponse:
        strategy = selection if selection is not None else options.build_selection()
        correspondences = tuple(result.candidates(strategy))
        return MatchResponse(
            source_name=source_name if source_name is not None else result.source.name,
            target_name=target_name if target_name is not None else result.target.name,
            n_source=len(result.matrix.source_ids),
            n_target=len(result.matrix.target_ids),
            n_pairs=result.n_pairs,
            n_candidates=n_candidates,
            route=route,
            routing_reason=reason,
            elapsed_seconds=result.elapsed_seconds,
            voter_names=tuple(result.voter_names),
            options=options,
            correspondences=correspondences,
            provenance=self._provenance(correspondences, route),
            cascade=result.cascade,
            result=result,
        )

    def _envelope_outcome(
        self,
        outcome: BatchPairOutcome,
        options: MatchOptions,
        route: str,
        reason: str,
        runner: BatchMatchRunner,
    ) -> MatchResponse:
        correspondences = tuple(outcome.correspondences)
        return MatchResponse(
            source_name=outcome.source_name,
            target_name=outcome.target_name,
            n_source=outcome.n_source,
            n_target=outcome.n_target,
            n_pairs=outcome.n_pairs,
            n_candidates=outcome.n_candidates,
            route=route,
            routing_reason=reason,
            elapsed_seconds=outcome.elapsed_seconds,
            voter_names=tuple(voter.name for voter in runner.voters),
            options=options,
            correspondences=correspondences,
            provenance=self._provenance(correspondences, route),
            cascade=outcome.cascade,
            result=None,
        )

    # ------------------------------------------------------------------
    # The matches-as-knowledge loop
    # ------------------------------------------------------------------
    def persist(
        self,
        response: MatchResponse,
        context: str | None = None,
        register_schemas: bool = True,
    ) -> int:
        """Store a response's correspondences (and schemata) in the repository.

        Registers the pair's schemata when the response still carries its
        live result and they are not registered yet; stores every
        correspondence with AUTOMATIC provenance under the routing context.
        Returns the number of matches stored.

        Sweep responses (and deserialised envelopes) carry no live result,
        so their schemata must already be registered -- a missing one
        raises ``ValueError`` with that guidance rather than failing deep
        inside the store.
        """
        if self.repository is None:
            raise ValueError("persist requires a bound MetadataRepository")
        if register_schemas and response.result is not None:
            for name, schema in (
                (response.source_name, response.result.source),
                (response.target_name, response.result.target),
            ):
                if name not in self.repository:
                    self.repository.register(schema, name=name)
        missing = [
            name
            for name in (response.source_name, response.target_name)
            if name not in self.repository
        ]
        if missing:
            raise ValueError(
                f"cannot persist response: schemata {missing} are not "
                "registered (corpus/all-pairs and deserialised responses "
                "carry no live schemata; register them first)"
            )
        return self.repository.store_matches(
            response.source_name,
            response.target_name,
            response.correspondences,
            asserted_by=self.asserted_by,
            method=AssertionMethod.AUTOMATIC,
            context=context if context is not None else f"route={response.route}",
        )

    def recall(
        self,
        source: str,
        target: str,
        policy: TrustPolicy | None = None,
    ) -> tuple[Correspondence, ...]:
        """Prior correspondences stored source -> target, trust-filtered."""
        if self.repository is None:
            raise ValueError("recall requires a bound MetadataRepository")
        return tuple(
            match.correspondence
            for match in self.mapping_graph().view().between(source, target)
            if (match.source_schema, match.target_schema) == (source, target)
            and (policy is None or policy.trusts(match.provenance))
        )

    # ------------------------------------------------------------------
    def warm(self, schemata: Iterable[SchemaRef]) -> None:
        """Pre-profile schemata and populate the shared feature cache."""
        self.runner(self.options).warm(
            self.resolve(ref) for ref in schemata
        )

    def clear_caches(self) -> None:
        """Release the shared profile and feature caches.

        The caches hold strong references to every schema matched through
        this service; long-lived processes cycling through unrelated
        corpora should clear between them.  Compiled engines and runners
        survive (they share the same now-empty space).
        """
        with self._lock:
            self.space.clear()
            self._registered.clear()
            self._registered_generation = None
