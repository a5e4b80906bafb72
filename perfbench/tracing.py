"""Bench-owned tracing: spans recorded around each layer's public calls.

Nothing here changes the program.  :func:`install` replaces a fixed set
of public functions and methods with timing wrappers, each patched where
its callers look it up (a free function imported by name into another
module is patched in that module).  Spans carry a name, start, end,
parent and request id; they stay in memory and are written out once, at
exit, by :meth:`Recorder.dump`.

Only spans inside a *root* span count.  Roots are the timed operations
(``op.*``, opened by the workload programs) and, in the server process,
each ``server.handler`` call, so set-up work and health probes never
reach the per-layer numbers.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict

VOTERS = (
    "name_token",
    "name_ngram",
    "thesaurus",
    "documentation",
    "datatype",
    "path",
    "structure",
)

#: Layer spans whose busy time and call count are reported (the span
#: name doubles as the metric prefix).
SPAN_METRICS = (
    *(f"matchers.vote.{voter}" for voter in VOTERS),
    *(f"matchers.score_pairs.{voter}" for voter in VOTERS),
    "matchers.profile",
    "voting.merge",
    "match.engine",
    "batch.runner",
    "batch.blocking",
    "batch.warm",
    "corpus.retrieve",
    "corpus.refresh",
    "service.resolve",
    "service.match",
    "service.corpus_match",
    "service.network_match",
    "repository.read",
    "repository.write",
    "reuse.rematch",
    "network.route",
    "network.refresh",
    "server.handler",
    "server.cache.get",
    "server.cache.put",
    "server.key",
    "client.decode",
)

_REPOSITORY_READS = (
    "schema",
    "schema_names",
    "schema_payload",
    "schema_payloads",
    "get_fingerprint",
    "get_fingerprints",
    "fingerprint_names",
    "fingerprint_hashes",
    "matches",
    "matches_touching",
    "matches_between",
    "hot_requests",
    "clocks",
    "__contains__",
    "__len__",
)
_REPOSITORY_CLOCKS = ("generation", "match_generation")
_REPOSITORY_WRITES = (
    "register",
    "bulk_register_schemas",
    "store_match",
    "store_matches",
    "put_fingerprint",
    "put_fingerprints",
    "unregister",
    "record_requests",
)
_MERGERS = (
    "ConvictionLinearMerger",
    "ConvictionWeightedMerger",
    "AverageMerger",
    "WeightedLinearMerger",
    "MaxMerger",
    "MinMerger",
)


class Recorder:
    """In-memory span store with a per-thread span stack."""

    def __init__(self, role: str):
        self.role = role
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, func, *args, **kwargs):
        """Call ``func`` inside a span named ``name``."""
        stack = self._stack()
        span_id = next(self._ids)
        parent, request = (stack[-1][0], stack[0][0]) if stack else (0, span_id)
        stack.append((span_id, name))
        start = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, request, name, start, end))

    def count(self, name: str, value: float = 1.0) -> None:
        """Add to a counter -- only inside a root span, like spans."""
        stack = self._stack()
        if stack and is_root(stack[0][1]):
            self.counters[name] += value

    def wrap(self, func, name):
        """``func`` wrapped in a span; ``name`` may be a callable of the args."""
        recorder = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            label = name(*args) if callable(name) else name
            return recorder.span(label, func, *args, **kwargs)

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"role": self.role, "spans": self.spans, "counters": dict(self.counters)},
                handle,
            )


def _patch_method(recorder: Recorder, owner, attribute: str, name) -> None:
    original = owner.__dict__.get(attribute, getattr(owner, attribute))
    if isinstance(original, classmethod):
        setattr(owner, attribute, classmethod(recorder.wrap(original.__func__, name)))
    elif isinstance(original, property):
        setattr(owner, attribute, property(recorder.wrap(original.fget, name)))
    else:
        setattr(owner, attribute, recorder.wrap(original, name))


def install(recorder: Recorder) -> None:
    """Wrap every layer's public calls (see the module docstring)."""

    def module(path: str):
        return importlib.import_module(path)

    # matchers: each voter's per-grid and candidate-list kernels, profiling.
    voter_base = module("repro.matchers.base").MatchVoter
    _patch_method(recorder, voter_base, "vote", lambda self, *_: f"matchers.vote.{self.name}")
    _patch_method(
        recorder, voter_base, "score_pairs", lambda self, *_: f"matchers.score_pairs.{self.name}"
    )
    build_profile = module("repro.matchers.profile").build_profile
    traced_profile = recorder.wrap(build_profile, "matchers.profile")
    for user in ("repro.match.engine", "repro.batch.runner"):
        setattr(module(user), "build_profile", traced_profile)

    # voting: every merger's merge.
    mergers = module("repro.voting.merger")
    for class_name in _MERGERS:
        _patch_method(recorder, getattr(mergers, class_name), "merge", "voting.merge")

    # match: the exact engine.
    _patch_method(recorder, module("repro.match.engine").HarmonyMatchEngine, "match", "match.engine")

    # batch: blocking (with its candidate fraction), warm-up, the runner.
    runner_module = module("repro.batch.runner")
    candidate_pairs = runner_module.candidate_pairs

    def counted_candidate_pairs(*args, **kwargs):
        candidates = candidate_pairs(*args, **kwargs)
        recorder.count("batch.candidates", candidates.n_candidates)
        recorder.count("batch.pairs", candidates.n_pairs)
        return candidates

    runner_module.candidate_pairs = recorder.wrap(counted_candidate_pairs, "batch.blocking")
    runner = runner_module.BatchMatchRunner
    _patch_method(recorder, runner, "warm", "batch.warm")
    _patch_method(recorder, runner, "match_pair", "batch.runner")

    # corpus: retrieval and refresh on both index flavours.  Retrieval
    # refreshes a stale index through the locked refresh body, not the
    # public ``refresh``, so the body is what gets the span.
    for path, class_name in (
        ("repro.corpus.index", "CorpusIndex"),
        ("repro.corpus.sharding", "ShardedCorpusIndex"),
    ):
        index = getattr(module(path), class_name)
        _patch_method(recorder, index, "top_candidates", "corpus.retrieve")
        refresh = "_refresh_locked" if "_refresh_locked" in vars(index) else "refresh"
        _patch_method(recorder, index, refresh, "corpus.refresh")

    # service: resolution and the three MATCH operations.
    service = module("repro.service.service").MatchService
    _patch_method(recorder, service, "resolve", "service.resolve")
    _patch_method(recorder, service, "match", "service.match")
    _patch_method(recorder, service, "network_match", "service.network_match")
    corpus_match = service.corpus_match

    def counted_corpus_match(self, request):
        response = corpus_match(self, request)
        recorder.count("corpus.matched", response.n_retrieved)
        recorder.count("corpus.returned", len(response.candidates))
        return response

    service.corpus_match = recorder.wrap(counted_corpus_match, "service.corpus_match")

    # repository: reads (clock reads included), writes, reuse.
    store = module("repro.repository.store").MetadataRepository
    for attribute in _REPOSITORY_READS + _REPOSITORY_CLOCKS:
        _patch_method(recorder, store, attribute, "repository.read")
    for attribute in _REPOSITORY_WRITES:
        _patch_method(recorder, store, attribute, "repository.write")
    _patch_method(recorder, module("repro.repository.reuse").ReusePolicy, "rematch", "reuse.rematch")

    # network: routing over stored mappings.
    graph = module("repro.network.graph").MappingGraph
    _patch_method(recorder, graph, "route", "network.route")
    _patch_method(recorder, graph, "refresh", "network.refresh")

    # server: handler, response cache, request key; client decoding.
    app = module("repro.server.app")
    _patch_method(recorder, app.MatchRequestHandler, "do_POST", "server.handler")
    app.canonical_request_key = recorder.wrap(app.canonical_request_key, "server.key")
    cache = module("repro.server.cache").ResponseCache
    _patch_method(recorder, cache, "get", "server.cache.get")
    _patch_method(recorder, cache, "put", "server.cache.put")
    for path, class_name in (
        ("repro.service.response", "MatchResponse"),
        ("repro.service.corpus_response", "CorpusMatchResponse"),
        ("repro.service.network_response", "NetworkMatchResponse"),
    ):
        _patch_method(recorder, getattr(module(path), class_name), "from_dict", "client.decode")


# ----------------------------------------------------------------------
# Reduction: spans -> self times
# ----------------------------------------------------------------------
def is_root(name: str) -> bool:
    """Whether spans under this outermost span belong to a timed operation."""
    return name.startswith("op.") or name == "server.handler"


def load(paths) -> tuple[list[tuple], dict[str, float]]:
    """Spans and counters of several dumps (one per process)."""
    spans: list[tuple] = []
    counters: dict[str, float] = defaultdict(float)
    for offset, path in enumerate(paths):
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        # Ids are per process; a per-dump prefix keeps them distinct.
        prefix = (offset + 1) * 10**9
        for span_id, parent, request, name, start, end in payload["spans"]:
            spans.append(
                (prefix + span_id, prefix + parent if parent else 0, prefix + request, name, start, end)
            )
        for name, value in payload["counters"].items():
            counters[name] += value
    return spans, counters


def self_times(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds, and self seconds.

    A span's self time is its duration minus its direct children's
    durations (children run on the parent's thread, nested inside it).
    Spans whose outermost span is not a root (set-up work, health
    probes) are dropped.
    """
    name_of = {span[0]: span[3] for span in spans}
    child_time: dict[int, float] = defaultdict(float)
    for span_id, parent, request, name, start, end in spans:
        if parent:
            child_time[parent] += end - start
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0}
    )
    for span_id, parent, request, name, start, end in spans:
        if not is_root(name_of.get(request, "")):
            continue
        entry = totals[name]
        entry["calls"] += 1
        entry["inclusive_s"] += end - start
        entry["self_s"] += (end - start) - child_time[span_id]
    return dict(totals)
