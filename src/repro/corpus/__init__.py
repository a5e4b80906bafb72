"""Corpus matching: persistent indexing and top-k retrieval over a registry.

The glue between the metadata repository (schemata + match knowledge) and
the match service: :class:`ShardedCorpusIndex` keeps a lazily refreshed,
fingerprint-persisted inverted index over every registered schema,
partitioned into hash-range shards whose merged top-k is exact, and
serves the top-k retrieval stage of ``MatchService.corpus_match``
(:class:`CorpusIndex` is its one-shard constructor).  An optional
:class:`CorpusRefreshWorker` keeps shards warm off the request path, and
:func:`bulk_ingest` is the batched registration pipeline behind ``repro
ingest``.  See ``docs/repository.md`` and ``docs/serving.md``.
"""

from repro.corpus.index import (
    FINGERPRINT_FORMAT_VERSION,
    CorpusIndex,
    CorpusRefresh,
    build_fingerprint,
)
from repro.corpus.ingest import IngestReport, bulk_ingest, iter_schema_payloads
from repro.corpus.sharding import (
    CorpusRefreshWorker,
    RefreshWorkerStats,
    ShardedCorpusIndex,
    ShardStats,
    shard_of_name,
)

__all__ = [
    "FINGERPRINT_FORMAT_VERSION",
    "CorpusIndex",
    "CorpusRefresh",
    "CorpusRefreshWorker",
    "IngestReport",
    "RefreshWorkerStats",
    "ShardStats",
    "ShardedCorpusIndex",
    "build_fingerprint",
    "bulk_ingest",
    "iter_schema_payloads",
    "shard_of_name",
]
