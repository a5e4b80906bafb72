"""Enterprise metadata repository: schemata + match knowledge + provenance."""

from repro.repository.backends import (
    InMemoryBackend,
    PooledSqliteBackend,
    PoolStats,
    StorageBackend,
    open_backend,
)
from repro.repository.provenance import AssertionMethod, ProvenanceRecord, TrustPolicy
from repro.repository.reuse import (
    PriorAssertion,
    ReuseOutcome,
    ReusePolicy,
    compose_matches,
    reuse_candidates,
)
from repro.repository.store import MetadataRepository, StoredMatch

__all__ = [
    "AssertionMethod",
    "InMemoryBackend",
    "MetadataRepository",
    "PooledSqliteBackend",
    "PoolStats",
    "PriorAssertion",
    "ProvenanceRecord",
    "ReuseOutcome",
    "ReusePolicy",
    "StorageBackend",
    "StoredMatch",
    "TrustPolicy",
    "compose_matches",
    "open_backend",
    "reuse_candidates",
]
