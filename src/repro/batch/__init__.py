"""Corpus-scale batch matching: blocking + bulk scoring + parallel fan-out.

This package turns the interactive MATCH engine into a corpus-scale one --
the paper's enterprise setting where a repository holds thousands of
schemata and a single MATCH spans 10^4-10^6 candidate pairs (sections 2 and
3.1).  It is a classical two-stage retrieve-then-score architecture:

* :mod:`repro.batch.blocking` retrieves candidate pairs through
  shared-token inverted indexes (cheap, high recall, measured guardrails),
* :class:`repro.batch.runner.BatchMatchRunner` scores only the survivors
  through the voters' bulk ``score_pairs`` API over cached
  :class:`~repro.matchers.profile.FeatureSpace` matrices, in-process or
  fanned out over a process pool for one-vs-corpus and all-pairs N-way runs.

Candidate scores are *exactly* the engine's scores (the property tests hold
them to 1e-9), so the only approximation is blocking recall -- measured,
not hoped for.  The full dataflow is drawn in ``docs/architecture.md``;
bench E16 (``benchmarks/test_e16_batch_fastpath.py``) demonstrates the
speedup/recall envelope against the exact engine.
"""

from repro.batch.blocking import (
    BlockingPolicy,
    CandidateSet,
    blocking_recall,
    candidate_pairs,
)
from repro.batch.runner import BatchMatchResult, BatchMatchRunner, BatchPairOutcome

__all__ = [
    "BlockingPolicy",
    "CandidateSet",
    "blocking_recall",
    "candidate_pairs",
    "BatchMatchResult",
    "BatchMatchRunner",
    "BatchPairOutcome",
]
