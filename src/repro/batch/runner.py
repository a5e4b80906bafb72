"""Corpus-scale batch matching: one schema vs a corpus, or all-pairs N-way.

The interactive engine (:class:`repro.match.engine.HarmonyMatchEngine`)
scores every pair of the grid; fine for one pair, waste for a repository.
:class:`BatchMatchRunner` extends it into the corpus-scale fast path (see
``docs/architecture.md``):

1. profiles and :class:`~repro.matchers.profile.FeatureSpace` matrices are
   built **once per schema** and reused across every pair,
2. :func:`~repro.batch.blocking.candidate_pairs` prunes each cross-product
   to the pairs with shared evidence,
3. voters score **only the candidates** through their pair kernel
   :meth:`~repro.matchers.base.MatchVoter.score_pairs` (exact same
   confidences as the per-grid path, for every voter),
4. with a cascade attached, candidate scores inside the plan's ambiguity
   band escalate to the Stage-2 oracle (budgeted, most-ambiguous-first;
   see :mod:`repro.cascade` and ``docs/cascade.md``) -- the same staged
   semantics as the exact engine, applied to the candidate list,
5. with ``workers > 1``, pairs fan out over a process pool of that width
   (each worker rebuilds the runner and re-derives its own features);
   ``workers=1``, the default, matches every pair in-process.

Non-candidate pairs take ``fill_value`` (default 0.0 -- complete
uncertainty), so selection strategies see them as unmatchable -- and never
escalate: the cascade only judges pairs Stage 1 actually scored.
End-to-end recall versus the exact engine therefore equals the measured
blocking recall (bench E16 holds it >= 0.98 on the case study).
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from repro.batch.blocking import BlockingPolicy, CandidateSet, candidate_pairs
from repro.cascade.executor import CascadeExecutor
from repro.cascade.plan import CascadePlan, CascadeReport
from repro.match.correspondence import Correspondence
from repro.match.engine import HarmonyMatchEngine, MatchResult
from repro.match.matrix import MatchMatrix
from repro.match.selection import SelectionStrategy, ThresholdSelection
from repro.matchers import MatchVoter
from repro.matchers.profile import FeatureSpace, SchemaProfile
from repro.schema.schema import Schema
from repro.telemetry import span
from repro.voting.merger import VoteMerger

__all__ = ["BatchMatchResult", "BatchPairOutcome", "BatchMatchRunner", "check_workers"]


def check_workers(workers: int) -> None:
    """Reject a fan-out width below one (1 = in-process, > 1 = a pool)."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")


class BatchMatchResult(MatchResult):
    """A :class:`~repro.match.engine.MatchResult` plus blocking statistics."""

    def __init__(self, *args, n_candidates: int = 0, **kwargs):
        super().__init__(*args, **kwargs)
        self.n_candidates = n_candidates

    @property
    def candidate_fraction(self) -> float:
        """Scored fraction of the cross-product (the blocking prune factor)."""
        if self.n_pairs == 0:
            return 0.0
        return self.n_candidates / self.n_pairs


@dataclass
class BatchPairOutcome:
    """One corpus pair's outcome: accepted correspondences plus statistics.

    ``matrix`` is the full (fill-padded) match matrix when the runner keeps
    matrices; corpus-scale and process-pool runs drop it (an N-way sweep
    would otherwise hold C(N,2) dense grids alive) and keep only the
    selected correspondences.
    """

    source_name: str
    target_name: str
    n_source: int
    n_target: int
    n_candidates: int
    elapsed_seconds: float
    correspondences: list[Correspondence]
    matrix: MatchMatrix | None = None
    cascade: CascadeReport | None = None

    @property
    def n_pairs(self) -> int:
        return self.n_source * self.n_target

    @property
    def candidate_fraction(self) -> float:
        if self.n_pairs == 0:
            return 0.0
        return self.n_candidates / self.n_pairs


def _worker_match_chunk(payload: dict) -> list[BatchPairOutcome]:
    """Process-pool entry point: rebuild a serial runner, match a chunk.

    Cascades ship as their declarative plan: each worker compiles its own
    executor (registry-resolved oracle, private judgement cache), so
    custom oracle names must be registered at import time to be visible
    here.
    """
    plan: CascadePlan | None = payload.get("cascade_plan")
    runner = BatchMatchRunner(
        voters=payload["voters"],
        merger=payload["merger"],
        selection=payload["selection"],
        blocking=payload["blocking"],
        fill_value=payload["fill_value"],
        keep_matrices=False,
        cascade=CascadeExecutor.from_plan(plan) if plan is not None else None,
    )
    schemata: dict[str, Schema] = payload["schemata"]
    return [
        runner._pair_outcome(
            schemata[source_name],
            schemata[target_name],
            payload["selection"],
            source_name,
            target_name,
        )
        for source_name, target_name in payload["pairs"]
    ]


class BatchMatchRunner(HarmonyMatchEngine):
    """The corpus-scale batch fast path (see module docstring).

    An exact engine with blocking: the ensemble, the shared
    :class:`FeatureSpace` (profile and feature caches), the cascade, and
    :meth:`profile`/:meth:`match`/:meth:`explain` are the engine's; the
    runner adds candidate blocking and the corpus fan-out.

    Parameters
    ----------
    voters / merger / space / cascade:
        As for :class:`~repro.match.engine.HarmonyMatchEngine`.  The
        cascade applies to every pair's merged candidate scores (see the
        module docstring); process-pool fan-out ships its *plan*, recompiles
        it per worker, and folds the workers' reports into the cascade's
        counters.
    selection:
        Default selection strategy for corpus outcomes
        (:class:`ThresholdSelection` (0.15) unless given).
    blocking:
        The :class:`~repro.batch.blocking.BlockingPolicy`; the default
        path+documentation policy measures recall 1.0 on the case study.
    fill_value:
        Score assigned to non-candidate pairs (default 0.0, complete
        uncertainty; must lie in [-1, 1]).
    keep_matrices:
        Whether corpus outcomes retain their dense matrices (forced off on
        a process pool, where matrices would dominate pickling cost).
    """

    def __init__(
        self,
        voters: list[MatchVoter] | None = None,
        merger: VoteMerger | None = None,
        selection: SelectionStrategy | None = None,
        blocking: BlockingPolicy | None = None,
        space: FeatureSpace | None = None,
        fill_value: float = 0.0,
        keep_matrices: bool = True,
        cascade: CascadeExecutor | None = None,
    ):
        super().__init__(voters, merger, cascade=cascade, space=space)
        self.selection = (
            selection if selection is not None else ThresholdSelection(0.15)
        )
        self.blocking = blocking if blocking is not None else BlockingPolicy()
        if not -1.0 <= fill_value <= 1.0:
            raise ValueError(f"fill_value must be in [-1, 1], got {fill_value}")
        self.fill_value = fill_value
        self.keep_matrices = keep_matrices

    # -- warm-up --------------------------------------------------------
    def warm(self, schemata: Iterable[Schema]) -> None:
        """Pre-build profiles and every feature the runner will read: the
        blocking keys' features and what each voter's :meth:`MatchVoter.warm`
        builds.

        Called automatically before an in-process sweep; also useful to
        move one-time costs out of a timed region (bench E16 separates
        warm-up from steady-state matching).
        """
        for schema in schemata:
            profile = self.profile(schema)
            for kind in self.blocking.kinds:
                self.space.feature(profile, kind)
            for voter in self.voters:
                voter.warm(profile, self.space)

    # -- single pair ----------------------------------------------------
    def match_pair(
        self,
        source: Schema,
        target: Schema,
        source_element_ids: list[str] | None = None,
    ) -> BatchMatchResult:
        """Fast-path MATCH(source, target) over the blocked candidate grid.

        ``source_element_ids`` optionally restricts the rows (the E2 scale
        sweep's restriction).  Unrestricted candidate scores are exact;
        under restriction two voters deliberately deviate from the exact
        engine's restricted grid: the documentation voters fit IDF over
        the *full* pair corpus, and the structural voter keeps full-schema
        parent/children context -- both of which keep scores stable as the
        restriction changes.
        """
        with span("runner.batch"):
            return self._match_pair(source, target, source_element_ids)

    def _match_pair(
        self,
        source: Schema,
        target: Schema,
        source_element_ids: list[str] | None = None,
    ) -> BatchMatchResult:
        started = time.perf_counter()
        source_profile = self.profile(source)
        target_profile = self.profile(target)
        candidates = candidate_pairs(
            source_profile, target_profile, self.space, self.blocking
        )

        if source_element_ids is not None:
            positions = source_profile.positions_of(list(source_element_ids))
            candidates = candidates.restrict_rows(positions)
            row_of = np.full(len(source_profile), -1, dtype=int)
            row_of[positions] = np.arange(positions.size)
            matrix_rows = row_of[candidates.rows]
            source_ids = list(source_element_ids)
            n_rows = positions.size
        else:
            matrix_rows = candidates.rows
            source_ids = source_profile.element_ids
            n_rows = len(source_profile)

        merged = self._merge_candidates(source_profile, target_profile, candidates)
        cascade_report: CascadeReport | None = None
        if self.cascade is not None:
            merged, cascade_report = self.cascade.escalate_pairs(
                source_profile,
                target_profile,
                candidates.rows,
                candidates.cols,
                merged,
                stage1_seconds=time.perf_counter() - started,
            )
        scores = np.full((n_rows, len(target_profile)), self.fill_value)
        scores[matrix_rows, candidates.cols] = merged
        matrix = MatchMatrix(source_ids, target_profile.element_ids, scores)
        return BatchMatchResult(
            source,
            target,
            matrix,
            elapsed_seconds=time.perf_counter() - started,
            voter_names=[voter.name for voter in self.voters],
            n_candidates=candidates.n_candidates,
            cascade=cascade_report,
        )

    def _merge_candidates(
        self,
        source_profile: SchemaProfile,
        target_profile: SchemaProfile,
        candidates: CandidateSet,
    ) -> np.ndarray:
        """Merged scores for the candidate list (1-D, aligned with it)."""
        if candidates.n_candidates == 0:
            return np.zeros(0)
        stacked = np.stack(
            [
                voter.score_pairs(
                    source_profile,
                    target_profile,
                    candidates.rows,
                    candidates.cols,
                    self.space,
                )
                for voter in self.voters
            ]
        )
        # Mergers speak (n_voters, n_source, n_target); a candidate list is
        # a grid with one column.
        return self.merger.merge(stacked[:, :, None])[:, 0]

    # -- corpus / N-way fan-out -----------------------------------------
    def _pair_outcome(
        self,
        source: Schema,
        target: Schema,
        selection: SelectionStrategy,
        source_name: str | None = None,
        target_name: str | None = None,
    ) -> BatchPairOutcome:
        result = self.match_pair(source, target)
        return BatchPairOutcome(
            source_name=source_name if source_name is not None else source.name,
            target_name=target_name if target_name is not None else target.name,
            n_source=len(source),
            n_target=len(target),
            n_candidates=result.n_candidates,
            elapsed_seconds=result.elapsed_seconds,
            correspondences=result.candidates(selection),
            matrix=result.matrix if self.keep_matrices else None,
            cascade=result.cascade,
        )

    def _run_pairs(
        self,
        schemata: dict[str, Schema],
        pairs: Sequence[tuple[str, str]],
        selection: SelectionStrategy | None,
        workers: int,
    ) -> list[BatchPairOutcome]:
        selection = selection if selection is not None else self.selection
        if workers > 1 and len(pairs) > 1:
            return self._run_pairs_processes(schemata, pairs, selection, workers)
        self.warm(schemata.values())
        return [
            self._pair_outcome(schemata[a], schemata[b], selection, a, b)
            for a, b in pairs
        ]

    def _run_pairs_processes(
        self,
        schemata: dict[str, Schema],
        pairs: Sequence[tuple[str, str]],
        selection: SelectionStrategy,
        workers: int,
    ) -> list[BatchPairOutcome]:
        n_workers = min(workers, len(pairs))
        payloads = []
        for start in range(n_workers):
            chunk = list(pairs[start::n_workers])
            needed = {name for pair in chunk for name in pair}
            payloads.append(
                {
                    "pairs": chunk,
                    "schemata": {name: schemata[name] for name in needed},
                    "voters": None if self._default_ensemble else self.voters,
                    "merger": None if self._default_merger else self.merger,
                    "selection": selection,
                    "blocking": self.blocking,
                    "fill_value": self.fill_value,
                    "cascade_plan": (
                        self.cascade.plan if self.cascade is not None else None
                    ),
                }
            )
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            outcome_lists = list(pool.map(_worker_match_chunk, payloads))
        # Chunk k holds pairs k, k+n, k+2n, ... -- re-interleave to pair order.
        ordered = [
            outcome_lists[index % n_workers][index // n_workers]
            for index in range(len(pairs))
        ]
        # Workers compiled their own cascades: fold their spend into ours.
        counters = self.cascade.counters if self.cascade is not None else None
        if counters is not None:
            for outcome in ordered:
                if outcome.cascade is not None:
                    counters.record(outcome.cascade)
        return ordered

    def match_corpus(
        self,
        source: Schema,
        corpus: dict[str, Schema],
        selection: SelectionStrategy | None = None,
        workers: int = 1,
    ) -> list[BatchPairOutcome]:
        """Match one schema against every schema of a corpus.

        Outcomes come back in sorted-corpus-name order (deterministic
        regardless of dict insertion order or pool scheduling).  ``workers``
        is the fan-out width: 1 matches in-process, more fans the pairs out
        over a process pool (selected pairs equal, scores within 1e-9).
        """
        check_workers(workers)
        names = sorted(corpus)
        registry = dict(corpus)
        source_key = source.name
        while source_key in registry:
            source_key = f"{source_key}*"
        registry[source_key] = source
        pairs = [(source_key, name) for name in names]
        if workers > 1 and len(pairs) > 1:
            outcomes = self._run_pairs(registry, pairs, selection, workers)
        else:
            # One stacked product per set feature instead of one per pair.
            self.warm(registry.values())
            targets = [self.profile(corpus[name]) for name in names]
            with self.space.stacked(self.profile(source), targets):
                outcomes = self._run_pairs(registry, pairs, selection, 1)
        # The registry key is collision-proofed internally; outcomes report
        # the schema's real name.
        for outcome in outcomes:
            outcome.source_name = source.name
        return outcomes

    def match_all_pairs(
        self,
        schemata: dict[str, Schema],
        selection: SelectionStrategy | None = None,
        workers: int = 1,
    ) -> list[BatchPairOutcome]:
        """All C(N,2) pairwise matches of a registry (the N-way front end),
        fanned out as for :meth:`match_corpus`."""
        check_workers(workers)
        return self._run_pairs(
            schemata, list(combinations(sorted(schemata), 2)), selection, workers
        )
