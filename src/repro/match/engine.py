"""The Harmony match engine: voters -> merger -> match matrix.

This is the core MATCH(S1, S2) operator [Bernstein, CIDR 2003] as the paper's
section 3.2 describes Harmony's realisation of it: linguistic preprocessing
(done once per schema in :func:`~repro.matchers.profile.build_profile`),
several match voters each emitting evidence-aware confidences, and a vote
merger producing the final match score per pair.

The engine is stateless apart from its
:class:`~repro.matchers.profile.FeatureSpace` (the profile and feature
caches), so one engine instance serves repeated (incremental) match
operations over the same schemata -- exactly the concept-at-a-time
workflow of section 3.3 -- without re-tokenising: each increment is
scored from the cached features, as a grid of its own.

Execution is *staged*: Stage 1 above is the cheap ensemble, scoring the
full (restricted) pair grid exactly; with a
:class:`~repro.cascade.CascadeExecutor` attached, pairs whose merged
confidence lands inside the plan's ambiguity band escalate to the Stage-2
oracle under a per-request budget (see ``docs/cascade.md``).  Without one,
the pipeline is single-stage and bit-identical to the pre-cascade engine.
This per-grid path is the exact reference; corpus-scale workloads go
through the blocked, feature-cached fast path in :mod:`repro.batch`, which
stages the same way over its candidate lists.  The full dataflow of both
is drawn in ``docs/architecture.md``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.cascade.executor import CascadeExecutor
from repro.cascade.plan import CascadeReport
from repro.match.correspondence import Correspondence, CorrespondenceSet
from repro.match.matrix import MatchMatrix
from repro.match.selection import SelectionStrategy, ThresholdSelection
from repro.matchers import DEFAULT_VOTER_WEIGHTS, MatchVoter, default_voters
from repro.matchers.profile import FeatureSpace, SchemaProfile, build_profile
from repro.schema.schema import Schema
from repro.telemetry import span
from repro.voting.merger import ConvictionLinearMerger, VoteMerger

__all__ = ["MatchResult", "HarmonyMatchEngine"]


class MatchResult:
    """Outcome of one match operation: the matrix plus convenience queries."""

    def __init__(
        self,
        source: Schema,
        target: Schema,
        matrix: MatchMatrix,
        elapsed_seconds: float,
        voter_names: list[str],
        cascade: CascadeReport | None = None,
    ):
        self.source = source
        self.target = target
        self.matrix = matrix
        self.elapsed_seconds = elapsed_seconds
        self.voter_names = voter_names
        #: Stage-2 spend accounting when a cascade ran (None otherwise).
        self.cascade = cascade

    @property
    def n_pairs(self) -> int:
        """Candidate pairs considered (the paper's 10^4-10^6 scale numbers)."""
        return self.matrix.n_pairs

    def candidates(
        self, selection: SelectionStrategy | None = None
    ) -> list[Correspondence]:
        """Materialise candidate correspondences under a selection strategy."""
        strategy = selection if selection is not None else ThresholdSelection(0.15)
        return strategy.select(self.matrix)

    def candidate_set(
        self, selection: SelectionStrategy | None = None
    ) -> CorrespondenceSet:
        return CorrespondenceSet(self.candidates(selection))

    def matched_source_ids(self, threshold: float) -> set[str]:
        """Source elements whose best score clears ``threshold``."""
        row_max = self.matrix.row_max()
        return {
            source_id
            for source_id, best in zip(self.matrix.source_ids, row_max)
            if best >= threshold
        }

    def matched_target_ids(self, threshold: float) -> set[str]:
        """Target elements whose best score clears ``threshold``."""
        col_max = self.matrix.col_max()
        return {
            target_id
            for target_id, best in zip(self.matrix.target_ids, col_max)
            if best >= threshold
        }

    def unmatched_source_ids(self, threshold: float) -> set[str]:
        """The {S1 - S2} knowledge of Lesson #3."""
        return set(self.matrix.source_ids) - self.matched_source_ids(threshold)

    def unmatched_target_ids(self, threshold: float) -> set[str]:
        """The {S2 - S1} knowledge of Lesson #3."""
        return set(self.matrix.target_ids) - self.matched_target_ids(threshold)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MatchResult({self.source.name!r} x {self.target.name!r}, "
            f"pairs={self.n_pairs}, elapsed={self.elapsed_seconds:.2f}s)"
        )


class HarmonyMatchEngine:
    """Composable match engine (voters + merger) over a shared feature space.

    Parameters
    ----------
    voters:
        The voter ensemble; defaults to :func:`repro.matchers.default_voters`.
    merger:
        Vote merger; defaults to the conviction-linear merger with the
        calibrated :data:`~repro.matchers.DEFAULT_VOTER_WEIGHTS` (only when
        the default ensemble is used; custom voter lists get flat weights).
    cascade:
        An optional compiled :class:`~repro.cascade.CascadeExecutor`; when
        given, Stage-1 merged scores inside its ambiguity band escalate to
        the Stage-2 oracle (budgeted, most-ambiguous-first).  ``None``
        keeps the pipeline single-stage and bit-identical to the
        pre-cascade engine.
    space:
        A shared :class:`~repro.matchers.profile.FeatureSpace`: the profile
        cache and the cached features the voters read (a service passes
        the one its engines and batch runners share); the engine owns a
        private space when omitted.
    """

    def __init__(
        self,
        voters: list[MatchVoter] | None = None,
        merger: VoteMerger | None = None,
        cascade: CascadeExecutor | None = None,
        space: FeatureSpace | None = None,
    ):
        self._default_ensemble = voters is None
        self.voters = default_voters() if voters is None else voters
        if not self.voters:
            raise ValueError("engine needs at least one voter")
        self._default_merger = merger is None
        if merger is None:
            merger = ConvictionLinearMerger(
                voter_weights=DEFAULT_VOTER_WEIGHTS if voters is None else None
            )
        self.merger = merger
        self.cascade = cascade
        self.space = space if space is not None else FeatureSpace()

    def profile(self, schema: Schema) -> SchemaProfile:
        """Profile a schema once; later calls reuse the space's cache."""
        profiles = self.space.profiles
        key = id(schema)
        cached = profiles.get(key)
        if cached is None or cached.schema is not schema or len(cached) != len(schema):
            cached = build_profile(schema)
            profiles[key] = cached
        return cached

    def match(
        self,
        source: Schema,
        target: Schema,
        source_element_ids: list[str] | None = None,
        target_element_ids: list[str] | None = None,
    ) -> MatchResult:
        """Run all voters over the (optionally restricted) pair grid.

        ``source_element_ids`` / ``target_element_ids`` restrict the grid --
        this is how the sub-tree and depth filters become *match-time*
        restrictions rather than mere display filters.
        """
        with span("engine.score"):
            return self._match(
                source, target, source_element_ids, target_element_ids
            )

    def _match(
        self,
        source: Schema,
        target: Schema,
        source_element_ids: list[str] | None = None,
        target_element_ids: list[str] | None = None,
    ) -> MatchResult:
        started = time.perf_counter()
        source_profile = self.profile(source)
        target_profile = self.profile(target)

        source_positions = (
            source_profile.positions_of(source_element_ids)
            if source_element_ids is not None
            else None
        )
        target_positions = (
            target_profile.positions_of(target_element_ids)
            if target_element_ids is not None
            else None
        )

        stacked = np.stack(
            [
                voter.vote(
                    source_profile,
                    target_profile,
                    source_positions,
                    target_positions,
                    space=self.space,
                ).confidence
                for voter in self.voters
            ]
        )
        merged = self.merger.merge(stacked)

        cascade_report: CascadeReport | None = None
        if self.cascade is not None:
            merged, cascade_report = self.cascade.escalate_grid(
                source_profile,
                target_profile,
                source_positions,
                target_positions,
                merged,
                stage1_seconds=time.perf_counter() - started,
            )

        source_ids = (
            list(source_element_ids)
            if source_element_ids is not None
            else source_profile.element_ids
        )
        target_ids = (
            list(target_element_ids)
            if target_element_ids is not None
            else target_profile.element_ids
        )
        matrix = MatchMatrix(source_ids, target_ids, merged)
        elapsed = time.perf_counter() - started
        return MatchResult(
            source,
            target,
            matrix,
            elapsed_seconds=elapsed,
            voter_names=[voter.name for voter in self.voters],
            cascade=cascade_report,
        )

    def explain(
        self, source: Schema, target: Schema, source_id: str, target_id: str
    ) -> dict[str, dict[str, float]]:
        """Per-voter breakdown for one pair, agreeing with :meth:`match`.

        Returns ``{voter: {"confidence", "similarity", "evidence"}}`` plus a
        ``"merged"`` pseudo-voter with the final (Stage-1) score -- the
        explanation a GUI tooltip would show.  Every voter scores the pair
        through its pair kernel against the full schemata (structure keeps
        its parent and child context, documentation its full-schema IDF),
        so ``merged`` equals the pair's match-matrix entry.
        """
        source_profile = self.profile(source)
        target_profile = self.profile(target)
        rows = source_profile.positions_of([source_id])
        cols = target_profile.positions_of([target_id])
        breakdown: dict[str, dict[str, float]] = {}
        confidences = []
        for voter in self.voters:
            similarity, evidence = voter.fast_ratios(
                source_profile, target_profile, self.space, rows, cols
            )
            confidence = voter.confidences(similarity, evidence)
            confidences.append(np.reshape(confidence, (1, 1)))
            breakdown[voter.name] = {
                "confidence": float(np.ravel(confidence)[0]),
                "similarity": float(np.ravel(similarity)[0]),
                "evidence": float(np.ravel(evidence)[0]),
            }
        merged = self.merger.merge(np.stack(confidences))
        breakdown["merged"] = {
            "confidence": float(merged[0, 0]),
            "similarity": float("nan"),
            "evidence": float("nan"),
        }
        return breakdown
