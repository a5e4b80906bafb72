"""Overlap analysis: the {S1-S2}, {S2-S1}, {S1∩S2} partition of Lesson #3.

"we observed that the three sets: {S1-S2}, {S2-S1}, and {S1∩S2} provide a
useful partition of the match of two large schemata" (CIDR 2009, 4.4) --
and the case study's headline number ("only 34% of SB matched SA") is
exactly the cardinality of SB∩SA over |SB|.

Two ways to compute the partition are provided:

* :func:`matrix_overlap` -- straight from a match matrix at a threshold
  (what a naive tool report would say);
* :func:`workflow_overlap` -- through the paper's actual concept-at-a-time
  process: match concepts first, then validate element matches only within
  matched concept pairs.  This is the faithful reproduction of the 34%.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.match.engine import MatchResult
from repro.match.selection import StableMarriageSelection
from repro.summarize.conceptmatch import ConceptMatch, match_concepts
from repro.summarize.concepts import Summary

__all__ = ["OverlapReport", "matrix_overlap", "workflow_overlap"]


@dataclass
class OverlapReport:
    """The three-set partition with its headline statistics."""

    source_total: int
    target_total: int
    intersection_source_ids: set[str]
    intersection_target_ids: set[str]
    source_only_ids: set[str]
    target_only_ids: set[str]
    matched_pairs: set[tuple[str, str]] = field(default_factory=set)
    concept_matches: list[ConceptMatch] = field(default_factory=list)

    @property
    def target_matched_fraction(self) -> float:
        """The paper's '34% of SB matched SA' statistic."""
        if self.target_total == 0:
            return 0.0
        return len(self.intersection_target_ids) / self.target_total

    @property
    def source_matched_fraction(self) -> float:
        if self.source_total == 0:
            return 0.0
        return len(self.intersection_source_ids) / self.source_total

    @property
    def target_unmatched_count(self) -> int:
        """The paper's '517 elements' statistic."""
        return len(self.target_only_ids)

    def summary_lines(self) -> list[str]:
        """Human-readable report block."""
        return [
            f"|S1| = {self.source_total}, |S2| = {self.target_total}",
            f"S1 ∩ S2: {len(self.intersection_source_ids)} source / "
            f"{len(self.intersection_target_ids)} target elements",
            f"S1 - S2: {len(self.source_only_ids)} elements "
            f"({1 - self.source_matched_fraction:.1%} of S1)",
            f"S2 - S1: {len(self.target_only_ids)} elements "
            f"({1 - self.target_matched_fraction:.1%} of S2)",
            f"matched fraction of S2: {self.target_matched_fraction:.1%}",
        ]


def matrix_overlap(result: MatchResult, threshold: float) -> OverlapReport:
    """Partition both element sets by best-score thresholding (naive view)."""
    matched_source = result.matched_source_ids(threshold)
    matched_target = result.matched_target_ids(threshold)
    all_source = set(result.matrix.source_ids)
    all_target = set(result.matrix.target_ids)
    return OverlapReport(
        source_total=len(all_source),
        target_total=len(all_target),
        intersection_source_ids=matched_source,
        intersection_target_ids=matched_target,
        source_only_ids=all_source - matched_source,
        target_only_ids=all_target - matched_target,
    )


def workflow_overlap(
    result: MatchResult,
    source_summary: Summary,
    target_summary: Summary,
    concept_threshold: float = 0.10,
    element_threshold: float = 0.13,
) -> OverlapReport:
    """Partition via the concept-at-a-time workflow of section 3.3.

    1. Lift element scores to concept-level matches (one-to-one, greedy).
    2. Within each matched concept pair, select element matches 1:1 by
       stable marriage over the sub-matrix, gated by ``element_threshold``.
    3. Matched elements = concept roots of matched concepts plus the
       elements selected inside them; everything else is unmatched.

    This mirrors how the engineers produced the spreadsheet: cross-concept
    stray matches were not recorded as overlap.
    """
    concept_matches = match_concepts(
        source_summary, target_summary, result, threshold=concept_threshold
    )
    matched_pairs: set[tuple[str, str]] = set()
    matched_source: set[str] = set()
    matched_target: set[str] = set()
    all_source = set(result.matrix.source_ids)
    all_target = set(result.matrix.target_ids)

    for concept_match in concept_matches:
        source_ids = source_summary.elements_of(concept_match.source_concept_id)
        target_ids = target_summary.elements_of(concept_match.target_concept_id)
        source_in_grid = [sid for sid in source_ids if sid in all_source]
        target_in_grid = [tid for tid in target_ids if tid in all_target]
        if not source_in_grid or not target_in_grid:
            continue
        block = result.matrix.submatrix(source_in_grid, target_in_grid)
        selected = StableMarriageSelection(threshold=element_threshold).select(block)
        for correspondence in selected:
            matched_pairs.add(correspondence.pair)
            matched_source.add(correspondence.source_id)
            matched_target.add(correspondence.target_id)

    return OverlapReport(
        source_total=len(all_source),
        target_total=len(all_target),
        intersection_source_ids=matched_source,
        intersection_target_ids=matched_target,
        source_only_ids=all_source - matched_source,
        target_only_ids=all_target - matched_target,
        matched_pairs=matched_pairs,
        concept_matches=concept_matches,
    )
