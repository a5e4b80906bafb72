"""Concept-level matching: lifting element matches to summary matches.

"A common outcome was a strong match from the fields of one concept to the
fields of a corresponding concept in the other schema ... When this
occurred, we also recorded a concept-level match.  24 of these concept-level
matches were thus identified" (CIDR 2009, section 3.3).

Given two summaries and an element-level match result, the aggregate score
of concept pair (A, B) is the symmetrised mean-best-match of their member
elements' scores -- the structural voter's container aggregation,
:func:`~repro.matchers.structure.mean_best_match`, applied at the summary
level.  Pairs clearing a threshold become :class:`ConceptMatch` records.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.match.engine import MatchResult
from repro.matchers.structure import mean_best_match
from repro.summarize.concepts import Concept, Summary

__all__ = ["ConceptMatch", "concept_match_matrix", "match_concepts"]


@dataclass(frozen=True)
class ConceptMatch:
    """A validated correspondence between two summary concepts."""

    source_concept_id: str
    target_concept_id: str
    score: float
    source_label: str = ""
    target_label: str = ""


def concept_match_matrix(
    source_summary: Summary,
    target_summary: Summary,
    result: MatchResult,
) -> tuple[list[Concept], list[Concept], np.ndarray]:
    """Aggregate element scores into a concepts x concepts matrix.

    Concepts with no elements inside the match grid score 0 against
    everything.  Returns (source_concepts, target_concepts, scores).
    """
    source_concepts = source_summary.concepts
    target_concepts = target_summary.concepts
    matrix = result.matrix
    source_index = {sid: i for i, sid in enumerate(matrix.source_ids)}
    target_index = {tid: j for j, tid in enumerate(matrix.target_ids)}

    source_members = [
        [source_index[eid] for eid in source_summary.elements_of(c.concept_id)
         if eid in source_index]
        for c in source_concepts
    ]
    target_members = [
        [target_index[eid] for eid in target_summary.elements_of(c.concept_id)
         if eid in target_index]
        for c in target_concepts
    ]

    scores = np.zeros((len(source_concepts), len(target_concepts)))
    # Every pair of non-empty concepts in one call; its -1.0 padding
    # sentinel never wins a max, since match scores lie in [-1, 1].
    rows, cols = np.meshgrid(
        [row for row, members in enumerate(source_members) if members],
        [col for col, members in enumerate(target_members) if members],
        indexing="ij",
    )
    if rows.size:
        scores[rows, cols] = mean_best_match(
            matrix.scores, source_members, target_members, rows.ravel(), cols.ravel()
        )[0].reshape(rows.shape)
    return source_concepts, target_concepts, scores


def match_concepts(
    source_summary: Summary,
    target_summary: Summary,
    result: MatchResult,
    threshold: float = 0.10,
    one_to_one: bool = True,
) -> list[ConceptMatch]:
    """Concept-level matches above ``threshold``, best first.

    With ``one_to_one`` (the paper recorded a single label-to-label match
    per concept), a greedy best-first assignment enforces that each concept
    participates in at most one match.
    """
    source_concepts, target_concepts, scores = concept_match_matrix(
        source_summary, target_summary, result
    )
    order = np.dstack(np.unravel_index(np.argsort(-scores, axis=None), scores.shape))[0]
    matches: list[ConceptMatch] = []
    used_source: set[int] = set()
    used_target: set[int] = set()
    for row, col in order:
        score = float(scores[row, col])
        if score < threshold:
            break
        if one_to_one and (row in used_source or col in used_target):
            continue
        matches.append(
            ConceptMatch(
                source_concept_id=source_concepts[row].concept_id,
                target_concept_id=target_concepts[col].concept_id,
                score=score,
                source_label=source_concepts[row].label,
                target_label=target_concepts[col].label,
            )
        )
        used_source.add(row)
        used_target.add(col)
    return matches
