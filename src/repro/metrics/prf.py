"""Precision / recall / F1 against ground-truth correspondences.

The paper could not score Harmony (no ground truth existed for the military
schemata); the synthetic substrate gives us one, so every matcher and
ablation in the benches reports match quality with these standard measures,
including threshold sweeps for operating-point selection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.match.correspondence import Correspondence
from repro.match.matrix import MatchMatrix
from repro.match.selection import SelectionStrategy, ThresholdSelection

__all__ = [
    "PRF",
    "prf",
    "prf_of_pairs",
    "threshold_sweep",
    "best_f1",
    "best_f1_assignment",
]


@dataclass(frozen=True)
class PRF:
    """One precision/recall/F1 measurement."""

    precision: float
    recall: float
    f1: float
    true_positives: int
    predicted: int
    actual: int

    def as_row(self) -> str:
        return (
            f"P={self.precision:.3f} R={self.recall:.3f} F1={self.f1:.3f} "
            f"(tp={self.true_positives}, pred={self.predicted}, actual={self.actual})"
        )


def prf_of_pairs(
    predicted_pairs: Iterable[tuple[str, str]],
    truth_pairs: Iterable[tuple[str, str]],
) -> PRF:
    """P/R/F1 over raw (source_id, target_id) pair sets."""
    predicted = set(predicted_pairs)
    actual = set(truth_pairs)
    true_positives = len(predicted & actual)
    precision = true_positives / len(predicted) if predicted else 0.0
    recall = true_positives / len(actual) if actual else 0.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall > 0
        else 0.0
    )
    return PRF(
        precision=precision,
        recall=recall,
        f1=f1,
        true_positives=true_positives,
        predicted=len(predicted),
        actual=len(actual),
    )


def prf(
    correspondences: Iterable[Correspondence],
    truth_pairs: Iterable[tuple[str, str]],
) -> PRF:
    """P/R/F1 of a correspondence list against ground truth."""
    return prf_of_pairs(
        (correspondence.pair for correspondence in correspondences), truth_pairs
    )


def threshold_sweep(
    matrix: MatchMatrix,
    truth_pairs: Iterable[tuple[str, str]],
    thresholds: Sequence[float] = tuple(round(0.05 * i, 2) for i in range(1, 19)),
) -> list[tuple[float, PRF]]:
    """P/R/F1 of threshold selection across a threshold grid."""
    truth = set(truth_pairs)
    sweep: list[tuple[float, PRF]] = []
    for threshold in thresholds:
        selected = ThresholdSelection(threshold).select(matrix)
        sweep.append((threshold, prf(selected, truth)))
    return sweep


def best_f1_assignment(
    matrix: MatchMatrix,
    truth_pairs: Iterable[tuple[str, str]],
    thresholds: Sequence[float] = tuple(round(0.05 * i, 2) for i in range(1, 19)),
) -> tuple[float, PRF]:
    """Best-F1 operating point under a 1:1 assignment.

    Runs the maximum-weight assignment (Hungarian) **once**, then sweeps the
    score threshold over the assigned pairs -- the standard way to score a
    matcher that is allowed a final 1:1 selection step.  Far cheaper than
    re-selecting per threshold, and the right comparison basis for matcher
    architectures (raw many-to-many thresholding punishes every matcher with
    the same cross-concept near-duplicates).  Rows and columns are put in
    element-id order first, so exact score ties resolve the same way
    whatever order the matrix lists its elements in.
    """
    from repro.match.selection import HungarianSelection

    truth = set(truth_pairs)
    canonical = matrix.submatrix(sorted(matrix.source_ids), sorted(matrix.target_ids))
    assigned = HungarianSelection(threshold=-1.0).select(canonical)
    best: tuple[float, PRF] | None = None
    for threshold in thresholds:
        kept = [c.pair for c in assigned if c.score >= threshold]
        measurement = prf_of_pairs(kept, truth)
        if best is None or measurement.f1 > best[1].f1:
            best = (threshold, measurement)
    assert best is not None
    return best


def best_f1(
    matrix: MatchMatrix,
    truth_pairs: Iterable[tuple[str, str]],
    thresholds: Sequence[float] = tuple(round(0.05 * i, 2) for i in range(1, 19)),
    selection_factory=None,
) -> tuple[float, PRF]:
    """The best-F1 operating point over a threshold grid.

    ``selection_factory`` maps a threshold to a SelectionStrategy; defaults
    to plain thresholding.
    """
    truth = set(truth_pairs)
    factory = selection_factory or (lambda t: ThresholdSelection(t))
    best: tuple[float, PRF] | None = None
    for threshold in thresholds:
        strategy: SelectionStrategy = factory(threshold)
        measurement = prf(strategy.select(matrix), truth)
        if best is None or measurement.f1 > best[1].f1:
            best = (threshold, measurement)
    assert best is not None
    return best
