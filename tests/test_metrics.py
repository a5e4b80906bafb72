"""P/R/F1, threshold sweeps, overlap partitions, ranking metrics."""

import numpy as np
import pytest

from repro.match import HarmonyMatchEngine, MatchMatrix
from repro.metrics import (
    average_precision,
    best_f1,
    best_f1_assignment,
    matrix_overlap,
    precision_at_k,
    prf,
    prf_of_pairs,
    reciprocal_rank,
    threshold_sweep,
    workflow_overlap,
)
from repro.match.correspondence import Correspondence


class TestPrf:
    def test_perfect(self):
        measurement = prf_of_pairs({("a", "b")}, {("a", "b")})
        assert measurement.precision == 1.0
        assert measurement.recall == 1.0
        assert measurement.f1 == 1.0

    def test_half_precision(self):
        measurement = prf_of_pairs({("a", "b"), ("a", "c")}, {("a", "b")})
        assert measurement.precision == 0.5
        assert measurement.recall == 1.0
        assert measurement.f1 == pytest.approx(2 / 3)

    def test_empty_prediction(self):
        measurement = prf_of_pairs(set(), {("a", "b")})
        assert measurement.precision == 0.0
        assert measurement.recall == 0.0
        assert measurement.f1 == 0.0

    def test_empty_truth(self):
        measurement = prf_of_pairs({("a", "b")}, set())
        assert measurement.recall == 0.0

    def test_from_correspondences(self):
        measurement = prf([Correspondence("a", "b", 0.9)], {("a", "b")})
        assert measurement.f1 == 1.0

    def test_as_row_format(self):
        row = prf_of_pairs({("a", "b")}, {("a", "b")}).as_row()
        assert "P=1.000" in row and "tp=1" in row


class TestSweeps:
    @pytest.fixture
    def matrix(self):
        return MatchMatrix(
            ["a1", "a2"], ["b1", "b2"],
            np.array([[0.9, 0.1], [0.2, 0.8]]),
        )

    def test_threshold_sweep_monotone_predictions(self, matrix):
        sweep = threshold_sweep(matrix, {("a1", "b1"), ("a2", "b2")})
        predicted = [measurement.predicted for _, measurement in sweep]
        assert predicted == sorted(predicted, reverse=True)

    def test_best_f1_finds_operating_point(self, matrix):
        threshold, measurement = best_f1(matrix, {("a1", "b1"), ("a2", "b2")})
        assert measurement.f1 == 1.0
        assert 0.2 < threshold <= 0.8

    def test_assignment_ties_do_not_depend_on_row_order(self):
        truth = {("a", "x"), ("b", "y")}
        ties = np.full((2, 2), 0.5)
        forward = best_f1_assignment(MatchMatrix(["a", "b"], ["x", "y"], ties), truth)
        flipped = best_f1_assignment(MatchMatrix(["b", "a"], ["x", "y"], ties), truth)
        assert forward == flipped
        assert forward[1].f1 == 1.0

    def test_assignment_is_invariant_under_permutation(self):
        rng = np.random.default_rng(7)
        # Coarse scores: many exact ties for the assignment to break.
        scores = rng.integers(0, 4, size=(6, 5)) / 4
        sources = [f"s{i}" for i in range(6)]
        targets = [f"t{j}" for j in range(5)]
        truth = {(f"s{i}", f"t{i}") for i in range(5)}
        expected = best_f1_assignment(MatchMatrix(sources, targets, scores), truth)
        for _ in range(10):
            rows = rng.permutation(6)
            cols = rng.permutation(5)
            permuted = MatchMatrix(
                [sources[i] for i in rows],
                [targets[j] for j in cols],
                scores[np.ix_(rows, cols)],
            )
            assert best_f1_assignment(permuted, truth) == expected


class TestMatrixOverlap:
    def test_partition_is_total(self, small_pair_result):
        report = matrix_overlap(small_pair_result, threshold=0.3)
        all_targets = set(small_pair_result.matrix.target_ids)
        assert report.intersection_target_ids | report.target_only_ids == all_targets
        assert not report.intersection_target_ids & report.target_only_ids
        all_sources = set(small_pair_result.matrix.source_ids)
        assert report.intersection_source_ids | report.source_only_ids == all_sources

    def test_fractions(self, small_pair_result):
        report = matrix_overlap(small_pair_result, threshold=0.3)
        assert report.target_matched_fraction == pytest.approx(
            len(report.intersection_target_ids) / report.target_total
        )
        assert report.target_unmatched_count == len(report.target_only_ids)

    def test_summary_lines(self, small_pair_result):
        report = matrix_overlap(small_pair_result, threshold=0.3)
        lines = report.summary_lines()
        assert any("matched fraction" in line for line in lines)


class TestWorkflowOverlap:
    def test_workflow_tighter_than_matrix(self, small_pair, small_pair_result):
        source_summary = small_pair.source.truth_summary()
        target_summary = small_pair.target.truth_summary()
        workflow = workflow_overlap(
            small_pair_result, source_summary, target_summary
        )
        naive = matrix_overlap(small_pair_result, threshold=0.1)
        assert (
            len(workflow.intersection_target_ids)
            <= len(naive.intersection_target_ids)
        )

    def test_workflow_finds_real_overlap(self, small_pair, small_pair_result):
        workflow = workflow_overlap(
            small_pair_result,
            small_pair.source.truth_summary(),
            small_pair.target.truth_summary(),
        )
        measurement = prf_of_pairs(workflow.matched_pairs, small_pair.truth_pairs)
        assert measurement.precision > 0.5
        assert measurement.recall > 0.25
        assert workflow.concept_matches

    def test_matched_pairs_within_concept_matches(self, small_pair, small_pair_result):
        source_summary = small_pair.source.truth_summary()
        target_summary = small_pair.target.truth_summary()
        workflow = workflow_overlap(
            small_pair_result, source_summary, target_summary
        )
        matched_concepts = {
            (m.source_concept_id, m.target_concept_id)
            for m in workflow.concept_matches
        }
        for source_id, target_id in workflow.matched_pairs:
            concept_pair = (
                source_summary.concept_of(source_id).concept_id,
                target_summary.concept_of(target_id).concept_id,
            )
            assert concept_pair in matched_concepts


class TestRankingMetrics:
    def test_precision_at_k(self):
        ranked = ["a", "b", "c", "d"]
        assert precision_at_k(ranked, {"a", "c"}, 2) == 0.5
        assert precision_at_k(ranked, {"a", "c"}, 4) == 0.5
        with pytest.raises(ValueError):
            precision_at_k(ranked, {"a"}, 0)

    def test_reciprocal_rank(self):
        assert reciprocal_rank(["x", "a"], {"a"}) == 0.5
        assert reciprocal_rank(["a"], {"a"}) == 1.0
        assert reciprocal_rank(["x"], {"a"}) == 0.0

    def test_average_precision(self):
        assert average_precision(["a", "x", "b"], {"a", "b"}) == pytest.approx(
            (1.0 + 2 / 3) / 2
        )
        assert average_precision(["x"], {"a"}) == 0.0
        assert average_precision(["a"], set()) == 0.0
