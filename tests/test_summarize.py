"""Summaries, manual/automatic summarizers, concept matching, quality."""

import numpy as np
import pytest

from repro.match import HarmonyMatchEngine
from repro.summarize import (
    ImportanceSummarizer,
    Summary,
    TokenClusterSummarizer,
    concept_match_matrix,
    match_concepts,
    summarize_by_roots,
    summarize_with_labels,
    summary_agreement,
)
from repro.summarize import conceptmatch
from repro.summarize.quality import inverse_purity, pairwise_f1, purity
from tests import reference_kernels


class TestSummary:
    def test_add_and_assign(self, sample_relational):
        summary = Summary(sample_relational)
        concept = summary.add_concept("Event")
        summary.assign("all_event_vitals", concept.concept_id)
        assert summary.concept_of("all_event_vitals").label == "Event"
        assert summary.elements_of(concept.concept_id) == ["all_event_vitals"]

    def test_assign_subtree(self, sample_relational):
        summary = Summary(sample_relational)
        concept = summary.add_concept("Person")
        count = summary.assign_subtree("person_master", concept.concept_id)
        assert count == 6  # table + 5 columns
        assert summary.concept_of("person_master.birth_dt").label == "Person"

    def test_one_concept_per_element(self, sample_relational):
        summary = Summary(sample_relational)
        first = summary.add_concept("A")
        second = summary.add_concept("B")
        summary.assign("person_master", first.concept_id)
        summary.assign("person_master", second.concept_id)
        assert summary.concept_of("person_master").label == "B"

    def test_duplicate_concept_id_rejected(self, sample_relational):
        summary = Summary(sample_relational)
        summary.add_concept("Event")
        with pytest.raises(ValueError):
            summary.add_concept("Event")

    def test_unknown_element_rejected(self, sample_relational):
        summary = Summary(sample_relational)
        concept = summary.add_concept("X")
        with pytest.raises(KeyError):
            summary.assign("missing", concept.concept_id)

    def test_unknown_concept_rejected(self, sample_relational):
        summary = Summary(sample_relational)
        with pytest.raises(KeyError):
            summary.assign("person_master", "missing")
        with pytest.raises(KeyError):
            summary.elements_of("missing")

    def test_coverage_and_unassigned(self, sample_relational):
        summary = Summary(sample_relational)
        concept = summary.add_concept("Person")
        summary.assign_subtree("person_master", concept.concept_id)
        assert summary.coverage() == pytest.approx(6 / 15)
        assert "all_event_vitals" in summary.unassigned_ids()

    def test_concept_sizes(self, sample_relational):
        summary = Summary(sample_relational)
        concept = summary.add_concept("Person")
        summary.assign_subtree("person_master", concept.concept_id)
        assert summary.concept_sizes() == {concept.concept_id: 6}


class TestManualSummarizers:
    def test_summarize_by_roots(self, sample_relational):
        summary = summarize_by_roots(sample_relational)
        assert len(summary) == 3
        assert summary.coverage() == 1.0
        labels = {concept.label for concept in summary.concepts}
        # "ALL" is an English stopword and is dropped by the labeler.
        assert "Event Vitals" in labels

    def test_summarize_by_roots_subset(self, sample_relational):
        summary = summarize_by_roots(sample_relational, roots=["person_master"])
        assert len(summary) == 1
        assert summary.coverage() < 1.0

    def test_summarize_with_labels_merges_shared_labels(self, sample_relational):
        summary = summarize_with_labels(
            sample_relational,
            {"person_master": "Person", "active_persons": "Person",
             "all_event_vitals": "Event"},
        )
        assert len(summary) == 2
        person_elements = summary.elements_of(
            next(c.concept_id for c in summary.concepts if c.label == "Person")
        )
        assert "person_master" in person_elements
        assert "active_persons" in person_elements


class TestAutoSummarizers:
    def test_importance_keeps_k(self, sample_relational):
        summary = ImportanceSummarizer(k=2).summarize(sample_relational)
        assert len(summary) == 2

    def test_importance_prefers_bigger_documented_tables(self, sample_relational):
        summarizer = ImportanceSummarizer(k=2)
        summary = summarizer.summarize(sample_relational)
        labels = {concept.label for concept in summary.concepts}
        # The two real tables outrank the 3-element view.
        assert not any("Active" in label for label in labels)

    def test_importance_validates_k(self):
        with pytest.raises(ValueError):
            ImportanceSummarizer(k=0)

    def test_token_cluster_groups_by_head(self, sample_relational):
        summary = TokenClusterSummarizer().summarize(sample_relational)
        # PERSON_MASTER and ACTIVE_PERSONS share the "person" head token
        # only if "active" is dropped -- heads differ here, so >= 2 concepts.
        assert 1 <= len(summary) <= 3
        assert summary.coverage() == 1.0


class TestConceptMatching:
    def test_concept_matrix_and_matches(self, sample_relational, sample_xml):
        result = HarmonyMatchEngine().match(sample_relational, sample_xml)
        source_summary = summarize_by_roots(sample_relational)
        target_summary = summarize_by_roots(sample_xml)
        concepts_a, concepts_b, scores = concept_match_matrix(
            source_summary, target_summary, result
        )
        assert scores.shape == (len(concepts_a), len(concepts_b))
        matches = match_concepts(
            source_summary, target_summary, result, threshold=0.02
        )
        assert matches
        pairs = {(m.source_label, m.target_label) for m in matches}
        assert ("Person Master", "Individual") in pairs

    @pytest.mark.parametrize("restricted", [False, True])
    def test_concept_matrix_equals_the_per_pair_referee(
        self, small_pair, restricted, monkeypatch
    ):
        # One mean_best_match call over every concept pair against the
        # former per-pair loop; a half-restricted grid leaves concepts
        # with no element inside it.
        source, target = small_pair.source.schema, small_pair.target.schema
        ids = [element.element_id for element in source]
        rows = ids[: len(ids) // 2] if restricted else None
        result = HarmonyMatchEngine().match(source, target, source_element_ids=rows)
        summaries = (
            small_pair.source.truth_summary(),
            small_pair.target.truth_summary(),
        )
        _, _, scores = concept_match_matrix(*summaries, result)
        _, _, reference = reference_kernels.concept_match_matrix(*summaries, result)
        np.testing.assert_allclose(scores, reference, atol=1e-9, rtol=0)
        if restricted:
            assert not scores.any(axis=1).all()

        def listed(matches):
            return [(m.source_concept_id, m.target_concept_id) for m in matches]

        matches = match_concepts(*summaries, result, threshold=0.0)
        monkeypatch.setattr(
            conceptmatch, "concept_match_matrix", reference_kernels.concept_match_matrix
        )
        expected = match_concepts(*summaries, result, threshold=0.0)
        assert matches and listed(matches) == listed(expected)
        np.testing.assert_allclose(
            [m.score for m in matches], [m.score for m in expected], atol=1e-9, rtol=0
        )

    def test_one_to_one_constraint(self, sample_relational, sample_xml):
        result = HarmonyMatchEngine().match(sample_relational, sample_xml)
        matches = match_concepts(
            summarize_by_roots(sample_relational),
            summarize_by_roots(sample_xml),
            result,
            threshold=0.0,
        )
        sources = [m.source_concept_id for m in matches]
        targets = [m.target_concept_id for m in matches]
        assert len(sources) == len(set(sources))
        assert len(targets) == len(set(targets))


class TestQuality:
    def _two_summaries(self, schema):
        reference = summarize_by_roots(schema)
        candidate = summarize_with_labels(
            schema,
            {root.element_id: "Everything" for root in schema.roots()},
        )
        return candidate, reference

    def test_perfect_agreement(self, sample_relational):
        reference = summarize_by_roots(sample_relational)
        report = summary_agreement(reference, reference)
        assert report["purity"] == 1.0
        assert report["inverse_purity"] == 1.0
        assert report["pairwise_f1"] == 1.0

    def test_lumping_hurts_purity_not_inverse(self, sample_relational):
        candidate, reference = self._two_summaries(sample_relational)
        assert purity(candidate, reference) < 1.0
        assert inverse_purity(candidate, reference) == 1.0

    def test_pairwise_f1_between_zero_and_one(self, sample_relational):
        candidate, reference = self._two_summaries(sample_relational)
        assert 0.0 < pairwise_f1(candidate, reference) < 1.0

    def test_empty_candidate(self, sample_relational):
        empty = Summary(sample_relational)
        reference = summarize_by_roots(sample_relational)
        assert purity(empty, reference) == 0.0
        assert pairwise_f1(empty, reference) == 0.0
