"""Engine behaviour: end-to-end matching, restriction, explanation, increments."""

import random

import pytest

from repro.match import (
    HarmonyMatchEngine,
    IncrementalMatcher,
    MatchStatus,
    ThresholdSelection,
)
from repro.matchers import (
    DocumentationVoter,
    EditDistanceVoter,
    NameTokenVoter,
    StructuralVoter,
    default_voters,
)
from repro.synthetic import generate_clustered_corpus
from repro.voting import AverageMerger


class TestEngine:
    def test_result_shape(self, sample_relational, sample_xml):
        result = HarmonyMatchEngine().match(sample_relational, sample_xml)
        assert result.matrix.shape == (len(sample_relational), len(sample_xml))
        assert result.n_pairs == len(sample_relational) * len(sample_xml)
        assert result.elapsed_seconds > 0

    def test_true_pairs_rank_high(self, sample_relational, sample_xml):
        result = HarmonyMatchEngine().match(sample_relational, sample_xml)
        best_for_birth = result.matrix.best_for_source("person_master.birth_dt")
        assert best_for_birth.target_id == "individual.dateofbirth"
        best_for_blood = result.matrix.best_for_source("person_master.blood_type_cd")
        assert best_for_blood.target_id == "individual.bloodgroup"

    def test_restriction_to_subtree(self, sample_relational, sample_xml):
        engine = HarmonyMatchEngine()
        subtree_ids = [
            e.element_id for e in sample_relational.subtree("person_master")
        ]
        result = engine.match(
            sample_relational, sample_xml, source_element_ids=subtree_ids
        )
        assert result.matrix.shape == (len(subtree_ids), len(sample_xml))
        assert result.matrix.source_ids == subtree_ids

    def test_candidates_default_selection(self, sample_relational, sample_xml):
        result = HarmonyMatchEngine().match(sample_relational, sample_xml)
        for candidate in result.candidates(ThresholdSelection(0.3)):
            assert candidate.score >= 0.3
            assert candidate.status is MatchStatus.CANDIDATE

    def test_matched_unmatched_partition(self, sample_relational, sample_xml):
        result = HarmonyMatchEngine().match(sample_relational, sample_xml)
        threshold = 0.3
        matched = result.matched_target_ids(threshold)
        unmatched = result.unmatched_target_ids(threshold)
        assert matched | unmatched == {e.element_id for e in sample_xml}
        assert not matched & unmatched

    def test_profile_cache_reused(self, sample_relational, sample_xml):
        engine = HarmonyMatchEngine()
        first = engine.profile(sample_relational)
        second = engine.profile(sample_relational)
        assert first is second

    def test_custom_voters_and_merger(self, sample_relational, sample_xml):
        engine = HarmonyMatchEngine(
            voters=[NameTokenVoter()], merger=AverageMerger()
        )
        result = engine.match(sample_relational, sample_xml)
        assert result.voter_names == ["name_token"]

    def test_rejects_empty_voter_list(self):
        with pytest.raises(ValueError):
            HarmonyMatchEngine(voters=[])

    def test_explain_structure(self, sample_relational, sample_xml):
        engine = HarmonyMatchEngine()
        breakdown = engine.explain(
            sample_relational,
            sample_xml,
            "person_master.birth_dt",
            "individual.dateofbirth",
        )
        assert "merged" in breakdown
        assert "name_token" in breakdown
        for voter_name, parts in breakdown.items():
            assert -1.0 <= parts["confidence"] <= 1.0

    def test_explain_consistent_sign(self, sample_relational, sample_xml):
        engine = HarmonyMatchEngine()
        breakdown = engine.explain(
            sample_relational,
            sample_xml,
            "person_master.birth_dt",
            "individual.dateofbirth",
        )
        assert breakdown["name_token"]["confidence"] > 0

    @pytest.mark.parametrize(
        "ensemble", ["default", "with_per_pair_voter", "default_with_edit_distance"]
    )
    def test_explain_merged_equals_the_matrix_entry(self, ensemble):
        """explain() must report the score match() gave the pair: structure
        keeps its child/parent context and documentation its full-schema
        IDF, which a 1x1 rescoring grid loses."""
        corpus = generate_clustered_corpus(n_domains=2, schemata_per_domain=3, seed=7)
        source, target = corpus.schemata[0].schema, corpus.schemata[1].schema
        if ensemble == "default":
            engine = HarmonyMatchEngine()
        elif ensemble == "with_per_pair_voter":
            engine = HarmonyMatchEngine(
                voters=[StructuralVoter(), DocumentationVoter(), EditDistanceVoter()]
            )
        else:
            engine = HarmonyMatchEngine(voters=default_voters() + [EditDistanceVoter()])
        matrix = engine.match(source, target).matrix
        rng = random.Random(2009)
        for _ in range(30):
            source_id = rng.choice(matrix.source_ids)
            target_id = rng.choice(matrix.target_ids)
            merged = engine.explain(source, target, source_id, target_id)["merged"]
            assert merged["confidence"] == pytest.approx(
                matrix.score(source_id, target_id), abs=1e-9
            ), (source_id, target_id)
            # The merger adds voters cell by cell in one fixed order, so a
            # 1x1 merge equals the grid's entry bit for bit.
            assert merged["confidence"] == matrix.score(source_id, target_id), (
                source_id,
                target_id,
            )

    def test_explain_reuses_the_engine_feature_space(
        self, sample_relational, sample_xml, monkeypatch
    ):
        import repro.matchers.profile as profile_module

        built = []
        for name in ("_set_feature", "_bag_feature"):
            original = getattr(profile_module, name)
            monkeypatch.setattr(
                profile_module,
                name,
                lambda documents, interner, _original=original: built.append(
                    interner
                )
                or _original(documents, interner),
            )
        engine = HarmonyMatchEngine()
        pair = ("person_master.birth_dt", "individual.dateofbirth")
        engine.explain(sample_relational, sample_xml, *pair)
        after_first = len(built)
        assert after_first > 0
        engine.explain(sample_relational, sample_xml, *pair)
        engine.explain(
            sample_relational, sample_xml, "person_master.blood_type_cd", pair[1]
        )
        assert len(built) == after_first


class TestIncrementalMatcher:
    def test_increments_tracked(self, sample_relational, sample_xml):
        matcher = IncrementalMatcher(sample_relational, sample_xml)
        first = matcher.match_subtree("person_master")
        second = matcher.match_subtree("all_event_vitals")
        assert len(matcher.increments) == 2
        assert first.n_pairs == first.n_source_elements * len(sample_xml)
        assert matcher.total_pairs_considered == first.n_pairs + second.n_pairs
        assert matcher.pairs_per_increment() == [first.n_pairs, second.n_pairs]

    def test_increment_restricts_target_too(self, sample_relational, sample_xml):
        matcher = IncrementalMatcher(sample_relational, sample_xml)
        target_ids = [e.element_id for e in sample_xml.subtree("individual")]
        increment = matcher.match_subtree("person_master", target_element_ids=target_ids)
        assert increment.n_target_elements == len(target_ids)
        assert increment.result.matrix.shape[1] == len(target_ids)

    def test_increment_scores_match_full_run(self, sample_relational, sample_xml):
        """Sub-tree increments agree with the full matrix on shared pairs
        for the restriction-invariant part of scoring (top pair identity)."""
        engine = HarmonyMatchEngine()
        matcher = IncrementalMatcher(sample_relational, sample_xml, engine=engine)
        increment = matcher.match_subtree("person_master")
        best = increment.result.matrix.best_for_source("person_master.birth_dt")
        assert best.target_id == "individual.dateofbirth"
