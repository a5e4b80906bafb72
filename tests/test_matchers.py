"""Profiles, vectorised set similarity, and the individual match voters."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.matchers import (
    DataTypeVoter,
    DocumentationVoter,
    EditDistanceVoter,
    ExactNameVoter,
    NameTokenVoter,
    NgramVoter,
    PathVoter,
    StructuralVoter,
    ThesaurusVoter,
    build_profile,
    default_voters,
)
from repro.matchers.setsim import (
    containment_matrix,
    dice_matrix,
    intersection_counts,
    jaccard_matrix,
)
from repro.text.similarity import dice_coefficient, jaccard, overlap_coefficient

token_lists = st.lists(
    st.sampled_from(["date", "begin", "event", "person", "name", "code"]),
    max_size=5,
)


class TestSetSimMatricesMatchPairwiseReference:
    @given(
        st.lists(token_lists, min_size=1, max_size=5),
        st.lists(token_lists, min_size=1, max_size=5),
    )
    def test_jaccard_matrix(self, source, target):
        matrix = jaccard_matrix(source, target)
        for i, a in enumerate(source):
            for j, b in enumerate(target):
                expected = jaccard(a, b) if (a or b) else 0.0
                if not a and not b:
                    expected = 0.0  # matrix treats empty-vs-empty as no evidence
                assert matrix[i, j] == pytest.approx(expected)

    @given(
        st.lists(token_lists, min_size=1, max_size=5),
        st.lists(token_lists, min_size=1, max_size=5),
    )
    def test_dice_matrix(self, source, target):
        matrix = dice_matrix(source, target)
        for i, a in enumerate(source):
            for j, b in enumerate(target):
                expected = 0.0 if not a and not b else dice_coefficient(a, b)
                assert matrix[i, j] == pytest.approx(expected)

    @given(
        st.lists(token_lists, min_size=1, max_size=5),
        st.lists(token_lists, min_size=1, max_size=5),
    )
    def test_containment_matrix(self, source, target):
        matrix = containment_matrix(source, target)
        for i, a in enumerate(source):
            for j, b in enumerate(target):
                expected = 0.0 if not a and not b else overlap_coefficient(a, b)
                assert matrix[i, j] == pytest.approx(expected)

    def test_intersection_counts(self):
        counts, source_sizes, target_sizes = intersection_counts(
            [["a", "b"], ["c"]], [["a"], ["a", "b", "c"]]
        )
        assert counts[0, 0] == 1
        assert counts[0, 1] == 2
        assert counts[1, 1] == 1
        assert source_sizes.tolist() == [2, 1]
        assert target_sizes.tolist() == [1, 3]


class TestProfile:
    def test_profile_basics(self, sample_relational):
        profile = build_profile(sample_relational)
        assert len(profile) == len(sample_relational)
        assert profile.element_ids[0] == "all_event_vitals"
        assert profile.depths[0] == 1
        assert profile.parent_index[0] == -1
        assert profile.parent_index[1] == 0

    def test_subtree_positions(self, sample_relational):
        profile = build_profile(sample_relational)
        positions = profile.subtree_positions("person_master")
        ids = [profile.element_ids[p] for p in positions]
        assert ids[0] == "person_master"
        assert all(eid.startswith("person_master") for eid in ids)

    def test_leaf_positions(self, sample_relational):
        profile = build_profile(sample_relational)
        leaves = {profile.element_ids[p] for p in profile.leaf_positions()}
        assert "all_event_vitals.event_id" in leaves
        assert "all_event_vitals" not in leaves

    def test_doc_terms_empty_without_documentation(self, sample_xml):
        profile = build_profile(sample_xml)
        position = profile.index_of["individual.dateofbirth"]
        assert profile.doc_terms[position] == ()


class TestVoterContracts:
    """Shared contract: confidences in [-1,1], shapes align, zero evidence -> 0."""

    @pytest.mark.parametrize("voter", default_voters(), ids=lambda v: v.name)
    def test_full_grid_contract(self, voter, sample_relational, sample_xml):
        source = build_profile(sample_relational)
        target = build_profile(sample_xml)
        opinion = voter.vote(source, target)
        assert opinion.shape == (len(source), len(target))
        assert opinion.confidence.min() >= -1.0
        assert opinion.confidence.max() <= 1.0
        assert opinion.evidence.min() >= 0.0
        zero_evidence = opinion.evidence == 0
        assert np.all(opinion.confidence[zero_evidence] == 0.0)

    @pytest.mark.parametrize("voter", default_voters(), ids=lambda v: v.name)
    def test_restriction_matches_full_grid(self, voter, sample_relational, sample_xml):
        source = build_profile(sample_relational)
        target = build_profile(sample_xml)
        full = voter.vote(source, target)
        rows = source.subtree_positions("person_master")
        restricted = voter.vote(source, target, source_positions=rows)
        if voter.name in ("structure", "path", "documentation", "describing_text"):
            # Context-dependent voters (ancestors/children fall outside the
            # grid) and corpus-fit voters (TF-IDF IDF shifts with the grid)
            # may legitimately differ under restriction.
            return
        np.testing.assert_allclose(
            restricted.confidence, full.confidence[rows, :], atol=1e-12
        )


class TestIndividualVoters:
    def test_exact_name_hits_equal_names(self, sample_relational, sample_xml):
        source = build_profile(sample_relational)
        target = build_profile(sample_xml)
        opinion = ExactNameVoter().vote(source, target)
        # No identical names across the two samples.
        assert opinion.similarity.max() == 0.0

    def test_name_token_finds_birth_date(self, sample_relational, sample_xml):
        source = build_profile(sample_relational)
        target = build_profile(sample_xml)
        opinion = NameTokenVoter().vote(source, target)
        row = source.index_of["person_master.birth_dt"]
        col = target.index_of["individual.dateofbirth"]
        assert opinion.confidence[row, col] > 0.2
        assert opinion.confidence[row, col] == opinion.confidence[row].max()

    def test_thesaurus_bridges_synonyms(self, sample_relational, sample_xml):
        source = build_profile(sample_relational)
        target = build_profile(sample_xml)
        opinion = ThesaurusVoter().vote(source, target)
        row = source.index_of["all_event_vitals.date_begin_156"]
        col = target.index_of["event.datetime_first_info"]
        plain = NameTokenVoter().vote(source, target)
        assert opinion.confidence[row, col] > plain.confidence[row, col]

    def test_documentation_voter_rewards_shared_docs(
        self, sample_relational, sample_xml
    ):
        source = build_profile(sample_relational)
        target = build_profile(sample_xml)
        opinion = DocumentationVoter().vote(source, target)
        row = source.index_of["person_master.blood_type_cd"]
        col = target.index_of["individual.bloodgroup"]
        assert opinion.confidence[row, col] > 0.3

    def test_documentation_voter_zero_without_docs(self, sample_relational, sample_xml):
        source = build_profile(sample_relational)
        target = build_profile(sample_xml)
        opinion = DocumentationVoter().vote(source, target)
        col = target.index_of["individual.dateofbirth"]  # no documentation
        assert np.all(opinion.confidence[:, col] == 0.0)

    def test_datatype_voter_neutral_on_unknown(self, sample_relational, sample_xml):
        source = build_profile(sample_relational)
        target = build_profile(sample_xml)
        opinion = DataTypeVoter().vote(source, target)
        row = source.index_of["active_persons.person_id"]  # view column, unknown type
        assert np.all(opinion.confidence[row, :] == 0.0)

    def test_datatype_voter_compatible_positive(self, sample_relational, sample_xml):
        source = build_profile(sample_relational)
        target = build_profile(sample_xml)
        opinion = DataTypeVoter().vote(source, target)
        row = source.index_of["person_master.birth_dt"]
        col = target.index_of["individual.dateofbirth"]
        assert opinion.confidence[row, col] > 0.0

    def test_ngram_voter_tolerates_fusion(self):
        from repro.schema import Schema

        left = Schema("l")
        left.add_root("REGISTRATIONNUMBER")
        right = Schema("r")
        right.add_root("RegistrationNo")
        opinion = NgramVoter().vote(build_profile(left), build_profile(right))
        assert opinion.similarity[0, 0] > 0.4

    def test_edit_distance_cap(self, sample_relational, sample_xml):
        voter = EditDistanceVoter(max_pairs=4)
        with pytest.raises(ValueError):
            voter.vote(build_profile(sample_relational), build_profile(sample_xml))

    def test_edit_distance_small_grid(self):
        from repro.schema import Schema

        left = Schema("l")
        left.add_root("BIRTH_DATE")
        right = Schema("r")
        right.add_root("BIRTHDATE")
        opinion = EditDistanceVoter().vote(build_profile(left), build_profile(right))
        assert opinion.similarity[0, 0] > 0.8

    def test_structural_voter_container_alignment(self, sample_relational, sample_xml):
        source = build_profile(sample_relational)
        target = build_profile(sample_xml)
        opinion = StructuralVoter().vote(source, target)
        person_row = source.index_of["person_master"]
        individual_col = target.index_of["individual"]
        event_col = target.index_of["event"]
        assert (
            opinion.similarity[person_row, individual_col]
            > opinion.similarity[person_row, event_col]
        )

    def test_structural_voter_container_vs_leaf_penalty(
        self, sample_relational, sample_xml
    ):
        source = build_profile(sample_relational)
        target = build_profile(sample_xml)
        opinion = StructuralVoter().vote(source, target)
        table_row = source.index_of["person_master"]
        leaf_col = target.index_of["individual.dateofbirth"]
        assert opinion.confidence[table_row, leaf_col] < 0.0

    def test_path_voter_uses_ancestry(self, sample_relational, sample_xml):
        source = build_profile(sample_relational)
        target = build_profile(sample_xml)
        opinion = PathVoter().vote(source, target)
        row = source.index_of["all_event_vitals.event_id"]
        col_same_context = target.index_of["event.eventidentifier"]
        col_other_context = target.index_of["individual.familyname"]
        assert (
            opinion.confidence[row, col_same_context]
            > opinion.confidence[row, col_other_context]
        )

    def test_calibration_validation(self):
        with pytest.raises(ValueError):
            NameTokenVoter(neutral=0.0)
        with pytest.raises(ValueError):
            NameTokenVoter(negative_scale=1.5)
        with pytest.raises(ValueError):
            NameTokenVoter(tau=0.0)
