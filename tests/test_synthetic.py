"""The synthetic substrate: ontology, naming, generator, case study, corpus."""

import random

import pytest

from repro.synthetic import (
    DomainOntology,
    NamingStyle,
    PairSpec,
    allocate,
    case_study,
    generate_clustered_corpus,
    generate_pair,
    generate_schema,
    perturb_gloss,
    render_name,
)
from repro.synthetic.casestudy import (
    PAPER_SA_CONCEPTS,
    PAPER_SA_ELEMENTS,
    PAPER_SB_CONCEPTS,
    PAPER_SB_ELEMENTS,
    PAPER_SB_MATCHED_ELEMENTS,
    PAPER_SB_UNMATCHED_ELEMENTS,
    PAPER_SHARED_CONCEPTS,
    extended_study,
)
from repro.synthetic.generator import facet_order


class TestOntology:
    def test_enough_concept_identities_for_the_case_study(self):
        ontology = DomainOntology()
        # 140 + 27 SB-only + family extensions all fit.
        assert ontology.n_combinations > 250

    def test_facet_universe_deduplicates(self):
        ontology = DomainOntology()
        for key in ("person", "person.medical", "supply.qualification"):
            universe = ontology.facet_universe(key)
            tokens = [facet.tokens for facet in universe]
            assert len(tokens) == len(set(tokens))

    def test_universe_large_enough(self):
        ontology = DomainOntology()
        sizes = [len(ontology.facet_universe(key)) for key in ontology.concept_keys()]
        assert min(sizes) >= 18

    def test_sample_concepts_distinct_and_excluding(self):
        ontology = DomainOntology()
        rng = random.Random(1)
        first = ontology.sample_concepts(10, rng)
        second = ontology.sample_concepts(10, rng, exclude=set(first))
        assert len(set(first)) == 10
        assert not set(first) & set(second)

    def test_sample_too_many(self):
        ontology = DomainOntology()
        with pytest.raises(ValueError):
            ontology.sample_concepts(10_000, random.Random(0))

    def test_facet_order_deterministic_across_calls(self):
        ontology = DomainOntology()
        first = facet_order(ontology, "person.medical")
        second = facet_order(DomainOntology(), "person.medical")
        assert [f.tokens for f in first] == [f.tokens for f in second]


class TestAllocate:
    def test_exact_total(self):
        shares = allocate(10, [5, 5, 5])
        assert sum(shares) == 10

    def test_respects_caps(self):
        shares = allocate(10, [2, 3, 100])
        assert sum(shares) == 10
        assert shares[0] <= 2 and shares[1] <= 3

    def test_minimum(self):
        shares = allocate(10, [5, 5, 5], minimum=2)
        assert all(share >= 2 for share in shares)

    def test_overflow_raises(self):
        with pytest.raises(ValueError):
            allocate(100, [1, 1])

    def test_minimum_overflow_raises(self):
        with pytest.raises(ValueError):
            allocate(1, [5, 5], minimum=2)

    def test_zero_total(self):
        assert allocate(0, [3, 3]) == [0, 0]


class TestNaming:
    def test_case_renderings(self):
        rng = random.Random(0)
        clean = NamingStyle.clean()
        assert render_name(("date", "begin"), clean, rng) == "date_begin"
        upper = NamingStyle(case="upper_snake", synonym_probability=0,
                            abbreviate_probability=0, drop_probability=0,
                            filler_probability=0, numeric_suffix_probability=0)
        assert render_name(("date", "begin"), upper, rng) == "DATE_BEGIN"
        pascal = NamingStyle(case="pascal", synonym_probability=0,
                             abbreviate_probability=0, drop_probability=0,
                             filler_probability=0, numeric_suffix_probability=0)
        assert render_name(("date", "begin"), pascal, rng) == "DateBegin"
        camel = NamingStyle(case="camel", synonym_probability=0,
                            abbreviate_probability=0, drop_probability=0,
                            filler_probability=0, numeric_suffix_probability=0)
        assert render_name(("date", "begin"), camel, rng) == "dateBegin"

    def test_never_empty(self):
        style = NamingStyle(drop_probability=1.0)
        rng = random.Random(5)
        for _ in range(20):
            assert render_name(("date", "begin", "info"), style, rng)

    def test_numeric_suffix_applied(self):
        style = NamingStyle(case="upper_snake", numeric_suffix_probability=1.0,
                            synonym_probability=0, abbreviate_probability=0,
                            drop_probability=0, filler_probability=0)
        name = render_name(("date", "begin"), style, random.Random(1))
        assert name.startswith("DATE_BEGIN_")
        assert name.rsplit("_", 1)[1].isdigit()

    def test_invalid_style(self):
        with pytest.raises(ValueError):
            NamingStyle(case="shouty")
        with pytest.raises(ValueError):
            NamingStyle(synonym_probability=2.0)

    def test_perturb_gloss_keeps_text(self):
        style = NamingStyle.clean()
        gloss = "date on which the event began"
        assert perturb_gloss(gloss, style, random.Random(0)) == gloss

    def test_perturb_gloss_substitutes(self):
        style = NamingStyle(synonym_probability=1.0)
        result = perturb_gloss("the event began", style, random.Random(3))
        assert result != "the event began"


class TestGeneratePair:
    def test_counts_hit_spec(self, small_pair):
        spec = PairSpec()
        assert len(small_pair.source.schema) == spec.source_elements
        assert len(small_pair.target.schema) == spec.target_elements
        assert len(small_pair.source.schema.roots()) == spec.n_source_concepts
        assert len(small_pair.target.schema.roots()) == spec.n_target_concepts
        assert len(small_pair.matched_target_ids) == spec.matched_target_elements

    def test_deterministic(self):
        first = generate_pair(PairSpec(), seed=7)
        second = generate_pair(PairSpec(), seed=7)
        assert [e.name for e in first.source.schema] == [
            e.name for e in second.source.schema
        ]
        assert first.truth_pairs == second.truth_pairs

    def test_different_seeds_differ(self):
        first = generate_pair(PairSpec(), seed=7)
        second = generate_pair(PairSpec(), seed=8)
        assert [e.name for e in first.source.schema] != [
            e.name for e in second.source.schema
        ]

    def test_truth_pairs_reference_real_elements(self, small_pair):
        for source_id, target_id in small_pair.truth_pairs:
            assert source_id in small_pair.source.schema
            assert target_id in small_pair.target.schema

    def test_shared_roots_in_truth(self, small_pair):
        for key in small_pair.shared_concepts:
            source_root = small_pair.source.root_of_concept(key)
            target_root = small_pair.target.root_of_concept(key)
            assert (source_root, target_root) in small_pair.truth_pairs

    def test_truth_summaries_cover_everything(self, small_pair):
        assert small_pair.source.truth_summary().coverage() == 1.0
        assert small_pair.target.truth_summary().coverage() == 1.0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PairSpec(n_shared_concepts=99)
        with pytest.raises(ValueError):
            PairSpec(matched_target_elements=1)
        with pytest.raises(ValueError):
            PairSpec(source_elements=5)

    def test_kinds(self, small_pair):
        assert small_pair.source.schema.kind == "relational"
        assert small_pair.target.schema.kind == "xml"


class TestHardMode:
    """The decoy / abbreviation-gradient knobs that make E23's hard tier."""

    def test_defaults_leave_generation_bit_identical(self, small_pair):
        explicit = generate_pair(
            PairSpec(decoys=0, abbrev_gradient=0.0), seed=42
        )
        assert explicit.truth_pairs == small_pair.truth_pairs
        assert [e.name for e in explicit.target.schema] == [
            e.name for e in small_pair.target.schema
        ]
        assert [e.name for e in explicit.source.schema] == [
            e.name for e in small_pair.source.schema
        ]
        assert explicit.decoy_target_ids == set()

    def test_decoys_are_planted_and_never_truth(self):
        pair = generate_pair(PairSpec(decoys=15), seed=42)
        assert len(pair.decoy_target_ids) == 15
        assert pair.decoy_target_ids <= {
            e.element_id for e in pair.target.schema
        }
        assert not pair.decoy_target_ids & pair.matched_target_ids
        # Decoys live under target-only concept roots, as non-root children.
        shared = set(pair.shared_concepts)
        for decoy_id in pair.decoy_target_ids:
            parent = pair.target.schema.parent(decoy_id)
            assert parent is not None
            assert pair.target.concept_of_root[parent.element_id] not in shared
        # The baseline ground truth is untouched.
        base = generate_pair(PairSpec(), seed=42)
        assert pair.truth_pairs == base.truth_pairs

    def test_decoys_are_deterministic(self):
        first = generate_pair(PairSpec(decoys=10), seed=3)
        second = generate_pair(PairSpec(decoys=10), seed=3)
        assert first.decoy_target_ids == second.decoy_target_ids
        assert [e.name for e in first.target.schema] == [
            e.name for e in second.target.schema
        ]

    def test_abbrev_gradient_drifts_shared_concepts_only(self):
        base = generate_pair(PairSpec(), seed=11)
        hard = generate_pair(PairSpec(abbrev_gradient=0.8), seed=11)

        # Ground truth is preserved at the *identity* level (element ids
        # derive from the drifted surface names, so compare concept+facet).
        def identities(pair):
            return {
                (
                    pair.source.facet_of_element[source_id],
                    pair.target.facet_of_element[target_id],
                )
                for source_id, target_id in pair.truth_pairs
            }

        assert identities(hard) == identities(base)
        assert len(hard.truth_pairs) == len(base.truth_pairs)

        # Shared-concept renderings drift...
        def names_by_identity(generated):
            return {
                identity: generated.schema.element(element_id).name
                for element_id, identity in generated.facet_of_element.items()
            }

        base_names = names_by_identity(base.source)
        hard_names = names_by_identity(hard.source)
        truth_identities = {s for s, _ in identities(base)}
        changed = sum(
            1
            for identity in truth_identities
            if base_names[identity] != hard_names[identity]
        )
        assert changed > 0
        # ...and the matching task measurably hardens.
        from repro.match import HarmonyMatchEngine

        def truth_score_mean(pair):
            result = HarmonyMatchEngine().match(
                pair.source.schema, pair.target.schema
            )
            scores = [
                result.matrix.score(source_id, target_id)
                for source_id, target_id in pair.truth_pairs
            ]
            return sum(scores) / len(scores)

        assert truth_score_mean(hard) < truth_score_mean(base)

    def test_hard_mode_validation(self):
        with pytest.raises(ValueError):
            PairSpec(decoys=-1)
        with pytest.raises(ValueError):
            PairSpec(abbrev_gradient=1.5)
        with pytest.raises(ValueError):
            PairSpec(
                n_source_concepts=5,
                n_target_concepts=5,
                n_shared_concepts=5,
                decoys=3,
            )


class TestCaseStudy:
    def test_paper_counts(self):
        pair = case_study()
        assert len(pair.source.schema) == PAPER_SA_ELEMENTS
        assert len(pair.target.schema) == PAPER_SB_ELEMENTS
        assert len(pair.source.schema.roots()) == PAPER_SA_CONCEPTS
        assert len(pair.target.schema.roots()) == PAPER_SB_CONCEPTS
        assert len(pair.shared_concepts) == PAPER_SHARED_CONCEPTS
        assert len(pair.matched_target_ids) == PAPER_SB_MATCHED_ELEMENTS
        assert len(pair.unmatched_target_ids) == PAPER_SB_UNMATCHED_ELEMENTS

    def test_overlap_fraction_is_34_percent(self):
        pair = case_study()
        assert pair.overlap_fraction_target() == pytest.approx(0.3406, abs=1e-3)

    def test_cached(self):
        assert case_study() is case_study()

    def test_extended_family(self):
        study = extended_study()
        assert set(study.family) == {"SA", "SC", "SD", "SE", "SF"}
        sa_concepts = study.family["SA"].concept_keys
        for name in ("SC", "SD", "SE", "SF"):
            other = study.family[name].concept_keys
            assert other & sa_concepts          # overlaps SA
            assert other - sa_concepts          # and has its own material
        # The family core is shared by all four new schemata but not SA.
        core = (
            study.family["SC"].concept_keys
            & study.family["SD"].concept_keys
            & study.family["SE"].concept_keys
            & study.family["SF"].concept_keys
        ) - sa_concepts
        assert len(core) >= 5


class TestGenerateSchema:
    def test_prefix_rule_gives_consistent_overlap(self):
        left = generate_schema(
            "L", ["person", "vehicle"], [5, 5],
            style=NamingStyle.clean(), kind="relational", seed="L",
        )
        right = generate_schema(
            "R", ["person", "event"], [3, 4],
            style=NamingStyle.clean(), kind="xml", seed="R",
        )
        left_person = {
            tokens for key, tokens in left.facet_of_element.values()
            if key == "person" and tokens
        }
        right_person = {
            tokens for key, tokens in right.facet_of_element.values()
            if key == "person" and tokens
        }
        # Prefix rule: the smaller side's facets are a subset of the larger's.
        assert right_person <= left_person

    def test_misaligned_inputs(self):
        with pytest.raises(ValueError):
            generate_schema("X", ["person"], [1, 2],
                            style=NamingStyle.clean(), kind="xml", seed=0)


class TestClusteredCorpus:
    def test_structure(self):
        corpus = generate_clustered_corpus(
            n_domains=3, schemata_per_domain=3, seed=11
        )
        assert len(corpus.schemata) == 9
        assert set(corpus.labels()) == {0, 1, 2}
        assert len(corpus.domain_concepts) == 3

    def test_domains_disjoint(self):
        corpus = generate_clustered_corpus(n_domains=3, schemata_per_domain=2, seed=11)
        for i in range(3):
            for j in range(i + 1, 3):
                assert not set(corpus.domain_concepts[i]) & set(
                    corpus.domain_concepts[j]
                )

    def test_by_name(self):
        corpus = generate_clustered_corpus(n_domains=2, schemata_per_domain=2, seed=11)
        assert corpus.by_name("D0S0").schema.name == "D0S0"
        with pytest.raises(KeyError):
            corpus.by_name("missing")

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_clustered_corpus(concepts_per_schema=20, concepts_per_domain=10)

    def test_one_domain_corpora_build_without_noise(self):
        from repro.synthetic import generate_enterprise_corpus, generate_scaled_corpus

        corpora = [
            generate_clustered_corpus(n_domains=1, schemata_per_domain=3, seed=11),
            generate_enterprise_corpus(n_schemata=4, n_domains=1, seed=11),
            generate_scaled_corpus(6, n_base_domains=1, schemata_per_domain=3),
        ]
        for corpus in corpora:
            assert corpus.schemata
            assert set(corpus.labels()) <= set(range(len(corpus.domain_concepts)))

