"""Pipeline, stopwords, abbreviations, TF-IDF and thesaurus behaviour."""

import pytest

from repro.text.abbrev import AbbreviationTable
from repro.text.pipeline import LinguisticPipeline, TermBag
from repro.text.stem import stem
from repro.text.stopwords import ENGLISH_STOPWORDS, SCHEMA_STOPWORDS, is_stopword
from repro.text.tfidf import TfidfModel, cosine, tfidf_similarity_matrix
from repro.text.thesaurus import SynonymLexicon
from repro.text.tokenize import tokenize


class TestStopwords:
    def test_english_stopword(self):
        assert is_stopword("the")

    def test_schema_stopword_only_in_schema_mode(self):
        assert not is_stopword("id")
        assert is_stopword("id", schema_mode=True)

    def test_case_insensitive(self):
        assert is_stopword("The")

    def test_lists_disjoint_purpose(self):
        # "code" is schema noise but ordinary English keeps it.
        assert "code" in SCHEMA_STOPWORDS
        assert "code" not in ENGLISH_STOPWORDS


class TestAbbreviations:
    def test_expand_known(self):
        assert AbbreviationTable.default().expand("qty") == ["quantity"]

    def test_expand_multiword(self):
        assert AbbreviationTable.default().expand("dob") == ["date", "of", "birth"]

    def test_unknown_passthrough(self):
        assert AbbreviationTable.default().expand("zorp") == ["zorp"]

    def test_extend_does_not_mutate_default(self):
        default = AbbreviationTable.default()
        extended = default.extend({"posn": "position"})
        assert "posn" in extended
        assert "posn" not in default

    def test_expand_all_flattens(self):
        table = AbbreviationTable.default()
        assert table.expand_all(["dob", "qty"]) == [
            "date", "of", "birth", "quantity",
        ]

    def test_contains_and_len(self):
        table = AbbreviationTable({"a": "alpha"})
        assert "A" in table
        assert len(table) == 1

    def test_empty_table(self):
        assert AbbreviationTable.empty().expand("qty") == ["qty"]


class TestPipeline:
    def test_name_pipeline_drops_schema_noise(self):
        pipeline = LinguisticPipeline.for_names()
        # 'cd' expands via the default table; 'code' is schema noise.
        assert "code" not in pipeline.terms("EVENT_TYPE_CD")
        assert "event" in pipeline.terms("EVENT_TYPE_CD")

    def test_doc_pipeline_keeps_schema_words(self):
        pipeline = LinguisticPipeline.for_documentation()
        assert "code" in pipeline.terms("category code of the event")

    def test_digits_dropped(self):
        pipeline = LinguisticPipeline.for_names()
        assert pipeline.terms("DATE_BEGIN_156") == ["date", "begin"]

    def test_stemming_applied(self):
        pipeline = LinguisticPipeline.for_documentation()
        assert "match" in pipeline.terms("matching")

    def test_stemming_disabled(self):
        pipeline = LinguisticPipeline(use_stemming=False)
        assert "matching" in pipeline.terms("matching")

    def test_bag_counts_multiplicity(self):
        pipeline = LinguisticPipeline.for_documentation()
        bag = pipeline.bag("date date begin")
        assert dict(bag.counts)["date"] == 2

    def test_bag_many_unions(self):
        pipeline = LinguisticPipeline.for_documentation()
        bag = pipeline.bag_many(["date begin", "date end"])
        assert dict(bag.counts)["date"] == 2

    @pytest.mark.parametrize(
        "text",
        [
            "DATETIME_FIRST_INFO",
            "personBirthDate qty_onHand",
            "XMLSchemaV2/Vehicle-Reg-No17",
            "  DOB -- the date of   birth, (if known) ",
            "",
            "___",
        ],
    )
    def test_terms_equal_the_unchunked_stages(self, text):
        # terms() memoises per separator-free chunk; the result must be
        # the four stages run over the whole text at once.
        for pipeline in (
            LinguisticPipeline.for_names(),
            LinguisticPipeline.for_documentation(),
        ):
            tokens = tokenize(text, drop_digits=True)
            tokens = AbbreviationTable.default().expand_all(tokens)
            tokens = [
                token
                for token in tokens
                if not is_stopword(token, schema_mode=pipeline._schema_stopwords)
            ]
            assert pipeline.terms(text) == [stem(token) for token in tokens]


class TestTermBag:
    def test_term_set(self):
        bag = TermBag.from_terms(["a", "b", "a"])
        assert bag.term_set == {"a", "b"}

    def test_total(self):
        assert TermBag.from_terms(["a", "b", "a"]).total == 3

    def test_union(self):
        merged = TermBag.from_terms(["a"]) | TermBag.from_terms(["a", "b"])
        assert dict(merged.counts) == {"a": 2, "b": 1}

    def test_bool(self):
        assert not TermBag.from_terms([])
        assert TermBag.from_terms(["x"])


class TestTfidf:
    def test_identical_docs_cosine_one(self):
        docs = [["a", "b"], ["a", "b"], ["c"]]
        model = TfidfModel(docs)
        assert cosine(model.vector(docs[0]), model.vector(docs[1])) == pytest.approx(1.0)

    def test_disjoint_docs_cosine_zero(self):
        model = TfidfModel([["a"], ["b"]])
        assert cosine(model.vector(["a"]), model.vector(["b"])) == 0.0

    def test_rare_term_outweighs_common(self):
        docs = [["common", "rare"], ["common"], ["common"], ["common", "other"]]
        model = TfidfModel(docs)
        assert model.idf("rare") > model.idf("common")

    def test_out_of_vocabulary_ignored(self):
        model = TfidfModel([["a"]])
        assert model.vector(["zzz"]) == {}
        assert model.idf("zzz") == 0.0

    def test_similarity_matrix_shape_and_range(self):
        matrix = tfidf_similarity_matrix([["a", "b"], ["c"]], [["a"], ["c"], ["d"]])
        assert matrix.shape == (2, 3)
        assert matrix.min() >= 0.0 and matrix.max() <= 1.0

    def test_similarity_matrix_alignment(self):
        matrix = tfidf_similarity_matrix([["a"]], [["a"], ["b"]])
        assert matrix[0, 0] > matrix[0, 1]

    def test_empty_documents(self):
        matrix = tfidf_similarity_matrix([[]], [["a"]])
        assert matrix[0, 0] == 0.0


class TestThesaurus:
    def test_synonyms_detected(self):
        lexicon = SynonymLexicon.default()
        assert lexicon.are_synonyms("begin", "start")
        assert lexicon.are_synonyms("begin", "first")

    def test_surface_forms_stemmed(self):
        lexicon = SynonymLexicon.default()
        assert lexicon.are_synonyms("beginning", "started")

    def test_self_synonym_even_if_unlisted(self):
        lexicon = SynonymLexicon.default()
        assert lexicon.are_synonyms("frobnicator", "frobnicator")

    def test_non_synonyms(self):
        lexicon = SynonymLexicon.default()
        assert not lexicon.are_synonyms("vehicle", "person")

    def test_canonical_stability(self):
        lexicon = SynonymLexicon.default()
        assert lexicon.canonical("start") == lexicon.canonical("begin")

    def test_expand_includes_self(self):
        lexicon = SynonymLexicon.default()
        assert "begin" in lexicon.expand("begin")

    def test_empty_lexicon(self):
        lexicon = SynonymLexicon.empty()
        assert not lexicon.are_synonyms("begin", "start")
        assert len(lexicon) == 0

    def test_empty_lexicon_is_its_own_canonical(self):
        assert SynonymLexicon.empty().canonical("order") == "order"

    def test_extend(self):
        lexicon = SynonymLexicon.empty().extend([("foo", "bar")])
        assert lexicon.are_synonyms("foo", "bar")

    def test_rejects_collapsing_synset(self):
        with pytest.raises(ValueError):
            SynonymLexicon([("run", "running")])  # both stem to 'run'
