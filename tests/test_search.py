"""Schema search: indexing, query forms, BM25 ranking, fragments."""

import pytest

from repro.schema import Schema
from repro.search import (
    KeywordQuery,
    PredicateQuery,
    SchemaIndex,
    SchemaQuery,
    SchemaSearchEngine,
)


def themed_schema(name, roots):
    schema = Schema(name)
    for root, children in roots.items():
        parent = schema.add_root(root)
        for child in children:
            schema.add_child(parent, child)
    return schema


@pytest.fixture(scope="module")
def registry():
    schemata = {
        "medical": themed_schema(
            "medical",
            {"patient": ["blood_test", "diagnosis", "physician"],
             "ward": ["bed_count", "head_nurse"]},
        ),
        "motorpool": themed_schema(
            "motorpool",
            {"vehicle": ["registration", "engine_hours", "fuel_level"]},
        ),
        "hr": themed_schema(
            "hr",
            {"employee": ["family_name", "hire_date", "blood_type"]},
        ),
    }
    index = SchemaIndex()
    for schema in schemata.values():
        index.add(schema)
    return index, schemata


class TestIndex:
    def test_registration(self, registry):
        index, _ = registry
        assert len(index) == 3
        assert "medical" in index
        assert set(index.names) == {"medical", "motorpool", "hr"}

    def test_reindex_replaces(self, registry):
        index, schemata = registry
        before = index.entry("medical").n_terms
        index.add(schemata["medical"])
        assert index.entry("medical").n_terms == before
        assert len(index) == 3

    def test_remove(self):
        index = SchemaIndex()
        schema = themed_schema("x", {"a": ["b"]})
        index.add(schema)
        index.remove("x")
        assert len(index) == 0
        assert index.document_frequency("a") == 0

    def test_unknown_entry(self, registry):
        index, _ = registry
        with pytest.raises(KeyError):
            index.entry("nope")

    def test_candidates_by_posting(self, registry):
        index, _ = registry
        candidates = index.candidates(KeywordQuery("blood").terms())
        assert candidates == {"medical", "hr"}

    def test_clone_and_source_never_share_a_write(self, registry):
        # Posting sets are shared copy-on-write: writes on either side,
        # including ones after a second clone, must not leak across.
        _, schemata = registry

        def postings(index):
            return {term: set(index.posting(term)) for term in index._postings}

        def built(*names):
            index = SchemaIndex()
            for name in names:
                index.add(schemata[name])
            return index

        source = built("medical", "hr")
        clone = source.clone()
        clone.remove("hr")
        clone.add(schemata["motorpool"])
        assert postings(source) == postings(built("medical", "hr"))
        assert postings(clone) == postings(built("medical", "motorpool"))

        second = clone.clone()
        clone.remove("medical")
        source.remove("medical")
        assert postings(second) == postings(built("medical", "motorpool"))
        assert postings(clone) == postings(built("motorpool"))
        assert postings(source) == postings(built("hr"))
        assert second.candidates(KeywordQuery("blood").terms()) == {"medical"}


class TestKeywordSearch:
    def test_ranks_topical_schema_first(self, registry):
        index, _ = registry
        engine = SchemaSearchEngine(index)
        hits = engine.search(KeywordQuery("patient blood test physician"))
        assert hits[0].schema_name == "medical"

    def test_scores_descending(self, registry):
        index, _ = registry
        hits = SchemaSearchEngine(index).search(KeywordQuery("blood"))
        scores = [hit.score for hit in hits]
        assert scores == sorted(scores, reverse=True)

    def test_limit(self, registry):
        index, _ = registry
        hits = SchemaSearchEngine(index).search(KeywordQuery("blood"), limit=1)
        assert len(hits) == 1

    def test_no_hits(self, registry):
        index, _ = registry
        assert SchemaSearchEngine(index).search(KeywordQuery("zeppelin")) == []

    def test_predicate_gating(self, registry):
        index, _ = registry
        hits = SchemaSearchEngine(index).search(
            KeywordQuery("blood"),
            predicate=PredicateQuery(min_elements=6),
        )
        assert [hit.schema_name for hit in hits] == ["medical"]


class TestSchemaAsQuery:
    def test_query_by_example(self, registry):
        index, _ = registry
        probe = themed_schema(
            "probe", {"casualty": ["blood_test", "physician", "diagnosis"]}
        )
        hits = SchemaSearchEngine(index).search(SchemaQuery(probe))
        assert hits[0].schema_name == "medical"

    def test_exclude_self(self, registry):
        index, schemata = registry
        hits = SchemaSearchEngine(index).search(
            SchemaQuery(schemata["medical"]), exclude="medical"
        )
        assert all(hit.schema_name != "medical" for hit in hits)


class TestFragmentSearch:
    def test_fragment_hits_point_at_roots(self, registry):
        index, _ = registry
        hits = SchemaSearchEngine(index).search_fragments(KeywordQuery("blood test"))
        assert hits[0].schema_name == "medical"
        assert hits[0].root_name == "patient"

    def test_fragments_more_specific_than_schemas(self, registry):
        index, _ = registry
        hits = SchemaSearchEngine(index).search_fragments(KeywordQuery("bed nurse"))
        assert hits[0].root_name == "ward"


class TestParameterValidation:
    def test_predicate_admits(self):
        schema = themed_schema("x", {"a": ["b", "c"]})
        assert PredicateQuery(min_elements=2).admits(schema)
        assert not PredicateQuery(max_elements=2).admits(schema)
        assert not PredicateQuery(kind="relational").admits(schema)
