"""The one BM25 scorer against the exhaustive reference engine.

``SchemaSearchEngine`` (one index) and ``ShardedCorpusIndex`` (one index
per shard) both rank through :func:`repro.search.rank.bm25_top_k`, which
prunes by per-term score bounds.  ``tests/reference_bm25.py`` keeps the
exhaustive loop the engine used before; every ranked list here must equal
it exactly -- same names, same order, scores compared with ``==`` -- over
keyword and schema queries, predicates, ``exclude``, limits 0, 1 and k,
and 1 and 4 shards.
"""

from __future__ import annotations

import pytest

from repro.corpus import ShardedCorpusIndex
from repro.repository import MetadataRepository
from repro.schema.serialize import schema_from_dict, schema_to_dict
from repro.search import (
    KeywordQuery,
    PredicateQuery,
    SchemaIndex,
    SchemaQuery,
    SchemaSearchEngine,
)
from repro.search.rank import bm25_top_k
from repro.synthetic import generate_enterprise_corpus, generate_scaled_corpus
from tests.reference_bm25 import ReferenceSearchEngine

LIMITS = (0, 1, 7, 1_000)
PREDICATES = (None, PredicateQuery(min_elements=30), PredicateQuery(max_elements=30))


def _renamed(schema, name: str):
    payload = schema_to_dict(schema)
    payload["name"] = name
    return schema_from_dict(payload)


@pytest.fixture(scope="module")
def schemata():
    """Two seeded corpora of different schema sizes (42 and 24 elements),
    renamed apart so one registry holds both."""
    found = {}
    for prefix, corpus in (
        ("E", generate_enterprise_corpus(n_schemata=48, n_domains=6, seed=23)),
        ("S", generate_scaled_corpus(96, schemata_per_domain=24, seed=5)),
    ):
        for generated in corpus.schemata:
            name = f"{prefix}{generated.schema.name}"
            found[name] = _renamed(generated.schema, name)
    return found


@pytest.fixture(scope="module")
def index(schemata):
    built = SchemaIndex()
    for schema in schemata.values():
        built.add(schema)
    return built


def _queries(schemata):
    names = sorted(schemata)
    schema_queries = [(name, SchemaQuery(schemata[name])) for name in names[::13]]
    keyword_queries = [
        (None, KeywordQuery("patient blood diagnosis")),
        (None, KeywordQuery("vehicle fuel registration date")),
        (None, KeywordQuery("zeppelin")),
    ]
    for name in names[5::29]:
        text = " ".join(element.name for element in list(schemata[name])[:6])
        keyword_queries.append((None, KeywordQuery(text)))
    return schema_queries + keyword_queries


class TestSchemaSearchEngine:
    def test_search_equals_the_reference(self, schemata, index):
        engine = SchemaSearchEngine(index)
        reference = ReferenceSearchEngine(index)
        compared = 0
        for exclude, query in _queries(schemata):
            for limit in LIMITS:
                for predicate in PREDICATES:
                    expected = reference.search(
                        query, limit=limit, predicate=predicate, exclude=exclude
                    )
                    assert engine.search(
                        query, limit=limit, predicate=predicate, exclude=exclude
                    ) == expected
                    compared += len(expected)
        assert compared > 0

    def test_fragments_equal_the_reference(self, schemata, index):
        engine = SchemaSearchEngine(index)
        reference = ReferenceSearchEngine(index)
        for exclude, query in _queries(schemata):
            for limit in LIMITS:
                assert engine.search_fragments(
                    query, limit=limit, exclude=exclude
                ) == reference.search_fragments(query, limit=limit, exclude=exclude)

    def test_predicate_on_a_schema_less_entry_raises(self, schemata):
        index = SchemaIndex()
        schema = next(iter(schemata.values()))
        index.add_entry("fingerprint-only", SchemaQuery(schema).terms())
        with pytest.raises(ValueError, match="schema-less"):
            SchemaSearchEngine(index).search(
                SchemaQuery(schema), predicate=PredicateQuery(min_elements=1)
            )


class TestShardedIndex:
    @pytest.mark.parametrize("n_shards", [1, 4])
    def test_top_candidates_equal_the_reference(self, schemata, index, n_shards):
        repository = MetadataRepository()
        for schema in schemata.values():
            repository.register(schema)
        sharded = ShardedCorpusIndex(repository, n_shards=n_shards)
        reference = ReferenceSearchEngine(index)
        for name in sorted(schemata)[::11]:
            query = schemata[name]
            for limit in LIMITS[1:]:
                for exclude in (None, name):
                    assert sharded.top_candidates(
                        query, limit=limit, exclude=exclude
                    ) == reference.search(
                        SchemaQuery(query), limit=limit, exclude=exclude
                    )


class TestLimitZero:
    def test_both_entry_points_return_nothing(self, schemata, index):
        query = SchemaQuery(schemata[sorted(schemata)[0]])
        assert bm25_top_k([index], query.terms(), 0) == []
        assert bm25_top_k([index, SchemaIndex()], query.terms(), 0, "x") == []
        assert SchemaSearchEngine(index).search(query, limit=0) == []


class TestPruning:
    def test_clustered_corpus_scores_fewer_documents_than_the_posting_union(self):
        corpus = generate_scaled_corpus(300, schemata_per_domain=50)
        index = SchemaIndex()
        for generated in corpus.schemata:
            index.add(generated.schema)
        reference = ReferenceSearchEngine(index)
        scored = union = 0
        for name in corpus.names[::15]:
            query = SchemaQuery(corpus.by_name(name).schema)
            visits: list[str] = []

            def admit(entry) -> bool:
                visits.append(entry.name)
                return True

            hits = bm25_top_k([index], query.terms(), 5, name, admit)
            assert hits == reference.search(query, limit=5, exclude=name)
            scored += len(visits)
            union += len(index.candidates(query.terms()) - {name})
        assert scored * 2 < union
