"""Reference BM25: the exhaustive search engine the pruned scorer replaced.

``ReferenceSearchEngine`` scores every document in the query's posting
union with its own ``_idf``/``_bm25`` -- no pruning, no shared statistics
object -- the way ``SchemaSearchEngine`` ranked before it routed through
:func:`repro.search.rank.bm25_top_k`.  ``SchemaSearchEngine`` and the
sharded corpus index now share that one scorer, so comparing them with
each other proves nothing; both are tested against this copy with ``==``.
"""

from __future__ import annotations

import math
from collections import Counter

from repro.search.index import SchemaIndex
from repro.search.query import KeywordQuery, PredicateQuery, SchemaQuery
from repro.search.rank import FragmentHit, SearchHit


class ReferenceSearchEngine:
    """Exhaustive BM25 search over one :class:`~repro.search.index.SchemaIndex`."""

    def __init__(self, index: SchemaIndex, k1: float = 1.5, b: float = 0.75):
        if k1 <= 0:
            raise ValueError(f"k1 must be positive, got {k1}")
        if not 0.0 <= b <= 1.0:
            raise ValueError(f"b must be in [0, 1], got {b}")
        self.index = index
        self.k1 = k1
        self.b = b

    def _idf(self, term: str) -> float:
        n = len(self.index)
        df = self.index.document_frequency(term)
        return math.log(1.0 + (n - df + 0.5) / (df + 0.5))

    def _bm25(self, query_terms: Counter, document: Counter, doc_length: int) -> float:
        average_length = self.index.average_length() or 1.0
        score = 0.0
        for term, query_count in query_terms.items():
            term_frequency = document.get(term, 0)
            if term_frequency == 0:
                continue
            idf = self._idf(term)
            numerator = term_frequency * (self.k1 + 1)
            denominator = term_frequency + self.k1 * (
                1 - self.b + self.b * doc_length / average_length
            )
            score += idf * numerator / denominator * min(query_count, 3)
        return score

    def search(
        self,
        query: KeywordQuery | SchemaQuery,
        limit: int = 10,
        predicate: PredicateQuery | None = None,
        exclude: str | None = None,
    ) -> list[SearchHit]:
        """Rank registry schemata; ``exclude`` drops the query schema itself."""
        query_terms = query.terms()
        hits: list[SearchHit] = []
        for name in self.index.candidates(query_terms):
            if name == exclude:
                continue
            entry = self.index.entry(name)
            if predicate is not None:
                if entry.schema is None:
                    raise ValueError(
                        f"predicate gating needs a live schema, but {name!r} "
                        "was indexed from a fingerprint (schema-less entry)"
                    )
                if not predicate.admits(entry.schema):
                    continue
            score = self._bm25(query_terms, entry.terms, entry.n_terms)
            if score > 0:
                hits.append(SearchHit(schema_name=name, score=score))
        hits.sort(key=lambda hit: (-hit.score, hit.schema_name))
        return hits[:limit]

    def search_fragments(
        self,
        query: KeywordQuery | SchemaQuery,
        limit: int = 10,
        exclude: str | None = None,
    ) -> list[FragmentHit]:
        """Rank sub-trees (concept roots) across the whole registry."""
        query_terms = query.terms()
        hits: list[FragmentHit] = []
        for name in self.index.candidates(query_terms):
            if name == exclude:
                continue
            entry = self.index.entry(name)
            if entry.schema is None:
                continue  # fragment hits need root names from the live schema
            for root_id, root_counter in entry.root_terms.items():
                score = self._bm25(
                    query_terms, root_counter, sum(root_counter.values())
                )
                if score > 0:
                    hits.append(
                        FragmentHit(
                            schema_name=name,
                            root_id=root_id,
                            root_name=entry.schema.element(root_id).name,
                            score=score,
                        )
                    )
        hits.sort(key=lambda hit: (-hit.score, hit.schema_name, hit.root_id))
        return hits[:limit]
