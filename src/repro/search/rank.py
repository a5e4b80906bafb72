"""Ranking: BM25 scoring of registry schemata against a query.

"A simple search tool would return a list of schemata sorted by relevance to
the query; a more sophisticated one could return relevant schema fragments"
(section 5).  Both are provided: :meth:`SchemaSearchEngine.search` ranks
whole schemata, :meth:`SchemaSearchEngine.search_fragments` ranks sub-trees.

This module owns the repository's one BM25 scorer.  :class:`QueryStatistics`
holds a query's global statistics -- document count, average length, and
per-term idf, summed over one or more disjoint
:class:`~repro.search.index.SchemaIndex`\\ es -- and scores one
``(document, length)``.  :func:`bm25_top_k` ranks over those indexes with
max-score pruning; :class:`SchemaSearchEngine` (one index) and
:class:`~repro.corpus.index.ShardedCorpusIndex` (one index per shard) both
rank through it, so a sharded registry scores exactly as one index would.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.search.index import IndexedSchema, SchemaIndex
from repro.search.query import KeywordQuery, PredicateQuery, SchemaQuery

__all__ = [
    "SearchHit",
    "FragmentHit",
    "QueryStatistics",
    "bm25_top_k",
    "SchemaSearchEngine",
]

#: BM25 term-frequency saturation and length normalisation.
K1 = 1.5
B = 0.75


@dataclass(frozen=True)
class SearchHit:
    """One ranked schema."""

    schema_name: str
    score: float


@dataclass(frozen=True)
class FragmentHit:
    """One ranked sub-tree (root element) within a schema."""

    schema_name: str
    root_id: str
    root_name: str
    score: float


class QueryStatistics:
    """One query's BM25 statistics over disjoint indexes.

    Every document lives in exactly one index, so the global statistics
    are plain sums: document count ``n``, per-term document frequency,
    and the exact integer term mass behind the average length.  Only
    query terms some document uses are kept (a term no document holds
    contributes to no score), in query order -- the summation order of
    :meth:`score`.
    """

    __slots__ = ("n", "average_length", "terms", "idf")

    def __init__(self, indexes: Sequence[SchemaIndex], query_terms: Counter):
        self.n = sum(len(index) for index in indexes)
        total_terms = sum(index.total_terms() for index in indexes)
        self.average_length = total_terms / self.n if total_terms else 1.0
        #: (term, query count) in query order, for terms with df > 0.
        self.terms: list[tuple[str, int]] = []
        self.idf: dict[str, float] = {}
        for term, query_count in query_terms.items():
            df = sum(index.document_frequency(term) for index in indexes)
            if df:
                self.terms.append((term, query_count))
                self.idf[term] = math.log(1.0 + (self.n - df + 0.5) / (df + 0.5))

    def score(self, document: Counter, length: int) -> float:
        """BM25 of one term bag of ``length`` terms."""
        score = 0.0
        for term, query_count in self.terms:
            term_frequency = document.get(term, 0)
            if term_frequency == 0:
                continue
            numerator = term_frequency * (K1 + 1)
            denominator = term_frequency + K1 * (
                1 - B + B * length / self.average_length
            )
            score += self.idf[term] * numerator / denominator * min(query_count, 3)
        return score


def bm25_top_k(
    indexes: Sequence[SchemaIndex],
    query_terms: Counter,
    limit: int,
    exclude: str | None = None,
    admit: Callable[[IndexedSchema], bool] | None = None,
) -> list[SearchHit]:
    """The ``limit`` best-scoring documents over disjoint indexes.

    Candidates are gathered term by term in descending score-upper-bound
    order (``idf * (K1+1) * min(qc, 3)``: the saturation
    ``tf / (tf + K1*norm)`` is strictly below 1, so every contribution is
    strictly below its bound) and each is scored exactly by
    :meth:`QueryStatistics.score`.  Gathering stops once ``limit``
    admitted scores exist and the remaining terms' bound sum cannot beat
    the k-th best, so no skipped document could reach that score, ties
    included: pruning changes which documents are visited, never a
    returned score.  ``exclude`` drops one name; ``admit`` vets each
    remaining document before it is scored.  Hits rank by descending
    score, then name.
    """
    if limit <= 0:
        return []
    statistics = QueryStatistics(indexes, query_terms)
    bound = {
        term: statistics.idf[term] * (K1 + 1) * min(query_count, 3)
        for term, query_count in statistics.terms
    }
    by_bound = sorted(bound, key=lambda term: (-bound[term], term))
    # suffix[i] = sum of bounds from position i on (the best any document
    # first reachable at position i could possibly score).
    suffix = [0.0] * (len(by_bound) + 1)
    for position in range(len(by_bound) - 1, -1, -1):
        suffix[position] = suffix[position + 1] + bound[by_bound[position]]

    heap: list[float] = []  # min-heap over the top-`limit` exact scores
    hits: list[SearchHit] = []
    seen: set[str] = set()
    for position, term in enumerate(by_bound):
        if len(heap) == limit and suffix[position] <= heap[0]:
            break  # nothing unseen can beat the current k-th score
        for index in indexes:
            for name in index.posting(term):
                if name == exclude or name in seen:
                    continue
                seen.add(name)
                entry = index.entry(name)
                if admit is not None and not admit(entry):
                    continue
                score = statistics.score(entry.terms, entry.n_terms)
                if score > 0:
                    hits.append(SearchHit(schema_name=name, score=score))
                    if len(heap) < limit:
                        heapq.heappush(heap, score)
                    elif score > heap[0]:
                        heapq.heapreplace(heap, score)
    hits.sort(key=lambda hit: (-hit.score, hit.schema_name))
    return hits[:limit]


class SchemaSearchEngine:
    """BM25 search over a :class:`~repro.search.index.SchemaIndex`."""

    def __init__(self, index: SchemaIndex):
        self.index = index

    def search(
        self,
        query: KeywordQuery | SchemaQuery,
        limit: int = 10,
        predicate: PredicateQuery | None = None,
        exclude: str | None = None,
    ) -> list[SearchHit]:
        """Rank registry schemata; ``exclude`` drops the query schema itself.

        A ``predicate`` needs each document it vets to carry its live
        schema: meeting an entry indexed from a fingerprint raises
        ``ValueError``.
        """

        def admit(entry: IndexedSchema) -> bool:
            if entry.schema is None:
                raise ValueError(
                    f"predicate gating needs a live schema, but {entry.name!r} "
                    "was indexed from a fingerprint (schema-less entry)"
                )
            return predicate.admits(entry.schema)

        return bm25_top_k(
            [self.index], query.terms(), limit, exclude,
            admit if predicate is not None else None,
        )

    def search_fragments(
        self,
        query: KeywordQuery | SchemaQuery,
        limit: int = 10,
        exclude: str | None = None,
    ) -> list[FragmentHit]:
        """Rank sub-trees (concept roots) across the whole registry."""
        query_terms = query.terms()
        statistics = QueryStatistics([self.index], query_terms)
        hits: list[FragmentHit] = []
        for name in self.index.candidates(query_terms):
            if name == exclude:
                continue
            entry = self.index.entry(name)
            if entry.schema is None:
                continue  # fragment hits need root names from the live schema
            for root_id, root_counter in entry.root_terms.items():
                score = statistics.score(root_counter, sum(root_counter.values()))
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
