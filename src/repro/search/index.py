"""Inverted index over schema term bags: the registry search substrate.

Section 5: "Complementary search tools are needed to locate potential match
candidates from a larger pool of schemata."  The index treats each schema as
a document of pipeline-normalised terms (names + documentation) and keeps
per-root sub-documents so fragment search can return schema *sub-trees*,
which the paper calls out as the more sophisticated variant.

Two kinds of callers feed the index:

* ad-hoc registries (the CLI ``search`` command, examples) call
  :meth:`SchemaIndex.add` with live :class:`~repro.schema.schema.Schema`
  objects and get the full feature set, including fragment search and
  predicate gating;
* :class:`repro.corpus.CorpusIndex` -- the persistent index over a
  :class:`~repro.repository.store.MetadataRepository` that prunes
  candidates for ``MatchService.corpus_match`` -- calls
  :meth:`SchemaIndex.add_entry` with term statistics reloaded from stored
  fingerprints, so indexing a registered corpus does not re-profile (or
  even deserialise) every schema.

Entries added via :meth:`~SchemaIndex.add_entry` may be *schema-less*
(``entry.schema is None``): they rank in whole-schema search but are
skipped by predicate gating and fragment search, both of which need the
live schema.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.matchers.profile import build_profile
from repro.schema.schema import Schema

__all__ = ["IndexedSchema", "SchemaIndex", "schema_terms"]


def schema_terms(schema: Schema) -> tuple[Counter, dict[str, Counter]]:
    """A schema's term bag and per-root sub-bags (the index document).

    One linguistic-pipeline pass over the schema profile; this is the
    derivation :class:`repro.corpus.CorpusIndex` fingerprints persist so it
    runs once per registered schema, not once per process.
    """
    profile = build_profile(schema)
    terms: Counter = Counter()
    root_terms: dict[str, Counter] = {}
    root_of_position: list[str | None] = []
    for position, element_id in enumerate(profile.element_ids):
        cursor = position
        while profile.parent_index[cursor] != -1:
            cursor = profile.parent_index[cursor]
        root_of_position.append(profile.element_ids[cursor])
    for position in range(len(profile)):
        element_terms = profile.text_terms[position]
        terms.update(element_terms)
        root_id = root_of_position[position]
        root_terms.setdefault(root_id, Counter()).update(element_terms)
    return terms, root_terms


@dataclass
class IndexedSchema:
    """Cached term statistics for one registered schema.

    ``schema`` is ``None`` for entries rebuilt from persisted fingerprints
    (see module docstring); ``root_terms`` may be empty for the same
    reason.
    """

    name: str
    schema: Schema | None
    terms: Counter
    n_terms: int
    root_terms: dict[str, Counter] = field(default_factory=dict)


class SchemaIndex:
    """An inverted index from terms to the schemata (and roots) using them."""

    def __init__(self) -> None:
        self._schemata: dict[str, IndexedSchema] = {}
        self._postings: dict[str, set[str]] = {}
        #: Terms whose posting set this index may mutate in place; the
        #: others are shared with a clone and copied on first write.
        self._owned: set[str] = set()
        #: Running sum of every entry's n_terms: average_length in O(1)
        #: (exact -- an integer sum, not a float accumulator).
        self._total_terms = 0

    def add(self, schema: Schema, name: str | None = None) -> IndexedSchema:
        """Index one live schema; re-adding a name replaces the old entry."""
        schema_name = name if name is not None else schema.name
        terms, root_terms = schema_terms(schema)
        return self.add_entry(schema_name, terms, root_terms=root_terms, schema=schema)

    def add_entry(
        self,
        name: str,
        terms: Counter,
        root_terms: dict[str, Counter] | None = None,
        schema: Schema | None = None,
    ) -> IndexedSchema:
        """Index precomputed term statistics (the fingerprint-reload path)."""
        if name in self._schemata:
            self.remove(name)
        entry = IndexedSchema(
            name=name,
            schema=schema,
            terms=terms,
            n_terms=sum(terms.values()),
            root_terms=root_terms if root_terms is not None else {},
        )
        self._schemata[name] = entry
        self._total_terms += entry.n_terms
        postings, owned = self._postings, self._owned
        for term in terms:
            posting = postings.get(term)
            if posting is None or term not in owned:
                posting = postings[term] = set() if posting is None else set(posting)
                owned.add(term)
            posting.add(name)
        return entry

    def remove(self, name: str) -> None:
        entry = self._schemata.pop(name, None)
        if entry is None:
            return
        self._total_terms -= entry.n_terms
        postings, owned = self._postings, self._owned
        for term in entry.terms:
            posting = postings.get(term)
            if posting is None:
                continue
            if term not in owned:
                posting = postings[term] = set(posting)
                owned.add(term)
            posting.discard(name)
            if not posting:
                del postings[term]
                owned.discard(term)

    def entry(self, name: str) -> IndexedSchema:
        try:
            return self._schemata[name]
        except KeyError:
            raise KeyError(f"schema {name!r} is not indexed") from None

    def __len__(self) -> int:
        return len(self._schemata)

    def __contains__(self, name: str) -> bool:
        return name in self._schemata

    @property
    def names(self) -> list[str]:
        return list(self._schemata)

    def document_frequency(self, term: str) -> int:
        return len(self._postings.get(term, ()))

    def posting(self, term: str) -> frozenset[str] | set[str]:
        """The names using a term (the live set -- callers must not mutate).

        The sharded corpus scorer walks postings directly to merge shard
        statistics without copying; everyone else should prefer
        :meth:`candidates`.
        """
        return self._postings.get(term, frozenset())

    def candidates(self, terms: Counter) -> set[str]:
        """Schemata sharing at least one query term (posting union)."""
        found: set[str] = set()
        for term in terms:
            found |= self._postings.get(term, set())
        return found

    def total_terms(self) -> int:
        """Exact sum of every entry's term count (integer, O(1))."""
        return self._total_terms

    def average_length(self) -> float:
        if not self._schemata:
            return 0.0
        return self._total_terms / len(self._schemata)

    def clone(self) -> "SchemaIndex":
        """A structurally independent copy sharing the (immutable) entries.

        Entries are never mutated in place (re-adding a name builds a new
        :class:`IndexedSchema`), so the copy shares them.  The posting sets
        are shared too, copy-on-write: after the clone neither index owns
        any of them, and each copies a set before its first add/remove,
        so changes on either index never leak into the other.  A refresh
        that rebuilds a few entries then copies only their terms' sets,
        not the whole vocabulary's.  This is the rebuild-aside half of the
        corpus index's atomic-publish refresh: clone, mutate the clone,
        swap.
        """
        copied = SchemaIndex()
        copied._schemata = dict(self._schemata)
        copied._postings = dict(self._postings)
        copied._total_terms = self._total_terms
        self._owned = set()
        return copied
