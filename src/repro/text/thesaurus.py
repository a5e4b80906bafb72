"""A domain thesaurus: synonym sets over normalised terms.

Independently developed schemata name the same concept differently
(``DATE_BEGIN`` vs ``DATETIME_FIRST_INFO`` in the paper's example); a
thesaurus voter closes part of that gap.  Synonyms are grouped into synsets;
two terms are synonymous when they share a synset.  Terms are compared in
*stemmed* form so the lexicon composes with the linguistic pipeline.

The default lexicon covers general enterprise/military vocabulary.  Like the
abbreviation table, it is extensible without mutating the shared default.
"""

from __future__ import annotations

from functools import cache
from typing import Iterable, Sequence

from repro.text.stem import stem

__all__ = ["SynonymLexicon", "DEFAULT_SYNSETS"]

DEFAULT_SYNSETS: tuple[tuple[str, ...], ...] = (
    ("begin", "start", "first", "initial", "commence", "onset"),
    ("end", "stop", "last", "final", "finish", "termination", "cease"),
    ("person", "individual", "people", "human", "personnel"),
    ("organization", "organisation", "agency", "institution", "unit"),
    ("vehicle", "conveyance", "transport", "craft"),
    ("vessel", "ship", "boat"),
    ("aircraft", "plane", "airplane"),
    ("event", "occurrence", "incident", "activity", "happening"),
    ("location", "place", "position", "site", "locale"),
    ("date", "day"),
    ("time", "datetime", "timestamp", "instant"),
    ("information", "info", "data", "detail"),
    ("weapon", "arm", "armament", "munition", "ordnance"),
    ("mission", "operation", "task", "sortie"),
    ("report", "record", "log", "account"),
    ("status", "state", "condition", "disposition"),
    ("quantity", "amount", "count", "number", "total"),
    ("name", "designation", "title", "label"),
    ("identifier", "identification", "key"),
    ("address", "residence", "domicile"),
    ("country", "nation", "state"),
    ("group", "team", "squad", "party", "cell"),
    ("commander", "leader", "chief", "head"),
    ("facility", "installation", "building", "structure"),
    ("equipment", "gear", "materiel", "apparatus"),
    ("route", "path", "course", "track"),
    ("destination", "target", "objective", "goal"),
    ("origin", "source", "start"),
    ("speed", "velocity", "rate"),
    ("height", "altitude", "elevation"),
    ("weight", "mass"),
    ("category", "class", "kind", "type", "sort"),
    ("message", "communication", "transmission", "signal"),
    ("injury", "wound", "casualty", "trauma"),
    ("doctor", "physician", "medic", "clinician"),
    ("hospital", "clinic", "infirmary"),
    ("supply", "provision", "stock", "inventory"),
    ("fuel", "petroleum", "gasoline"),
    ("road", "highway", "street"),
    ("bridge", "crossing", "span"),
    ("border", "boundary", "frontier"),
    ("capture", "seizure", "apprehension", "arrest"),
    ("observation", "sighting", "detection", "surveillance"),
    ("threat", "hazard", "danger", "risk"),
    ("priority", "precedence", "urgency"),
    ("schedule", "timetable", "plan", "calendar"),
    ("contract", "agreement", "arrangement"),
    ("cost", "price", "expense", "expenditure"),
    ("owner", "holder", "possessor", "proprietor"),
    ("registration", "enrollment", "license"),
    ("blood", "hematologic"),
    ("test", "exam", "examination", "assay", "screening"),
    ("result", "outcome", "finding"),
    ("family", "last", "surname"),
    ("given", "first", "forename"),
)


class SynonymLexicon:
    """Synset membership over stemmed terms.

    Each term maps to the set of synset ids it belongs to; two terms are
    synonymous iff their synset-id sets intersect.  Construction stems every
    entry, so callers may supply surface forms.
    """

    def __init__(self, synsets: Iterable[Sequence[str]] = DEFAULT_SYNSETS):
        self._memberships: dict[str, set[int]] = {}
        self._synsets: list[frozenset[str]] = []
        for synset_id, synset in enumerate(synsets):
            stemmed = frozenset(stem(term) for term in synset)
            if len(stemmed) < 2:
                raise ValueError(
                    f"synset #{synset_id} collapses to fewer than two stems: {synset!r}"
                )
            self._synsets.append(stemmed)
            for term in stemmed:
                self._memberships.setdefault(term, set()).add(synset_id)
        # Canonical representatives come from the *transitive closure* of
        # synset membership (terms like "last" chain the end-class and the
        # family-class): a plain min-over-own-synsets would give two
        # synonymous terms different canonicals.  Union-find over synsets
        # guarantees canonical(a) == canonical(b) whenever a and b are
        # linked through any synonym chain, at the cost of slightly
        # over-merging chained classes.
        parent: dict[str, str] = {}

        def find(term: str) -> str:
            root = term
            while parent.setdefault(root, root) != root:
                root = parent[root]
            while parent[term] != root:
                parent[term], term = root, parent[term]
            return root

        for synset in self._synsets:
            members = sorted(synset)
            head = find(members[0])
            for member in members[1:]:
                parent[find(member)] = head
        components: dict[str, set[str]] = {}
        for term in parent:
            components.setdefault(find(term), set()).add(term)
        self._canonical: dict[str, str] = {}
        for members in components.values():
            representative = min(members)
            for term in members:
                self._canonical[term] = representative

    @classmethod
    @cache
    def default(cls) -> "SynonymLexicon":
        """The built-in lexicon, one shared instance (lexicons never change)."""
        return cls(DEFAULT_SYNSETS)

    @classmethod
    def empty(cls) -> "SynonymLexicon":
        return cls(())

    def extend(self, synsets: Iterable[Sequence[str]]) -> "SynonymLexicon":
        """Return a new lexicon with additional synsets."""
        combined = [tuple(s) for s in self._synsets] + [tuple(s) for s in synsets]
        return SynonymLexicon(combined)

    def are_synonyms(self, left: str, right: str) -> bool:
        """True when the stems of ``left`` and ``right`` share a synset.

        A term is trivially a synonym of itself even when unlisted.
        """
        left_stem, right_stem = stem(left), stem(right)
        if left_stem == right_stem:
            return True
        left_sets = self._memberships.get(left_stem)
        right_sets = self._memberships.get(right_stem)
        if not left_sets or not right_sets:
            return False
        return bool(left_sets & right_sets)

    def expand(self, term: str) -> frozenset[str]:
        """All stems synonymous with ``term`` (including its own stem)."""
        term_stem = stem(term)
        result = {term_stem}
        for synset_id in self._memberships.get(term_stem, ()):
            result.update(self._synsets[synset_id])
        return frozenset(result)

    def canonical(self, term: str) -> str:
        """A canonical representative for the term's synonym component.

        Computed over the transitive closure of synset membership, so any
        two terms connected through a synonym chain share one canonical --
        a stable grouping key for set-overlap voters.  Unlisted terms are
        their own canonical.
        """
        term_stem = stem(term)
        return self._canonical.get(term_stem, term_stem)

    def __len__(self) -> int:
        return len(self._synsets)

    def __contains__(self, term: str) -> bool:
        return stem(term) in self._memberships
