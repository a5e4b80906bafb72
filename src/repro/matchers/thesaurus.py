"""Thesaurus voter: synonym-expanded name-token overlap.

``DATE_BEGIN`` and ``DATETIME_FIRST_INFO`` share no stems, yet the paper
presents them as a (hard) true correspondence.  This voter expands every
name term into its synonym class with a :class:`~repro.text.thesaurus.SynonymLexicon`
before measuring Jaccard, so convention-level synonymy (begin/first,
date/datetime) becomes visible overlap.

Expansion happens on *canonical representatives* -- each term is replaced by
the lexicographically smallest member of its synonym class -- so two
different synonyms of the same class map to the same token and overlap
exactly once (raw expansion would inflate set sizes asymmetrically).
"""

from __future__ import annotations

from repro.matchers.base import SetOverlapVoter
from repro.text.thesaurus import SynonymLexicon

__all__ = ["ThesaurusVoter"]


class ThesaurusVoter(SetOverlapVoter):
    """Jaccard over canonicalised (synonym-classed) name terms."""

    name = "thesaurus"
    kind = "canonical"

    def __init__(
        self,
        lexicon: SynonymLexicon | None = None,
        tau: float = 3.0,
        neutral: float = 0.2,
        negative_scale: float = 0.4,
    ):
        super().__init__(tau=tau, neutral=neutral, negative_scale=negative_scale)
        self.lexicon = lexicon if lexicon is not None else SynonymLexicon.default()
