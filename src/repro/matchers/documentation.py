"""Documentation voter: TF-IDF cosine over element documentation.

"Unlike most schema matching tools, Harmony relies heavily on textual
documentation to identify candidate correspondences instead of data instances
because, at least in the government sector, schema documentation is easier to
obtain than data" (CIDR 2009, section 3.2).

This voter fits one TF-IDF model over the union of both schemata's
documentation (so IDF down-weights boilerplate present everywhere) and scores
pairs by cosine.  Evidence is the smaller documentation length of the pair:
two rich paragraphs agreeing is far stronger evidence than two three-word
stubs agreeing -- precisely the "total amount of available evidence" the
paper calls out as Harmony's novelty.
"""

from __future__ import annotations

import numpy as np

from repro.matchers.base import MatchVoter, take
from repro.matchers.profile import gather_pairs

__all__ = ["DocumentationVoter", "DescribingTextVoter"]


class _TfidfVoter(MatchVoter):
    """TF-IDF cosine over one cached bag feature; evidence is the smaller
    token count of the pair."""

    #: The :class:`~repro.matchers.profile.FeatureSpace` bag kind compared.
    kind = "doc"

    def _lengths(self, space, profile):
        return space.doc_lengths(profile) if self.kind == "doc" else space.text_lengths(profile)

    def warm(self, profile, space):
        space.feature(profile, self.kind)
        self._lengths(space, profile)

    def grid_ratios(
        self, source, target, space, source_positions=None, target_positions=None
    ):
        cosine = space.tfidf_product(
            source, target, self.kind, source_positions, target_positions
        ).toarray()
        evidence = np.minimum.outer(
            take(self._lengths(space, source), source_positions),
            take(self._lengths(space, target), target_positions),
        )
        return np.clip(cosine, 0.0, 1.0, out=cosine), evidence

    def fast_ratios(self, source, target, space, rows, cols):
        cosine = gather_pairs(space.tfidf_product(source, target, self.kind), rows, cols)
        evidence = np.minimum(
            self._lengths(space, source)[rows], self._lengths(space, target)[cols]
        )
        return np.clip(cosine, 0.0, 1.0, out=cosine), evidence


class DocumentationVoter(_TfidfVoter):
    """TF-IDF cosine over documentation terms only."""

    name = "documentation"
    kind = "doc"

    def __init__(self, tau: float = 6.0, neutral: float = 0.25, negative_scale: float = 0.5):
        super().__init__(tau=tau, neutral=neutral, negative_scale=negative_scale)


class DescribingTextVoter(_TfidfVoter):
    """TF-IDF cosine over name *and* documentation terms combined.

    Useful when documentation is sparse: the name tokens keep the vector
    non-empty, and any documentation enriches it.
    """

    name = "describing_text"
    kind = "text"

    def __init__(self, tau: float = 6.0, neutral: float = 0.25, negative_scale: float = 0.5):
        super().__init__(tau=tau, neutral=neutral, negative_scale=negative_scale)
