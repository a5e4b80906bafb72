"""Name-based match voters.

Three strategies over element names, in increasing tolerance:

* :class:`ExactNameVoter` -- case-insensitive equality (the naive baseline a
  spreadsheet jockey would start from).
* :class:`NameTokenVoter` -- Jaccard over pipeline-normalised name terms;
  robust to word order and convention (``DATE_BEGIN`` vs ``BeginDate``).
* :class:`NgramVoter` -- Dice over character 3-grams of the raw name; robust
  to truncation and fused words (``REGNO`` vs ``RegistrationNumber`` scores
  low here but non-zero, where token overlap sees nothing).
* :class:`EditDistanceVoter` -- normalised Levenshtein over raw names.
  Exact but O(|a|x|b|) per pair, so intended for small grids and validation;
  the engine's default ensemble uses the vectorised voters above.

Evidence semantics: the mass is the token (or gram) count actually compared;
one shared two-token name is weaker evidence than a six-token agreement.
"""

from __future__ import annotations

import numpy as np

from repro.matchers.base import MatchVoter, SetOverlapVoter, subset, take
from repro.text.similarity import levenshtein_similarity

__all__ = ["ExactNameVoter", "NameTokenVoter", "NgramVoter", "EditDistanceVoter"]


class ExactNameVoter(MatchVoter):
    """Case-insensitive exact name equality."""

    name = "exact_name"

    def __init__(self, tau: float = 3.0, neutral: float = 0.5, negative_scale: float = 0.15):
        super().__init__(tau=tau, neutral=neutral, negative_scale=negative_scale)

    # An exact full-name equality is strong evidence; a mere inequality says
    # little (names differ across conventions all the time), so the evidence
    # mass is high only where names coincide.
    @staticmethod
    def _equality(equal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return equal.astype(float), np.where(equal, 8.0, 0.5)

    def warm(self, profile, space):
        space.raw_name_ids(profile)

    def grid_ratios(
        self, source, target, space, source_positions=None, target_positions=None
    ):
        return self._equality(
            np.equal.outer(
                take(space.raw_name_ids(source), source_positions),
                take(space.raw_name_ids(target), target_positions),
            )
        )

    def fast_ratios(self, source, target, space, rows, cols):
        return self._equality(
            space.raw_name_ids(source)[rows] == space.raw_name_ids(target)[cols]
        )


class NameTokenVoter(SetOverlapVoter):
    """Jaccard over normalised name terms (the workhorse linguistic voter)."""

    name = "name_token"
    kind = "name"

    def __init__(self, tau: float = 3.0, neutral: float = 0.2, negative_scale: float = 0.4):
        super().__init__(tau=tau, neutral=neutral, negative_scale=negative_scale)


class NgramVoter(SetOverlapVoter):
    """Dice over character 3-grams of raw names (typo/truncation tolerant)."""

    name = "name_ngram"
    kind = "gram"
    dice = True

    def __init__(self, tau: float = 12.0, neutral: float = 0.3, negative_scale: float = 0.25):
        # Gram counts are larger than token counts, so saturation is slower.
        super().__init__(tau=tau, neutral=neutral, negative_scale=negative_scale)


class EditDistanceVoter(MatchVoter):
    """Normalised Levenshtein similarity over raw names (exact, per-pair).

    Quadratic per pair; use on small grids, validation panels, or blocked
    candidate sets -- not inside the full 10^6-pair engine run.
    """

    name = "edit_distance"

    def __init__(
        self,
        tau: float = 10.0,
        neutral: float = 0.55,
        negative_scale: float = 0.4,
        max_pairs: int = 2_000_000,
    ):
        super().__init__(tau=tau, neutral=neutral, negative_scale=negative_scale)
        self.max_pairs = max_pairs

    def grid_ratios(
        self, source, target, space, source_positions=None, target_positions=None
    ):
        source_names = subset(source.raw_names, source_positions)
        target_names = subset(target.raw_names, target_positions)
        n_pairs = len(source_names) * len(target_names)
        if n_pairs > self.max_pairs:
            raise ValueError(
                f"EditDistanceVoter asked for {n_pairs} pairs "
                f"(cap {self.max_pairs}); use the vectorised name voters at scale"
            )
        similarity = np.zeros((len(source_names), len(target_names)))
        for row, source_name in enumerate(source_names):
            for col, target_name in enumerate(target_names):
                similarity[row, col] = levenshtein_similarity(source_name, target_name)
        source_sizes = np.array([len(name) for name in source_names], dtype=float)
        target_sizes = np.array([len(name) for name in target_names], dtype=float)
        evidence = np.minimum(source_sizes[:, None], target_sizes[None, :]) / 2.0
        return similarity, evidence
