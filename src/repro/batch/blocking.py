"""Candidate blocking: prune the cross-product before full voting.

The paper's MATCH operations span 10^4-10^6 potential pairs (section 3.1),
but almost all of them are evidence-free: the pair shares no name token, no
ancestor-path token, and no documentation word, so every linguistic voter
scores it at (or near) complete uncertainty.  Blocking exploits that by
retrieving, via shared-token inverted indexes (one sparse product per
blocking key), only the pairs with *some* shared evidence -- the same
cheap-retrieval-then-expensive-scoring architecture that LLM-era matchers
(LLMatch, Schemora) converge on, realised classically.

Keys are feature kinds of :class:`~repro.matchers.profile.FeatureSpace`.
The default policy combines

* ``path``  -- normalised name terms of the element *and its ancestors*,
  which subsumes plain name-token sharing and also captures the structural
  voter's parent-context reinforcement (a leaf pair whose containers agree
  shares the containers' tokens), and
* ``doc``   -- documentation terms, which captures pairs the documentation
  voter scores on prose evidence alone.

Blocking is a *recall* gamble, so it ships with its own guardrail:
:func:`blocking_recall` measures, against an exact match matrix, the
fraction of above-threshold pairs the candidate set retains.  Bench E16 and
the tier-1 regression test hold the default policy to >= 0.98 on the
section-3 case study (measured: 1.0).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.match.matrix import MatchMatrix
from repro.matchers.profile import FeatureSpace, SchemaProfile, densify

__all__ = [
    "BlockingPolicy",
    "CandidateSet",
    "candidate_pairs",
    "blocking_recall",
]

#: Feature kinds accepted as blocking keys.
BLOCKING_KINDS = ("path", "doc_sets", "name", "canonical", "gram")

#: Aliases so callers can say "doc" for the documentation key.
_KIND_ALIASES = {"doc": "doc_sets"}


@dataclass(frozen=True)
class BlockingPolicy:
    """Which inverted indexes gate candidacy, and how many shared tokens.

    A pair is a candidate when **any** key yields at least ``min_shared``
    shared tokens (union semantics: keys widen recall, never narrow it).
    """

    keys: tuple[str, ...] = ("path", "doc")
    min_shared: int = 1

    def __post_init__(self) -> None:
        if not self.keys:
            raise ValueError("blocking needs at least one key")
        for key in self.keys:
            kind = _KIND_ALIASES.get(key, key)
            if kind not in BLOCKING_KINDS:
                known = ", ".join(sorted(set(BLOCKING_KINDS) | set(_KIND_ALIASES)))
                raise ValueError(f"unknown blocking key {key!r}; known: {known}")
        if self.min_shared < 1:
            raise ValueError(f"min_shared must be >= 1, got {self.min_shared}")

    @property
    def kinds(self) -> tuple[str, ...]:
        """The :class:`~repro.matchers.profile.FeatureSpace` kinds of the keys."""
        return tuple(_KIND_ALIASES.get(key, key) for key in self.keys)


@dataclass
class CandidateSet:
    """The surviving pairs of one blocked source x target grid."""

    shape: tuple[int, int]
    rows: np.ndarray = field(repr=False)
    cols: np.ndarray = field(repr=False)

    @property
    def n_candidates(self) -> int:
        return self.rows.size

    @property
    def n_pairs(self) -> int:
        """Size of the unblocked cross-product."""
        return self.shape[0] * self.shape[1]

    @property
    def fraction(self) -> float:
        """Survivor fraction of the cross-product (the pruning factor)."""
        if self.n_pairs == 0:
            return 0.0
        return self.n_candidates / self.n_pairs

    def mask(self) -> np.ndarray:
        """Dense boolean candidate mask (for recall measurement / tests)."""
        dense = np.zeros(self.shape, dtype=bool)
        dense[self.rows, self.cols] = True
        return dense

    def restrict_rows(self, keep: np.ndarray) -> "CandidateSet":
        """Drop candidates whose source position is not in ``keep``."""
        keep_mask = np.zeros(self.shape[0], dtype=bool)
        keep_mask[keep] = True
        selected = keep_mask[self.rows]
        return CandidateSet(self.shape, self.rows[selected], self.cols[selected])


def candidate_pairs(
    source: SchemaProfile,
    target: SchemaProfile,
    space: FeatureSpace,
    policy: BlockingPolicy | None = None,
) -> CandidateSet:
    """Retrieve candidate pairs via shared-token inverted indexes.

    One incidence product per blocking key; a pair survives when any key
    counts at least ``min_shared`` shared tokens, and the survivors are
    returned in canonical (row-major) order.
    """
    policy = policy if policy is not None else BlockingPolicy()
    survivors = np.zeros((len(source), len(target)), dtype=bool)
    for kind in policy.kinds:
        counts = space.set_product(source, target, kind)
        survivors |= densify(counts) >= policy.min_shared
    rows, cols = np.nonzero(survivors)
    return CandidateSet(
        shape=(len(source), len(target)),
        rows=rows.astype(np.int64),
        cols=cols.astype(np.int64),
    )


def blocking_recall(
    exact: MatchMatrix | np.ndarray,
    candidates: CandidateSet,
    threshold: float = 0.15,
) -> float:
    """Fraction of exact above-threshold pairs retained by the blocking.

    ``exact`` is the match matrix (or raw score array) of an *unblocked*
    engine run over the same grid.  Returns 1.0 when nothing clears the
    threshold (no pair to lose).  This is the measured guardrail the batch
    fast path's correctness argument rests on: candidate scores are exact,
    so end-to-end recall equals blocking recall.
    """
    scores = exact.scores if isinstance(exact, MatchMatrix) else np.asarray(exact)
    if scores.shape != candidates.shape:
        raise ValueError(
            f"exact matrix shape {scores.shape} does not match "
            f"candidate grid {candidates.shape}"
        )
    selected = scores >= threshold
    n_selected = int(selected.sum())
    if n_selected == 0:
        return 1.0
    retained = int(selected[candidates.rows, candidates.cols].sum())
    return retained / n_selected
