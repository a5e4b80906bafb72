"""Voter interface: every matcher strategy emits an evidence-aware opinion.

A voter looks at all (restricted) source x target element pairs and returns a
:class:`VoterOpinion` holding three aligned matrices:

* ``similarity`` -- the evidence *ratio* in [0, 1],
* ``evidence``   -- the evidence *mass* (>= 0) behind each ratio,
* ``confidence`` -- the (-1, +1) confidence derived from both via
  :func:`repro.voting.confidence_array`.

Keeping all three lets the engine merge confidences while explanations and
ablations can still reach the raw ingredients.

Staged execution
----------------
Every :class:`MatchVoter` here sits in the ``"cheap"`` cost tier (see
:attr:`MatchVoter.cost_tier`): Stage 1 of the cascade runs the whole cheap
ensemble over every scored pair -- on the per-grid path via
:meth:`MatchVoter.vote`, on the corpus-scale batch path via the bulk APIs
below -- and merges once.  Pairs whose merged confidence lands inside a
configured ambiguity band then escalate to a Stage-2
:class:`~repro.cascade.OracleVoter` (cost tier ``"oracle"``), budgeted and
most-ambiguous-first; see :mod:`repro.cascade` and ``docs/cascade.md``.
With no cascade configured, Stage 1 is the entire pipeline.

Kernels
-------
Every voter answers through two kernels over one shared
:class:`~repro.matchers.profile.FeatureSpace` (features built once per
schema, reused by every match):

* :meth:`MatchVoter.grid_ratios` -- the 2-D source x target grid, full or
  restricted to given positions (rows and columns are sliced *before* the
  sparse products).  :meth:`MatchVoter.vote` runs it.
* :meth:`MatchVoter.fast_ratios` -- 1-D, at an explicit candidate pair
  list as produced by :mod:`repro.batch.blocking` (the pairs Stage 1
  scores; everything blocked out takes the fill value and never
  escalates).  :meth:`MatchVoter.score_pairs` runs it.

Per-pair voters (edit distance, instances) read no cached features: their
:meth:`~MatchVoter.grid_ratios` ignores the space, and they inherit the
default :meth:`~MatchVoter.fast_ratios`, which gathers the pairs from the
grid of their unique rows and columns.
"""

from __future__ import annotations

from abc import ABC
from dataclasses import dataclass
from typing import Sequence, TypeVar

import numpy as np

from repro.matchers.profile import (
    FeatureSpace,
    SchemaProfile,
    densify,
    gather_pairs,
)
from repro.voting.confidence import DEFAULT_TAU, confidence_array

__all__ = [
    "VoterOpinion",
    "MatchVoter",
    "SetOverlapVoter",
    "subset",
    "take",
    "gather_outer",
]

_ItemT = TypeVar("_ItemT")


@dataclass(frozen=True)
class VoterOpinion:
    """One voter's full opinion over a pair grid."""

    voter: str
    confidence: np.ndarray
    similarity: np.ndarray
    evidence: np.ndarray

    def __post_init__(self) -> None:
        if not (
            self.confidence.shape == self.similarity.shape == self.evidence.shape
        ):
            raise ValueError(
                f"misaligned opinion matrices from voter {self.voter!r}: "
                f"{self.confidence.shape} / {self.similarity.shape} / "
                f"{self.evidence.shape}"
            )
        if self.confidence.size and (
            self.confidence.min() < -1.0 or self.confidence.max() > 1.0
        ):
            raise ValueError(f"voter {self.voter!r} produced confidence outside [-1, 1]")

    @property
    def shape(self) -> tuple[int, int]:
        return self.confidence.shape


def subset(items: Sequence[_ItemT], positions: np.ndarray | None) -> list[_ItemT]:
    """Restrict a per-element list to the requested positions (or keep all)."""
    if positions is None:
        return list(items)
    return [items[position] for position in positions]


def take(values: np.ndarray, positions: np.ndarray | None) -> np.ndarray:
    """A per-element vector at the requested positions (or all of it)."""
    return values if positions is None else values[positions]


def gather_outer(
    operation,
    left: np.ndarray,
    right: np.ndarray,
    rows: np.ndarray | None,
    cols: np.ndarray | None,
) -> np.ndarray:
    """Apply a binary ufunc pairwise: full outer grid, or per candidate pair."""
    if rows is None:
        return operation(left[:, None], right[None, :])
    return operation(left[rows], right[cols])


class MatchVoter(ABC):
    """Base class for match voters.

    Subclasses implement the kernels :meth:`grid_ratios` and (unless the
    default gather is exact for them) :meth:`fast_ratios`, returning
    (similarity, evidence) arrays; the base class derives confidences with
    the shared tau so all voters speak the same evidence dialect.

    Calibration
    -----------
    Raw similarity ratios are not probabilities: random name pairs score a
    Jaccard near 0.05, so a Jaccard of 0.5 is *strong* positive evidence,
    not a coin flip.  Each voter therefore declares:

    ``neutral``
        The similarity level that constitutes even evidence.  The base class
        maps similarity piecewise-linearly so that ``neutral`` lands at
        calibrated 0.5 (confidence 0), 1.0 stays 1.0 and 0.0 stays 0.0.
    ``negative_scale``
        Multiplier in [0, 1] applied to negative confidences.  For most
        linguistic voters, *absence* of shared tokens is far weaker evidence
        of a non-match than presence is of a match (independently developed
        schemata disagree on names all the time) -- so their negative votes
        are damped.
    """

    #: Short stable identifier used in reports, ablations and provenance.
    name: str = "voter"

    #: Cascade cost tier.  Every ensemble voter is ``"cheap"`` (Stage 1,
    #: runs over every scored pair); Stage-2 oracles declare ``"oracle"``
    #: (see :class:`repro.cascade.OracleVoter`) and are only consulted for
    #: pairs escalated out of the ambiguity band.
    cost_tier: str = "cheap"

    def __init__(
        self,
        tau: float = DEFAULT_TAU,
        neutral: float = 0.5,
        negative_scale: float = 1.0,
    ):
        if tau <= 0:
            raise ValueError(f"tau must be positive, got {tau}")
        if not 0.0 < neutral < 1.0:
            raise ValueError(f"neutral must be in (0, 1), got {neutral}")
        if not 0.0 <= negative_scale <= 1.0:
            raise ValueError(
                f"negative_scale must be in [0, 1], got {negative_scale}"
            )
        self.tau = tau
        self.neutral = neutral
        self.negative_scale = negative_scale
        #: Ablation switch (bench E11): when True, the evidence *mass* is
        #: ignored -- any pair with nonzero evidence votes at full strength
        #: (2*calibrated - 1), exactly the conventional evidence-ratio-only
        #: behaviour the paper contrasts Harmony against.
        self.evidence_blind = False

    def calibrate(self, similarity: np.ndarray) -> np.ndarray:
        """Map raw similarity through the voter's neutral point."""
        clipped = np.clip(similarity, 0.0, 1.0)
        below = 0.5 * clipped / self.neutral
        above = 0.5 + 0.5 * (clipped - self.neutral) / (1.0 - self.neutral)
        return np.where(clipped < self.neutral, below, above)

    def grid_ratios(
        self,
        source: SchemaProfile,
        target: SchemaProfile,
        space: FeatureSpace,
        source_positions: np.ndarray | None = None,
        target_positions: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """(similarity, evidence) over the grid, from cached feature matrices
        (per-pair voters: from the profiles, ignoring ``space``).

        The grid is full, or restricted to the given source/target
        positions; a restricted grid is scored as a grid of its own
        (corpus-fit statistics and structural context come from inside
        it), not as a slice of the full grid.  Outputs are 2-D.
        """
        raise NotImplementedError(f"{type(self).__name__} has no grid kernel")

    def confidences(self, similarity: np.ndarray, evidence: np.ndarray) -> np.ndarray:
        """Map (similarity, evidence) arrays of any shape to confidences.

        Shared by the grid kernel (:meth:`vote`) and the pair kernel
        (:meth:`score_pairs`), so both speak exactly the same calibration
        dialect.
        """
        calibrated = self.calibrate(similarity)
        if self.evidence_blind:
            confidence = np.where(evidence > 0, 2.0 * calibrated - 1.0, 0.0)
        else:
            confidence = confidence_array(calibrated, evidence, tau=self.tau)
        if self.negative_scale != 1.0:
            confidence = np.where(
                confidence < 0, confidence * self.negative_scale, confidence
            )
        return confidence

    def vote(
        self,
        source: SchemaProfile,
        target: SchemaProfile,
        source_positions: np.ndarray | None = None,
        target_positions: np.ndarray | None = None,
        space: FeatureSpace | None = None,
    ) -> VoterOpinion:
        """Produce the full evidence-aware opinion for the pair grid.

        Voters read cached features from ``space`` (a private one when
        omitted).
        """
        similarity, evidence = self.grid_ratios(
            source,
            target,
            space if space is not None else FeatureSpace(),
            source_positions,
            target_positions,
        )
        return VoterOpinion(
            voter=self.name,
            confidence=self.confidences(similarity, evidence),
            similarity=similarity,
            evidence=evidence,
        )

    # -- bulk fast path -------------------------------------------------
    def fast_ratios(
        self,
        source: SchemaProfile,
        target: SchemaProfile,
        space: FeatureSpace,
        rows: np.ndarray,
        cols: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """(similarity, evidence) at explicit (row, col) pairs (1-D).

        The pairs are scored against the full schemata: structure keeps
        its parent and child context, documentation its full-schema IDF.

        The default scores the :meth:`grid_ratios` grid of the pairs'
        unique rows and columns, then gathers the pairs from it.  That is
        exact only for a voter whose pair score does not depend on the
        rest of the grid (edit distance, instances); voters with grid-fit
        statistics or structural context override it.
        """
        unique_rows, row_of = np.unique(rows, return_inverse=True)
        unique_cols, col_of = np.unique(cols, return_inverse=True)
        similarity, evidence = self.grid_ratios(
            source, target, space, unique_rows, unique_cols
        )
        return similarity[row_of, col_of], evidence[row_of, col_of]

    def warm(self, profile: SchemaProfile, space: FeatureSpace) -> None:
        """Build the cached features this voter's kernels read for ``profile``.

        :meth:`repro.batch.BatchMatchRunner.warm` calls it so matching
        only reads the shared space; per-pair voters read none.
        """

    def score_pairs(
        self,
        source: SchemaProfile,
        target: SchemaProfile,
        rows: np.ndarray,
        cols: np.ndarray,
        space: FeatureSpace | None = None,
    ) -> np.ndarray:
        """Confidences for an explicit candidate pair list (1-D).

        ``rows``/``cols`` are aligned source/target element positions, as
        produced by :func:`repro.batch.blocking.candidate_pairs`.  This is
        the engine room of the batch fast path: work is proportional to the
        number of *candidates*, not the full cross-product.
        """
        rows = np.asarray(rows, dtype=int)
        cols = np.asarray(cols, dtype=int)
        space = space if space is not None else FeatureSpace()
        similarity, evidence = self.fast_ratios(source, target, space, rows, cols)
        return self.confidences(similarity, evidence)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r}, tau={self.tau})"


class SetOverlapVoter(MatchVoter):
    """Jaccard (or Dice) over one cached set feature of the FeatureSpace.

    Evidence is the smaller set size: a pair can only agree on as many
    tokens as its terser side has, and pairs with an empty side carry
    zero evidence and therefore vote 0 (complete uncertainty).
    """

    #: The :class:`FeatureSpace` set kind compared.
    kind: str = "name"
    #: Dice (2|A∩B| / (|A|+|B|)) instead of Jaccard.
    dice: bool = False
    #: Synonym lexicon for the ``canonical`` kind (None for the others).
    lexicon = None

    def _overlap(
        self,
        counts: np.ndarray,
        source_sizes: np.ndarray,
        target_sizes: np.ndarray,
        rows: np.ndarray | None = None,
        cols: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        totals = gather_outer(np.add, source_sizes, target_sizes, rows, cols)
        with np.errstate(invalid="ignore", divide="ignore"):
            if self.dice:
                similarity = np.where(totals > 0, 2.0 * counts / totals, 0.0)
            else:
                unions = totals - counts
                similarity = np.where(unions > 0, counts / unions, 0.0)
        evidence = gather_outer(np.minimum, source_sizes, target_sizes, rows, cols)
        return similarity, evidence

    def warm(self, profile, space):
        space.feature(profile, self.kind, self.lexicon)

    def grid_ratios(
        self, source, target, space, source_positions=None, target_positions=None
    ):
        product = space.set_product(
            source, target, self.kind, self.lexicon, source_positions, target_positions
        )
        return self._overlap(
            densify(product),
            take(space.set_sizes(source, self.kind, self.lexicon), source_positions),
            take(space.set_sizes(target, self.kind, self.lexicon), target_positions),
        )

    def fast_ratios(self, source, target, space, rows, cols):
        product = space.set_product(source, target, self.kind, self.lexicon)
        return self._overlap(
            gather_pairs(product, rows, cols),
            space.set_sizes(source, self.kind, self.lexicon),
            space.set_sizes(target, self.kind, self.lexicon),
            rows,
            cols,
        )
