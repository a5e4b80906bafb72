"""Structural voter: Cupid-flavoured parent/child context propagation.

Linguistic voters treat elements independently; structure says otherwise:

* two *containers* (tables / complex types) are similar when their children
  line up well -- computed as the symmetrised mean-best-match of the
  children's linguistic similarities;
* two *leaves* gain (or lose) a little confidence from how similar their
  parents look -- the context that separates ``Person/Name`` from
  ``Operation/Name``;
* a container against a leaf is a mild structural contradiction.

The voter computes its own internal linguistic base (the thesaurus voter's
canonicalised name-token Jaccard, from the shared canonical feature cache)
so it is self-contained and usable in ablations, at the cost of one extra
sparse product per run.  A restricted grid takes children and parents from
inside the grid only.  The grid and the candidate-pair kernel share one
vectorised body, :meth:`StructuralVoter._ratios`: the grid broadcasts it
over every (row, column), the pair kernel gathers it at the given pairs,
and container pairs go through one padded :func:`mean_best_match` (which
concept matching reuses over summary concepts).
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from repro.matchers.base import MatchVoter
from repro.matchers.profile import SchemaProfile
from repro.matchers.thesaurus import ThesaurusVoter
from repro.text.thesaurus import SynonymLexicon

__all__ = ["StructuralVoter", "mean_best_match"]


class _Layout(NamedTuple):
    """One grid side's tree, in the coordinates of the linguistic base."""

    children: Sequence[Sequence[int]]
    parent: np.ndarray  # -1 for roots and for parents outside the grid
    container: np.ndarray  # has a child in the grid


def _layout(profile: SchemaProfile, positions: np.ndarray | None) -> _Layout:
    """A side's layout: the profile's own, or remapped to grid-local positions.

    A restricted side keeps only in-grid children, and a parent outside
    the grid becomes -1, so a restricted grid is scored as a grid of its
    own.
    """
    parent = profile.parent_index
    if positions is not None:
        # One slot past the end stays -1, so a root's parent (-1) maps to -1.
        local = np.full(len(profile) + 1, -1, dtype=int)
        local[positions] = np.arange(len(positions))
        parent = local[parent[positions]]
    kept = np.flatnonzero(parent >= 0)
    counts = np.bincount(parent[kept], minlength=len(parent))
    if positions is None:
        return _Layout(profile.children_index, parent, counts > 0)
    # Grouped by parent, children keep the profile's order.
    kept = kept[np.lexsort((positions[kept], parent[kept]))]
    return _Layout(np.split(kept, np.cumsum(counts)[:-1]), parent, counts > 0)


def _padded(groups: Sequence[Sequence[int]], positions: np.ndarray) -> np.ndarray:
    """The positions' index lists as rows of a rectangle, padded with -1."""
    padded = np.full((len(positions), max(len(groups[p]) for p in positions)), -1)
    for row, position in enumerate(positions):
        padded[row, : len(groups[position])] = groups[position]
    return padded


def mean_best_match(
    base: np.ndarray,
    source_groups: Sequence[Sequence[int]],
    target_groups: Sequence[Sequence[int]],
    rows: np.ndarray,
    cols: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Symmetrised mean-best-match of ``base`` over group pairs (1-D).

    Pair ``k`` compares the non-empty groups ``source_groups[rows[k]]``
    and ``target_groups[cols[k]]`` (lists of ``base`` rows and columns):
    the mean over source members of their best target score and the mean
    over target members of their best source score, averaged.  Evidence
    is the smaller group size.  Groups are padded to a rectangle and
    gathered in bulk (index -1 hits a -1.0 sentinel row/column appended
    to ``base``, so padding never wins a max while ``base`` lies in
    [-1, 1]); processing is chunked to bound the (pairs x max_group^2)
    intermediate.
    """
    unique_rows, inverse_rows = np.unique(rows, return_inverse=True)
    unique_cols, inverse_cols = np.unique(cols, return_inverse=True)
    padded_s = _padded(source_groups, unique_rows)
    padded_t = _padded(target_groups, unique_cols)

    augmented = np.full((base.shape[0] + 1, base.shape[1] + 1), -1.0)
    augmented[:-1, :-1] = base
    similarity = np.empty(rows.size)
    chunk = max(1, 1_000_000 // (padded_s.shape[1] * padded_t.shape[1]))
    for start in range(0, rows.size, chunk):
        stop = min(start + chunk, rows.size)
        rows_k = padded_s[inverse_rows[start:stop]]
        cols_k = padded_t[inverse_cols[start:stop]]
        blocks = augmented[rows_k[:, :, None], cols_k[:, None, :]]
        valid_s = rows_k >= 0
        valid_t = cols_k >= 0
        forward = (
            np.where(valid_s, blocks.max(axis=2), 0.0).sum(axis=1)
            / valid_s.sum(axis=1)
        )
        backward = (
            np.where(valid_t, blocks.max(axis=1), 0.0).sum(axis=1)
            / valid_t.sum(axis=1)
        )
        similarity[start:stop] = 0.5 * (forward + backward)
    evidence = np.minimum(
        (padded_s >= 0).sum(axis=1)[inverse_rows],
        (padded_t >= 0).sum(axis=1)[inverse_cols],
    )
    return similarity, evidence


class StructuralVoter(MatchVoter):
    """Children-aggregation similarity for containers, parent context for leaves."""

    name = "structure"

    def __init__(
        self,
        lexicon: SynonymLexicon | None = None,
        tau: float = 3.0,
        neutral: float = 0.2,
        negative_scale: float = 0.5,
        leaf_context_evidence: float = 3.0,
    ):
        super().__init__(tau=tau, neutral=neutral, negative_scale=negative_scale)
        self.lexicon = lexicon if lexicon is not None else SynonymLexicon.default()
        self.leaf_context_evidence = leaf_context_evidence
        #: The linguistic base: thesaurus-canonicalised name-token Jaccard.
        self._names = ThesaurusVoter(lexicon=self.lexicon)

    def warm(self, profile, space):
        self._names.warm(profile, space)

    def grid_ratios(
        self, source, target, space, source_positions=None, target_positions=None
    ):
        base, _ = self._names.grid_ratios(
            source, target, space, source_positions, target_positions
        )
        return self._ratios(
            base, _layout(source, source_positions), _layout(target, target_positions)
        )

    def fast_ratios(self, source, target, space, rows, cols):
        base, _ = self._names.grid_ratios(source, target, space)
        return self._ratios(
            base, _layout(source, None), _layout(target, None), rows, cols
        )

    def _ratios(
        self,
        base: np.ndarray,
        source: _Layout,
        target: _Layout,
        rows: np.ndarray | None = None,
        cols: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Structural similarity/evidence given the linguistic base.

        Over the whole grid when ``rows`` is None (broadcast, as
        :func:`~repro.matchers.base.gather_outer` does), else at the
        explicit (row, col) pairs.
        """
        if rows is None:
            rows = np.arange(base.shape[0])[:, None]
            cols = np.arange(base.shape[1])[None, :]
        container_row = source.container[rows]
        container_col = target.container[cols]
        shape = np.broadcast_shapes(rows.shape, cols.shape)
        similarity = np.zeros(shape)
        evidence = np.zeros(shape)

        # Container vs leaf: mild structural contradiction.
        mixed = container_row != container_col
        similarity[mixed] = 0.1
        evidence[mixed] = 1.0

        # Container vs container: symmetrised mean-best-match of children.
        both = container_row & container_col
        if both.any():
            similarity[both], evidence[both] = mean_best_match(
                base,
                source.children,
                target.children,
                np.broadcast_to(rows, shape)[both],
                np.broadcast_to(cols, shape)[both],
            )

        # Leaf vs leaf: inherit the parents' *name* similarity as context.
        # Parent names discriminate concepts sharply (children blocks do
        # not: audit/common columns recur under every container), and this
        # is what disambiguates the SOURCE_SYSTEM-style columns that appear
        # everywhere: only the pair under linguistically-aligned parents
        # gets reinforced.  ``leaf_context_evidence`` sets how assertive
        # that context vote is.  A parent of -1 (a root, or outside the
        # grid) gathers a stray cell that the mask drops.
        parent_rows = source.parent[rows]
        parent_cols = target.parent[cols]
        leaves = (
            ~(container_row | container_col) & (parent_rows >= 0) & (parent_cols >= 0)
        )
        np.copyto(similarity, base[parent_rows, parent_cols], where=leaves)
        evidence[leaves] = self.leaf_context_evidence
        return similarity, evidence
