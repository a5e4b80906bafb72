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
inside the grid only.  All bulk assignments are vectorised; the only
Python-level loop is over container x container pairs (hundreds, not the
10^6 full grid).
"""

from __future__ import annotations

import numpy as np

from repro.matchers.base import MatchVoter
from repro.matchers.profile import SchemaProfile
from repro.matchers.thesaurus import ThesaurusVoter
from repro.text.thesaurus import SynonymLexicon

__all__ = ["StructuralVoter"]


def _grid(profile: SchemaProfile, positions: np.ndarray | None) -> np.ndarray:
    """The grid's element positions (every element when unrestricted)."""
    return positions if positions is not None else np.arange(len(profile), dtype=int)


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

    @staticmethod
    def _grid_children(
        profile: SchemaProfile, in_grid: dict[int, int], grid: np.ndarray
    ) -> list[list[int]]:
        return [
            [
                in_grid[child]
                for child in profile.children_index[position]
                if child in in_grid
            ]
            for position in grid
        ]

    def grid_ratios(
        self, source, target, space, source_positions=None, target_positions=None
    ):
        base, _ = self._names.grid_ratios(
            source, target, space, source_positions, target_positions
        )
        return self._ratios_from_base(
            base,
            source,
            target,
            _grid(source, source_positions),
            _grid(target, target_positions),
        )

    def _ratios_from_base(
        self,
        base: np.ndarray,
        source: SchemaProfile,
        target: SchemaProfile,
        source_grid: np.ndarray,
        target_grid: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Structural similarity/evidence over a grid given its linguistic base.

        Children and parents count only where they lie inside the grid.
        """
        source_in_grid = {position: row for row, position in enumerate(source_grid)}
        target_in_grid = {position: col for col, position in enumerate(target_grid)}
        source_children = self._grid_children(source, source_in_grid, source_grid)
        target_children = self._grid_children(target, target_in_grid, target_grid)

        similarity = np.zeros_like(base)
        evidence = np.zeros_like(base)

        container_rows = [row for row, kids in enumerate(source_children) if kids]
        container_cols = [col for col, kids in enumerate(target_children) if kids]
        leaf_rows = np.array(
            [row for row, kids in enumerate(source_children) if not kids], dtype=int
        )
        leaf_cols = np.array(
            [col for col, kids in enumerate(target_children) if not kids], dtype=int
        )

        # Container vs leaf: mild structural contradiction (bulk assignment).
        if container_rows and leaf_cols.size:
            similarity[np.ix_(container_rows, leaf_cols)] = 0.1
            evidence[np.ix_(container_rows, leaf_cols)] = 1.0
        if leaf_rows.size and container_cols:
            similarity[np.ix_(leaf_rows, container_cols)] = 0.1
            evidence[np.ix_(leaf_rows, container_cols)] = 1.0

        # Container vs container: symmetrised mean-best-match of children.
        for row in container_rows:
            source_kids = source_children[row]
            for col in container_cols:
                target_kids = target_children[col]
                block = base[np.ix_(source_kids, target_kids)]
                forward = block.max(axis=1).mean()
                backward = block.max(axis=0).mean()
                similarity[row, col] = 0.5 * (forward + backward)
                evidence[row, col] = min(len(source_kids), len(target_kids))

        # Leaf vs leaf: inherit the parents' *name* similarity as context.
        # Parent names discriminate concepts sharply (children blocks do
        # not: audit/common columns recur under every container), and this
        # is what disambiguates the SOURCE_SYSTEM-style columns that appear
        # everywhere: only the pair under linguistically-aligned parents
        # gets reinforced.  ``leaf_context_evidence`` sets how assertive
        # that context vote is.
        if leaf_rows.size and leaf_cols.size:
            source_parent_row = np.array(
                [
                    source_in_grid.get(source.parent_index[source_grid[row]], -1)
                    for row in leaf_rows
                ],
                dtype=int,
            )
            target_parent_col = np.array(
                [
                    target_in_grid.get(target.parent_index[target_grid[col]], -1)
                    for col in leaf_cols
                ],
                dtype=int,
            )
            valid_rows = source_parent_row >= 0
            valid_cols = target_parent_col >= 0
            if valid_rows.any() and valid_cols.any():
                rows = leaf_rows[valid_rows]
                cols = leaf_cols[valid_cols]
                parent_ix = np.ix_(
                    source_parent_row[valid_rows], target_parent_col[valid_cols]
                )
                similarity[np.ix_(rows, cols)] = base[parent_ix]
                evidence[np.ix_(rows, cols)] = self.leaf_context_evidence

        return similarity, evidence

    @staticmethod
    def _container_pair_scores(
        base: np.ndarray,
        source_children: list[list[int]],
        target_children: list[list[int]],
        pair_rows: np.ndarray,
        pair_cols: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Symmetrised mean-best-match for an explicit container-pair list.

        Children index lists are padded to a rectangle and gathered in bulk
        (index -1 hits a -1.0 sentinel row/column appended to ``base``, so
        padding never wins a max); processing is chunked to bound the
        (pairs x max_children^2) intermediate.
        """
        unique_rows, inverse_rows = np.unique(pair_rows, return_inverse=True)
        unique_cols, inverse_cols = np.unique(pair_cols, return_inverse=True)
        width_s = max(len(source_children[i]) for i in unique_rows)
        width_t = max(len(target_children[j]) for j in unique_cols)
        padded_s = np.full((unique_rows.size, width_s), -1, dtype=int)
        kid_counts_s = np.empty(unique_rows.size)
        for k, position in enumerate(unique_rows):
            kids = source_children[position]
            padded_s[k, : len(kids)] = kids
            kid_counts_s[k] = len(kids)
        padded_t = np.full((unique_cols.size, width_t), -1, dtype=int)
        kid_counts_t = np.empty(unique_cols.size)
        for k, position in enumerate(unique_cols):
            kids = target_children[position]
            padded_t[k, : len(kids)] = kids
            kid_counts_t[k] = len(kids)

        augmented = np.pad(base, ((0, 1), (0, 1)), constant_values=-1.0)
        similarity = np.empty(pair_rows.size)
        chunk = max(1, 4_000_000 // max(width_s * width_t, 1))
        for start in range(0, pair_rows.size, chunk):
            stop = min(start + chunk, pair_rows.size)
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
        evidence = np.minimum(kid_counts_s[inverse_rows], kid_counts_t[inverse_cols])
        return similarity, evidence

    def fast_ratios(self, source, target, space, rows, cols):
        base, _ = self._names.grid_ratios(source, target, space)
        source_children = source.children_index
        target_children = target.children_index
        is_container_s = np.fromiter(
            (bool(kids) for kids in source_children), bool, len(source_children)
        )
        is_container_t = np.fromiter(
            (bool(kids) for kids in target_children), bool, len(target_children)
        )
        similarity = np.zeros(rows.size)
        evidence = np.zeros(rows.size)

        container_row = is_container_s[rows]
        container_col = is_container_t[cols]
        mixed = container_row ^ container_col
        similarity[mixed] = 0.1
        evidence[mixed] = 1.0

        both = container_row & container_col
        if both.any():
            similarity[both], evidence[both] = self._container_pair_scores(
                base, source_children, target_children, rows[both], cols[both]
            )

        leaves = ~container_row & ~container_col
        parent_rows = source.parent_index[rows]
        parent_cols = target.parent_index[cols]
        valid = leaves & (parent_rows >= 0) & (parent_cols >= 0)
        similarity[valid] = base[parent_rows[valid], parent_cols[valid]]
        evidence[valid] = self.leaf_context_evidence
        return similarity, evidence
