"""Data-type voter: soft compatibility of normalised type families.

Type agreement alone never confirms a match (every schema has hundreds of
strings), so this voter's *evidence mass is deliberately small*: it can veto
(a DATE against a BOOLEAN drags the merged score down) and mildly reinforce,
but it cannot overpower linguistic voters.  Pairs where either side's type is
UNKNOWN vote exactly 0.
"""

from __future__ import annotations

import numpy as np

from repro.matchers.base import MatchVoter, take
from repro.schema.datatypes import family_table

__all__ = ["DataTypeVoter"]


class DataTypeVoter(MatchVoter):
    """Pairwise type-family compatibility with low evidence mass."""

    name = "datatype"

    def __init__(
        self,
        tau: float = 3.0,
        neutral: float = 0.5,
        negative_scale: float = 1.0,
        evidence_mass: float = 1.2,
    ):
        super().__init__(tau=tau, neutral=neutral, negative_scale=negative_scale)
        if evidence_mass <= 0:
            raise ValueError(f"evidence_mass must be positive, got {evidence_mass}")
        self.evidence_mass = evidence_mass

    def warm(self, profile, space):
        space.type_ids(profile)
        space.type_known(profile)

    def grid_ratios(
        self, source, target, space, source_positions=None, target_positions=None
    ):
        table, _ = family_table()
        similarity = table[
            np.ix_(
                take(space.type_ids(source), source_positions),
                take(space.type_ids(target), target_positions),
            )
        ]
        both_known = np.logical_and.outer(
            take(space.type_known(source), source_positions),
            take(space.type_known(target), target_positions),
        )
        return similarity, np.where(both_known, self.evidence_mass, 0.0)

    def fast_ratios(self, source, target, space, rows, cols):
        table, _ = family_table()
        similarity = table[space.type_ids(source)[rows], space.type_ids(target)[cols]]
        both_known = space.type_known(source)[rows] & space.type_known(target)[cols]
        return similarity, np.where(both_known, self.evidence_mass, 0.0)
