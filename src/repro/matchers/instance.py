"""Instance voter: value-overlap evidence from data samples.

Section 3.2 contrasts Harmony with matchers that rely on "data instances"
and explains why the paper's engagements could not use them ("data ...
may not yet exist, or may be sensitive").  This voter implements the
instance-based strategy so the trade-off is measurable: when value samples
*are* available (see :mod:`repro.synthetic.instances`), how much do they
add to a documentation-driven ensemble?

Similarity is Jaccard over distinct values; evidence mass is the smaller
distinct-value count (two columns agreeing on 30 distinct values is far
stronger evidence than agreeing on two booleans).  Elements without samples
vote 0 -- the "data may not yet exist" case degrades gracefully.
"""

from __future__ import annotations

import numpy as np

from repro.matchers.base import MatchVoter
from repro.matchers.profile import SchemaProfile
from repro.matchers.setsim import jaccard_matrix
from repro.schema.schema import Schema

__all__ = ["InstanceTable", "InstanceVoter"]


class InstanceTable:
    """Column values for one schema: ``{element_id: [values...]}``.

    This is the voter's input contract; :mod:`repro.synthetic.instances`
    generates tables for synthetic schemata, and real deployments would
    fill one from profiling queries.
    """

    def __init__(self, schema: Schema, values: dict[str, list[str]]):
        self.schema = schema
        self._values = values

    def values_of(self, element_id: str) -> list[str]:
        """The value sample for one leaf element (empty for containers)."""
        return self._values.get(element_id, [])

    def __contains__(self, element_id: str) -> bool:
        return element_id in self._values

    def __len__(self) -> int:
        return len(self._values)


class InstanceVoter(MatchVoter):
    """Jaccard over distinct sampled values of each element pair."""

    name = "instance"

    def __init__(
        self,
        source_instances: InstanceTable,
        target_instances: InstanceTable,
        tau: float = 8.0,
        neutral: float = 0.15,
        negative_scale: float = 0.4,
    ):
        super().__init__(tau=tau, neutral=neutral, negative_scale=negative_scale)
        self.source_instances = source_instances
        self.target_instances = target_instances

    def _documents(
        self,
        profile: SchemaProfile,
        instances: InstanceTable,
        positions: np.ndarray | None,
    ) -> list[list[str]]:
        chosen = (
            positions if positions is not None else np.arange(len(profile), dtype=int)
        )
        return [
            list(set(instances.values_of(profile.element_ids[position])))
            for position in chosen
        ]

    def grid_ratios(
        self, source, target, space, source_positions=None, target_positions=None
    ):
        source_values = self._documents(
            source, self.source_instances, source_positions
        )
        target_values = self._documents(
            target, self.target_instances, target_positions
        )
        similarity = jaccard_matrix(source_values, target_values)
        source_sizes = np.array([len(values) for values in source_values], dtype=float)
        target_sizes = np.array([len(values) for values in target_values], dtype=float)
        evidence = np.minimum(source_sizes[:, None], target_sizes[None, :])
        return similarity, evidence
