"""Incremental (sub-tree at a time) matching.

Section 3.3: "they used Harmony's sub-tree filter to incrementally match
each concept (i.e., the schema sub-tree rooted at that concept) with the
entire opposing schema. ... These match operations were rapid: typically
between 10^4 and 10^5 matches were considered in each increment."

:class:`IncrementalMatcher` runs exactly that loop: given a source schema, a
target schema and a shared engine, each :meth:`match_subtree` call matches
one concept sub-tree against the whole opposing schema, reusing the cached
profiles so increments stay cheap.  It records per-increment statistics
(pairs considered, elapsed time) which benches E5/E7 consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.match.engine import HarmonyMatchEngine, MatchResult
from repro.schema.schema import Schema

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (service uses match)
    from repro.service import MatchService

__all__ = ["Increment", "IncrementalMatcher"]


@dataclass(frozen=True)
class Increment:
    """Bookkeeping for one incremental match operation."""

    root_id: str
    n_source_elements: int
    n_target_elements: int
    n_pairs: int
    elapsed_seconds: float
    result: MatchResult

    @property
    def label(self) -> str:
        return f"{self.root_id} ({self.n_pairs} pairs)"


class IncrementalMatcher:
    """Concept-at-a-time matching over a fixed schema pair."""

    def __init__(
        self,
        source: Schema,
        target: Schema,
        engine: HarmonyMatchEngine | None = None,
        service: "MatchService | None" = None,
    ):
        self.source = source
        self.target = target
        if engine is None:
            # A bound service shares its profile cache; otherwise this is
            # the low-level path and the matcher owns a private engine.
            engine = (
                service.engine() if service is not None else HarmonyMatchEngine()
            )
        self.engine = engine
        self.increments: list[Increment] = []
        # Prime the profile cache so the first increment is not penalised.
        self.engine.profile(source)
        self.engine.profile(target)

    def match_subtree(
        self,
        root_id: str,
        target_element_ids: list[str] | None = None,
    ) -> Increment:
        """Match the sub-tree rooted at ``root_id`` against the target.

        ``target_element_ids`` optionally restricts the opposing side too
        (e.g. to a previously concept-matched region).
        """
        subtree_ids = [
            element.element_id for element in self.source.subtree(root_id)
        ]
        result = self.engine.match(
            self.source,
            self.target,
            source_element_ids=subtree_ids,
            target_element_ids=target_element_ids,
        )
        increment = Increment(
            root_id=root_id,
            n_source_elements=len(subtree_ids),
            n_target_elements=(
                len(target_element_ids)
                if target_element_ids is not None
                else len(self.target)
            ),
            n_pairs=result.n_pairs,
            elapsed_seconds=result.elapsed_seconds,
            result=result,
        )
        self.increments.append(increment)
        return increment

    @property
    def total_pairs_considered(self) -> int:
        """Sum of pair-grid sizes across all increments so far."""
        return sum(increment.n_pairs for increment in self.increments)

    def pairs_per_increment(self) -> list[int]:
        """The per-increment workload series of section 3.3 (E5)."""
        return [increment.n_pairs for increment in self.increments]
