"""N-way match orchestration: pairwise engine runs feeding the vocabulary.

The practical route to an N-way match with a binary engine is to run the
C(N,2) pairwise matches and cluster the accepted correspondences.  This
module packages that loop: it matches every schema pair, selects
correspondences 1:1 (stable marriage, thresholded), and emits the
``(schema_a, element_a, schema_b, element_b)`` tuples
:func:`repro.nway.vocabulary.build_vocabulary` consumes.

By default the C(N,2) matches go through a
:class:`repro.service.MatchService` (auto-routed: small registries take the
exact engine, large ones the blocked fast path with profile/feature reuse
across pairs).  Pass a ``service`` to share caches with other operations,
an ``engine`` to force a specific exact engine, or a
:class:`repro.batch.BatchMatchRunner` to force the fast path.
"""

from __future__ import annotations

from itertools import combinations
from typing import TYPE_CHECKING, Iterator

from repro.match.selection import SelectionStrategy, StableMarriageSelection
from repro.schema.schema import Schema

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (batch uses match)
    from repro.batch.runner import BatchMatchRunner
    from repro.match.engine import HarmonyMatchEngine
    from repro.service import MatchService

__all__ = ["pairwise_matches", "nway_match"]


def pairwise_matches(
    schemata: dict[str, Schema],
    engine: "HarmonyMatchEngine | None" = None,
    selection: SelectionStrategy | None = None,
    runner: "BatchMatchRunner | None" = None,
    service: "MatchService | None" = None,
) -> Iterator[tuple[str, str, str, str]]:
    """Yield accepted correspondences for every pair of schemata.

    Pairs are processed in sorted-name order so results are deterministic
    regardless of dict insertion order.  With ``runner`` given, pairs go
    through the batch fast path (and ``engine``/``service`` are ignored);
    with ``engine`` given, through that exact engine; otherwise through the
    (given or fresh) service's auto-routed all-pairs sweep.  Fast-path
    candidate scores are exact, so routed results differ from the engine
    path only where blocking pruned a pair (measured recall: bench E16).
    """
    selection = (
        selection if selection is not None else StableMarriageSelection(threshold=0.13)
    )
    if runner is not None:
        for outcome in runner.match_all_pairs(schemata, selection=selection):
            for correspondence in outcome.correspondences:
                yield (
                    outcome.source_name,
                    correspondence.source_id,
                    outcome.target_name,
                    correspondence.target_id,
                )
        return
    if engine is not None:
        for name_a, name_b in combinations(sorted(schemata), 2):
            result = engine.match(schemata[name_a], schemata[name_b])
            for correspondence in result.candidates(selection):
                yield (
                    name_a, correspondence.source_id,
                    name_b, correspondence.target_id,
                )
        return
    if service is None:
        from repro.service import MatchService

        service = MatchService()
    for response in service.match_all_pairs(schemata, selection=selection):
        for correspondence in response.correspondences:
            yield (
                response.source_name,
                correspondence.source_id,
                response.target_name,
                correspondence.target_id,
            )


def nway_match(
    schemata: dict[str, Schema],
    engine: "HarmonyMatchEngine | None" = None,
    selection: SelectionStrategy | None = None,
    runner: "BatchMatchRunner | None" = None,
    service: "MatchService | None" = None,
):
    """Run the full N-way pipeline: pairwise matches -> vocabulary -> partition.

    Returns ``(vocabulary, partition)``.  ``service`` shares the routing
    facade's caches across the pairwise stage; ``runner`` forces the batch
    fast path; ``engine`` forces a specific exact engine.
    """
    from repro.nway.partition import partition_vocabulary
    from repro.nway.vocabulary import build_vocabulary

    pairs = list(
        pairwise_matches(
            schemata, engine=engine, selection=selection, runner=runner,
            service=service,
        )
    )
    vocabulary = build_vocabulary(schemata, pairs)
    partition = partition_vocabulary(vocabulary)
    return vocabulary, partition
