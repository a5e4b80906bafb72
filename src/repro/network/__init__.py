"""The mapping network: routing new match efforts through stored mappings.

Nodes are registered schemata, edges are stored correspondence sets, and
multi-hop composition answers A -> C from A -> B -> C evidence without
matching from scratch -- the paper's "other developers should benefit
from previous matches" taken to corpus scale.  See ``docs/repository.md``
(Mapping network section) and bench E18.
"""

from repro.network.graph import (
    ComposedPath,
    GraphRefresh,
    MappingGraph,
    MappingLeg,
    MatchView,
    NetworkRoute,
    build_adjacency,
    compose_stored,
)

__all__ = [
    "ComposedPath",
    "GraphRefresh",
    "MappingGraph",
    "MappingLeg",
    "MatchView",
    "NetworkRoute",
    "build_adjacency",
    "compose_stored",
]
