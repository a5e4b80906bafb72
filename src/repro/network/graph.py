"""The mapping network: stored match sets as a routable graph.

Section 5's deepest enterprise observation is that mappings *outlive* the
match runs that produced them: once a repository holds A<->B and B<->C
assertions, a new A-to-C effort should not start from scratch -- it should
**route through the network**, composing stored evidence along pivot
paths.  PR 3's single-pivot :func:`repro.repository.reuse.compose_matches`
was the first step; :class:`MappingGraph` generalises it to a real
mapping network:

* **nodes** are the registered schemata of a
  :class:`~repro.repository.store.MetadataRepository`;
* **edges** are the stored correspondence sets between a schema pair
  (both stored orientations collapse onto one undirected edge whose legs
  are traversed flipped when walked against their stored direction);
* **multi-hop composition** (:meth:`MappingGraph.route`) enumerates every
  acyclic pivot path up to ``max_hops`` pivots between a source and a
  target, composes correspondences along each path under max-min
  semantics (a chain is only as strong as its weakest leg), applies a
  per-extra-hop confidence ``hop_decay``, and merges multi-path evidence
  for the same element pair (strongest path wins; the path count is
  recorded in the correspondence note).

Routing, reuse priors and recall all read one cached :class:`MatchView`
(decoded matches, a by-pair index, the adjacency), invalidated by the
repository's two monotone clocks (``generation``, ``match_generation``)
as :class:`~repro.corpus.index.CorpusIndex` is, so repeated queries over
a warm repository never re-scan the store.  ``max_hops=1`` with
``hop_decay`` irrelevant (one pivot means zero extra hops) reproduces
``compose_matches`` exactly; bench E18 holds the warm graph to >= 5x a
rebuild-per-query loop and pins the k=1 equivalence to 1e-9.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from repro.match.correspondence import Correspondence, MatchStatus
from repro.repository.provenance import ProvenanceRecord, TrustPolicy
from repro.repository.store import MetadataRepository, StoredMatch
from repro.telemetry import span

__all__ = [
    "MappingLeg",
    "ComposedPath",
    "NetworkRoute",
    "GraphRefresh",
    "MappingGraph",
    "MatchView",
    "build_adjacency",
    "compose_stored",
]


class MappingLeg(NamedTuple):
    """One stored correspondence, oriented for traversal a -> b.

    The stored :class:`ProvenanceRecord` rides along (shared, not copied:
    both orientations of a leg reference the same record) so a
    :class:`~repro.repository.provenance.TrustPolicy` can gate legs at
    traversal time -- through the policy's own :meth:`~TrustPolicy.trusts`,
    never a re-implementation -- without rebuilding the cached adjacency.
    """

    source_element: str
    target_element: str
    score: float
    provenance: ProvenanceRecord

    def trusted(self, policy: TrustPolicy | None) -> bool:
        return policy is None or policy.trusts(self.provenance)


#: adjacency[a][b] -> legs oriented a -> b (stored b -> a rows appear flipped).
Adjacency = dict[str, dict[str, list[MappingLeg]]]


def build_adjacency(matches: Sequence[StoredMatch]) -> Adjacency:
    """The traversal structure of a stored match pool (both orientations).

    REJECTED assertions are dropped here (a rejection is status-level and
    policy-independent: it is never a usable leg); trust filtering stays
    per-query so one cached adjacency serves every policy.  Self-matches
    (source schema == target schema) cannot be pivot legs and are skipped.
    """
    adjacency: Adjacency = {}
    for match in matches:
        correspondence = match.correspondence
        if correspondence.status is MatchStatus.REJECTED:
            continue
        a, b = match.source_schema, match.target_schema
        if a == b:
            continue
        provenance = match.provenance
        adjacency.setdefault(a, {}).setdefault(b, []).append(
            MappingLeg(
                correspondence.source_id,
                correspondence.target_id,
                correspondence.score,
                provenance,
            )
        )
        adjacency.setdefault(b, {}).setdefault(a, []).append(
            MappingLeg(
                correspondence.target_id,
                correspondence.source_id,
                correspondence.score,
                provenance,
            )
        )
    return adjacency


def _enumerate_paths(
    adjacency: Adjacency, source: str, target: str, max_hops: int
) -> list[tuple[str, ...]]:
    """All acyclic pivot paths source -> ... -> target with 1..max_hops pivots.

    A direct source<->target edge is *not* a path: composition derives new
    evidence through pivots; direct stored assertions are the reuse
    layer's job.  Paths come back shortest-first, then lexicographic, so
    output order (and therefore note attribution) is deterministic.
    """
    paths: list[tuple[str, ...]] = []
    stack: list[str] = [source]
    on_path = {source}

    def extend() -> None:
        current = stack[-1]
        n_pivots = len(stack) - 1
        for neighbour in sorted(adjacency.get(current, ())):
            if neighbour == target:
                if n_pivots >= 1:
                    paths.append(tuple(stack) + (target,))
                continue
            if neighbour in on_path or n_pivots >= max_hops:
                continue
            stack.append(neighbour)
            on_path.add(neighbour)
            extend()
            stack.pop()
            on_path.discard(neighbour)

    extend()
    paths.sort(key=lambda path: (len(path), path))
    return paths


def _compose_path(
    adjacency: Adjacency, path: tuple[str, ...], policy: TrustPolicy | None
) -> dict[tuple[str, str], float]:
    """Max-min composition of one pivot path: element pair -> best min-leg score.

    The frontier keeps, per (origin element, current element), the best
    accumulated minimum -- dominance holds because min is monotone, so a
    weaker partial chain can never overtake a stronger one later.
    """
    frontier: dict[tuple[str, str], float] = {}
    for leg in adjacency[path[0]].get(path[1], ()):
        if not leg.trusted(policy):
            continue
        key = (leg.source_element, leg.target_element)
        if leg.score > frontier.get(key, float("-inf")):
            frontier[key] = leg.score
    for here, there in zip(path[1:], path[2:]):
        # Index the frontier by its current-element side once per hop, so a
        # hop costs O(frontier + legs) instead of O(frontier x legs).
        by_current: dict[str, list[tuple[str, float]]] = {}
        for (origin, current), accumulated in frontier.items():
            by_current.setdefault(current, []).append((origin, accumulated))
        frontier = {}
        for leg in adjacency[here].get(there, ()):
            if not leg.trusted(policy):
                continue
            for origin, accumulated in by_current.get(leg.source_element, ()):
                key = (origin, leg.target_element)
                composed = min(accumulated, leg.score)
                if composed > frontier.get(key, float("-inf")):
                    frontier[key] = composed
        if not frontier:
            break
    return frontier


@dataclass(frozen=True)
class ComposedPath:
    """One pivot path and how much element-level evidence it yielded."""

    nodes: tuple[str, ...]           # source, pivots..., target
    n_pairs: int                     # element pairs composed along it

    @property
    def pivots(self) -> tuple[str, ...]:
        return self.nodes[1:-1]

    @property
    def n_hops(self) -> int:
        """Pivot count (the k of "up to k hops")."""
        return len(self.nodes) - 2

    def to_dict(self) -> dict:
        return {"nodes": list(self.nodes), "n_pairs": self.n_pairs}

    @classmethod
    def from_dict(cls, payload: dict) -> "ComposedPath":
        return cls(nodes=tuple(payload["nodes"]), n_pairs=payload["n_pairs"])


@dataclass(frozen=True)
class NetworkRoute:
    """What one multi-hop routing query composed, and along which paths."""

    source: str
    target: str
    max_hops: int
    hop_decay: float
    paths: tuple[ComposedPath, ...]
    correspondences: tuple[Correspondence, ...]

    @property
    def n_paths(self) -> int:
        return len(self.paths)


def _route(
    adjacency: Adjacency,
    source: str,
    target: str,
    max_hops: int,
    hop_decay: float,
    policy: TrustPolicy | None,
    annotate: bool,
) -> NetworkRoute:
    if max_hops < 1:
        raise ValueError(f"max_hops must be >= 1, got {max_hops}")
    if not 0.0 < hop_decay <= 1.0:
        raise ValueError(f"hop_decay must be in (0, 1], got {hop_decay}")
    if source == target:
        # A->P->A round trips would otherwise come back as plausible-looking
        # self-"compositions"; the query is degenerate, refuse it loudly.
        raise ValueError(f"source and target must differ, both are {source!r}")
    node_paths = _enumerate_paths(adjacency, source, target, max_hops)
    best: dict[tuple[str, str], float] = {}
    best_path: dict[tuple[str, str], tuple[str, ...]] = {}
    n_paths_of: dict[tuple[str, str], int] = {}
    composed_paths: list[ComposedPath] = []
    for nodes in node_paths:
        composed = _compose_path(adjacency, nodes, policy)
        composed_paths.append(ComposedPath(nodes=nodes, n_pairs=len(composed)))
        decay = hop_decay ** (len(nodes) - 3)  # one pivot = no decay
        for pair, min_score in composed.items():
            n_paths_of[pair] = n_paths_of.get(pair, 0) + 1
            score = min_score * decay
            if score > best.get(pair, float("-inf")):
                best[pair] = score
                best_path[pair] = nodes
    correspondences = []
    for (source_element, target_element), score in sorted(
        best.items(), key=lambda item: (-item[1], item[0])
    ):
        note = ""
        if annotate:
            pair = (source_element, target_element)
            pivots = " > ".join(best_path[pair][1:-1])
            extra = n_paths_of[pair] - 1
            note = f"composed via {pivots}" + (
                f" (+{extra} more path{'s' if extra > 1 else ''})" if extra else ""
            )
        correspondences.append(
            Correspondence(
                source_id=source_element,
                target_id=target_element,
                score=score,
                status=MatchStatus.CANDIDATE,
                asserted_by="composer",
                note=note,
            )
        )
    return NetworkRoute(
        source=source,
        target=target,
        max_hops=max_hops,
        hop_decay=hop_decay,
        paths=tuple(composed_paths),
        correspondences=tuple(correspondences),
    )


def compose_stored(
    matches: Sequence[StoredMatch],
    source: str,
    target: str,
    max_hops: int = 1,
    hop_decay: float = 1.0,
    policy: TrustPolicy | None = None,
    annotate: bool = False,
) -> list[Correspondence]:
    """Compose source -> target candidates through a stored match pool.

    The uncached entry point :func:`repro.repository.reuse.compose_matches`
    delegates to (its classic single-pivot behaviour is exactly
    ``max_hops=1``, where ``hop_decay`` has no effect).  Callers holding a
    repository should prefer :class:`MappingGraph`, which caches the
    adjacency across queries.
    """
    return MatchView.build(None, (), matches).compose(
        source, target, max_hops, hop_decay, policy, annotate
    )


def _pair_key(first: str, second: str) -> tuple[str, str]:
    return (first, second) if first <= second else (second, first)


@dataclass(frozen=True)
class MatchView:
    """Every stored match at one ``(generation, match_generation)``, indexed.

    The one answer to "which stored matches are current": routing, reuse
    priors and recall all read a view.  It is immutable, so a reader
    holding one needs no lock and sees one snapshot across many queries.
    """

    clocks: tuple[int, int] | None  # None = never built
    nodes: frozenset[str]
    matches: tuple[StoredMatch, ...]  # id order
    #: Unordered schema pair -> its rows in id order, both orientations,
    #: REJECTED rows kept (they are the reuse layer's veto).
    by_pair: dict[tuple[str, str], tuple[StoredMatch, ...]]
    adjacency: Adjacency
    n_edges: int
    n_legs: int

    @classmethod
    def build(cls, clocks, nodes, matches: Sequence[StoredMatch]) -> "MatchView":
        matches = tuple(matches)
        by_pair: dict[tuple[str, str], list[StoredMatch]] = {}
        for match in matches:
            key = _pair_key(match.source_schema, match.target_schema)
            by_pair.setdefault(key, []).append(match)
        adjacency = build_adjacency(matches)
        return cls(
            clocks=clocks,
            nodes=frozenset(nodes),
            matches=matches,
            by_pair={key: tuple(rows) for key, rows in by_pair.items()},
            adjacency=adjacency,
            # Each undirected edge appears under both endpoints.
            n_edges=sum(len(n) for n in adjacency.values()) // 2,
            n_legs=sum(len(legs) for n in adjacency.values() for legs in n.values()),
        )

    def between(self, first: str, second: str) -> tuple[StoredMatch, ...]:
        """Every stored row between two schemata, either orientation."""
        return self.by_pair.get(_pair_key(first, second), ())

    def compose(
        self,
        source: str,
        target: str,
        max_hops: int = 1,
        hop_decay: float = 1.0,
        policy: TrustPolicy | None = None,
        annotate: bool = False,
    ) -> list[Correspondence]:
        """Compose source -> target through this view's pivot paths (an
        unregistered endpoint has no legs, so nothing composes)."""
        return list(
            _route(
                self.adjacency, source, target, max_hops, hop_decay, policy, annotate
            ).correspondences
        )


@dataclass(frozen=True)
class GraphRefresh:
    """What one :meth:`MappingGraph.refresh` actually did."""

    n_nodes: int                   # registered schemata (graph nodes)
    n_edges: int                   # schema pairs with at least one usable leg
    n_legs: int                    # directed traversal legs (2 per stored row)
    rebuilt: bool                  # False = the cached view was current
    elapsed_seconds: float


class MappingGraph:
    """A cached, staleness-aware mapping network over a repository.

    Parameters
    ----------
    repository:
        The :class:`MetadataRepository` whose stored matches form the
        edges.  The graph never mutates the store.
    hop_decay:
        Default per-extra-hop confidence decay for :meth:`route` /
        :meth:`compose` (a single-pivot composition is never decayed;
        each pivot beyond the first multiplies by this factor once).
    """

    def __init__(self, repository: MetadataRepository, hop_decay: float = 0.9):
        if not 0.0 < hop_decay <= 1.0:
            raise ValueError(f"hop_decay must be in (0, 1], got {hop_decay}")
        self.repository = repository
        self.hop_decay = hop_decay
        self._view = MatchView.build(None, (), ())
        self.last_refresh: GraphRefresh | None = None
        #: Serialises rebuilds (the serving tier shares one graph across
        #: request threads); readers get whole views only.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def is_stale(self) -> bool:
        """Whether either repository clock moved since the view was built."""
        return self._view.clocks != self.repository.clocks()

    def refresh(self, force: bool = False) -> GraphRefresh:
        """Bring the cached view in sync with the repository.

        A warm graph costs one clock read; a stale one rebuilds from one
        unfiltered ``repository.matches()`` scan.
        """
        started = time.perf_counter()
        with self._lock, span("network.refresh") as refresh_span:
            # Clocks before the scan: a write in between leaves newer rows
            # under older clocks, which the next refresh rebuilds again.
            clocks = self.repository.clocks()
            rebuilt = force or self._view.clocks != clocks
            if rebuilt:
                self._view = MatchView.build(
                    clocks, self.repository.schema_names(), self.repository.matches()
                )
            view = self._view
            refresh_span.annotate(rebuilt=rebuilt, n_matches=len(view.matches))
        refresh = GraphRefresh(
            n_nodes=len(view.nodes),
            n_edges=view.n_edges,
            n_legs=view.n_legs,
            rebuilt=rebuilt,
            elapsed_seconds=time.perf_counter() - started,
        )
        self.last_refresh = refresh
        return refresh

    def view(self, *required: str) -> MatchView:
        """The current view, rebuilt first if either clock moved; each
        ``required`` name raises ``KeyError`` unless registered in it."""
        with self._lock:
            self.refresh()
            view = self._view
        for name in required:
            if name not in view.nodes:
                raise KeyError(f"schema {name!r} is not registered")
        return view

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return len(self.view().nodes)

    def neighbours(self, name: str) -> list[str]:
        """Schemata sharing at least one usable stored match with ``name``."""
        return sorted(self.view(name).adjacency.get(name, ()))

    def legs(self, source: str, target: str) -> list[MappingLeg]:
        """The traversal legs source -> target (stored either way, flipped)."""
        adjacency = self.view(source, target).adjacency
        return list(adjacency.get(source, {}).get(target, ()))

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def paths(
        self, source: str, target: str, max_hops: int = 2
    ) -> list[tuple[str, ...]]:
        """All acyclic pivot paths source -> target with 1..max_hops pivots."""
        if max_hops < 1:
            raise ValueError(f"max_hops must be >= 1, got {max_hops}")
        if source == target:
            raise ValueError(f"source and target must differ, both are {source!r}")
        adjacency = self.view(source, target).adjacency
        return _enumerate_paths(adjacency, source, target, max_hops)

    def route(
        self,
        source: str,
        target: str,
        max_hops: int = 2,
        hop_decay: float | None = None,
        policy: TrustPolicy | None = None,
        annotate: bool = True,
    ) -> NetworkRoute:
        """Compose source -> target through every acyclic pivot path.

        Per path: max-min leg composition.  Across paths: the strongest
        (decayed) score per element pair wins, with the winning pivots and
        the supporting path count in the note (``annotate=False`` returns
        bare correspondences, byte-compatible with ``compose_matches``).
        """
        return _route(
            self.view(source, target).adjacency,
            source,
            target,
            max_hops,
            hop_decay if hop_decay is not None else self.hop_decay,
            policy,
            annotate,
        )

    def compose(
        self,
        source: str,
        target: str,
        max_hops: int = 2,
        hop_decay: float | None = None,
        policy: TrustPolicy | None = None,
        annotate: bool = True,
    ) -> list[Correspondence]:
        """The composed correspondences of :meth:`route` (convenience)."""
        return list(
            self.route(
                source, target, max_hops, hop_decay, policy, annotate
            ).correspondences
        )
