"""Match reuse: prior assertions as a head start for new match efforts.

Section 5 (after [7, 18]): "other developers should be able to benefit from
previous matches."  Two mechanisms realise that here:

* **Transitive composition** (:func:`compose_matches`): if the repository
  knows A.x = B.y (0.8) and B.y = C.z (0.7), a new A-to-C effort starts
  from the composed candidate A.x = C.z.  Composition takes the *minimum*
  of the leg scores (a chain is only as strong as its weakest assertion)
  and records :class:`~repro.repository.provenance.AssertionMethod.COMPOSED`
  provenance.  Stored direction does not matter: a mapping stored as
  B -> A traverses as a flipped leg.  Since the mapping network landed
  (:mod:`repro.network`), this function is the ``max_hops=1`` case of the
  general path composer -- pass ``max_hops`` > 1 for multi-pivot chains,
  or use :class:`~repro.network.graph.MappingGraph` to cache the
  adjacency across queries.
* **Scored reuse** (:class:`ReusePolicy`): when a pair is matched *again*
  -- the routine case once ``MatchService.corpus_match`` sweeps a query
  schema over the whole registry -- prior assertions are folded into the
  fresh engine output.  A fresh correspondence that a prior assertion
  confirms is *boosted* (method-weighted: a human validation is worth more
  than an old automatic run, which is worth more than a composed chain),
  and a prior pair the fresh run missed is *seeded* back in as a
  candidate.  Every boosted or seeded correspondence carries the prior's
  provenance in its note (who asserted it, how, at what score), so a
  reviewer can always see why a score moved.

The reuse semantics, default weights, and a worked example live in
``docs/repository.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.match.correspondence import Correspondence, MatchStatus
from repro.repository.provenance import AssertionMethod, TrustPolicy
from repro.repository.store import MetadataRepository

if TYPE_CHECKING:  # pragma: no cover - the network package imports this one
    from repro.network.graph import MatchView

__all__ = [
    "compose_matches",
    "reuse_candidates",
    "PriorAssertion",
    "ReusePolicy",
    "ReuseOutcome",
]


def compose_matches(
    repository: MetadataRepository,
    source_schema: str,
    target_schema: str,
    policy: TrustPolicy | None = None,
    max_hops: int = 1,
    hop_decay: float = 1.0,
    annotate: bool = False,
) -> list[Correspondence]:
    """Candidates for source->target composed through pivot schemata.

    The default ``max_hops=1`` is the classic single-pivot composition:
    for every pivot P with stored matches source<->P and P<->target
    sharing a pivot element (either stored orientation), emit the composed
    correspondence with min leg score; duplicate compositions keep the
    strongest score.  ``max_hops`` > 1 walks longer acyclic pivot chains
    with ``hop_decay`` applied once per pivot beyond the first (see
    :func:`repro.network.graph.compose_stored`, which this delegates to).
    ``annotate`` records the winning pivot path in each correspondence's
    note.  This is the uncached reference (one store scan per call); a
    :class:`~repro.network.graph.MappingGraph` caches the same work.
    """
    from repro.network.graph import compose_stored

    return compose_stored(
        repository.matches(),
        source_schema,
        target_schema,
        max_hops=max_hops,
        hop_decay=hop_decay,
        policy=policy,
        annotate=annotate,
    )


def reuse_candidates(
    repository: MetadataRepository,
    source_schema: str,
    target_schema: str,
    asserted_by: str = "composer",
    policy: TrustPolicy | None = None,
    store: bool = False,
) -> list[Correspondence]:
    """Compose candidates and optionally store them with COMPOSED provenance."""
    candidates = compose_matches(repository, source_schema, target_schema, policy)
    if store:
        repository.store_matches(
            source_schema,
            target_schema,
            candidates,
            asserted_by=asserted_by,
            method=AssertionMethod.COMPOSED,
        )
    return candidates


# ----------------------------------------------------------------------
# Scored reuse: prior assertions folded into fresh match output
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PriorAssertion:
    """The strongest usable prior for one element pair, with its provenance."""

    source_id: str
    target_id: str
    score: float                   # the prior correspondence's raw score
    weighted_score: float          # score x the policy's method weight
    method: AssertionMethod
    asserted_by: str

    @property
    def pair(self) -> tuple[str, str]:
        return (self.source_id, self.target_id)

    def describe(self) -> str:
        """The provenance clause recorded on boosted/seeded notes."""
        return (
            f"prior {self.score:+.2f} by {self.asserted_by} ({self.method.value})"
        )


@dataclass(frozen=True)
class ReuseOutcome:
    """What :meth:`ReusePolicy.apply` did to one pair's correspondences."""

    correspondences: tuple[Correspondence, ...]
    n_boosted: int
    n_seeded: int
    n_priors: int


@dataclass(frozen=True)
class ReusePolicy:
    """How much prior assertions are worth when a pair is matched again.

    Each assertion method carries a weight in [0, 1] expressing how much
    of the prior's score survives reuse: human validations transfer almost
    fully, automatic engine output partially, composed chains least.  A
    fresh correspondence confirmed by a prior gains ``boost x weighted
    prior score``; a prior pair the fresh run missed is seeded back at
    ``seed_scale x weighted prior score`` when that product clears
    ``seed_floor``.  A pair with any direct REJECTED assertion is vetoed:
    no prior for it boosts or seeds, however strong -- an engineer's
    "spurious" verdict beats every older assertion.

    ``trust`` optionally gates which stored matches count as priors at
    all (e.g. :meth:`TrustPolicy.for_search` while exploring,
    :meth:`TrustPolicy.for_business_intelligence` when precision rules).
    """

    human_weight: float = 1.0
    automatic_weight: float = 0.5
    imported_weight: float = 0.7
    composed_weight: float = 0.35
    boost: float = 0.3
    seed_scale: float = 0.8
    seed_floor: float = 0.2
    include_composed: bool = True
    trust: TrustPolicy | None = None

    def __post_init__(self) -> None:
        for attribute in (
            "human_weight",
            "automatic_weight",
            "imported_weight",
            "composed_weight",
            "boost",
            "seed_scale",
        ):
            value = getattr(self, attribute)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{attribute} must be in [0, 1], got {value}")
        if not 0.0 <= self.seed_floor <= 1.0:
            raise ValueError(f"seed_floor must be in [0, 1], got {self.seed_floor}")

    # -- serialisation --------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-compatible dict; inverse of :meth:`from_dict`.

        Part of the serving wire protocol: corpus and network requests
        carry their reuse policy over HTTP, so the policy itself must be
        data (the nested trust gate serialises through
        :meth:`TrustPolicy.to_dict`).
        """
        payload = {
            field.name: getattr(self, field.name) for field in fields(self)
        }
        payload["trust"] = self.trust.to_dict() if self.trust is not None else None
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ReusePolicy":
        """Rebuild a policy from :meth:`to_dict` output (defaults fill
        gaps; unknown keys are ignored)."""
        values = {
            field.name: payload[field.name]
            for field in fields(cls)
            if field.name in payload
        }
        if values.get("trust") is not None:
            values["trust"] = TrustPolicy.from_dict(values["trust"])
        return cls(**values)

    def weight_for(self, method: AssertionMethod) -> float:
        if method is AssertionMethod.HUMAN_VALIDATED:
            return self.human_weight
        if method is AssertionMethod.IMPORTED:
            return self.imported_weight
        if method is AssertionMethod.COMPOSED:
            return self.composed_weight
        return self.automatic_weight

    # -- gathering priors -----------------------------------------------
    def priors(
        self,
        view: "MatchView",
        source_schema: str,
        target_schema: str,
        composed: Sequence[Correspondence] | None = None,
    ) -> dict[tuple[str, str], PriorAssertion]:
        """The strongest usable prior per element pair, both directions.

        Direct assertions (either orientation of the schema pair) are
        gathered first; when :attr:`include_composed` is set, transitive
        compositions through pivot schemata join at composed weight.  Per
        pair, the prior with the highest *weighted* score wins -- except
        that a pair with any direct REJECTED assertion is vetoed outright
        (an engineer's "spurious" verdict beats every older prior).

        ``view`` is one :class:`~repro.network.MatchView` of the mapping
        graph (a corpus sweep passes one view to all its candidates), so
        every read comes from one snapshot.
        ``composed`` optionally supplies already-composed candidates (the
        mapping network's multi-hop routes) in place of the single-pivot
        composition this method would otherwise derive itself; they join
        at composed weight and stay subject to the rejection veto.
        """
        candidates: list[PriorAssertion] = []
        rejected: set[tuple[str, str]] = set()
        for match in view.between(source_schema, target_schema):
            correspondence = match.correspondence
            # Rows stored target -> source are read flipped.
            source_id, target_id = (
                (correspondence.source_id, correspondence.target_id)
                if match.source_schema == source_schema
                else (correspondence.target_id, correspondence.source_id)
            )
            if correspondence.status is MatchStatus.REJECTED:
                rejected.add((source_id, target_id))
                continue
            if self.trust is not None and not self.trust.trusts(match.provenance):
                continue
            weight = self.weight_for(match.provenance.method)
            candidates.append(
                PriorAssertion(
                    source_id=source_id,
                    target_id=target_id,
                    score=correspondence.score,
                    weighted_score=weight * correspondence.score,
                    method=match.provenance.method,
                    asserted_by=match.provenance.asserted_by,
                )
            )
        if composed is None and self.include_composed:
            composed = view.compose(
                source_schema, target_schema, max_hops=1, policy=self.trust, annotate=False
            )
        for derived in composed or ():
            candidates.append(
                PriorAssertion(
                    source_id=derived.source_id,
                    target_id=derived.target_id,
                    score=derived.score,
                    weighted_score=self.composed_weight * derived.score,
                    method=AssertionMethod.COMPOSED,
                    asserted_by=derived.asserted_by,
                )
            )
        best: dict[tuple[str, str], PriorAssertion] = {}
        for prior in candidates:
            if prior.pair in rejected:
                continue
            incumbent = best.get(prior.pair)
            if incumbent is None or prior.weighted_score > incumbent.weighted_score:
                best[prior.pair] = prior
        return best

    # -- applying priors ------------------------------------------------
    def apply(
        self,
        fresh: Sequence[Correspondence],
        priors: dict[tuple[str, str], PriorAssertion],
    ) -> ReuseOutcome:
        """Fold priors into fresh correspondences (boost, then seed).

        Returns the adjusted list sorted by descending score.  Boosted
        and seeded correspondences record the prior's provenance in their
        ``note``; untouched correspondences pass through unchanged.
        """
        adjusted: list[Correspondence] = []
        seen: set[tuple[str, str]] = set()
        n_boosted = 0
        for correspondence in fresh:
            seen.add(correspondence.pair)
            prior = priors.get(correspondence.pair)
            if prior is None or prior.weighted_score <= 0.0:
                adjusted.append(correspondence)
                continue
            boosted_score = min(
                1.0, correspondence.score + self.boost * prior.weighted_score
            )
            note = f"reuse-boosted: {prior.describe()}"
            if correspondence.note:
                note = f"{correspondence.note}; {note}"
            adjusted.append(
                Correspondence(
                    source_id=correspondence.source_id,
                    target_id=correspondence.target_id,
                    score=boosted_score,
                    status=correspondence.status,
                    annotation=correspondence.annotation,
                    asserted_by=correspondence.asserted_by,
                    note=note,
                )
            )
            n_boosted += 1
        n_seeded = 0
        for pair, prior in priors.items():
            if pair in seen:
                continue
            seeded_score = self.seed_scale * prior.weighted_score
            if seeded_score < self.seed_floor:
                continue
            adjusted.append(
                Correspondence(
                    source_id=prior.source_id,
                    target_id=prior.target_id,
                    score=min(1.0, seeded_score),
                    status=MatchStatus.CANDIDATE,
                    asserted_by="reuse",
                    note=f"reuse-seeded: {prior.describe()}",
                )
            )
            n_seeded += 1
        adjusted.sort(key=lambda c: (-c.score, c.source_id, c.target_id))
        return ReuseOutcome(
            correspondences=tuple(adjusted),
            n_boosted=n_boosted,
            n_seeded=n_seeded,
            n_priors=len(priors),
        )

    def rematch(
        self,
        view: "MatchView",
        source_schema: str,
        target_schema: str,
        fresh: Iterable[Correspondence],
    ) -> ReuseOutcome:
        """Gather priors for a registered pair and apply them in one step."""
        priors = self.priors(view, source_schema, target_schema)
        return self.apply(list(fresh), priors)
