"""Typed MATCH requests: what to match, under which configuration.

A :class:`MatchRequest` names its schemata either *inline* (live
:class:`~repro.schema.schema.Schema` objects) or *by reference* (the
registered name of a schema in the service's bound
:class:`~repro.repository.store.MetadataRepository`) -- the paper's
repository-centric view, where a match invocation over registered artifacts
is itself an artifact.  Element-id restrictions carry the sub-tree /
concept-at-a-time workflows through the same front door.

Every request type round-trips through :meth:`to_dict`/:meth:`from_dict`
(inline schemata serialise through the schema serialiser, by-name
references stay plain strings), which is what makes the typed requests the
**wire protocol** of the serving tier (:mod:`repro.server`): an HTTP body
is ``request.to_dict()`` as JSON, nothing more.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Union

from repro.repository.provenance import TrustPolicy
from repro.repository.reuse import ReusePolicy
from repro.schema.schema import Schema
from repro.schema.serialize import schema_from_dict, schema_to_dict
from repro.service.options import MatchOptions

__all__ = ["SchemaRef", "MatchRequest", "CorpusMatchRequest", "NetworkMatchRequest"]

#: A schema argument: inline, or the name of a repository-registered schema.
SchemaRef = Union[Schema, str]


def _ref_to_dict(ref: SchemaRef) -> Any:
    """A schema reference as wire data: a plain string for a registered
    name, an ``{"inline": <serialised schema>}`` object for a live schema."""
    if isinstance(ref, str):
        return ref
    return {"inline": schema_to_dict(ref)}


def _ref_from_dict(payload: Any) -> SchemaRef:
    """Inverse of :func:`_ref_to_dict` (raises on malformed payloads)."""
    if isinstance(payload, str):
        return payload
    if isinstance(payload, Mapping) and "inline" in payload:
        return schema_from_dict(payload["inline"])
    raise ValueError(
        "schema reference must be a registered name or an {'inline': ...} "
        f"object, got {payload!r}"
    )


@dataclass(frozen=True)
class MatchRequest:
    """One MATCH(source, target) invocation, as data.

    Parameters
    ----------
    source, target:
        Inline schemata or repository names (resolution of names requires
        the service to be bound to a repository).
    options:
        The :class:`~repro.service.options.MatchOptions` configuration;
        the calibrated defaults when omitted.
    source_element_ids / target_element_ids:
        Optional match-time grid restrictions (sub-tree and concept
        increments).  A target-side restriction forces the exact path --
        the blocked fast path prunes candidates target-side itself.
    """

    source: SchemaRef
    target: SchemaRef
    options: MatchOptions = field(default_factory=MatchOptions)
    source_element_ids: tuple[str, ...] | None = None
    target_element_ids: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.source, (Schema, str)):
            raise TypeError("source must be a Schema or a registered schema name")
        if not isinstance(self.target, (Schema, str)):
            raise TypeError("target must be a Schema or a registered schema name")
        for attribute in ("source_element_ids", "target_element_ids"):
            ids = getattr(self, attribute)
            if ids is not None:
                object.__setattr__(self, attribute, tuple(ids))

    # -- serialisation (the /match wire form) ---------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible dict; inverse of :meth:`from_dict`."""
        return {
            "source": _ref_to_dict(self.source),
            "target": _ref_to_dict(self.target),
            "options": self.options.to_dict(),
            "source_element_ids": (
                list(self.source_element_ids)
                if self.source_element_ids is not None
                else None
            ),
            "target_element_ids": (
                list(self.target_element_ids)
                if self.target_element_ids is not None
                else None
            ),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "MatchRequest":
        """Rebuild a request from :meth:`to_dict` output (defaults fill gaps)."""
        source_ids = payload.get("source_element_ids")
        target_ids = payload.get("target_element_ids")
        return cls(
            source=_ref_from_dict(payload["source"]),
            target=_ref_from_dict(payload["target"]),
            options=MatchOptions.from_dict(payload.get("options", {})),
            source_element_ids=tuple(source_ids) if source_ids is not None else None,
            target_element_ids=tuple(target_ids) if target_ids is not None else None,
        )


@dataclass(frozen=True)
class CorpusMatchRequest:
    """One MATCH(source, *everything registered*) invocation, as data.

    The paper's routine enterprise operation: match a schema against the
    whole repository and come back with the top-k registered schemata plus
    full correspondences for each.  Execution is two-staged -- the corpus
    index prunes the registry to ``retrieval_limit`` candidates, the
    blocked batch fast path scores each survivor -- so requests stay cheap
    even over hundreds of registered schemata (bench E17).

    Parameters
    ----------
    source:
        The query schema: inline, or the name of a registered schema.
    top_k:
        How many ranked candidate schemata the response keeps.
    options:
        Per-pair matching configuration (voters, merger, selection,
        threshold).  The execution hint is ignored: corpus matching always
        rides the blocked fast path per candidate.
    retrieval_limit:
        How many index candidates are actually matched; ``None`` means
        ``max(3 x top_k, 10)``.  Raising it trades latency for retrieval
        recall; the registry size caps it implicitly.
    exclude:
        Registered names never retrieved or matched.  Self-exclusion is
        automatic: a by-name query excludes that name, an inline query
        excludes content-identical registered copies of itself (a
        registered schema that merely *shares the inline query's name*
        stays a candidate).
    reuse:
        The :class:`~repro.repository.reuse.ReusePolicy` folding prior
        assertions into each candidate's correspondences; ``None`` turns
        reuse off.  Reuse needs the query schema to be registered (priors
        are keyed by schema name); inline sources skip it silently.

    The request carries no fan-out setting: the few survivors match
    serially in the serving process.  Legacy ``executor`` /
    ``max_workers`` wire keys are ignored on the way in, so they neither
    reach the runner cache nor split the response-cache key.
    """

    source: SchemaRef
    top_k: int = 5
    options: MatchOptions = field(default_factory=MatchOptions)
    retrieval_limit: int | None = None
    exclude: tuple[str, ...] = ()
    reuse: ReusePolicy | None = field(default_factory=ReusePolicy)

    def __post_init__(self) -> None:
        if not isinstance(self.source, (Schema, str)):
            raise TypeError("source must be a Schema or a registered schema name")
        if self.top_k <= 0:
            raise ValueError(f"top_k must be positive, got {self.top_k}")
        if self.retrieval_limit is not None and self.retrieval_limit <= 0:
            raise ValueError(
                f"retrieval_limit must be positive, got {self.retrieval_limit}"
            )
        object.__setattr__(self, "exclude", tuple(self.exclude))

    @property
    def effective_retrieval_limit(self) -> int:
        """The candidate-pruning width (defaults resolved)."""
        if self.retrieval_limit is not None:
            return self.retrieval_limit
        return max(3 * self.top_k, 10)

    # -- serialisation (the /corpus-match wire form) --------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible dict; inverse of :meth:`from_dict`.

        ``reuse: null`` means reuse *off* (it is a meaningful value, not a
        gap); an absent key falls back to the default policy on the way in.
        """
        return {
            "source": _ref_to_dict(self.source),
            "top_k": self.top_k,
            "options": self.options.to_dict(),
            "retrieval_limit": self.retrieval_limit,
            "exclude": list(self.exclude),
            "reuse": self.reuse.to_dict() if self.reuse is not None else None,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CorpusMatchRequest":
        """Rebuild a request from :meth:`to_dict` output (defaults fill gaps)."""
        if "reuse" in payload:
            reuse_payload = payload["reuse"]
            reuse = (
                ReusePolicy.from_dict(reuse_payload)
                if reuse_payload is not None
                else None
            )
        else:
            reuse = ReusePolicy()
        return cls(
            source=_ref_from_dict(payload["source"]),
            top_k=payload.get("top_k", 5),
            options=MatchOptions.from_dict(payload.get("options", {})),
            retrieval_limit=payload.get("retrieval_limit"),
            exclude=tuple(payload.get("exclude", ())),
            reuse=reuse,
        )


@dataclass(frozen=True)
class NetworkMatchRequest:
    """One MATCH(source, target) *routed through the mapping network*.

    The repository's stored mappings form a graph (nodes = registered
    schemata, edges = stored correspondence sets); this request answers
    source -> target by composing evidence along acyclic pivot paths
    instead of (or before) matching from scratch.  Both endpoints must be
    *registered names* -- routing is a repository operation by definition.

    Parameters
    ----------
    source, target:
        Registered schema names (the graph's nodes).
    max_hops:
        Maximum pivot count per path (``1`` = classic single-pivot
        composition; ``2`` answers A -> C via A -> B1 -> B2 -> C).
    hop_decay:
        Confidence decay applied once per pivot beyond the first, so a
        3-hop chain never outranks an equally strong single-pivot one.
    options:
        Matching configuration for the verify stage (and the response
        envelope); ignored for compose-only requests beyond recording.
    min_score:
        Composed candidates below this score are dropped from a
        compose-only response (verify folds them as weak priors instead).
    trust:
        Optional :class:`TrustPolicy` gating which stored legs are
        traversable (rejected assertions never are).  The same policy
        carries into the verify fold's direct priors when ``reuse`` does
        not name its own trust gate, so one request-level policy governs
        the whole pipeline.
    verify:
        ``False`` returns the composed candidates as-is (cheap: no
        matching happens at all).  ``True`` runs the blocked E16
        fast path over the pair and folds the composed candidates in as
        COMPOSED-method priors under ``reuse`` -- confirmed compositions
        boost the fresh scores, unconfirmed ones are seeded back.
    reuse:
        The :class:`~repro.repository.reuse.ReusePolicy` used by the
        verify fold (direct stored priors join composed ones; a direct
        REJECTED assertion still vetoes its pair).
    """

    source: str
    target: str
    max_hops: int = 2
    hop_decay: float = 0.9
    options: MatchOptions = field(default_factory=MatchOptions)
    min_score: float = 0.0
    trust: "TrustPolicy | None" = None
    verify: bool = False
    reuse: ReusePolicy = field(default_factory=ReusePolicy)

    def __post_init__(self) -> None:
        for attribute in ("source", "target"):
            value = getattr(self, attribute)
            if not isinstance(value, str) or not value:
                raise TypeError(
                    f"{attribute} must be a registered schema name, got {value!r}"
                )
        if self.source == self.target:
            raise ValueError(
                f"source and target must differ, both are {self.source!r}"
            )
        if self.max_hops < 1:
            raise ValueError(f"max_hops must be >= 1, got {self.max_hops}")
        if not 0.0 < self.hop_decay <= 1.0:
            raise ValueError(f"hop_decay must be in (0, 1], got {self.hop_decay}")
        if not 0.0 <= self.min_score <= 1.0:
            raise ValueError(f"min_score must be in [0, 1], got {self.min_score}")
        if self.reuse is None:
            raise TypeError("reuse must be a ReusePolicy (the verify fold needs one)")

    # -- serialisation (the /network-match wire form) -------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible dict; inverse of :meth:`from_dict`."""
        return {
            "source": self.source,
            "target": self.target,
            "max_hops": self.max_hops,
            "hop_decay": self.hop_decay,
            "options": self.options.to_dict(),
            "min_score": self.min_score,
            "trust": self.trust.to_dict() if self.trust is not None else None,
            "verify": self.verify,
            "reuse": self.reuse.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "NetworkMatchRequest":
        """Rebuild a request from :meth:`to_dict` output (defaults fill gaps)."""
        trust = payload.get("trust")
        reuse = payload.get("reuse")
        return cls(
            source=payload["source"],
            target=payload["target"],
            max_hops=payload.get("max_hops", 2),
            hop_decay=payload.get("hop_decay", 0.9),
            options=MatchOptions.from_dict(payload.get("options", {})),
            min_score=payload.get("min_score", 0.0),
            trust=TrustPolicy.from_dict(trust) if trust is not None else None,
            verify=payload.get("verify", False),
            reuse=ReusePolicy.from_dict(reuse) if reuse is not None else ReusePolicy(),
        )
