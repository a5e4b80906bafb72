"""Declarative match configuration: the options half of a MATCH request.

The paper's section-5 argument is that MATCH invocations should be managed
artifacts: reproducible, storable, comparable.  That requires the
*configuration* of a match -- which voters ran, how votes merged, how
candidates were selected, which execution path was taken -- to be data, not
a live object graph.  :class:`MatchOptions` is that data: a frozen,
JSON-round-trippable description that the :class:`~repro.service.MatchService`
compiles into engines and batch runners on demand (and caches by value).

Every stock configuration is expressible: the calibrated Harmony default
(``MatchOptions()``), the E11/E12 baselines (see
:func:`repro.baselines.engines.baseline_options`), and the corpus fast path
(``execution="batch"``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.cascade.plan import CascadePlan
from repro.match.selection import (
    HungarianSelection,
    SelectionStrategy,
    StableMarriageSelection,
    ThresholdSelection,
    TopKSelection,
)
from repro.matchers import (
    DEFAULT_VOTER_WEIGHTS,
    DataTypeVoter,
    DescribingTextVoter,
    DocumentationVoter,
    EditDistanceVoter,
    ExactNameVoter,
    MatchVoter,
    NameTokenVoter,
    NgramVoter,
    PathVoter,
    StructuralVoter,
    ThesaurusVoter,
)
from repro.voting.merger import (
    AverageMerger,
    ConvictionLinearMerger,
    ConvictionWeightedMerger,
    MaxMerger,
    MinMerger,
    VoteMerger,
    WeightedLinearMerger,
)

__all__ = ["MatchOptions", "DEFAULT_VOTER_NAMES"]

#: The default ensemble, by voter name, in :func:`repro.matchers.default_voters`
#: order (the order the calibrated weights are aligned with).
DEFAULT_VOTER_NAMES: tuple[str, ...] = (
    "name_token",
    "name_ngram",
    "thesaurus",
    "documentation",
    "datatype",
    "path",
    "structure",
)

#: Voters constructible by name.  The thesaurus and structural voters share
#: one lexicon instance when both are requested (mirroring
#: :func:`repro.matchers.default_voters`, and letting the feature cache hold
#: one canonical feature for both).
_LEXICON_VOTERS = ("thesaurus", "structure")

_VOTER_FACTORIES = {
    "name_token": NameTokenVoter,
    "name_ngram": NgramVoter,
    "exact_name": ExactNameVoter,
    "edit_distance": EditDistanceVoter,
    "thesaurus": ThesaurusVoter,
    "documentation": DocumentationVoter,
    "describing_text": DescribingTextVoter,
    "datatype": DataTypeVoter,
    "path": PathVoter,
    "structure": StructuralVoter,
}

_MERGERS = (
    "conviction_linear",
    "conviction_weighted",
    "weighted_linear",
    "average",
    "max_conviction",
    "min",
)

_SELECTIONS = ("threshold", "top_k", "stable_marriage", "hungarian")

_EXECUTIONS = ("auto", "exact", "batch")


@dataclass(frozen=True)
class MatchOptions:
    """One MATCH invocation's configuration, as a value.

    Parameters
    ----------
    voters:
        Voter names (see :data:`DEFAULT_VOTER_NAMES` and the registry in
        this module); ``None`` means the calibrated default ensemble.
    merger:
        Merger name; ``conviction_linear`` is the production default.
    merger_weights:
        Per-voter importance weights for the weighted mergers.  ``None``
        with the default ensemble and merger means the calibrated
        :data:`~repro.matchers.DEFAULT_VOTER_WEIGHTS`.
    selection:
        Selection strategy name deciding which matrix cells become
        correspondences.
    threshold:
        Score gate used by every selection strategy.
    top_k:
        ``k`` for the ``top_k`` selection (ignored otherwise).
    execution:
        Routing hint: ``auto`` (workload-shaped routing), ``exact`` (always
        the per-grid engine), ``batch`` (always the blocked fast path).
    fill_value:
        Score assigned to blocked-out pairs on the batch path.
    cascade:
        Optional :class:`~repro.cascade.CascadePlan`: Stage-1 merged
        confidences inside the plan's ambiguity band escalate to its
        Stage-2 oracle (budgeted, most-ambiguous-first; see
        ``docs/cascade.md``).  ``None`` (the default) keeps execution
        single-stage and bit-identical to the pre-cascade pipeline.
        Because the plan serialises inside these options -- and the
        options inside every request -- cascaded and plain requests can
        never share a response-cache key.
    trace:
        Opt into span-tree tracing for this request: the service records
        a :class:`repro.telemetry.Trace` and attaches its serialised tree
        to the response envelope.  ``False`` (the default) keeps the
        no-op disabled path.  Like ``cascade``, the flag serialises
        inside the options, so traced and untraced requests never share
        a response-cache key (a cached traced envelope legitimately
        carries its stored trace).
    """

    voters: tuple[str, ...] | None = None
    merger: str = "conviction_linear"
    merger_weights: tuple[float, ...] | None = None
    selection: str = "threshold"
    threshold: float = 0.15
    top_k: int = 1
    execution: str = "auto"
    fill_value: float = 0.0
    cascade: CascadePlan | None = None
    trace: bool = False

    def __post_init__(self) -> None:
        if self.voters is not None:
            object.__setattr__(self, "voters", tuple(self.voters))
            if not self.voters:
                raise ValueError("voters must be None or a non-empty tuple")
            unknown = [name for name in self.voters if name not in _VOTER_FACTORIES]
            if unknown:
                known = ", ".join(sorted(_VOTER_FACTORIES))
                raise ValueError(f"unknown voters {unknown}; known: {known}")
        if self.merger not in _MERGERS:
            raise ValueError(
                f"unknown merger {self.merger!r}; known: {', '.join(_MERGERS)}"
            )
        if self.merger_weights is not None:
            object.__setattr__(
                self, "merger_weights", tuple(float(w) for w in self.merger_weights)
            )
            if not self.merger_weights or any(w < 0 for w in self.merger_weights):
                raise ValueError("merger_weights must be non-empty and non-negative")
            if self.voters is not None and len(self.merger_weights) != len(self.voters):
                raise ValueError(
                    f"{len(self.merger_weights)} merger_weights for "
                    f"{len(self.voters)} voters"
                )
        if self.merger == "weighted_linear" and self.merger_weights is None:
            raise ValueError("weighted_linear merger requires merger_weights")
        if self.selection not in _SELECTIONS:
            raise ValueError(
                f"unknown selection {self.selection!r}; known: {', '.join(_SELECTIONS)}"
            )
        if not -1.0 <= self.threshold <= 1.0:
            raise ValueError(f"threshold must be in [-1, 1], got {self.threshold}")
        if self.top_k <= 0:
            raise ValueError(f"top_k must be positive, got {self.top_k}")
        if self.execution not in _EXECUTIONS:
            raise ValueError(
                f"unknown execution {self.execution!r}; known: {', '.join(_EXECUTIONS)}"
            )
        if not -1.0 <= self.fill_value <= 1.0:
            raise ValueError(f"fill_value must be in [-1, 1], got {self.fill_value}")
        if self.cascade is not None and not isinstance(self.cascade, CascadePlan):
            object.__setattr__(self, "cascade", CascadePlan.from_dict(self.cascade))
        object.__setattr__(self, "trace", bool(self.trace))

    # -- compilation ----------------------------------------------------
    @property
    def voter_names(self) -> tuple[str, ...]:
        """The effective voter names (defaults resolved)."""
        return self.voters if self.voters is not None else DEFAULT_VOTER_NAMES

    def build_voters(self) -> list[MatchVoter]:
        """Instantiate the voter ensemble this configuration names."""
        from repro.text.thesaurus import SynonymLexicon

        names = self.voter_names
        lexicon = (
            SynonymLexicon.default()
            if any(name in _LEXICON_VOTERS for name in names)
            else None
        )
        voters: list[MatchVoter] = []
        for name in names:
            if name in _LEXICON_VOTERS:
                voters.append(_VOTER_FACTORIES[name](lexicon=lexicon))
            else:
                voters.append(_VOTER_FACTORIES[name]())
        return voters

    def build_merger(self) -> VoteMerger:
        """Instantiate the merger (calibrated weights resolved for defaults)."""
        weights = self.merger_weights
        if (
            weights is None
            and self.voters is None
            and self.merger == "conviction_linear"
        ):
            weights = DEFAULT_VOTER_WEIGHTS
        if self.merger == "conviction_linear":
            return ConvictionLinearMerger(voter_weights=weights)
        if self.merger == "conviction_weighted":
            return ConvictionWeightedMerger(voter_weights=weights)
        if self.merger == "weighted_linear":
            return WeightedLinearMerger(weights)
        if self.merger == "average":
            return AverageMerger()
        if self.merger == "max_conviction":
            return MaxMerger()
        return MinMerger()

    def build_selection(self) -> SelectionStrategy:
        """Instantiate the selection strategy."""
        if self.selection == "threshold":
            return ThresholdSelection(self.threshold)
        if self.selection == "top_k":
            return TopKSelection(k=self.top_k, threshold=self.threshold)
        if self.selection == "stable_marriage":
            return StableMarriageSelection(threshold=self.threshold)
        return HungarianSelection(threshold=self.threshold)

    # -- derivation and serialisation -----------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible dict; inverse of :meth:`from_dict`."""
        return {
            "voters": list(self.voters) if self.voters is not None else None,
            "merger": self.merger,
            "merger_weights": (
                list(self.merger_weights) if self.merger_weights is not None else None
            ),
            "selection": self.selection,
            "threshold": self.threshold,
            "top_k": self.top_k,
            "execution": self.execution,
            "fill_value": self.fill_value,
            "cascade": self.cascade.to_dict() if self.cascade is not None else None,
            "trace": self.trace,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "MatchOptions":
        """Rebuild options from :meth:`to_dict` output (defaults fill gaps)."""
        voters = payload.get("voters")
        weights = payload.get("merger_weights")
        cascade = payload.get("cascade")
        return cls(
            voters=tuple(voters) if voters is not None else None,
            merger=payload.get("merger", "conviction_linear"),
            merger_weights=tuple(weights) if weights is not None else None,
            selection=payload.get("selection", "threshold"),
            threshold=payload.get("threshold", 0.15),
            top_k=payload.get("top_k", 1),
            execution=payload.get("execution", "auto"),
            fill_value=payload.get("fill_value", 0.0),
            cascade=CascadePlan.from_dict(cascade) if cascade is not None else None,
            trace=payload.get("trace", False),
        )
