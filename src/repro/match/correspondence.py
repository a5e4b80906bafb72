"""Correspondences: scored, annotated, provenance-carrying match assertions.

A correspondence is the knowledge artifact the paper argues enterprises
should treat as first-class: not just "these two elements match" but who/what
asserted it, with what confidence, validated or not, and with what semantics
("additional semantics such as is-a or part-of", section 3.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

__all__ = ["MatchStatus", "SemanticAnnotation", "Correspondence", "CorrespondenceSet"]


class MatchStatus(Enum):
    """Lifecycle of a correspondence in the human validation workflow."""

    CANDIDATE = "candidate"   # proposed by the engine, not yet reviewed
    ACCEPTED = "accepted"     # validated by an integration engineer
    REJECTED = "rejected"     # reviewed and judged spurious

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class SemanticAnnotation(Enum):
    """The relationship semantics an engineer may record on a match."""

    EQUIVALENT = "equivalent"
    IS_A = "is-a"
    PART_OF = "part-of"
    RELATED = "related"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Correspondence:
    """One match assertion between a source and a target element."""

    source_id: str
    target_id: str
    score: float
    status: MatchStatus = MatchStatus.CANDIDATE
    annotation: SemanticAnnotation = SemanticAnnotation.EQUIVALENT
    asserted_by: str = "engine"
    note: str = ""

    def __post_init__(self) -> None:
        if not -1.0 <= self.score <= 1.0:
            raise ValueError(f"correspondence score must be in [-1, 1], got {self.score}")

    @property
    def pair(self) -> tuple[str, str]:
        return (self.source_id, self.target_id)

    def accept(self, by: str, annotation: SemanticAnnotation | None = None, note: str = "") -> "Correspondence":
        """Return an ACCEPTED copy, recording the validator."""
        return replace(
            self,
            status=MatchStatus.ACCEPTED,
            asserted_by=by,
            annotation=annotation if annotation is not None else self.annotation,
            note=note or self.note,
        )

    def reject(self, by: str, note: str = "") -> "Correspondence":
        """Return a REJECTED copy, recording the reviewer."""
        return replace(self, status=MatchStatus.REJECTED, asserted_by=by, note=note or self.note)

    def to_dict(self) -> dict:
        """JSON-compatible dict; inverse of :meth:`from_dict`."""
        return {
            "source_id": self.source_id,
            "target_id": self.target_id,
            "score": self.score,
            "status": self.status.value,
            "annotation": self.annotation.value,
            "asserted_by": self.asserted_by,
            "note": self.note,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Correspondence":
        """Rebuild a correspondence from :meth:`to_dict` output."""
        return cls(
            source_id=payload["source_id"],
            target_id=payload["target_id"],
            score=payload["score"],
            status=MatchStatus(payload.get("status", "candidate")),
            annotation=SemanticAnnotation(payload.get("annotation", "equivalent")),
            asserted_by=payload.get("asserted_by", "engine"),
            note=payload.get("note", ""),
        )


class CorrespondenceSet:
    """A mutable collection of correspondences keyed by (source, target) pair.

    The set enforces one assertion per pair (latest wins) and provides the
    partitioned views Lesson #3 asks for: matched/unmatched element sets.
    """

    def __init__(self, correspondences: list[Correspondence] | None = None):
        self._by_pair: dict[tuple[str, str], Correspondence] = {}
        for correspondence in correspondences or []:
            self.add(correspondence)

    def add(self, correspondence: Correspondence) -> None:
        self._by_pair[correspondence.pair] = correspondence

    def get(self, source_id: str, target_id: str) -> Correspondence | None:
        return self._by_pair.get((source_id, target_id))

    def remove(self, source_id: str, target_id: str) -> None:
        self._by_pair.pop((source_id, target_id), None)

    def __len__(self) -> int:
        return len(self._by_pair)

    def __iter__(self):
        return iter(self._by_pair.values())

    def __contains__(self, pair: tuple[str, str]) -> bool:
        return pair in self._by_pair

    # ------------------------------------------------------------------
    def with_status(self, status: MatchStatus) -> list[Correspondence]:
        return [c for c in self if c.status is status]

    @property
    def accepted(self) -> list[Correspondence]:
        return self.with_status(MatchStatus.ACCEPTED)

    @property
    def candidates(self) -> list[Correspondence]:
        return self.with_status(MatchStatus.CANDIDATE)

    @property
    def rejected(self) -> list[Correspondence]:
        return self.with_status(MatchStatus.REJECTED)

    def matched_source_ids(self, statuses: tuple[MatchStatus, ...] = (MatchStatus.ACCEPTED,)) -> set[str]:
        """Source elements participating in a correspondence of given status."""
        return {c.source_id for c in self if c.status in statuses}

    def matched_target_ids(self, statuses: tuple[MatchStatus, ...] = (MatchStatus.ACCEPTED,)) -> set[str]:
        """Target elements participating in a correspondence of given status."""
        return {c.target_id for c in self if c.status in statuses}

    def merge(self, other: "CorrespondenceSet") -> "CorrespondenceSet":
        """New set with ``other``'s assertions layered over this one's."""
        merged = CorrespondenceSet(list(self))
        for correspondence in other:
            merged.add(correspondence)
        return merged
