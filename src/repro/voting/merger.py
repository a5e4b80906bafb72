"""Vote mergers: combine per-voter confidence matrices into one match score.

The paper: "A vote merger combines the confidence scores into a single match
score ... based on how confident each match voter is regarding a given
correspondence" (section 3.2).

The Harmony-style merger therefore weighs each vote by its *conviction*
(|confidence|): a voter saying "0.02" (barely any evidence) is nearly ignored
when another says "0.9".  Conventional mergers -- plain average, weighted
linear (COMA-style), max, hwang -- are provided for the E11 ablation, which
isolates how much the evidence-aware behaviour matters.

All mergers operate on stacked numpy arrays of shape
``(n_voters, n_source, n_target)`` with entries in [-1, +1] and return one
``(n_source, n_target)`` array in [-1, +1].
"""

from __future__ import annotations

from typing import Callable, Mapping, Protocol, Sequence

import numpy as np

__all__ = [
    "VoteMerger",
    "ConvictionLinearMerger",
    "ConvictionWeightedMerger",
    "AverageMerger",
    "WeightedLinearMerger",
    "MaxMerger",
    "MinMerger",
    "merger_by_name",
]


class VoteMerger(Protocol):
    """Protocol all mergers satisfy."""

    name: str

    def merge(self, stacked: np.ndarray) -> np.ndarray:
        """Combine a (n_voters, n_source, n_target) stack into one matrix."""
        ...


def _validate_stack(stacked: np.ndarray) -> None:
    if stacked.ndim != 3:
        raise ValueError(
            f"expected (n_voters, n_source, n_target) stack, got shape {stacked.shape}"
        )
    if stacked.shape[0] == 0:
        raise ValueError("cannot merge zero voters")


def _weighted_sum(
    weights: np.ndarray, stacked: np.ndarray, signed_square: bool = False
) -> np.ndarray:
    """``sum_i weights[i] * vote_i``, each vote squared keeping its sign
    when ``signed_square``.

    Adds the voters one at a time, in order, with elementwise ops, so
    every cell takes the same operations whatever the stack's shape: a
    pair scored alone, in a candidate list or in a grid gets one value,
    bit for bit (a BLAS reduction's rounding depends on the shape).
    """
    merged = np.zeros(stacked.shape[1:])
    term = np.empty_like(merged)
    for weight, votes in zip(weights, stacked):
        if signed_square:
            np.abs(votes, out=term)
            term *= votes
            term *= weight
        else:
            np.multiply(votes, weight, out=term)
        merged += term
    return merged


class ConvictionWeightedMerger:
    """Harmony's merger: each vote weighted by its own conviction |c|.

    merged = sum(w_i * c_i * |c_i|^p) / sum(w_i * |c_i|^p), with the
    convention that a pair on which *no* voter has any conviction merges to
    0 (complete uncertainty).  ``power`` sharpens (p>1) or softens (p<1) the
    conviction weighting; ``voter_weights`` optionally layers per-voter
    importance priors on top (context voters matter more than raw string
    voters at enterprise scale -- see DESIGN.md's calibration notes).
    """

    def __init__(self, power: float = 1.0, voter_weights: Sequence[float] | None = None):
        if power <= 0:
            raise ValueError(f"power must be positive, got {power}")
        self.power = power
        if voter_weights is not None:
            weight_array = np.asarray(list(voter_weights), dtype=float)
            if weight_array.ndim != 1 or weight_array.size == 0:
                raise ValueError("voter_weights must be a non-empty 1-D sequence")
            if np.any(weight_array < 0) or weight_array.sum() == 0:
                raise ValueError("voter_weights must be non-negative, not all zero")
            self.voter_weights: np.ndarray | None = weight_array
        else:
            self.voter_weights = None
        self.name = "conviction_weighted"

    def merge(self, stacked: np.ndarray) -> np.ndarray:
        _validate_stack(stacked)
        weights = np.abs(stacked) ** self.power
        if self.voter_weights is not None:
            if self.voter_weights.size != stacked.shape[0]:
                raise ValueError(
                    f"{self.voter_weights.size} voter_weights for "
                    f"{stacked.shape[0]} voters"
                )
            weights = weights * self.voter_weights[:, None, None]
        weight_sum = weights.sum(axis=0)
        weighted = (stacked * weights).sum(axis=0)
        with np.errstate(invalid="ignore", divide="ignore"):
            merged = np.where(weight_sum > 0, weighted / weight_sum, 0.0)
        return np.clip(merged, -1.0, 1.0)


class ConvictionLinearMerger:
    """The production Harmony-style merger: conviction-scaled linear mix.

    Each vote enters as its *signed square* ``c * |c|`` -- so a vote's
    contribution grows with its own conviction (which already encodes the
    voter's evidence mass through the saturation term) -- and the results
    are combined linearly under fixed per-voter importance weights::

        merged = sum(w_i * c_i * |c_i|) / sum(w_i)

    Unlike :class:`ConvictionWeightedMerger`, the denominator is constant:
    a lone strongly-negative context vote is *not* renormalised away by
    several mildly-positive string votes.  On the case-study workload this
    is what separates true correspondences from the name-identical audit
    columns that recur under every container (see bench E11).
    """

    def __init__(self, voter_weights: Sequence[float] | None = None):
        if voter_weights is not None:
            weight_array = np.asarray(list(voter_weights), dtype=float)
            if weight_array.ndim != 1 or weight_array.size == 0:
                raise ValueError("voter_weights must be a non-empty 1-D sequence")
            if np.any(weight_array < 0) or weight_array.sum() == 0:
                raise ValueError("voter_weights must be non-negative, not all zero")
            self.voter_weights: np.ndarray | None = weight_array
        else:
            self.voter_weights = None
        self.name = "conviction_linear"

    def merge(self, stacked: np.ndarray) -> np.ndarray:
        _validate_stack(stacked)
        if self.voter_weights is None:
            weights = np.ones(stacked.shape[0])
        else:
            if self.voter_weights.size != stacked.shape[0]:
                raise ValueError(
                    f"{self.voter_weights.size} voter_weights for "
                    f"{stacked.shape[0]} voters"
                )
            weights = self.voter_weights
        merged = _weighted_sum(weights / weights.sum(), stacked, signed_square=True)
        return np.clip(merged, -1.0, 1.0, out=merged)


class AverageMerger:
    """Plain arithmetic mean of all votes (evidence-blind baseline)."""

    name = "average"

    def merge(self, stacked: np.ndarray) -> np.ndarray:
        _validate_stack(stacked)
        return np.clip(stacked.mean(axis=0), -1.0, 1.0)


class WeightedLinearMerger:
    """COMA-style fixed linear combination with per-voter weights.

    Weights are given by voter position; they are normalised to sum to 1.
    """

    name = "weighted_linear"

    def __init__(self, weights: Sequence[float]):
        weight_array = np.asarray(list(weights), dtype=float)
        if weight_array.ndim != 1 or weight_array.size == 0:
            raise ValueError("weights must be a non-empty 1-D sequence")
        if np.any(weight_array < 0):
            raise ValueError("weights must be non-negative")
        total = weight_array.sum()
        if total == 0:
            raise ValueError("at least one weight must be positive")
        self._weights = weight_array / total

    def merge(self, stacked: np.ndarray) -> np.ndarray:
        _validate_stack(stacked)
        if stacked.shape[0] != self._weights.size:
            raise ValueError(
                f"{self._weights.size} weights for {stacked.shape[0]} voters"
            )
        merged = _weighted_sum(self._weights, stacked)
        return np.clip(merged, -1.0, 1.0, out=merged)


class MaxMerger:
    """Optimistic merger: the vote with the largest absolute value wins.

    Keeps the *signed* extreme, so a strong negative vote can veto.
    """

    name = "max_conviction"

    def merge(self, stacked: np.ndarray) -> np.ndarray:
        _validate_stack(stacked)
        flat_index = np.abs(stacked).argmax(axis=0)
        rows, cols = np.indices(flat_index.shape)
        return stacked[flat_index, rows, cols]


class MinMerger:
    """Pessimistic merger: the smallest (most negative) vote wins."""

    name = "min"

    def merge(self, stacked: np.ndarray) -> np.ndarray:
        _validate_stack(stacked)
        return stacked.min(axis=0)


_REGISTRY: Mapping[str, Callable[[], VoteMerger]] = {
    "conviction_linear": ConvictionLinearMerger,
    "conviction_weighted": ConvictionWeightedMerger,
    "average": AverageMerger,
    "max_conviction": MaxMerger,
    "min": MinMerger,
}


def merger_by_name(name: str) -> VoteMerger:
    """Instantiate a registered merger by name (for CLI/config use)."""
    try:
        return _REGISTRY[name]()
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown merger {name!r}; known: {known}") from None
