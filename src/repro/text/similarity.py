"""String and set similarity metrics used by the match voters.

All similarities are normalised to ``[0, 1]`` where 1 means identical.
Distances (:func:`levenshtein`) are raw edit counts.  Every function is pure
and deterministic.

These implementations favour clarity; the vectorised hot paths live
elsewhere: :mod:`repro.matchers.setsim` computes whole similarity
*matrices* via sparse products, and the voters' ``vote``/``score_pairs``
kernels (see :mod:`repro.matchers.base` and :mod:`repro.batch`) score full
grids or blocked candidate lists from cached
:class:`~repro.matchers.profile.FeatureSpace` matrices.  Per-pair
calls here only need to be fast enough for interactive use and tests.
"""

from __future__ import annotations

from typing import Collection, Sequence

from repro.text.tokenize import char_ngrams

__all__ = [
    "levenshtein",
    "levenshtein_similarity",
    "jaro",
    "jaro_winkler",
    "dice_coefficient",
    "jaccard",
    "overlap_coefficient",
    "ngram_similarity",
    "longest_common_substring",
    "lcs_similarity",
    "monge_elkan",
]


def levenshtein(left: str, right: str) -> int:
    """Classic edit distance (insert / delete / substitute, unit costs).

    >>> levenshtein("kitten", "sitting")
    3
    """
    if left == right:
        return 0
    if not left:
        return len(right)
    if not right:
        return len(left)
    # Keep the shorter string in the inner dimension for less memory traffic.
    if len(right) > len(left):
        left, right = right, left
    previous = list(range(len(right) + 1))
    for row, left_char in enumerate(left, start=1):
        current = [row]
        for col, right_char in enumerate(right, start=1):
            cost = 0 if left_char == right_char else 1
            current.append(
                min(
                    previous[col] + 1,        # deletion
                    current[col - 1] + 1,     # insertion
                    previous[col - 1] + cost, # substitution
                )
            )
        previous = current
    return previous[-1]


def levenshtein_similarity(left: str, right: str) -> float:
    """Edit distance normalised to a similarity: ``1 - d / max(|a|, |b|)``.

    >>> levenshtein_similarity("date", "date")
    1.0
    """
    if not left and not right:
        return 1.0
    longest = max(len(left), len(right))
    return 1.0 - levenshtein(left, right) / longest


def jaro(left: str, right: str) -> float:
    """Jaro similarity: transposition-aware matching of short strings."""
    if left == right:
        return 1.0
    len_left, len_right = len(left), len(right)
    if len_left == 0 or len_right == 0:
        return 0.0

    match_window = max(len_left, len_right) // 2 - 1
    match_window = max(match_window, 0)

    left_matched = [False] * len_left
    right_matched = [False] * len_right
    matches = 0
    for i, char in enumerate(left):
        start = max(0, i - match_window)
        end = min(i + match_window + 1, len_right)
        for j in range(start, end):
            if right_matched[j] or right[j] != char:
                continue
            left_matched[i] = True
            right_matched[j] = True
            matches += 1
            break
    if matches == 0:
        return 0.0

    transpositions = 0
    j = 0
    for i in range(len_left):
        if not left_matched[i]:
            continue
        while not right_matched[j]:
            j += 1
        if left[i] != right[j]:
            transpositions += 1
        j += 1
    transpositions //= 2

    return (
        matches / len_left
        + matches / len_right
        + (matches - transpositions) / matches
    ) / 3.0


def jaro_winkler(left: str, right: str, prefix_scale: float = 0.1) -> float:
    """Jaro-Winkler: Jaro boosted for shared prefixes (up to 4 characters).

    ``prefix_scale`` must lie in [0, 0.25] so the result stays within [0, 1].
    """
    if not 0.0 <= prefix_scale <= 0.25:
        raise ValueError(f"prefix_scale must be in [0, 0.25], got {prefix_scale}")
    base = jaro(left, right)
    prefix = 0
    for l_char, r_char in zip(left, right):
        if l_char != r_char or prefix == 4:
            break
        prefix += 1
    return base + prefix * prefix_scale * (1.0 - base)


def dice_coefficient(left: Collection, right: Collection) -> float:
    """Sorensen-Dice over two collections (treated as sets)."""
    left_set, right_set = set(left), set(right)
    if not left_set and not right_set:
        return 1.0
    if not left_set or not right_set:
        return 0.0
    shared = len(left_set & right_set)
    return 2.0 * shared / (len(left_set) + len(right_set))


def jaccard(left: Collection, right: Collection) -> float:
    """Jaccard over two collections (treated as sets)."""
    left_set, right_set = set(left), set(right)
    if not left_set and not right_set:
        return 1.0
    union = len(left_set | right_set)
    if union == 0:
        return 0.0
    return len(left_set & right_set) / union


def overlap_coefficient(left: Collection, right: Collection) -> float:
    """Szymkiewicz-Simpson overlap: ``|A ∩ B| / min(|A|, |B|)``.

    Useful when one schema's names are strict abbreviations of the other's.
    """
    left_set, right_set = set(left), set(right)
    if not left_set and not right_set:
        return 1.0
    if not left_set or not right_set:
        return 0.0
    return len(left_set & right_set) / min(len(left_set), len(right_set))


def ngram_similarity(left: str, right: str, n: int = 3) -> float:
    """Dice coefficient over padded character n-grams.

    >>> ngram_similarity("night", "nacht") > 0
    True
    """
    return dice_coefficient(char_ngrams(left, n), char_ngrams(right, n))


def longest_common_substring(left: str, right: str) -> int:
    """Length of the longest contiguous shared substring."""
    if not left or not right:
        return 0
    previous = [0] * (len(right) + 1)
    best = 0
    for left_char in left:
        current = [0] * (len(right) + 1)
        for col, right_char in enumerate(right, start=1):
            if left_char == right_char:
                current[col] = previous[col - 1] + 1
                if current[col] > best:
                    best = current[col]
        previous = current
    return best


def lcs_similarity(left: str, right: str) -> float:
    """Longest common substring length normalised by the shorter string."""
    if not left and not right:
        return 1.0
    if not left or not right:
        return 0.0
    return longest_common_substring(left, right) / min(len(left), len(right))


def monge_elkan(
    left_tokens: Sequence[str],
    right_tokens: Sequence[str],
    base=jaro_winkler,
) -> float:
    """Monge-Elkan token-set similarity: mean best-match of left tokens.

    Asymmetric by definition; callers wanting symmetry should average both
    directions.  With no tokens on the left, returns 0 (no evidence).
    """
    if not left_tokens:
        return 0.0
    if not right_tokens:
        return 0.0
    total = 0.0
    for l_token in left_tokens:
        total += max(base(l_token, r_token) for r_token in right_tokens)
    return total / len(left_tokens)
