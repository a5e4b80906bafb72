"""Porter stemmer, implemented from scratch.

Harmony's linguistic preprocessing stems element-name and documentation
tokens before comparison (CIDR 2009, section 3.2: "linguistic preprocessing
(e.g., tokenization and stemming)").  This is the classic Porter (1980)
algorithm; it is deterministic, dependency-free, and behaviourally equivalent
to the reference implementation for ordinary English vocabulary.

The only public entry points are :func:`stem` and :func:`stem_all`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

__all__ = ["stem", "stem_all"]

_VOWELS = frozenset("aeiou")


def _is_consonant(word: str, index: int) -> bool:
    """Return True when ``word[index]`` acts as a consonant (Porter's rules)."""
    char = word[index]
    if char in _VOWELS:
        return False
    if char == "y":
        return index == 0 or not _is_consonant(word, index - 1)
    return True


def _measure(stem_part: str) -> int:
    """Porter's *m*: the number of VC sequences in the word form C?(VC)^m V?."""
    forms = []
    for index in range(len(stem_part)):
        forms.append("c" if _is_consonant(stem_part, index) else "v")
    shape = "".join(forms)
    return shape.count("vc")


def _contains_vowel(stem_part: str) -> bool:
    return any(not _is_consonant(stem_part, index) for index in range(len(stem_part)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(word: str) -> bool:
    """True for a consonant-vowel-consonant ending where the last consonant
    is not w, x or y -- the *o condition in Porter's paper."""
    if len(word) < 3:
        return False
    if not _is_consonant(word, len(word) - 3):
        return False
    if _is_consonant(word, len(word) - 2):
        return False
    if not _is_consonant(word, len(word) - 1):
        return False
    return word[-1] not in "wxy"


def _replace_suffix(word: str, suffix: str, replacement: str) -> str:
    return word[: len(word) - len(suffix)] + replacement


def _step_1a(word: str) -> str:
    if word.endswith("sses"):
        return _replace_suffix(word, "sses", "ss")
    if word.endswith("ies"):
        return _replace_suffix(word, "ies", "i")
    if word.endswith("ss"):
        return word
    if word.endswith("s"):
        return word[:-1]
    return word


def _step_1b(word: str) -> str:
    if word.endswith("eed"):
        stem_part = word[:-3]
        if _measure(stem_part) > 0:
            return word[:-1]
        return word

    applied = False
    if word.endswith("ed") and _contains_vowel(word[:-2]):
        word = word[:-2]
        applied = True
    elif word.endswith("ing") and _contains_vowel(word[:-3]):
        word = word[:-3]
        applied = True

    if applied:
        if word.endswith(("at", "bl", "iz")):
            return word + "e"
        if _ends_double_consonant(word) and not word.endswith(("l", "s", "z")):
            return word[:-1]
        if _measure(word) == 1 and _ends_cvc(word):
            return word + "e"
    return word


def _step_1c(word: str) -> str:
    if word.endswith("y") and _contains_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


_STEP_2_RULES = (
    ("ational", "ate"),
    ("tional", "tion"),
    ("enci", "ence"),
    ("anci", "ance"),
    ("izer", "ize"),
    ("abli", "able"),
    ("alli", "al"),
    ("entli", "ent"),
    ("eli", "e"),
    ("ousli", "ous"),
    ("ization", "ize"),
    ("ation", "ate"),
    ("ator", "ate"),
    ("alism", "al"),
    ("iveness", "ive"),
    ("fulness", "ful"),
    ("ousness", "ous"),
    ("aliti", "al"),
    ("iviti", "ive"),
    ("biliti", "ble"),
)

_STEP_3_RULES = (
    ("icate", "ic"),
    ("ative", ""),
    ("alize", "al"),
    ("iciti", "ic"),
    ("ical", "ic"),
    ("ful", ""),
    ("ness", ""),
)

_STEP_4_SUFFIXES = (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
)


def _apply_rule_list(word: str, rules: tuple[tuple[str, str], ...]) -> str:
    for suffix, replacement in rules:
        if word.endswith(suffix):
            stem_part = word[: len(word) - len(suffix)]
            if _measure(stem_part) > 0:
                return stem_part + replacement
            return word
    return word


def _step_4(word: str) -> str:
    for suffix in _STEP_4_SUFFIXES:
        if word.endswith(suffix):
            stem_part = word[: len(word) - len(suffix)]
            if suffix == "ion" and stem_part and stem_part[-1] not in "st":
                continue
            if _measure(stem_part) > 1:
                return stem_part
            return word
    if word.endswith("ion"):
        stem_part = word[:-3]
        if stem_part and stem_part[-1] in "st" and _measure(stem_part) > 1:
            return stem_part
    return word


def _step_5a(word: str) -> str:
    if word.endswith("e"):
        stem_part = word[:-1]
        measure = _measure(stem_part)
        if measure > 1:
            return stem_part
        if measure == 1 and not _ends_cvc(stem_part):
            return stem_part
    return word


def _step_5b(word: str) -> str:
    if _measure(word) > 1 and word.endswith("ll"):
        return word[:-1]
    return word


@lru_cache(maxsize=1 << 16)
def stem(word: str) -> str:
    """Return the Porter stem of ``word`` (lowercased first).

    Words of length <= 2 are returned unchanged, per the original algorithm.
    Memoised: schema vocabularies repeat across elements and schemata.

    >>> stem("relational")
    'relat'
    >>> stem("matching")
    'match'
    >>> stem("vehicles")
    'vehicl'
    """
    word = word.lower()
    if len(word) <= 2 or not word.isalpha():
        return word
    word = _step_1a(word)
    word = _step_1b(word)
    word = _step_1c(word)
    word = _apply_rule_list(word, _STEP_2_RULES)
    word = _apply_rule_list(word, _STEP_3_RULES)
    word = _step_4(word)
    word = _step_5a(word)
    word = _step_5b(word)
    return word


def stem_all(words: Iterable[str]) -> list[str]:
    """Stem every word in an iterable, preserving order."""
    return [stem(word) for word in words]
