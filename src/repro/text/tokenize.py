"""Identifier tokenization for schema element names.

Schema element names arrive in many conventions -- ``ALL_EVENT_VITALS``,
``DATETIME_FIRST_INFO``, ``personBirthDate``, ``Vehicle-Reg-No17`` -- and the
first step of Harmony-style linguistic preprocessing (Smith et al., CIDR 2009,
section 3.2) is to split them into word tokens.  This module implements that
splitting with explicit, deterministic rules:

* underscores, hyphens, dots, slashes and whitespace are separators;
* camelCase and PascalCase boundaries split (``birthDate`` -> ``birth date``);
* acronym runs are kept intact (``XMLSchema`` -> ``xml schema``);
* digit runs split from letters (``date156`` -> ``date 156``), and purely
  numeric tokens can optionally be dropped (they are usually version noise,
  e.g. the ``156`` in ``DATE_BEGIN_156``).

Everything is lowercased; the tokenizer never stems or expands abbreviations
(see :mod:`repro.text.stem` and :mod:`repro.text.abbrev` for those stages).
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator

__all__ = ["tokenize", "split_identifier", "separator_chunks", "ngrams", "char_ngrams"]

# One regex pass extracts the primitive runs: acronym runs (optionally
# terminating a capitalised word), capitalised words, lowercase runs, digits.
_CAMEL_RE = re.compile(
    r"""
    [A-Z]+(?![a-z])      # acronym run: XML, HTTP, or final segment ID
    | [A-Z][a-z]+        # capitalised word: Date, Vehicle
    | [a-z]+             # lowercase run: date, vehicle
    | \d+                # digit run: 156
    """,
    re.VERBOSE,
)

_SEPARATORS_RE = re.compile(r"[\s_\-./:#,;()\[\]{}'\"|+*?!@$%^&<>=~`\\]+")


def split_identifier(name: str) -> list[str]:
    """Split a single identifier into lowercase word tokens.

    >>> split_identifier("DATETIME_FIRST_INFO")
    ['datetime', 'first', 'info']
    >>> split_identifier("personBirthDate")
    ['person', 'birth', 'date']
    >>> split_identifier("XMLSchemaV2")
    ['xml', 'schema', 'v', '2']
    """
    tokens: list[str] = []
    for chunk in separator_chunks(name):
        tokens.extend(match.lower() for match in _CAMEL_RE.findall(chunk))
    return tokens


def separator_chunks(text: str) -> list[str]:
    """The non-empty runs of ``text`` between separators.

    Tokenization never looks across a separator, so ``tokenize(text)`` is
    the concatenation of ``tokenize(chunk)`` over these chunks.
    """
    return [chunk for chunk in _SEPARATORS_RE.split(text) if chunk]


def tokenize(text: str, drop_digits: bool = False, min_length: int = 1) -> list[str]:
    """Tokenize free text or an identifier into lowercase tokens.

    Parameters
    ----------
    text:
        The input string; may be an identifier or documentation prose.
    drop_digits:
        When true, purely numeric tokens are removed.  Numeric suffixes in
        element names (``DATE_BEGIN_156``) are almost always system-assigned
        noise rather than semantics, so match voters set this.
    min_length:
        Tokens shorter than this many characters are removed.
    """
    tokens = split_identifier(text)
    if drop_digits:
        tokens = [token for token in tokens if not token.isdigit()]
    if min_length > 1:
        tokens = [token for token in tokens if len(token) >= min_length]
    return tokens


def ngrams(tokens: Iterable[str], n: int) -> Iterator[tuple[str, ...]]:
    """Yield sliding word n-grams over a token sequence.

    >>> list(ngrams(["a", "b", "c"], 2))
    [('a', 'b'), ('b', 'c')]
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    window = list(tokens)
    for start in range(len(window) - n + 1):
        yield tuple(window[start : start + n])


def char_ngrams(text: str, n: int = 3, pad: bool = True) -> list[str]:
    """Return character n-grams of ``text``, optionally padded at the ends.

    Padding with ``#`` gives boundary-sensitive grams, which improves the
    discriminative power of n-gram similarity on short identifiers.

    >>> char_ngrams("abc", 3)
    ['##a', '#ab', 'abc', 'bc#', 'c##']
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    source = text.lower()
    if pad:
        padding = "#" * (n - 1)
        source = f"{padding}{source}{padding}"
    if len(source) < n:
        return [source] if source else []
    return [source[i : i + n] for i in range(len(source) - n + 1)]
