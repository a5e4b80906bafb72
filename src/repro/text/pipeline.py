"""The linguistic preprocessing pipeline.

This is the front half of the Harmony architecture (CIDR 2009, section 3.2):
"It begins with linguistic preprocessing (e.g., tokenization and stemming) of
element names and any associated documentation."

A :class:`LinguisticPipeline` composes, in order:

1. identifier/prose tokenization  (:mod:`repro.text.tokenize`)
2. abbreviation expansion         (:mod:`repro.text.abbrev`)
3. stopword removal               (:mod:`repro.text.stopwords`)
4. Porter stemming                (:mod:`repro.text.stem`)

and produces a :class:`TermBag`: the multiset of normalised terms for one
schema element name or documentation string.  Voters consume term bags;
nothing downstream re-tokenizes raw strings.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cache, lru_cache
from typing import Iterable

from repro.text.abbrev import AbbreviationTable
from repro.text.stem import stem
from repro.text.stopwords import is_stopword
from repro.text.tokenize import separator_chunks, tokenize

__all__ = ["TermBag", "LinguisticPipeline"]


@dataclass(frozen=True)
class TermBag:
    """A multiset of normalised terms with convenience set/count views."""

    counts: tuple[tuple[str, int], ...]

    @classmethod
    def from_terms(cls, terms: Iterable[str]) -> "TermBag":
        counter = Counter(terms)
        return cls(counts=tuple(sorted(counter.items())))

    @property
    def terms(self) -> list[str]:
        """Terms with multiplicity, in sorted order."""
        expanded: list[str] = []
        for term, count in self.counts:
            expanded.extend([term] * count)
        return expanded

    @property
    def term_set(self) -> frozenset[str]:
        return frozenset(term for term, _ in self.counts)

    @property
    def total(self) -> int:
        """Total token count (evidence mass for the voters)."""
        return sum(count for _, count in self.counts)

    def __len__(self) -> int:
        return len(self.counts)

    def __bool__(self) -> bool:
        return bool(self.counts)

    def __or__(self, other: "TermBag") -> "TermBag":
        merged = Counter(dict(self.counts))
        merged.update(dict(other.counts))
        return TermBag(counts=tuple(sorted(merged.items())))


class LinguisticPipeline:
    """Configurable tokenize -> expand -> filter -> stem pipeline.

    Parameters
    ----------
    abbreviations:
        Abbreviation table; defaults to the built-in enterprise table.
        Pass ``AbbreviationTable.empty()`` to disable expansion.
    use_stemming:
        Disable to keep surface forms (useful in ablations).
    schema_stopwords:
        When true, also remove schema-noise words ("id", "code", ...).
        Name processing sets this; documentation processing leaves it off.
    drop_digits:
        Remove purely numeric tokens (system-assigned suffixes).
    min_token_length:
        Drop very short tokens after expansion.
    """

    def __init__(
        self,
        abbreviations: AbbreviationTable | None = None,
        use_stemming: bool = True,
        schema_stopwords: bool = False,
        drop_digits: bool = True,
        min_token_length: int = 1,
    ):
        self._abbreviations = (
            abbreviations if abbreviations is not None else AbbreviationTable.default()
        )
        self._use_stemming = use_stemming
        self._schema_stopwords = schema_stopwords
        self._drop_digits = drop_digits
        self._min_token_length = min_token_length
        # Memos per instance, keyed by the string alone: a one-string key is
        # the string itself, where a method cache's (self, text) key is a
        # tuple the garbage collector keeps scanning for as long as the
        # entry lives.
        self._terms = lru_cache(maxsize=1 << 15)(self._text_terms)
        self._chunk_terms = lru_cache(maxsize=1 << 17)(self._chunk_terms_uncached)

    @classmethod
    @cache
    def for_names(cls) -> "LinguisticPipeline":
        """The shared default pipeline for element names (schema stopwords on)."""
        return cls(schema_stopwords=True)

    @classmethod
    @cache
    def for_documentation(cls) -> "LinguisticPipeline":
        """The shared default pipeline for documentation prose."""
        return cls(schema_stopwords=False)

    def terms(self, text: str) -> list[str]:
        """Run the full pipeline on a raw string, returning normalised terms.

        Memoised: names and documentation repeat across elements and schemata.
        """
        return list(self._terms(text))

    def shared_terms(self, text: str) -> tuple[str, ...]:
        """:meth:`terms` as the memoised tuple itself (no copy per call)."""
        return self._terms(text)

    def _text_terms(self, text: str) -> tuple[str, ...]:
        # Every stage works within one separator-free chunk, so a new text
        # is assembled from memoised chunks: words repeat across names and
        # documentation far more often than whole strings do.
        terms: list[str] = []
        for chunk in separator_chunks(text):
            terms += self._chunk_terms(chunk)
        return tuple(terms)

    def _chunk_terms_uncached(self, chunk: str) -> tuple[str, ...]:
        tokens = tokenize(
            chunk, drop_digits=self._drop_digits, min_length=self._min_token_length
        )
        tokens = self._abbreviations.expand_all(tokens)
        tokens = [
            token
            for token in tokens
            if not is_stopword(token, schema_mode=self._schema_stopwords)
        ]
        if self._use_stemming:
            tokens = [stem(token) for token in tokens]
        return tuple(tokens)

    def bag(self, text: str) -> TermBag:
        """Run the pipeline and package the result as a :class:`TermBag`."""
        return TermBag.from_terms(self.terms(text))

    def bag_many(self, texts: Iterable[str]) -> TermBag:
        """Union bag over several strings (e.g. name + documentation)."""
        combined: Counter[str] = Counter()
        for text in texts:
            combined.update(self.terms(text))
        return TermBag.from_terms(combined.elements())
