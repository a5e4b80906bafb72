"""Precomputed linguistic/structural profiles of a schema.

Running voters over a 1378x784 match means ~10^6 pairs (CIDR 2009, section
3.1); re-tokenizing names per pair would be quadratic waste.  A
:class:`SchemaProfile` runs the linguistic pipeline **once per element** and
caches everything voters need, keyed by element position:

* stemmed name terms and documentation terms
* combined describing-text terms
* character 3-grams of the raw name
* normalised data types, depths, parent/child indexes

Profiles are cheap to slice: voters accept an optional index array so that
incremental (sub-tree) matching reuses the same profile.

For corpus-scale batch matching (see :mod:`repro.batch` and
``docs/architecture.md``), a :class:`FeatureSpace` goes one level further: it
interns every token into a shared vocabulary and caches **per-schema sparse
feature matrices** (token-set incidences and TF-IDF count matrices).  With
those in place, one schema-vs-schema voter run reduces to a handful of
products -- no per-match re-tokenization, vocabulary building, or
synonym canonicalisation -- which is what the voters' grid and pair
kernels (:meth:`~repro.matchers.base.MatchVoter.grid_ratios`,
:meth:`~repro.matchers.base.MatchVoter.fast_ratios`) are built on.  An
unrestricted grid is one scipy sparse product.  A restricted grid (an
increment) goes through the *postings kernel* instead: each feature
keeps its transpose (per distinct token it holds, the rows holding it),
and one ``np.bincount`` over the restricted rows' entries expanded
through the target's postings yields the dense grid, bit-identical to
the sliced sparse product without scipy's per-call overhead.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np
from scipy import sparse

from repro.schema.datatypes import DataType, family_table
from repro.schema.element import SchemaElement
from repro.schema.schema import Schema
from repro.text.pipeline import LinguisticPipeline
from repro.text.thesaurus import SynonymLexicon
from repro.text.tokenize import char_ngrams

__all__ = [
    "SchemaProfile",
    "build_profile",
    "TokenInterner",
    "FeatureSpace",
    "densify",
    "gather_pairs",
]


@dataclass
class SchemaProfile:
    """Cached per-element features for one schema (see module docstring).

    All list attributes are indexed by element *position* -- the index of the
    element in schema iteration order -- and ``index_of`` maps element ids to
    positions.  Per-element sequences are tuples: the term tuples are the
    linguistic pipeline's memoised ones, shared rather than copied, and a
    tuple of strings or ints drops out of the garbage collector's scans,
    where a list would stay tracked for the profile's lifetime.
    """

    schema: Schema
    element_ids: list[str]
    index_of: dict[str, int]
    name_terms: list[tuple[str, ...]]
    doc_terms: list[tuple[str, ...]]
    text_terms: list[tuple[str, ...]]
    name_grams: list[tuple[str, ...]]
    raw_names: list[str]
    data_types: list[DataType]
    depths: np.ndarray
    parent_index: np.ndarray  # -1 for roots
    children_index: list[tuple[int, ...]]

    def __len__(self) -> int:
        return len(self.element_ids)

    def element(self, position: int) -> SchemaElement:
        return self.schema.element(self.element_ids[position])

    def positions_of(self, element_ids: list[str]) -> np.ndarray:
        """Positions for a list of element ids (for sub-tree restriction)."""
        return np.array([self.index_of[element_id] for element_id in element_ids], dtype=int)

    def subtree_positions(self, root_id: str) -> np.ndarray:
        """Positions of a sub-tree (the unit of incremental matching)."""
        ids = [element.element_id for element in self.schema.subtree(root_id)]
        return self.positions_of(ids)

    def leaf_positions(self) -> np.ndarray:
        return np.array(
            [
                position
                for position, children in enumerate(self.children_index)
                if not children
            ],
            dtype=int,
        )


def build_profile(
    schema: Schema,
    name_pipeline: LinguisticPipeline | None = None,
    doc_pipeline: LinguisticPipeline | None = None,
) -> SchemaProfile:
    """Run the linguistic pipeline over every element of ``schema``.

    ``name_pipeline`` defaults to the schema-stopword-aware name pipeline and
    ``doc_pipeline`` to the prose pipeline, matching Harmony's preprocessing.
    """
    names = name_pipeline if name_pipeline is not None else LinguisticPipeline.for_names()
    docs = doc_pipeline if doc_pipeline is not None else LinguisticPipeline.for_documentation()

    element_ids: list[str] = []
    index_of: dict[str, int] = {}
    name_terms: list[tuple[str, ...]] = []
    doc_terms: list[tuple[str, ...]] = []
    text_terms: list[tuple[str, ...]] = []
    name_grams: list[tuple[str, ...]] = []
    raw_names: list[str] = []
    data_types: list[DataType] = []
    depths: list[int] = []
    parent_positions: list[int] = []
    children_index: list[list[int]] = []

    for position, element in enumerate(schema):
        element_ids.append(element.element_id)
        index_of[element.element_id] = position
        element_name_terms = names.shared_terms(element.name)
        element_doc_terms = (
            docs.shared_terms(element.documentation) if element.documentation else ()
        )
        name_terms.append(element_name_terms)
        doc_terms.append(element_doc_terms)
        text_terms.append(
            element_name_terms + element_doc_terms if element_doc_terms else element_name_terms
        )
        raw_names.append(element.name.lower())
        name_grams.append(tuple(char_ngrams(element.name.lower(), 3)))
        data_types.append(element.data_type)
        depths.append(schema.depth(element))
        children_index.append([])

    for position, element in enumerate(schema):
        if element.parent_id is None:
            parent_positions.append(-1)
        else:
            parent_position = index_of[element.parent_id]
            parent_positions.append(parent_position)
            children_index[parent_position].append(position)

    return SchemaProfile(
        schema=schema,
        element_ids=element_ids,
        index_of=index_of,
        name_terms=name_terms,
        doc_terms=doc_terms,
        text_terms=text_terms,
        name_grams=name_grams,
        raw_names=raw_names,
        data_types=data_types,
        depths=np.array(depths, dtype=int),
        parent_index=np.array(parent_positions, dtype=int),
        children_index=[tuple(children) for children in children_index],
    )


# ----------------------------------------------------------------------
# Corpus-scale feature cache (the batch fast path's foundation)
# ----------------------------------------------------------------------


class TokenInterner:
    """Growable token -> column-id mapping shared across schema profiles.

    Unlike :class:`repro.text.tfidf.Vocabulary` (fit once per model), an
    interner keeps growing as new schemata join the corpus; feature matrices
    store raw CSR arrays and are re-materialised at the current width, so a
    matrix built when the vocabulary had 3k tokens still multiplies cleanly
    against one built at 5k.
    """

    __slots__ = ("_index",)

    def __init__(self) -> None:
        self._index: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def intern(self, token: str) -> int:
        existing = self._index.get(token)
        if existing is not None:
            return existing
        new_id = len(self._index)
        self._index[token] = new_id
        return new_id

    def intern_rows(
        self, documents: Sequence[Sequence[str]]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Row number and id of every token of ``documents``, in order,
        interning each new token as it first appears."""
        index = self._index
        ids = [
            index.setdefault(token, len(index))
            for document in documents
            for token in document
        ]
        rows = np.repeat(np.arange(len(documents)), [len(d) for d in documents])
        return rows, np.asarray(ids, dtype=np.int64)


class _Postings(NamedTuple):
    """A feature transposed over its own distinct tokens: ``vocab[i]``'s
    rows, ascending, with their values, at ``rows[ptr[i]:ptr[i + 1]]`` and
    ``values[...]``; ``tokens`` holds each posting's token id.  Every array
    is sized by the feature's entries, never by the shared vocabulary."""

    vocab: np.ndarray
    ptr: np.ndarray
    tokens: np.ndarray
    rows: np.ndarray
    values: np.ndarray


@dataclass
class _Feature:
    """Raw CSR arrays of one per-schema feature matrix (width-agnostic)."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    interner: TokenInterner
    #: Number of stored entries per row (set sizes for set features).
    row_sizes: np.ndarray = field(init=False, repr=False)
    _materialised: sparse.csr_matrix | None = field(default=None, repr=False)
    _postings: _Postings | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.row_sizes = np.diff(self.indptr).astype(float)

    def matrix(self) -> sparse.csr_matrix:
        """Materialise at the interner's *current* width.

        Kept until the vocabulary grows: every match against this profile
        reuses one matrix instead of re-validating the CSR arrays.  Rows
        are stored sorted and duplicate-free (canonical CSR), so no sparse
        operation ever rewrites the shared arrays in place.
        """
        width = max(len(self.interner), 1)
        cached = self._materialised
        if cached is None or cached.shape[1] != width:
            cached = sparse.csr_matrix(
                (self.data, self.indices, self.indptr),
                shape=(len(self.indptr) - 1, width),
            )
            self._materialised = cached
        return cached

    def postings(self) -> _Postings:
        """The feature's postings, built on first request and kept: the
        arrays never change, so neither does their transpose."""
        if self._postings is None:
            self._postings = _postings(*_entries(self, None))
        return self._postings


def _rows_feature(
    documents: Sequence[Sequence[str]], interner: TokenInterner, counts: bool
) -> _Feature:
    """Canonical CSR rows (sorted, duplicate-free ids) of ``documents``:
    token counts when ``counts``, else ones."""
    rows, ids = interner.intern_rows(documents)
    width = max(len(interner), 1)
    keys, multiplicity = np.unique(rows * width + ids, return_counts=True)
    key_rows = keys // width
    indptr = np.zeros(len(documents) + 1, dtype=np.int64)
    np.cumsum(np.bincount(key_rows, minlength=len(documents)), out=indptr[1:])
    return _Feature(
        indptr=indptr,
        indices=keys - key_rows * width,
        data=multiplicity.astype(np.float64) if counts else np.ones(len(keys)),
        interner=interner,
    )


def _set_feature(documents: Sequence[Sequence[str]], interner: TokenInterner) -> _Feature:
    """Binary set-incidence rows (one per document) over ``interner``."""
    return _rows_feature(documents, interner, counts=False)


def _bag_feature(documents: Sequence[Sequence[str]], interner: TokenInterner) -> _Feature:
    """Token-count rows (bags, for TF-IDF) over ``interner``."""
    return _rows_feature(documents, interner, counts=True)


def _path_documents(profile: SchemaProfile) -> list[list[str]]:
    """Per-element name terms of the element plus all its ancestors."""
    documents: list[list[str]] = []
    for position in range(len(profile)):
        terms = list(profile.name_terms[position])
        cursor = int(profile.parent_index[position])
        while cursor != -1:
            terms.extend(profile.name_terms[cursor])
            cursor = int(profile.parent_index[cursor])
        documents.append(terms)
    return documents


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges ``starts[i] : starts[i] + lengths[i]``, concatenated."""
    first = np.cumsum(lengths) - lengths
    return np.repeat(starts - first, lengths) + np.arange(int(lengths.sum()))


def _entries(
    feature: _Feature, positions: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row, token id and value of every stored entry of ``feature``'s rows
    at ``positions`` (all rows for None), in CSR order: row by row, tokens
    ascending within a row.  Rows are numbered by their place in
    ``positions``, so a repeated position repeats its row."""
    if positions is None:
        rows = np.repeat(np.arange(len(feature.row_sizes)), np.diff(feature.indptr))
        return rows, feature.indices, feature.data
    starts = feature.indptr[positions]
    lengths = feature.indptr[positions + 1] - starts
    entries = _ranges(starts, lengths)
    rows = np.repeat(np.arange(len(positions)), lengths)
    return rows, feature.indices[entries], feature.data[entries]


def _postings(rows: np.ndarray, tokens: np.ndarray, values: np.ndarray) -> _Postings:
    """Entries regrouped by token; the stable sort keeps each token's rows,
    and each row's tokens, in ascending order."""
    order = np.argsort(tokens, kind="stable")
    tokens = tokens[order]
    starts = np.flatnonzero(np.diff(tokens, prepend=-1))
    ptr = np.append(starts, len(tokens))
    return _Postings(tokens[starts], ptr, tokens, rows[order], values[order])


def _postings_product(
    entries: tuple[np.ndarray, np.ndarray, np.ndarray],
    n_rows: int,
    postings: _Postings,
    n_cols: int,
) -> np.ndarray:
    """The dense ``(n_rows, n_cols)`` product of source ``entries`` with a
    target side's ``postings``.

    Each source entry meets the postings of its token; one bincount adds
    every cell's terms in the order of its row's tokens, the order scipy's
    ``csr_matmat`` adds them, so the grid equals the sparse product's
    bit for bit.  A source token the target side lacks (among them any
    interned after the target's feature was built) meets no row.
    """
    rows, tokens, values = entries
    vocab, ptr = postings.vocab, postings.ptr
    slots = np.searchsorted(vocab, tokens)
    known = slots < len(vocab)
    known[known] = vocab[slots[known]] == tokens[known]
    if not known.all():
        rows, slots, values = rows[known], slots[known], values[known]
    starts = ptr[slots]
    lengths = ptr[slots + 1] - starts
    matches = _ranges(starts, lengths)
    cells = np.repeat(rows * n_cols, lengths) + postings.rows[matches]
    weights = np.repeat(values, lengths) * postings.values[matches]
    grid = np.bincount(cells, weights=weights, minlength=n_rows * n_cols)
    # Without a single term bincount answers in integers.
    return grid.astype(np.float64, copy=False).reshape(n_rows, n_cols)


def _idf(df: np.ndarray, n_documents: int) -> np.ndarray:
    """Smoothed IDF, as :func:`repro.text.tfidf.tfidf_similarity_matrix` fits it."""
    return np.log((1.0 + n_documents) / (1.0 + df)) + 1.0


def _unit_tfidf(
    rows: np.ndarray, tokens: np.ndarray, counts: np.ndarray, idf: np.ndarray, n_rows: int
) -> np.ndarray:
    """Row-wise L2-normalised ``count * idf`` of stored entries; each row's
    norm sums its entries in the order given."""
    weights = counts * idf[tokens]
    norms = np.sqrt(np.bincount(rows, weights=weights * weights, minlength=n_rows))
    norms[norms == 0.0] = 1.0
    return weights * (1.0 / norms)[rows]


#: Grids up to this many cells gather fastest through a dense scratch
#: array; larger grids switch to the nnz-proportional searchsorted path.
_DENSE_GATHER_LIMIT = 4_000_000


def densify(product: sparse.spmatrix | np.ndarray) -> np.ndarray:
    """A pair-product as a dense array."""
    return product if isinstance(product, np.ndarray) else product.toarray()


def gather_pairs(
    product: sparse.spmatrix | np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """Values of a pair-product at explicit (row, col) pairs.

    For interactive-scale grids densifying once and indexing is the
    fastest gather; beyond :data:`_DENSE_GATHER_LIMIT` cells the dense
    scratch would dominate, so the gather flattens the canonical CSR
    structure and binary-searches it -- memory stays proportional to the
    product's nonzeros, work to the candidates.
    """
    n_rows, n_cols = product.shape
    if n_rows * n_cols <= _DENSE_GATHER_LIMIT:
        return densify(product)[rows, cols]
    matrix = product.tocsr()
    matrix.sum_duplicates()
    matrix.sort_indices()
    if matrix.nnz == 0:
        return np.zeros(rows.size)
    nnz_rows = np.repeat(
        np.arange(n_rows, dtype=np.int64), np.diff(matrix.indptr)
    )
    flat = nnz_rows * n_cols + matrix.indices
    query = rows.astype(np.int64) * n_cols + cols.astype(np.int64)
    positions = np.minimum(np.searchsorted(flat, query), flat.size - 1)
    return np.where(flat[positions] == query, matrix.data[positions], 0.0)


class FeatureSpace:
    """Shared vocabulary plus per-profile cached sparse feature matrices.

    One ``FeatureSpace`` serves a whole corpus of schemata: tokens are
    interned once, and each profile's incidence / count matrices are built
    once and reused by every subsequent match against any other profile in
    the space.  Feature kinds:

    ``name``       binary incidence over pipeline-normalised name terms
    ``gram``       binary incidence over character 3-grams of the raw name
    ``path``       binary incidence over the element's and ancestors' terms
    ``doc``        token *counts* over documentation terms (for TF-IDF)
    ``text``       token counts over name+documentation terms (for TF-IDF)
    ``doc_sets``   binary incidence over documentation terms (for blocking)
    ``canonical``  binary incidence over thesaurus-canonicalised name terms
                   (cached per lexicon instance)

    The space also owns the profile cache, :attr:`profiles`, which every
    engine and runner sharing the space reads and fills.  Both caches
    hold strong references (id-keyed); call :meth:`release` for a schema
    no caller will pass again, or :meth:`clear` between unrelated corpora,
    to release memory.

    One space may be shared across threads (the serving tier shares one
    per process): every method takes :attr:`lock`, because interning is a
    check-then-assign on the growing shared vocabulary and cross-profile
    products require both sides materialised at one vocabulary width.
    The pattern throughout (and for external callers touching raw
    features, like the blocking stage) is *snapshot under the lock,
    compute outside it*: materialised matrices and postings are
    immutable, so the lock serialises feature derivation, never the
    matching math.
    """

    _SET_KINDS = ("name", "gram", "path", "doc_sets")
    _BAG_KINDS = ("doc", "text")

    def __init__(self, lexicon: SynonymLexicon | None = None):
        self.lexicon = lexicon if lexicon is not None else SynonymLexicon.default()
        self._interners: dict[str, TokenInterner] = {}
        self._features: dict[tuple[int, str], _Feature] = {}
        self._vectors: dict[tuple[int, str], np.ndarray] = {}
        self._pinned: dict[int, object] = {}
        #: Dense set products served by :meth:`stacked` while its block runs.
        self._products: dict[tuple[int, int, str], np.ndarray] = {}
        #: ``{id(schema): SchemaProfile}``, filled by
        #: :meth:`repro.match.engine.HarmonyMatchEngine.profile`.
        self.profiles: dict[int, SchemaProfile] = {}
        #: Reentrant on purpose: pair-level methods re-enter :meth:`feature`.
        self.lock = threading.RLock()

    def clear(self) -> None:
        """Drop all cached profiles, features and pinned profile references."""
        with self.lock:
            self.profiles.clear()
            self._interners.clear()
            self._features.clear()
            self._vectors.clear()
            self._pinned.clear()
            self._products.clear()

    def evict(self, profile: SchemaProfile) -> None:
        """Drop ``profile``'s cached features and vectors, and its pin.

        Keeps a long-lived space (one per serving process) from pinning
        every superseded profile; the shared vocabulary stays.
        """
        key = id(profile)
        with self.lock:
            for cache in (self._features, self._vectors):
                for cache_key in [k for k in cache if k[0] == key]:
                    del cache[cache_key]
            self._pinned.pop(key, None)

    def release(self, schema: Schema) -> None:
        """Drop ``schema``'s cached profile and that profile's features."""
        with self.lock:
            profile = self.profiles.pop(id(schema), None)
            if profile is not None:
                self.evict(profile)

    # -- features -------------------------------------------------------
    def _interner(self, key: str) -> TokenInterner:
        interner = self._interners.get(key)
        if interner is None:
            interner = TokenInterner()
            self._interners[key] = interner
        return interner

    def _documents(
        self, profile: SchemaProfile, kind: str, lexicon: SynonymLexicon
    ) -> Sequence[Sequence[str]]:
        if kind == "name":
            return profile.name_terms
        if kind == "gram":
            return profile.name_grams
        if kind == "path":
            return _path_documents(profile)
        if kind in ("doc", "doc_sets"):
            return profile.doc_terms
        if kind == "text":
            return profile.text_terms
        if kind == "canonical":
            return [
                [lexicon.canonical(term) for term in terms]
                for terms in profile.name_terms
            ]
        raise ValueError(f"unknown feature kind {kind!r}")

    def _key(self, kind: str, lexicon: SynonymLexicon | None) -> str:
        """A kind's cache key: canonical features are kept per lexicon."""
        if kind != "canonical":
            return kind
        return f"canonical:{id(lexicon if lexicon is not None else self.lexicon)}"

    def feature(
        self,
        profile: SchemaProfile,
        kind: str,
        lexicon: SynonymLexicon | None = None,
    ) -> _Feature:
        """The cached raw feature for ``profile`` (built on first request)."""
        lexicon = lexicon if lexicon is not None else self.lexicon
        cache_key = (id(profile), self._key(kind, lexicon))
        with self.lock:
            cached = self._features.get(cache_key)
            if cached is None:
                interner = self._interner(cache_key[1])
                documents = self._documents(profile, kind, lexicon)
                if kind in self._BAG_KINDS:
                    cached = _bag_feature(documents, interner)
                else:
                    cached = _set_feature(documents, interner)
                self._features[cache_key] = cached
                self._pinned[id(profile)] = profile
                if kind == "canonical":
                    self._pinned[id(lexicon)] = lexicon
            return cached

    def set_sizes(
        self,
        profile: SchemaProfile,
        kind: str,
        lexicon: SynonymLexicon | None = None,
    ) -> np.ndarray:
        """Per-element set sizes for a *set* feature kind."""
        return self.feature(profile, kind, lexicon).row_sizes

    def _matrices(
        self,
        source: SchemaProfile,
        target: SchemaProfile,
        kind: str,
        lexicon: SynonymLexicon | None = None,
    ) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
        """Both sides' feature matrices at one vocabulary width.

        Builds BOTH features before materialising either (building the
        second side may grow the vocabulary), all under the lock; the
        products callers run on the snapshots are pure reads and run
        outside it, so concurrent matches don't queue behind the math.
        """
        with self.lock:
            source_feature = self.feature(source, kind, lexicon)
            target_feature = self.feature(target, kind, lexicon)
            return source_feature.matrix(), target_feature.matrix()

    def _restricted(
        self,
        source: SchemaProfile,
        target: SchemaProfile,
        kind: str,
        lexicon: SynonymLexicon | None,
        source_positions: np.ndarray | None,
        target_positions: np.ndarray | None,
    ) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], int, _Postings, int]:
        """A restricted grid's operands: the source rows' entries, their
        count, the target columns' postings and their count.

        An unrestricted target's postings are its feature's cached ones,
        built under the lock as :meth:`_matrices` builds matrices; a
        restricted target's are regrouped from its rows per call.
        """
        with self.lock:
            source_feature = self.feature(source, kind, lexicon)
            target_feature = self.feature(target, kind, lexicon)
            if target_positions is None:
                postings = target_feature.postings()
        if target_positions is not None:
            postings = _postings(*_entries(target_feature, target_positions))
        n_rows = len(source) if source_positions is None else len(source_positions)
        n_cols = len(target) if target_positions is None else len(target_positions)
        return _entries(source_feature, source_positions), n_rows, postings, n_cols

    def set_product(
        self,
        source: SchemaProfile,
        target: SchemaProfile,
        kind: str,
        lexicon: SynonymLexicon | None = None,
        source_positions: np.ndarray | None = None,
        target_positions: np.ndarray | None = None,
    ) -> sparse.csr_matrix | np.ndarray:
        """Pairwise intersection counts of a set feature.

        A restricted grid (either side's positions given) is a dense
        array from the postings kernel, at a cost in proportion to its
        own rows and their postings; an unrestricted one is one scipy
        product (a dense one while :meth:`stacked` serves it), which
        stays sparse for large grids.  :func:`densify` it for a grid, or
        :func:`gather_pairs` it at candidate pairs.
        """
        if source_positions is not None or target_positions is not None:
            return _postings_product(
                *self._restricted(
                    source, target, kind, lexicon, source_positions, target_positions
                )
            )
        served = self._products.get((id(source), id(target), self._key(kind, lexicon)))
        if served is not None:
            return served
        source_matrix, target_matrix = self._matrices(source, target, kind, lexicon)
        return source_matrix @ target_matrix.T

    @contextmanager
    def stacked(self, source: SchemaProfile, targets: Sequence[SchemaProfile]):
        """Within the block, serve :meth:`set_product` of ``source`` against
        each target from one product per set feature they all hold.

        A query matched against many schemata then pays scipy's per-call
        overhead once per kind, not once per pair.  Set products are
        integer counts, so a served product equals the per-pair one
        exactly.  A stack over :data:`_DENSE_GATHER_LIMIT` cells is not
        built, since its products would all be held at once.
        """
        stacks = []
        if 0 < len(source) * sum(map(len, targets)) <= _DENSE_GATHER_LIMIT:
            with self.lock:
                for profile_id, key in list(self._features):
                    if profile_id != id(source) or key in self._BAG_KINDS:
                        continue
                    features = [self._features.get((id(t), key)) for t in targets]
                    if all(feature is not None for feature in features):
                        source_matrix = self._features[(profile_id, key)].matrix()
                        stacks.append((key, source_matrix, features))
        bounds = np.cumsum([0, *(len(target) for target in targets)])
        served = []
        for key, source_matrix, features in stacks:
            # The targets' raw rows, stacked at the source's width.
            offsets = np.cumsum([0, *(f.indptr[-1] for f in features)])
            stack = sparse.csr_matrix(
                (
                    np.concatenate([f.data for f in features]),
                    np.concatenate([f.indices for f in features]),
                    np.concatenate(
                        [f.indptr[:-1] + o for f, o in zip(features, offsets)]
                        + [offsets[-1:]]
                    ),
                ),
                shape=(bounds[-1], source_matrix.shape[1]),
            )
            product = (source_matrix @ stack.T).toarray()
            for target, start, stop in zip(targets, bounds[:-1], bounds[1:]):
                served.append((id(source), id(target), key))
                self._products[served[-1]] = product[:, start:stop]
        try:
            yield
        finally:
            for served_key in served:
                self._products.pop(served_key, None)

    # -- derived per-profile vectors ------------------------------------
    def _vector(self, profile: SchemaProfile, key: str, build) -> np.ndarray:
        cache_key = (id(profile), key)
        with self.lock:
            cached = self._vectors.get(cache_key)
            if cached is None:
                cached = build(profile)
                self._vectors[cache_key] = cached
                self._pinned[id(profile)] = profile
            return cached

    def raw_name_ids(self, profile: SchemaProfile) -> np.ndarray:
        """Interned ids of the raw (lowercased) element names."""
        interner = self._interner("raw_name")
        return self._vector(
            profile,
            "raw_name_ids",
            lambda p: np.array([interner.intern(name) for name in p.raw_names], dtype=np.int64),
        )

    def doc_lengths(self, profile: SchemaProfile) -> np.ndarray:
        """Documentation token counts per element (evidence for TF-IDF voters)."""
        return self._vector(
            profile,
            "doc_lengths",
            lambda p: np.array([len(terms) for terms in p.doc_terms], dtype=np.float64),
        )

    def text_lengths(self, profile: SchemaProfile) -> np.ndarray:
        """Describing-text token counts per element."""
        return self._vector(
            profile,
            "text_lengths",
            lambda p: np.array([len(terms) for terms in p.text_terms], dtype=np.float64),
        )

    def type_ids(self, profile: SchemaProfile) -> np.ndarray:
        """Data-type family indices into :func:`repro.schema.datatypes.family_table`."""
        _, family_index = family_table()
        return self._vector(
            profile,
            "type_ids",
            lambda p: np.array([family_index[t] for t in p.data_types], dtype=np.int64),
        )

    def type_known(self, profile: SchemaProfile) -> np.ndarray:
        """Boolean mask of elements whose data type is not UNKNOWN."""
        return self._vector(
            profile,
            "type_known",
            lambda p: np.array(
                [t is not DataType.UNKNOWN for t in p.data_types], dtype=bool
            ),
        )

    # -- TF-IDF ---------------------------------------------------------
    def tfidf_product(
        self,
        source: SchemaProfile,
        target: SchemaProfile,
        kind: str,
        source_positions: np.ndarray | None = None,
        target_positions: np.ndarray | None = None,
    ) -> sparse.csr_matrix | np.ndarray:
        """TF-IDF cosines of a bag feature, IDF fit over the (restricted)
        rows and columns only: a dense array from the postings kernel for
        a restricted grid, one sparse scipy product for the full one.

        Reproduces :func:`repro.text.tfidf.tfidf_similarity_matrix` over
        those documents (same smoothed-IDF formula, same L2 normalisation)
        from the cached count matrices: global-vocabulary columns absent
        from them have zero counts on both sides and cannot contribute.
        Bag rows store one entry per distinct token, so a bincount of the
        token ids is each token's document frequency.
        """
        if source_positions is not None or target_positions is not None:
            entries, n_rows, postings, n_cols = self._restricted(
                source, target, kind, None, source_positions, target_positions
            )
            rows, tokens, counts = entries
            idf = _idf(np.bincount(np.concatenate((tokens, postings.tokens))), n_rows + n_cols)
            unit = _unit_tfidf(postings.rows, postings.tokens, postings.values, idf, n_cols)
            return _postings_product(
                (rows, tokens, _unit_tfidf(rows, tokens, counts, idf, n_rows)),
                n_rows,
                postings._replace(values=unit),
                n_cols,
            )
        source_counts, target_counts = self._matrices(source, target, kind)
        width = source_counts.shape[1]
        df = np.bincount(source_counts.indices, minlength=width) + np.bincount(
            target_counts.indices, minlength=width
        )
        idf = _idf(df, source_counts.shape[0] + target_counts.shape[0])

        def weighted(counts: sparse.csr_matrix) -> sparse.csr_matrix:
            rows = np.repeat(np.arange(counts.shape[0]), np.diff(counts.indptr))
            return sparse.csr_matrix(
                (
                    _unit_tfidf(rows, counts.indices, counts.data, idf, counts.shape[0]),
                    counts.indices,
                    counts.indptr,
                ),
                shape=counts.shape,
            )

        return weighted(source_counts) @ weighted(target_counts).T
