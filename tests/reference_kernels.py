"""Reference grid kernels: the voters' former tokenising ``ratios()`` bodies.

Each function re-derives one voter's (similarity, evidence) grid from the
profiles alone -- re-tokenising, building a fresh vocabulary and fitting
TF-IDF over exactly the grid's documents -- the way the voters scored a
(restricted) grid before they read the shared feature cache.  The
cached-feature kernels are tested against these to 1e-9.
"""

from __future__ import annotations

import numpy as np

from repro.matchers.setsim import dice_matrix, jaccard_matrix
from repro.schema.datatypes import DataType, family_table
from repro.text.tfidf import tfidf_similarity_matrix


def _subset(items, positions):
    if positions is None:
        return list(items)
    return [items[position] for position in positions]


def _grid(profile, positions):
    return positions if positions is not None else np.arange(len(profile), dtype=int)


def _set_sizes(documents):
    return np.array([len(set(terms)) for terms in documents], dtype=float)


def _lengths(documents):
    return np.array([len(terms) for terms in documents], dtype=float)


def _min_outer(source_sizes, target_sizes):
    return np.minimum(source_sizes[:, None], target_sizes[None, :])


def exact_name(voter, source, target, source_positions=None, target_positions=None):
    source_names = _subset(source.raw_names, source_positions)
    target_names = _subset(target.raw_names, target_positions)
    similarity = np.zeros((len(source_names), len(target_names)))
    target_index: dict[str, list[int]] = {}
    for col, target_name in enumerate(target_names):
        target_index.setdefault(target_name, []).append(col)
    for row, source_name in enumerate(source_names):
        for col in target_index.get(source_name, ()):
            similarity[row, col] = 1.0
    evidence = np.where(similarity == 1.0, 8.0, 0.5)
    return similarity, evidence


def name_token(voter, source, target, source_positions=None, target_positions=None):
    source_terms = _subset(source.name_terms, source_positions)
    target_terms = _subset(target.name_terms, target_positions)
    similarity = jaccard_matrix(source_terms, target_terms)
    return similarity, _min_outer(_set_sizes(source_terms), _set_sizes(target_terms))


def name_ngram(voter, source, target, source_positions=None, target_positions=None):
    source_grams = _subset(source.name_grams, source_positions)
    target_grams = _subset(target.name_grams, target_positions)
    similarity = dice_matrix(source_grams, target_grams)
    return similarity, _min_outer(_set_sizes(source_grams), _set_sizes(target_grams))


def _canonical_terms(lexicon, profile, positions):
    return [
        [lexicon.canonical(term) for term in profile.name_terms[position]]
        for position in _grid(profile, positions)
    ]


def thesaurus(voter, source, target, source_positions=None, target_positions=None):
    source_terms = _canonical_terms(voter.lexicon, source, source_positions)
    target_terms = _canonical_terms(voter.lexicon, target, target_positions)
    similarity = jaccard_matrix(source_terms, target_terms)
    return similarity, _min_outer(_set_sizes(source_terms), _set_sizes(target_terms))


def _tfidf(source_docs, target_docs):
    similarity = tfidf_similarity_matrix(source_docs, target_docs)
    return similarity, _min_outer(_lengths(source_docs), _lengths(target_docs))


def documentation(voter, source, target, source_positions=None, target_positions=None):
    return _tfidf(
        _subset(source.doc_terms, source_positions),
        _subset(target.doc_terms, target_positions),
    )


def describing_text(voter, source, target, source_positions=None, target_positions=None):
    return _tfidf(
        _subset(source.text_terms, source_positions),
        _subset(target.text_terms, target_positions),
    )


def datatype(voter, source, target, source_positions=None, target_positions=None):
    source_types = _subset(source.data_types, source_positions)
    target_types = _subset(target.data_types, target_positions)
    table, family_index = family_table()
    source_ids = np.array([family_index[t] for t in source_types], dtype=int)
    target_ids = np.array([family_index[t] for t in target_types], dtype=int)
    similarity = table[np.ix_(source_ids, target_ids)]
    source_known = np.array([t is not DataType.UNKNOWN for t in source_types])
    target_known = np.array([t is not DataType.UNKNOWN for t in target_types])
    both_known = source_known[:, None] & target_known[None, :]
    return similarity, np.where(both_known, voter.evidence_mass, 0.0)


def _path_terms(profile, positions):
    documents = []
    for position in _grid(profile, positions):
        terms = list(profile.name_terms[position])
        cursor = profile.parent_index[position]
        while cursor != -1:
            terms.extend(profile.name_terms[cursor])
            cursor = profile.parent_index[cursor]
        documents.append(terms)
    return documents


def path(voter, source, target, source_positions=None, target_positions=None):
    source_paths = _path_terms(source, source_positions)
    target_paths = _path_terms(target, target_positions)
    similarity = jaccard_matrix(source_paths, target_paths)
    return similarity, _min_outer(_set_sizes(source_paths), _set_sizes(target_paths))


def structure(voter, source, target, source_positions=None, target_positions=None):
    source_grid = _grid(source, source_positions)
    target_grid = _grid(target, target_positions)
    base = jaccard_matrix(
        _canonical_terms(voter.lexicon, source, source_grid),
        _canonical_terms(voter.lexicon, target, target_grid),
    )
    return voter._ratios_from_base(base, source, target, source_grid, target_grid)


#: Voter name -> reference kernel.
REFERENCE_KERNELS = {
    "exact_name": exact_name,
    "name_token": name_token,
    "name_ngram": name_ngram,
    "thesaurus": thesaurus,
    "documentation": documentation,
    "describing_text": describing_text,
    "datatype": datatype,
    "path": path,
    "structure": structure,
}
