"""Reference grid kernels: the voters' former tokenising ``ratios()`` bodies.

Each function re-derives one voter's (similarity, evidence) grid from the
profiles alone -- re-tokenising, building a fresh vocabulary and fitting
TF-IDF over exactly the grid's documents -- the way the voters scored a
(restricted) grid before they read the shared feature cache.  The
cached-feature kernels are tested against these to 1e-9.

:func:`concept_match_matrix` is the concept-level referee: the former
per-pair loop of :func:`repro.summarize.concept_match_matrix`, which now
scores every concept pair through one
:func:`~repro.matchers.structure.mean_best_match` call.

:func:`sliced_set_product` and :func:`sliced_tfidf_product` are the
restricted-product referees: the scipy bodies
:meth:`~repro.matchers.FeatureSpace.set_product` and
:meth:`~repro.matchers.FeatureSpace.tfidf_product` ran on a restricted
grid before the postings kernel (rows sliced from both sides' cached
matrices, then one sparse product).  The kernel must equal them exactly.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

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


def _grid_children(profile, in_grid, grid):
    return [
        [
            in_grid[child]
            for child in profile.children_index[position]
            if child in in_grid
        ]
        for position in grid
    ]


def _structure_from_base(
    leaf_context_evidence, base, source, target, source_grid, target_grid
):
    """The structure voter's former per-grid body: in-grid dict remaps and
    a Python loop over container x container pairs."""
    source_in_grid = {position: row for row, position in enumerate(source_grid)}
    target_in_grid = {position: col for col, position in enumerate(target_grid)}
    source_children = _grid_children(source, source_in_grid, source_grid)
    target_children = _grid_children(target, target_in_grid, target_grid)

    similarity = np.zeros_like(base)
    evidence = np.zeros_like(base)

    container_rows = [row for row, kids in enumerate(source_children) if kids]
    container_cols = [col for col, kids in enumerate(target_children) if kids]
    leaf_rows = np.array(
        [row for row, kids in enumerate(source_children) if not kids], dtype=int
    )
    leaf_cols = np.array(
        [col for col, kids in enumerate(target_children) if not kids], dtype=int
    )

    # Container vs leaf: mild structural contradiction (bulk assignment).
    if container_rows and leaf_cols.size:
        similarity[np.ix_(container_rows, leaf_cols)] = 0.1
        evidence[np.ix_(container_rows, leaf_cols)] = 1.0
    if leaf_rows.size and container_cols:
        similarity[np.ix_(leaf_rows, container_cols)] = 0.1
        evidence[np.ix_(leaf_rows, container_cols)] = 1.0

    # Container vs container: symmetrised mean-best-match of children.
    for row in container_rows:
        source_kids = source_children[row]
        for col in container_cols:
            target_kids = target_children[col]
            block = base[np.ix_(source_kids, target_kids)]
            forward = block.max(axis=1).mean()
            backward = block.max(axis=0).mean()
            similarity[row, col] = 0.5 * (forward + backward)
            evidence[row, col] = min(len(source_kids), len(target_kids))

    # Leaf vs leaf: inherit the parents' name similarity as context.
    if leaf_rows.size and leaf_cols.size:
        source_parent_row = np.array(
            [
                source_in_grid.get(source.parent_index[source_grid[row]], -1)
                for row in leaf_rows
            ],
            dtype=int,
        )
        target_parent_col = np.array(
            [
                target_in_grid.get(target.parent_index[target_grid[col]], -1)
                for col in leaf_cols
            ],
            dtype=int,
        )
        valid_rows = source_parent_row >= 0
        valid_cols = target_parent_col >= 0
        if valid_rows.any() and valid_cols.any():
            rows = leaf_rows[valid_rows]
            cols = leaf_cols[valid_cols]
            parent_ix = np.ix_(
                source_parent_row[valid_rows], target_parent_col[valid_cols]
            )
            similarity[np.ix_(rows, cols)] = base[parent_ix]
            evidence[np.ix_(rows, cols)] = leaf_context_evidence

    return similarity, evidence


def structure(voter, source, target, source_positions=None, target_positions=None):
    source_grid = _grid(source, source_positions)
    target_grid = _grid(target, target_positions)
    base = jaccard_matrix(
        _canonical_terms(voter.lexicon, source, source_grid),
        _canonical_terms(voter.lexicon, target, target_grid),
    )
    return _structure_from_base(
        voter.leaf_context_evidence, base, source, target, source_grid, target_grid
    )


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


def concept_match_matrix(source_summary, target_summary, result):
    """Concepts x concepts symmetrised mean-best-match, one pair at a time."""
    source_concepts = source_summary.concepts
    target_concepts = target_summary.concepts
    matrix = result.matrix
    source_index = {sid: i for i, sid in enumerate(matrix.source_ids)}
    target_index = {tid: j for j, tid in enumerate(matrix.target_ids)}

    source_members = [
        [source_index[eid] for eid in source_summary.elements_of(c.concept_id)
         if eid in source_index]
        for c in source_concepts
    ]
    target_members = [
        [target_index[eid] for eid in target_summary.elements_of(c.concept_id)
         if eid in target_index]
        for c in target_concepts
    ]

    scores = np.zeros((len(source_concepts), len(target_concepts)))
    raw = matrix.scores
    for row, source_ids in enumerate(source_members):
        if not source_ids:
            continue
        for col, target_ids in enumerate(target_members):
            if not target_ids:
                continue
            block = raw[np.ix_(source_ids, target_ids)]
            forward = block.max(axis=1).mean()
            backward = block.max(axis=0).mean()
            scores[row, col] = 0.5 * (forward + backward)
    return source_concepts, target_concepts, scores


# ----------------------------------------------------------------------
# Restricted-product referees (sliced scipy products)
# ----------------------------------------------------------------------
def _sliced_matrices(
    space, source, target, kind, lexicon=None, source_positions=None, target_positions=None
):
    with space.lock:
        source_feature = space.feature(source, kind, lexicon)
        target_feature = space.feature(target, kind, lexicon)
        source_matrix = source_feature.matrix()
        target_matrix = target_feature.matrix()
    if source_positions is not None:
        source_matrix = source_matrix[source_positions]
    if target_positions is not None:
        target_matrix = target_matrix[target_positions]
    return source_matrix, target_matrix


def sliced_set_product(
    space, source, target, kind, lexicon=None, source_positions=None, target_positions=None
):
    """Intersection counts of a set feature over the sliced rows."""
    source_matrix, target_matrix = _sliced_matrices(
        space, source, target, kind, lexicon, source_positions, target_positions
    )
    return source_matrix @ target_matrix.T


def sliced_tfidf_product(
    space, source, target, kind, source_positions=None, target_positions=None
):
    """TF-IDF cosines of a bag feature, IDF fit over the sliced rows."""
    source_counts, target_counts = _sliced_matrices(
        space, source, target, kind, None, source_positions, target_positions
    )
    width = source_counts.shape[1]
    df = np.bincount(source_counts.indices, minlength=width) + np.bincount(
        target_counts.indices, minlength=width
    )
    n_documents = source_counts.shape[0] + target_counts.shape[0]
    idf = np.log((1.0 + n_documents) / (1.0 + df)) + 1.0

    def weighted(counts):
        # Row-wise L2-normalised count * idf, on the stored entries only.
        n_rows = counts.shape[0]
        rows = np.repeat(np.arange(n_rows), np.diff(counts.indptr))
        weights = counts.data * idf[counts.indices]
        norms = np.sqrt(
            np.bincount(rows, weights=weights * weights, minlength=n_rows)
        )
        norms[norms == 0.0] = 1.0
        return sparse.csr_matrix(
            (weights * (1.0 / norms)[rows], counts.indices, counts.indptr),
            shape=counts.shape,
        )

    return weighted(source_counts) @ weighted(target_counts).T
