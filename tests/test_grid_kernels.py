"""The cached-feature grid kernels against the tokenising reference bodies.

Every voter with a cached-feature kernel scores a (restricted) grid from
the shared :class:`~repro.matchers.FeatureSpace`; it must agree to 1e-9
with the reference in ``tests/reference_kernels.py``, which re-tokenises
and fits over the grid's own documents.  Restrictions are seeded random
element sets -- deliberately *not* closed subtrees, so structure's in-grid
children/parents and documentation's grid-fit IDF are exercised -- plus
a target-side restriction, single rows, elements with no documentation,
a container that keeps none of its children, and sides without a
container.
"""

import numpy as np
import pytest

from repro.match import HarmonyMatchEngine
from repro.matchers import (
    DescribingTextVoter,
    DocumentationVoter,
    ExactNameVoter,
    FeatureSpace,
    StructuralVoter,
    build_profile,
    default_voters,
)
from repro.matchers.profile import densify
from repro.synthetic import PairSpec, generate_clustered_corpus, generate_pair
from tests.reference_kernels import REFERENCE_KERNELS

TOLERANCE = 1e-9


def fast_path_voters():
    return default_voters() + [DescribingTextVoter(), ExactNameVoter()]


def closed(profile, positions) -> bool:
    """Whether a position set is closed under parent and child."""
    chosen = set(int(p) for p in positions)
    for position in chosen:
        parent = int(profile.parent_index[position])
        if parent != -1 and parent not in chosen:
            return False
        if any(child not in chosen for child in profile.children_index[position]):
            return False
    return True


@pytest.fixture(scope="module")
def profiles():
    pair = generate_pair(PairSpec(), seed=7)
    return build_profile(pair.source.schema), build_profile(pair.target.schema)


def random_restriction(rng, profile, size):
    positions = np.sort(rng.choice(len(profile), size=size, replace=False))
    assert not closed(profile, positions)
    return positions


def _containers(profile):
    return np.array([p for p in range(len(profile)) if profile.children_index[p]])


def restrictions(source, target):
    """(source_positions, target_positions) cases; see the module docstring."""
    rng = np.random.default_rng(2027)
    undocumented = [p for p in range(len(source)) if not source.doc_terms[p]]
    documented = [p for p in range(len(source)) if source.doc_terms[p]]
    assert undocumented and documented
    cases = [
        (None, None),
        (random_restriction(rng, source, 25), None),
        (random_restriction(rng, source, 60), None),
        (None, random_restriction(rng, target, 30)),
        (random_restriction(rng, source, 20), random_restriction(rng, target, 20)),
        (np.array([documented[0]]), None),
        (np.array([undocumented[0]]), None),
        (np.array([undocumented[0], documented[-1]]), random_restriction(rng, target, 9)),
    ]
    # A random restriction that includes an undocumented element.
    mixed = np.union1d(random_restriction(rng, source, 15), undocumented[:2])
    cases.append((mixed, None))
    # Structure: a container that keeps none of its children beside one
    # that keeps them all, and sides without a single container.
    childless, whole = _containers(source)[:2]
    cases.append((np.sort([childless, whole, *source.children_index[whole]]), None))
    cases.append((source.leaf_positions()[::3], None))
    cases.append((None, target.leaf_positions()[::3]))
    return cases


@pytest.mark.parametrize("voter", fast_path_voters(), ids=lambda v: v.name)
def test_grid_kernel_matches_reference(voter, profiles):
    source, target = profiles
    reference = REFERENCE_KERNELS[voter.name]
    space = FeatureSpace()
    for source_positions, target_positions in restrictions(source, target):
        opinion = voter.vote(
            source, target, source_positions, target_positions, space=space
        )
        similarity, evidence = reference(
            voter, source, target, source_positions, target_positions
        )
        assert opinion.similarity.shape == similarity.shape
        np.testing.assert_allclose(opinion.similarity, similarity, atol=TOLERANCE, rtol=0)
        np.testing.assert_allclose(opinion.evidence, evidence, atol=TOLERANCE, rtol=0)
        np.testing.assert_allclose(
            opinion.confidence,
            voter.confidences(similarity, evidence),
            atol=TOLERANCE,
            rtol=0,
        )


@pytest.mark.parametrize("voter", fast_path_voters(), ids=lambda v: v.name)
def test_score_block_is_the_unrestricted_kernel(voter, profiles):
    # The unrestricted vote (once the separate ``score_block``) is the
    # reference over the full grid.
    source, target = profiles
    space = FeatureSpace()
    reference = voter.confidences(*REFERENCE_KERNELS[voter.name](voter, source, target))
    np.testing.assert_allclose(
        voter.vote(source, target, space=space).confidence,
        reference,
        atol=TOLERANCE,
        rtol=0,
    )


def test_kernels_share_one_feature_space(profiles, monkeypatch):
    # A second restricted vote over the same profiles builds no feature.
    import repro.matchers.profile as profile_module

    source, target = profiles
    space = FeatureSpace()
    rows = np.arange(10)
    voters = fast_path_voters()
    for voter in voters:
        voter.vote(source, target, rows, space=space)
    built = []
    for name in ("_set_feature", "_bag_feature"):
        original = getattr(profile_module, name)
        monkeypatch.setattr(
            profile_module,
            name,
            lambda *args, _original=original: built.append(1) or _original(*args),
        )
    for voter in voters:
        voter.vote(source, target, rows + 10, space=space)
    assert built == []


def test_feature_rows_are_each_documents_interned_tokens():
    # Ids follow first appearance across the documents, rows are sorted
    # and duplicate-free, bag data counts repeats; an empty row and an
    # empty document list both come out well-formed.
    from repro.matchers.profile import TokenInterner, _bag_feature, _set_feature

    documents = [["b", "a", "b"], [], ["c", "a", "c", "c"], ["a"]]
    interner = TokenInterner()
    sets = _set_feature(documents, interner)
    assert [interner.intern(token) for token in "bac"] == [0, 1, 2]
    assert sets.indptr.tolist() == [0, 2, 2, 4, 5]
    assert sets.indices.tolist() == [0, 1, 1, 2, 1]
    assert sets.data.tolist() == [1.0] * 5
    bags = _bag_feature(documents + [["d", "b"]], interner)
    assert bags.indptr.tolist() == [0, 2, 2, 4, 5, 7]
    assert bags.indices.tolist() == [0, 1, 1, 2, 1, 0, 3]
    assert bags.data.tolist() == [2.0, 1.0, 1.0, 3.0, 1.0, 1.0, 1.0]
    empty = _set_feature([], TokenInterner())
    assert empty.indptr.tolist() == [0] and empty.indices.size == 0


@pytest.mark.parametrize("voter", fast_path_voters(), ids=lambda v: v.name)
def test_warm_builds_every_feature_the_kernels_read(voter, profiles):
    source, target = profiles
    space = FeatureSpace()
    voter.warm(source, space)
    voter.warm(target, space)
    built = (set(space._features), set(space._vectors))
    assert built != (set(), set())
    voter.vote(source, target, np.arange(10), space=space)
    voter.fast_ratios(source, target, space, np.array([0, 1]), np.array([2, 3]))
    assert (set(space._features), set(space._vectors)) == built


def test_stacked_set_products_equal_the_per_pair_ones(profiles):
    source, target = profiles
    others = [
        build_profile(generated.schema)
        for generated in generate_clustered_corpus(
            n_domains=2, schemata_per_domain=2, seed=3
        ).schemata
    ]
    targets = [target, *others]
    space = FeatureSpace()
    voters = fast_path_voters()
    for profile in (source, *targets):
        space.feature(profile, "doc_sets")
        for voter in voters:
            voter.warm(profile, space)
    kinds = [(voter.kind, voter.lexicon) for voter in voters if hasattr(voter, "dice")]
    kinds.append(("doc_sets", None))
    with space.stacked(source, targets):
        served = [
            densify(space.set_product(source, t, kind, lexicon))
            for t in targets
            for kind, lexicon in kinds
        ]
        assert len(space._products) == len(targets) * len(kinds)
    assert space._products == {}
    computed = [
        space.set_product(source, t, kind, lexicon).toarray()
        for t in targets
        for kind, lexicon in kinds
    ]
    for old, new in zip(computed, served):
        assert np.array_equal(old, new)


def test_restricted_grid_keeps_its_own_semantics(profiles):
    """A restricted grid is scored as a grid of its own, not a slice.

    On a restriction that is not closed under parent/child, documentation
    refits its IDF over the restricted rows and structure loses the
    children and parents outside them, so both differ from the full
    match's rows -- and equal the reference computed over the restriction.
    """
    source, target = profiles
    schema_pair = (source.schema, target.schema)
    rng = np.random.default_rng(11)
    rows = random_restriction(rng, source, 40)
    ids = [source.element_ids[p] for p in rows]
    for voter in (DocumentationVoter(), StructuralVoter()):
        engine = HarmonyMatchEngine(voters=[voter])
        full = engine.match(*schema_pair).matrix.scores[rows]
        restricted = engine.match(*schema_pair, source_element_ids=ids).matrix.scores
        assert np.abs(restricted - full).max() > 1e-3, voter.name
        expected = engine.merger.merge(
            np.stack([voter.confidences(*REFERENCE_KERNELS[voter.name](voter, source, target, rows))])
        )
        np.testing.assert_allclose(restricted, expected, atol=TOLERANCE, rtol=0)


def test_scores_do_not_depend_on_what_else_the_space_holds():
    """A long-lived space keeps growing its vocabularies as other schemata
    are featurised (a server's space sees the whole registry); neither
    kernel may drift when it re-materialises a profile's cached matrices
    at the wider vocabulary."""
    corpus = generate_clustered_corpus(n_domains=3, schemata_per_domain=4, seed=5)
    profiles = [build_profile(generated.schema) for generated in corpus.schemata]
    source, target = profiles[0], profiles[1]
    rows = np.repeat(np.arange(len(source)), len(target))
    cols = np.tile(np.arange(len(target)), len(source))
    space = FeatureSpace()
    voters = fast_path_voters()
    before = [
        (
            voter.fast_ratios(source, target, space, rows, cols),
            voter.grid_ratios(source, target, space),
        )
        for voter in voters
    ]
    for other in profiles[2:]:
        for voter in voters:
            voter.grid_ratios(other, target, space)
            voter.fast_ratios(source, other, space, np.array([0]), np.array([0]))
    for voter, (pairs, grid) in zip(voters, before):
        again_pairs = voter.fast_ratios(source, target, space, rows, cols)
        again_grid = voter.grid_ratios(source, target, space)
        for old, new in zip(pairs + grid, again_pairs + again_grid):
            assert np.array_equal(old, new), voter.name


@pytest.mark.parametrize("side", ["source", "target", "both"])
def test_structure_layout_of_every_position_is_the_profiles_own(profiles, side):
    # Remapping all positions must reproduce the as-is layout exactly.
    source, target = profiles
    voter = StructuralVoter()
    space = FeatureSpace()
    source_positions = np.arange(len(source)) if side != "target" else None
    target_positions = np.arange(len(target)) if side != "source" else None
    remapped = voter.grid_ratios(source, target, space, source_positions, target_positions)
    as_is = voter.grid_ratios(source, target, space)
    for new, old in zip(remapped, as_is):
        assert np.array_equal(new, old)
