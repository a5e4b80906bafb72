"""The cached-feature grid kernels against the tokenising reference bodies.

Every voter with a cached-feature kernel scores a (restricted) grid from
the shared :class:`~repro.matchers.FeatureSpace`; it must agree to 1e-9
with the reference in ``tests/reference_kernels.py``, which re-tokenises
and fits over the grid's own documents.  Restrictions are seeded random
element sets -- deliberately *not* closed subtrees, so structure's in-grid
children/parents and documentation's grid-fit IDF are exercised -- plus
a target-side restriction, single rows, and elements with no
documentation.
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
    source, target = profiles
    space = FeatureSpace()
    reference = voter.confidences(*REFERENCE_KERNELS[voter.name](voter, source, target))
    np.testing.assert_allclose(
        voter.score_block(source, target, space), reference, atol=TOLERANCE, rtol=0
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
