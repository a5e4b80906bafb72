"""The corpus-scale batch fast path: bulk voter APIs, blocking, runner.

Three layers of guarantees:

* ``vote`` on a shared space / ``score_pairs`` equal the per-grid voter
  path to 1e-9
  (property-tested over generated schema pairs),
* blocking recall against the exact match matrix stays above the 0.98
  guardrail (regression-tested on the paper's synthetic case study),
* the runner's end-to-end results coincide with the exact engine wherever
  blocking retained the pair, across serial/thread/process executors.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import (
    BatchMatchRunner,
    BlockingPolicy,
    blocking_recall,
    candidate_pairs,
)
from repro.match import HarmonyMatchEngine, ThresholdSelection
from repro.matchers import (
    DescribingTextVoter,
    EditDistanceVoter,
    ExactNameVoter,
    FeatureSpace,
    build_profile,
    default_voters,
)
from repro.nway import nway_match
from repro.schema import Schema
from repro.synthetic import PairSpec, generate_pair

BLOCK_TOLERANCE = 1e-9


def fast_path_voters():
    """Every stock voter with a bulk fast path."""
    return default_voters() + [DescribingTextVoter(), ExactNameVoter()]


@pytest.fixture(scope="module")
def small_profiles(small_pair):
    return (
        build_profile(small_pair.source.schema),
        build_profile(small_pair.target.schema),
    )


class TestScoreBlock:
    def test_equals_per_grid_on_samples(self, sample_relational, sample_xml):
        source = build_profile(sample_relational)
        target = build_profile(sample_xml)
        space = FeatureSpace()
        for voter in fast_path_voters():
            exact = voter.vote(source, target).confidence
            block = voter.vote(source, target, space=space).confidence
            assert np.allclose(block, exact, atol=BLOCK_TOLERANCE), voter.name

    @settings(max_examples=6, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_equals_per_grid_on_generated_pairs(self, seed):
        pair = generate_pair(PairSpec(), seed=seed)
        source = build_profile(pair.source.schema)
        target = build_profile(pair.target.schema)
        space = FeatureSpace()
        for voter in fast_path_voters():
            exact = voter.vote(source, target).confidence
            block = voter.vote(source, target, space=space).confidence
            assert np.allclose(block, exact, atol=BLOCK_TOLERANCE), voter.name

    def test_score_pairs_matches_block(self, small_profiles):
        source, target = small_profiles
        space = FeatureSpace()
        rng = np.random.default_rng(13)
        rows = rng.integers(0, len(source), 400)
        cols = rng.integers(0, len(target), 400)
        for voter in fast_path_voters():
            block = voter.vote(source, target, space=space).confidence
            pairs = voter.score_pairs(source, target, rows, cols, space)
            assert np.allclose(pairs, block[rows, cols], atol=BLOCK_TOLERANCE)

    def test_fallback_without_fast_path(self, sample_relational, sample_xml):
        source = build_profile(sample_relational)
        target = build_profile(sample_xml)
        voter = EditDistanceVoter()
        exact = voter.vote(source, target).confidence
        rows = np.array([0, 1, 2])
        cols = np.array([2, 1, 0])
        assert np.array_equal(
            voter.score_pairs(source, target, rows, cols), exact[rows, cols]
        )

    def test_per_pair_voter_scores_candidates_without_the_full_grid(
        self, small_profiles
    ):
        # The default pair kernel scores the grid of the candidates' unique
        # rows and columns, so 3 candidates stay under a cap that the full
        # 180 x 100 grid breaks.
        source, target = small_profiles
        rows = np.array([5, 17, 5])
        cols = np.array([40, 2, 99])
        capped = EditDistanceVoter(max_pairs=100)
        with pytest.raises(ValueError):
            capped.vote(source, target)
        exact = EditDistanceVoter().vote(source, target).confidence
        assert np.array_equal(
            capped.score_pairs(source, target, rows, cols), exact[rows, cols]
        )

    def test_gather_pairs_large_grid_branch(self):
        # Grids past _DENSE_GATHER_LIMIT take the searchsorted path; it
        # must agree with the dense gather bit for bit.
        from scipy import sparse

        from repro.matchers.profile import _DENSE_GATHER_LIMIT, gather_pairs

        rng = np.random.default_rng(3)
        shape = (4000, 1200)
        assert shape[0] * shape[1] > _DENSE_GATHER_LIMIT
        product = sparse.random(*shape, density=0.001, format="csr", rng=rng)
        rows = rng.integers(0, shape[0], 5000)
        cols = rng.integers(0, shape[1], 5000)
        gathered = gather_pairs(product, rows, cols)
        assert np.array_equal(gathered, product.toarray()[rows, cols])
        empty = sparse.csr_matrix(shape)
        assert np.array_equal(
            gather_pairs(empty, rows, cols), np.zeros(rows.size)
        )

    def test_feature_space_is_reused(self, small_profiles):
        source, target = small_profiles
        space = FeatureSpace()
        first = space.feature(source, "name")
        assert space.feature(source, "name") is first
        space.clear()
        assert space.feature(source, "name") is not first


class TestBlocking:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            BlockingPolicy(keys=())
        with pytest.raises(ValueError):
            BlockingPolicy(keys=("path", "bogus"))
        with pytest.raises(ValueError):
            BlockingPolicy(min_shared=0)

    def test_shared_name_token_pairs_survive(self, small_profiles):
        source, target = small_profiles
        space = FeatureSpace()
        candidates = candidate_pairs(
            source, target, space, BlockingPolicy(keys=("name",))
        )
        mask = candidates.mask()
        for row in range(0, len(source), 7):
            for col in range(0, len(target), 7):
                shares = bool(
                    set(source.name_terms[row]) & set(target.name_terms[col])
                )
                assert mask[row, col] == shares

    def test_min_shared_is_monotone(self, small_profiles):
        source, target = small_profiles
        space = FeatureSpace()
        loose = candidate_pairs(source, target, space, BlockingPolicy(min_shared=1))
        tight = candidate_pairs(source, target, space, BlockingPolicy(min_shared=2))
        assert tight.n_candidates < loose.n_candidates
        assert not (tight.mask() & ~loose.mask()).any()

    def test_recall_guardrail_on_small_pair(self, small_pair, small_pair_result):
        runner = BatchMatchRunner()
        source = runner.profile(small_pair.source.schema)
        target = runner.profile(small_pair.target.schema)
        candidates = candidate_pairs(source, target, runner.space, runner.blocking)
        recall = blocking_recall(small_pair_result.matrix, candidates, 0.15)
        assert recall >= 0.98
        assert 0.0 < candidates.fraction < 0.5

    def test_recall_regression_on_case_study(self):
        # The acceptance guardrail of the batch fast path, pinned on the
        # paper's 1378x784 synthetic study (bench E16 reports the same
        # number alongside the speedup).
        from repro.synthetic import case_study

        pair = case_study(seed=2009)
        exact = HarmonyMatchEngine().match(pair.source.schema, pair.target.schema)
        runner = BatchMatchRunner()
        candidates = candidate_pairs(
            runner.profile(pair.source.schema),
            runner.profile(pair.target.schema),
            runner.space,
            runner.blocking,
        )
        assert blocking_recall(exact.matrix, candidates, 0.15) >= 0.98

    def test_recall_is_one_when_nothing_selected(self, small_profiles):
        source, target = small_profiles
        space = FeatureSpace()
        candidates = candidate_pairs(source, target, space)
        nothing = np.full((len(source), len(target)), -1.0)
        assert blocking_recall(nothing, candidates, 0.15) == 1.0

    def test_recall_guards_zero_denominator_on_degenerate_grids(self):
        # The empty-exact-matrix case must return exactly 1.0 (nothing to
        # lose), never NaN or a ZeroDivisionError -- including grids where
        # blocking itself retained no candidates at all.
        from repro.batch.blocking import CandidateSet

        empty = CandidateSet(
            shape=(3, 4),
            rows=np.array([], dtype=np.int64),
            cols=np.array([], dtype=np.int64),
        )
        below_threshold = np.zeros((3, 4))
        recall = blocking_recall(below_threshold, empty, threshold=0.15)
        assert recall == 1.0 and not np.isnan(recall)
        # And when pairs do clear the threshold but no candidate survived,
        # recall is an honest 0.0, not an error.
        assert blocking_recall(np.ones((3, 4)), empty, threshold=0.15) == 0.0


class TestRunner:
    @pytest.mark.parametrize(
        "voters, reads_text",
        [(None, False), ([DescribingTextVoter(), ExactNameVoter()], True)],
        ids=["default", "describing_text+exact_name"],
    )
    def test_warm_builds_what_the_runner_reads(
        self, small_pair, monkeypatch, voters, reads_text
    ):
        import repro.matchers.profile as profile_module

        bags, raw_names = [], []
        bag_feature = profile_module._bag_feature
        monkeypatch.setattr(
            profile_module,
            "_bag_feature",
            lambda documents, interner: bags.append(documents)
            or bag_feature(documents, interner),
        )
        raw_name_ids = FeatureSpace.raw_name_ids
        monkeypatch.setattr(
            FeatureSpace,
            "raw_name_ids",
            lambda space, profile: raw_names.append(profile)
            or raw_name_ids(space, profile),
        )
        runner = BatchMatchRunner(voters=voters)
        schemata = [small_pair.source.schema, small_pair.target.schema]
        runner.warm(schemata)
        profiles = [runner.profile(schema) for schema in schemata]
        text_bags = [
            documents
            for documents in bags
            if any(documents is profile.text_terms for profile in profiles)
        ]
        assert len(text_bags) == (2 if reads_text else 0)
        assert {id(profile) for profile in raw_names} == (
            {id(profile) for profile in profiles} if reads_text else set()
        )
        # Warm built everything a match reads: matching builds nothing new.
        features, vectors = dict(runner.space._features), dict(runner.space._vectors)
        runner.match_pair(*schemata)
        assert runner.space._features == features
        assert runner.space._vectors == vectors

    def test_candidate_scores_are_exact(self, small_pair, small_pair_result):
        runner = BatchMatchRunner()
        result = runner.match_pair(small_pair.source.schema, small_pair.target.schema)
        candidates = candidate_pairs(
            runner.profile(small_pair.source.schema),
            runner.profile(small_pair.target.schema),
            runner.space,
            runner.blocking,
        )
        fast = result.matrix.scores[candidates.rows, candidates.cols]
        exact = small_pair_result.matrix.scores[candidates.rows, candidates.cols]
        assert np.allclose(fast, exact, atol=BLOCK_TOLERANCE)
        assert result.n_candidates == candidates.n_candidates
        assert 0.0 < result.candidate_fraction < 1.0

    def test_selection_is_exact_on_retained_pairs(self, small_pair, small_pair_result):
        # Fill scores sit below any positive threshold, so fast selection
        # equals exact selection intersected with the candidate set.
        runner = BatchMatchRunner()
        result = runner.match_pair(small_pair.source.schema, small_pair.target.schema)
        selection = ThresholdSelection(0.2)
        fast = {c.pair for c in result.candidates(selection)}
        exact = {c.pair for c in small_pair_result.candidates(selection)}
        mask = candidate_pairs(
            runner.profile(small_pair.source.schema),
            runner.profile(small_pair.target.schema),
            runner.space,
            runner.blocking,
        ).mask()
        source_index = {sid: i for i, sid in enumerate(result.matrix.source_ids)}
        target_index = {tid: j for j, tid in enumerate(result.matrix.target_ids)}
        retained_exact = {
            pair for pair in exact if mask[source_index[pair[0]], target_index[pair[1]]]
        }
        assert fast == retained_exact

    def test_source_restriction(self, small_pair):
        runner = BatchMatchRunner()
        source = small_pair.source.schema
        target = small_pair.target.schema
        full = runner.match_pair(source, target)
        subset_ids = [element.element_id for element in source][10:40]
        restricted = runner.match_pair(source, target, source_element_ids=subset_ids)
        assert restricted.matrix.source_ids == subset_ids
        assert restricted.matrix.shape == (len(subset_ids), len(target))
        sub = full.matrix.submatrix(source_ids=subset_ids)
        # tensordot reduction order differs with candidate-list length, so
        # equality holds only to float accumulation noise.
        assert np.allclose(restricted.matrix.scores, sub.scores, atol=1e-12)

    def test_corpus_outcomes_are_deterministic(self, small_pair):
        runner = BatchMatchRunner()
        corpus = {
            "B": small_pair.target.schema,
            "A": generate_pair(PairSpec(), seed=5).target.schema,
        }
        outcomes = runner.match_corpus(small_pair.source.schema, corpus)
        assert [outcome.target_name for outcome in outcomes] == ["A", "B"]
        assert all(outcome.matrix is not None for outcome in outcomes)
        assert all(outcome.n_candidates > 0 for outcome in outcomes)

    @pytest.mark.parametrize(
        "workers", [pytest.param(1, id="serial"), pytest.param(2, id="process")]
    )
    def test_corpus_sweep_equals_per_pair_matches(self, small_pair, workers):
        # The in-process sweep serves set products from one stacked product
        # per kind, bit-identical to per-pair matches; a process sweep
        # returns no matrices, and its workers intern tokens in another
        # order, so its selected pairs agree and its scores to 1e-9.
        corpus = {
            f"T{seed}": generate_pair(PairSpec(), seed=seed).target.schema
            for seed in (5, 6, 7)
        }
        corpus["B"] = small_pair.target.schema
        runner = BatchMatchRunner()
        outcomes = runner.match_corpus(
            small_pair.source.schema, corpus, workers=workers
        )
        assert runner.space._products == {}
        assert len(outcomes) == len(corpus)
        for outcome in outcomes:
            single = runner.match_pair(
                small_pair.source.schema, corpus[outcome.target_name]
            )
            expected = single.candidates(runner.selection)
            assert [c.pair for c in outcome.correspondences] == [
                c.pair for c in expected
            ]
            assert np.allclose(
                [c.score for c in outcome.correspondences],
                [c.score for c in expected],
                rtol=0.0, atol=1e-9,
            )
            if workers == 1:
                assert np.array_equal(outcome.matrix.scores, single.matrix.scores)
            else:
                assert outcome.matrix is None

    def test_corpus_source_name_survives_collision(self, small_pair):
        # A registry may already hold a schema with the source's name (e.g.
        # matching a new version against the repository); outcomes must
        # still report the real schema name, not an internal key.
        runner = BatchMatchRunner()
        source = small_pair.source.schema
        corpus = {source.name: small_pair.target.schema}
        outcomes = runner.match_corpus(source, corpus)
        assert [outcome.source_name for outcome in outcomes] == [source.name]

    def test_executors_agree(self, small_pair):
        schemata = {
            "SA": small_pair.source.schema,
            "SB": small_pair.target.schema,
            "SC": generate_pair(PairSpec(), seed=5).target.schema,
        }
        reference = None
        for workers in (1, 2):
            outcomes = BatchMatchRunner().match_all_pairs(schemata, workers=workers)
            summary = [
                (
                    outcome.source_name,
                    outcome.target_name,
                    tuple(sorted(c.pair for c in outcome.correspondences)),
                )
                for outcome in outcomes
            ]
            if reference is None:
                reference = summary
            else:
                assert summary == reference, workers
        # Process outcomes travel without their dense matrices.
        assert all(outcome.matrix is None for outcome in outcomes)

    def test_nway_through_runner(self, small_pair):
        schemata = {
            "SA": small_pair.source.schema,
            "SB": small_pair.target.schema,
        }
        vocabulary_exact, _ = nway_match(schemata)
        vocabulary_fast, _ = nway_match(schemata, runner=BatchMatchRunner())
        assert len(vocabulary_fast) == len(vocabulary_exact)

    def test_engine_and_runner_share_the_space_profile_cache(self, small_pair):
        space = FeatureSpace()
        engine = HarmonyMatchEngine(space=space)
        runner = BatchMatchRunner(space=space)
        schema = small_pair.source.schema
        profile = engine.profile(schema)
        assert runner.profile(schema) is profile
        assert space.profiles == {id(schema): profile}
        runner.warm([schema])

        def cached_keys():
            return [
                key
                for cache in (space._features, space._vectors)
                for key in cache
                if key[0] == id(profile)
            ] + [key for key in space._pinned if key == id(profile)]

        assert cached_keys()
        space.release(schema)
        assert id(schema) not in space.profiles
        assert cached_keys() == []
        assert engine.profile(schema) is not profile

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            BatchMatchRunner(voters=[])
        with pytest.raises(ValueError):
            BatchMatchRunner(fill_value=1.5)
        with pytest.raises(ValueError, match="workers"):
            BatchMatchRunner().match_all_pairs({}, workers=0)
        with pytest.raises(ValueError, match="workers"):
            BatchMatchRunner().match_corpus(Schema("S"), {}, workers=0)
