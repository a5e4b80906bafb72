"""The MatchService facade: options, routing, envelopes, knowledge loop.

Covers the service-layer guarantees:

* ``MatchOptions`` compiles to the exact same ensemble/merger the engine
  defaults to, and round-trips through dicts;
* auto-routing picks the exact grid for small pairs, the blocked fast path
  at the paper's corpus scale (E16 workload), with batch-routed candidate
  scores equal to the exact path within 1e-9;
* ``MatchResponse`` envelopes JSON-round-trip (property-tested);
* one service shares one profile/feature cache across engines and runners;
* repository binding: schema-by-name requests, persist, recall.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import default_service, quick_match
from repro.baselines.engines import baseline_engines, baseline_options
from repro.cascade import CascadePlan, CascadeReport, CascadeStage
from repro.match import (
    Correspondence,
    HarmonyMatchEngine,
    MatchStatus,
    SemanticAnnotation,
    StableMarriageSelection,
    ThresholdSelection,
)
from repro.repository import AssertionMethod, MetadataRepository, ProvenanceRecord
from repro.schema import parse_ddl
from repro.service import (
    DEFAULT_VOTER_NAMES,
    MatchOptions,
    MatchRequest,
    MatchResponse,
    MatchService,
)

TOLERANCE = 1e-9


class TestMatchOptions:
    def test_defaults_compile_to_engine_defaults(self):
        options = MatchOptions()
        voters = options.build_voters()
        reference = HarmonyMatchEngine()
        assert [v.name for v in voters] == [v.name for v in reference.voters]
        assert list(DEFAULT_VOTER_NAMES) == [v.name for v in voters]
        merger = options.build_merger()
        assert merger.name == "conviction_linear"
        # The calibrated default weights survive compilation.
        assert np.allclose(
            merger.voter_weights, reference.merger.voter_weights
        )

    def test_lexicon_is_shared_between_thesaurus_and_structure(self):
        voters = MatchOptions(voters=("thesaurus", "structure")).build_voters()
        assert voters[0].lexicon is voters[1].lexicon

    def test_selection_building(self):
        assert isinstance(
            MatchOptions(selection="threshold", threshold=0.2).build_selection(),
            ThresholdSelection,
        )
        marriage = MatchOptions(
            selection="stable_marriage", threshold=0.13
        ).build_selection()
        assert isinstance(marriage, StableMarriageSelection)
        assert marriage.threshold == 0.13

    def test_validation(self):
        with pytest.raises(ValueError):
            MatchOptions(voters=("bogus",))
        with pytest.raises(ValueError):
            MatchOptions(voters=())
        with pytest.raises(ValueError):
            MatchOptions(merger="bogus")
        with pytest.raises(ValueError):
            MatchOptions(merger="weighted_linear")  # weights required
        with pytest.raises(ValueError):
            MatchOptions(selection="bogus")
        with pytest.raises(ValueError):
            MatchOptions(threshold=1.5)
        with pytest.raises(ValueError):
            MatchOptions(top_k=0)
        with pytest.raises(ValueError):
            MatchOptions(execution="gpu")
        with pytest.raises(ValueError):
            MatchOptions(fill_value=-2.0)
        with pytest.raises(ValueError):
            MatchOptions(voters=("path",), merger_weights=(0.5, 0.5))

    def test_dict_round_trip(self):
        options = MatchOptions(
            voters=("name_token", "path"),
            merger="weighted_linear",
            merger_weights=(0.3, 0.7),
            selection="top_k",
            top_k=3,
            threshold=0.05,
            execution="batch",
            fill_value=-0.1,
        )
        assert MatchOptions.from_dict(options.to_dict()) == options
        assert MatchOptions.from_dict(json.loads(json.dumps(options.to_dict()))) == options
        assert MatchOptions.from_dict({}) == MatchOptions()

    def test_options_are_hashable_cache_keys(self):
        assert MatchOptions() == MatchOptions()
        assert hash(MatchOptions()) == hash(MatchOptions())
        assert MatchOptions() != MatchOptions(execution="batch")

    def test_baseline_options_mirror_baseline_engines(self, sample_relational, sample_xml):
        engines = baseline_engines()
        for name, options in baseline_options().items():
            compiled = HarmonyMatchEngine(
                voters=options.build_voters(), merger=options.build_merger()
            )
            reference = engines[name].match(sample_relational, sample_xml)
            ours = compiled.match(sample_relational, sample_xml)
            assert np.allclose(
                ours.matrix.scores, reference.matrix.scores, atol=TOLERANCE
            ), name


class TestRouting:
    def test_small_pair_routes_exact(self, sample_relational, sample_xml):
        response = MatchService().match_pair(sample_relational, sample_xml)
        assert response.route == "exact"
        assert "auto_batch_pairs" in response.routing_reason
        assert response.n_candidates == response.n_pairs
        assert response.candidate_fraction == 1.0
        assert response.result is not None

    def test_execution_hints_are_honoured(self, sample_relational, sample_xml):
        service = MatchService()
        batch = service.match_pair(
            sample_relational, sample_xml, options=MatchOptions(execution="batch")
        )
        assert batch.route == "batch"
        assert batch.routing_reason == "requested"
        assert batch.n_candidates < batch.n_pairs
        exact = service.match_pair(
            sample_relational, sample_xml, options=MatchOptions(execution="exact")
        )
        assert exact.route == "exact"

    def test_pair_threshold_routes_batch(self, small_pair):
        source = small_pair.source.schema
        target = small_pair.target.schema
        service = MatchService(auto_batch_pairs=len(source) * len(target))
        assert service.match_pair(source, target).route == "batch"
        service = MatchService(auto_batch_pairs=len(source) * len(target) + 1)
        assert service.match_pair(source, target).route == "exact"

    def test_target_restriction_forces_exact(self, small_pair):
        source = small_pair.source.schema
        target = small_pair.target.schema
        service = MatchService(auto_batch_pairs=1)  # everything wants batch
        ids = [element.element_id for element in target][:5]
        response = service.match_pair(source, target, target_element_ids=ids)
        assert response.route == "exact"
        assert "target-side restriction" in response.routing_reason
        with pytest.raises(ValueError):
            service.match_pair(
                source,
                target,
                options=MatchOptions(execution="batch"),
                target_element_ids=ids,
            )

    def test_source_restriction_rides_the_batch_path(self, small_pair):
        source = small_pair.source.schema
        target = small_pair.target.schema
        service = MatchService()
        ids = [element.element_id for element in source][:20]
        response = service.match_pair(
            source,
            target,
            options=MatchOptions(execution="batch"),
            source_element_ids=ids,
        )
        assert response.route == "batch"
        assert response.n_source == len(ids)

    def test_sweep_routing_by_total_pairs(self, small_pair):
        schemata = {
            "SA": small_pair.source.schema,
            "SB": small_pair.target.schema,
        }
        total = len(small_pair.source.schema) * len(small_pair.target.schema)
        service = MatchService()
        responses = service.match_all_pairs(schemata)
        assert [r.route for r in responses] == ["exact"]
        service = MatchService(auto_batch_pairs=total)
        responses = service.match_all_pairs(schemata)
        assert [r.route for r in responses] == ["batch"]

    def test_small_registry_sweep_stays_exact_regardless_of_count(self, small_pair):
        # Many tiny schemata are cheap and lossless on the exact engine;
        # registry size alone must not buy blocking's recall trade-off.
        from repro.synthetic import PairSpec, generate_pair

        tiny = {
            f"S{i}": generate_pair(PairSpec(), seed=i).target.schema
            for i in range(5)
        }
        responses = MatchService().match_all_pairs(tiny)
        assert all(r.route == "exact" for r in responses)

    def test_corpus_sweep_and_exact_sweep_agree(self, small_pair):
        source = small_pair.source.schema
        corpus = {"SB": small_pair.target.schema}
        service = MatchService()
        exact = service.match_corpus(
            source, corpus, options=MatchOptions(execution="exact", threshold=0.2)
        )
        fast = service.match_corpus(
            source, corpus, options=MatchOptions(execution="batch", threshold=0.2)
        )
        assert [r.target_name for r in exact] == ["SB"]
        exact_pairs = {c.pair: c.score for c in exact[0].correspondences}
        for correspondence in fast[0].correspondences:
            assert correspondence.pair in exact_pairs
            assert (
                abs(exact_pairs[correspondence.pair] - correspondence.score)
                <= TOLERANCE
            )


class TestE16ScaleRouting:
    """The acceptance workload: the paper's 1378x784 case study."""

    @pytest.fixture(scope="class")
    def case_pair(self):
        from repro.synthetic import case_study

        pair = case_study(seed=2009)
        return pair.source.schema, pair.target.schema

    def test_auto_routes_batch_with_exact_scores(self, case_pair):
        source, target = case_pair
        service = MatchService()
        response = service.match_pair(source, target)
        assert response.route == "batch"
        assert response.n_pairs == len(source) * len(target)
        assert response.n_pairs >= service.auto_batch_pairs
        assert 0 < response.n_candidates < response.n_pairs

        exact = service.match_pair(
            source, target, options=MatchOptions(execution="exact")
        )
        assert exact.route == "exact"
        exact_scores = {c.pair: c.score for c in exact.correspondences}
        # Batch-selected correspondences carry exactly the exact-path score.
        assert response.correspondences, "batch route selected nothing"
        for correspondence in response.correspondences:
            assert correspondence.pair in exact_scores
            assert (
                abs(exact_scores[correspondence.pair] - correspondence.score)
                <= TOLERANCE
            )


def _score_strategy():
    return st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


def _cascade_plan_strategy():
    return st.builds(
        CascadePlan,
        band=st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
        budget=st.one_of(st.none(), st.integers(min_value=0, max_value=1000)),
        oracle=st.sampled_from(("thesaurus", "recorded", "custom_llm")),
        weight=st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
    )


def _cascade_report_strategy():
    stage = st.builds(
        CascadeStage,
        name=st.sampled_from(("cheap", "oracle")),
        n_pairs=st.integers(min_value=0, max_value=100_000),
        elapsed_seconds=st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
        oracle_calls=st.integers(min_value=0, max_value=1000),
    )
    return st.builds(
        CascadeReport,
        plan=_cascade_plan_strategy(),
        n_ambiguous=st.integers(min_value=0, max_value=100_000),
        n_escalated=st.integers(min_value=0, max_value=1000),
        oracle_calls=st.integers(min_value=0, max_value=1000),
        oracle_cache_hits=st.integers(min_value=0, max_value=1000),
        truncated=st.booleans(),
        stages=st.lists(stage, min_size=0, max_size=3).map(tuple),
    )


def _options_strategy():
    return st.one_of(
        st.just(MatchOptions()),
        st.builds(
            MatchOptions,
            voters=st.just(("name_token", "path")),
            merger=st.sampled_from(
                ("conviction_linear", "average", "max_conviction", "min")
            ),
            selection=st.sampled_from(
                ("threshold", "top_k", "stable_marriage", "hungarian")
            ),
            threshold=_score_strategy(),
            top_k=st.integers(min_value=1, max_value=5),
            execution=st.sampled_from(("auto", "exact", "batch")),
            fill_value=_score_strategy(),
            cascade=st.one_of(st.none(), _cascade_plan_strategy()),
        ),
    )


def _correspondence_strategy():
    return st.builds(
        Correspondence,
        source_id=st.text(min_size=1, max_size=10),
        target_id=st.text(min_size=1, max_size=10),
        score=_score_strategy(),
        status=st.sampled_from(MatchStatus),
        annotation=st.sampled_from(SemanticAnnotation),
        asserted_by=st.text(min_size=1, max_size=10),
        note=st.text(max_size=10),
    )


def _response_strategy():
    return st.builds(
        MatchResponse,
        source_name=st.text(min_size=1, max_size=12),
        target_name=st.text(min_size=1, max_size=12),
        n_source=st.integers(min_value=0, max_value=5000),
        n_target=st.integers(min_value=0, max_value=5000),
        n_pairs=st.integers(min_value=0, max_value=10_000_000),
        n_candidates=st.integers(min_value=0, max_value=10_000_000),
        route=st.sampled_from(("exact", "batch")),
        routing_reason=st.text(max_size=30),
        elapsed_seconds=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        voter_names=st.lists(st.text(min_size=1, max_size=8), max_size=4).map(tuple),
        options=_options_strategy(),
        correspondences=st.lists(_correspondence_strategy(), max_size=5).map(tuple),
        provenance=st.builds(
            ProvenanceRecord,
            asserted_by=st.text(min_size=1, max_size=10),
            method=st.sampled_from(AssertionMethod),
            confidence=_score_strategy(),
            sequence=st.integers(min_value=0, max_value=1000),
            context=st.text(max_size=10),
            note=st.text(max_size=10),
        ),
        cascade=st.one_of(st.none(), _cascade_report_strategy()),
    )


class TestResponseRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(_response_strategy())
    def test_dict_and_json_round_trip(self, response):
        assert MatchResponse.from_dict(response.to_dict()) == response
        assert MatchResponse.from_json(response.to_json()) == response
        json.dumps(response.to_dict())  # strictly JSON-serialisable

    def test_live_result_is_not_part_of_identity(self, sample_relational, sample_xml):
        response = MatchService().match_pair(sample_relational, sample_xml)
        rebuilt = MatchResponse.from_dict(response.to_dict())
        assert rebuilt == response
        assert rebuilt.result is None
        assert response.result is not None

    def test_version_gate(self):
        with pytest.raises(ValueError):
            MatchResponse.from_dict({"format_version": 99})


class TestSharedCaches:
    def test_engine_and_runner_share_profiles(self, sample_relational):
        service = MatchService()
        engine_profile = service.engine().profile(sample_relational)
        runner_profile = service.runner().profile(sample_relational)
        assert engine_profile is runner_profile
        # Different configurations still share the same cache.
        other = service.engine(MatchOptions(voters=("name_token",)))
        assert other.profile(sample_relational) is engine_profile

    def test_compiled_executors_are_cached_by_value(self):
        service = MatchService()
        assert service.engine() is service.engine(MatchOptions())
        assert service.runner() is service.runner(MatchOptions())
        assert service.engine(MatchOptions(execution="batch")) is not service.engine()

    def test_quick_match_uses_the_shared_service(self, sample_relational, sample_xml):
        response = quick_match(sample_relational, sample_xml, threshold=0.05)
        assert isinstance(response, MatchResponse)
        assert all(c.score >= 0.05 for c in response.correspondences)
        service = default_service()
        assert service is default_service()
        assert id(sample_relational) in service.space.profiles


class TestRepositoryBinding:
    def test_refs_resolve_through_repository(self, sample_relational, sample_xml):
        repository = MetadataRepository()
        repository.register(sample_relational, name="SA")
        repository.register(sample_xml, name="SB")
        service = MatchService(repository=repository)
        response = service.match(MatchRequest(source="SA", target="SB"))
        assert response.source_name == "SA_sample"  # the schema's own name
        assert response.n_source == len(sample_relational)

    def test_refs_without_repository_fail(self, sample_relational):
        with pytest.raises(ValueError):
            MatchService().match(MatchRequest(source="SA", target=sample_relational))

    def test_persist_and_recall(self, sample_relational, sample_xml):
        service = MatchService(repository=MetadataRepository())
        response = service.match_pair(
            sample_relational, sample_xml, options=MatchOptions(threshold=0.05)
        )
        stored = service.persist(response)
        assert stored == len(response.correspondences) > 0
        recalled = service.recall("SA_sample", "SB_sample")
        assert set(c.pair for c in recalled) == set(
            c.pair for c in response.correspondences
        )
        provenances = service.repository.matches("SA_sample", "SB_sample")
        assert all(
            m.provenance.method is AssertionMethod.AUTOMATIC for m in provenances
        )
        assert all(m.provenance.context == "route=exact" for m in provenances)

    def test_persist_requires_repository(self, sample_relational, sample_xml):
        service = MatchService()
        response = service.match_pair(sample_relational, sample_xml)
        with pytest.raises(ValueError):
            service.persist(response)

    def test_persist_sweep_response_needs_registered_schemata(
        self, sample_relational, sample_xml
    ):
        # Sweep envelopes carry no live result, so persist cannot
        # auto-register; it must fail with guidance, not a raw KeyError.
        service = MatchService(repository=MetadataRepository())
        responses = service.match_corpus(
            sample_relational,
            {"SB": sample_xml},
            options=MatchOptions(execution="batch", threshold=0.05),
        )
        with pytest.raises(ValueError, match="not.*registered"):
            service.persist(responses[0])
        service.repository.register(sample_relational)
        service.repository.register(sample_xml, name="SB")
        assert service.persist(responses[0]) == len(responses[0].correspondences)

    def test_generation_moves_release_stale_features(
        self, sample_relational, sample_xml
    ):
        """A long-running service must not pin every superseded profile.

        Each cycle is one batch match of two registered schemata followed by
        one register: the register moves the generation, so the next
        resolution drops both stale profiles -- and must drop their
        shared-space features and pins too, keeping the space flat.
        """
        repository = MetadataRepository()
        repository.register(sample_relational, name="SA")
        repository.register(sample_xml, name="SB")
        service = MatchService(repository=repository)
        request = MatchRequest(
            source="SA", target="SB", options=MatchOptions(execution="batch")
        )
        sizes = []
        for cycle in range(6):
            service.match(request)
            space = service.space
            sizes.append(
                (len(space._pinned), len(space._features), len(space._vectors))
            )
            repository.register(
                parse_ddl(f"CREATE TABLE t{cycle} (id INT);", name=f"X{cycle}")
            )
        assert sizes == [sizes[0]] * len(sizes), sizes

    def test_clear_caches_releases_profiles_and_features(self, sample_relational):
        service = MatchService()
        service.engine().profile(sample_relational)
        assert service.space.profiles
        service.clear_caches()
        assert not service.space.profiles
        # Compiled engines share the cleared dict and simply re-profile.
        assert service.engine().profile(sample_relational) is not None


class TestNwayThroughService:
    def test_nway_service_equals_engine_path_on_small_registry(self, small_pair):
        from repro.nway import nway_match

        schemata = {
            "SA": small_pair.source.schema,
            "SB": small_pair.target.schema,
        }
        vocabulary_engine, _ = nway_match(schemata, engine=HarmonyMatchEngine())
        vocabulary_service, _ = nway_match(schemata, service=MatchService())
        assert len(vocabulary_service) == len(vocabulary_engine)
