"""Cascade semantics: band, budget, ordering, caching, bit-identity.

The contract under test (see ``docs/cascade.md``): escalation is a pure
function of the Stage-1 scores (warm caches change cost, never the
escalation set), budgets are hard caps, judgements cache under
content-addressed clock-free keys, and a pipeline with no cascade
configured is bit-identical to the pre-cascade engine.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cascade import (
    ORACLE_CACHE_CLOCKS,
    CascadeCounters,
    CascadeExecutor,
    CascadePlan,
    CascadeReport,
    CascadeStage,
    OracleVoter,
    RecordedOracle,
    ThesaurusOracle,
    build_oracle,
    element_view,
    oracle_names,
    oracle_request_key,
    register_oracle,
)
from repro.match import HarmonyMatchEngine
from repro.server.cache import ResponseCache
from repro.service import MatchOptions, MatchService


@pytest.fixture(scope="module")
def profiles(sample_relational, sample_xml):
    engine = HarmonyMatchEngine()
    return engine.profile(sample_relational), engine.profile(sample_xml)


class TestCascadePlan:
    def test_defaults_and_round_trip(self):
        plan = CascadePlan()
        assert plan == CascadePlan.from_dict(plan.to_dict())
        custom = CascadePlan(band=0.4, budget=None, oracle="recorded", weight=1.0)
        assert custom == CascadePlan.from_dict(custom.to_dict())

    def test_plans_are_hashable_cache_keys(self):
        assert hash(CascadePlan()) == hash(CascadePlan())
        assert CascadePlan(budget=3) != CascadePlan(budget=4)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"band": 0.0},
            {"band": 1.5},
            {"budget": -1},
            {"budget": 2.5},
            {"oracle": ""},
            {"weight": 0.0},
            {"weight": 1.1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            CascadePlan(**kwargs)

    def test_options_embed_and_round_trip(self):
        options = MatchOptions(cascade=CascadePlan(band=0.3, budget=8))
        rebuilt = MatchOptions.from_dict(options.to_dict())
        assert rebuilt == options
        assert rebuilt.cascade == CascadePlan(band=0.3, budget=8)
        # A mapping coerces on construction (the wire form).
        coerced = MatchOptions(cascade={"band": 0.3, "budget": 8})
        assert coerced.cascade == CascadePlan(band=0.3, budget=8)

    def test_cascade_differentiates_options(self):
        assert MatchOptions() != MatchOptions(cascade=CascadePlan())
        assert MatchOptions().to_dict()["cascade"] is None


class TestOracleProtocol:
    def test_element_view_is_content_only(self, profiles):
        source_profile, _ = profiles
        view = element_view(source_profile, 0)
        assert set(view) == {"name", "name_terms", "doc_terms", "data_type", "depth"}
        # No ids or schema names: copies of the same content hash the same.
        assert "element_id" not in view

    def test_request_key_separates_oracles_and_content(self, profiles):
        source_profile, target_profile = profiles
        source = element_view(source_profile, 0)
        target = element_view(target_profile, 0)
        key = oracle_request_key("thesaurus", source, target)
        assert key == oracle_request_key("thesaurus", source, target)
        assert key != oracle_request_key("other", source, target)
        assert key != oracle_request_key("thesaurus", target, source)

    def test_thesaurus_oracle_is_deterministic_and_bounded(self, profiles):
        source_profile, target_profile = profiles
        oracle = ThesaurusOracle()
        pairs = [
            (element_view(source_profile, i), element_view(target_profile, j))
            for i in range(len(source_profile))
            for j in range(len(target_profile))
        ]
        first = oracle.judge(pairs)
        assert first == oracle.judge(pairs)
        assert all(-1.0 <= verdict <= 1.0 for verdict in first)

    def test_thesaurus_oracle_separates_true_pair_from_stranger(self, profiles):
        source_profile, target_profile = profiles
        birth = element_view(
            source_profile, source_profile.index_of["person_master.birth_dt"]
        )
        date_of_birth = element_view(
            target_profile, target_profile.index_of["individual.dateofbirth"]
        )
        category = element_view(
            target_profile, target_profile.index_of["event.category"]
        )
        [true_verdict, false_verdict] = ThesaurusOracle().judge(
            [(birth, date_of_birth), (birth, category)]
        )
        assert true_verdict > false_verdict

    def test_recorded_oracle_replays_bit_identically(self, profiles):
        source_profile, target_profile = profiles
        pairs = [
            (element_view(source_profile, i), element_view(target_profile, i))
            for i in range(3)
        ]
        recorder = RecordedOracle(inner=ThesaurusOracle())
        live = recorder.judge(pairs)
        replayer = RecordedOracle.from_dict(recorder.to_dict())
        assert replayer.judge(pairs) == live
        assert replayer.judge(list(reversed(pairs))) == list(reversed(live))

    def test_recorded_oracle_default_and_strict(self, profiles):
        source_profile, target_profile = profiles
        pair = (element_view(source_profile, 0), element_view(target_profile, 0))
        assert RecordedOracle(default=0.25).judge([pair]) == [0.25]
        with pytest.raises(KeyError):
            RecordedOracle(strict=True).judge([pair])

    def test_registry(self):
        assert "thesaurus" in oracle_names()
        assert isinstance(build_oracle("thesaurus"), ThesaurusOracle)
        register_oracle("test_constant", lambda: RecordedOracle(default=0.5))
        assert build_oracle("test_constant").judge([({}, {})]) == [0.5]
        with pytest.raises(ValueError):
            build_oracle("no_such_oracle")

    def test_oracle_cost_tier_sits_above_cheap_voters(self):
        from repro.matchers import NameTokenVoter

        assert NameTokenVoter().cost_tier == "cheap"
        assert ThesaurusOracle().cost_tier == "oracle"
        assert issubclass(ThesaurusOracle, OracleVoter)


def _executor(plan: CascadePlan, verdict: float = 0.9, cache=None):
    """An executor whose oracle answers ``verdict`` for every pair."""
    return CascadeExecutor(
        plan, oracle=RecordedOracle(default=verdict), cache=cache
    )


class TestExecutor:
    def test_band_is_strict_and_budget_truncates(self, profiles):
        source_profile, target_profile = profiles
        scores = np.array([0.8, 0.24, -0.1, 0.25, -0.26, 0.0])
        rows = np.arange(6) % len(source_profile)
        cols = np.arange(6) % len(target_profile)
        plan = CascadePlan(band=0.25, budget=2, oracle="thesaurus")
        blended, report = _executor(plan).escalate_pairs(
            source_profile, target_profile, rows, cols, scores, 0.0
        )
        # |0.8|, |0.25| and |-0.26| are outside the strict band.
        assert report.n_ambiguous == 3
        assert report.n_escalated == 2
        assert report.truncated
        # Most ambiguous first: |0.0| then |-0.1|; 0.24 lost to the budget.
        escalated_indices = {2, 5}
        untouched = [i for i in range(6) if i not in escalated_indices]
        np.testing.assert_array_equal(blended[untouched], scores[untouched])
        assert blended[5] == pytest.approx(0.4 * 0.0 + 0.6 * 0.9)
        assert blended[2] == pytest.approx(0.4 * -0.1 + 0.6 * 0.9)

    def test_escalation_set_is_deterministic(self, profiles):
        source_profile, target_profile = profiles
        rng = np.random.default_rng(9)
        n = 40
        scores = rng.uniform(-1, 1, size=n)
        rows = rng.integers(0, len(source_profile), size=n)
        cols = rng.integers(0, len(target_profile), size=n)
        plan = CascadePlan(band=0.5, budget=10)
        runs = [
            _executor(plan).escalate_pairs(
                source_profile, target_profile, rows, cols, scores.copy(), 0.0
            )
            for _ in range(3)
        ]
        baseline = runs[0][1].escalated_pairs
        assert len(baseline) == 10
        for blended, report in runs[1:]:
            assert report.escalated_pairs == baseline
            np.testing.assert_array_equal(blended, runs[0][0])

    def test_warm_cache_changes_cost_not_escalation(self, profiles):
        source_profile, target_profile = profiles
        rng = np.random.default_rng(10)
        n = 30
        scores = rng.uniform(-0.4, 0.4, size=n)
        rows = rng.integers(0, len(source_profile), size=n)
        cols = rng.integers(0, len(target_profile), size=n)
        plan = CascadePlan(band=0.5, budget=12)
        cache = ResponseCache(max_entries=256)
        executor = _executor(plan, cache=cache)
        cold_blended, cold = executor.escalate_pairs(
            source_profile, target_profile, rows, cols, scores.copy(), 0.0
        )
        warm_blended, warm = executor.escalate_pairs(
            source_profile, target_profile, rows, cols, scores.copy(), 0.0
        )
        assert warm.escalated_pairs == cold.escalated_pairs
        assert warm.n_escalated == cold.n_escalated
        assert cold.oracle_calls > 0
        assert warm.oracle_calls == 0
        assert warm.oracle_cache_hits == warm.n_escalated
        np.testing.assert_array_equal(warm_blended, cold_blended)

    def test_budget_zero_escalates_nothing(self, profiles):
        source_profile, target_profile = profiles
        scores = np.array([0.01, -0.02, 0.03])
        rows = np.zeros(3, dtype=int)
        cols = np.arange(3)
        blended, report = _executor(CascadePlan(budget=0)).escalate_pairs(
            source_profile, target_profile, rows, cols, scores, 0.0
        )
        assert report.n_escalated == 0
        assert report.oracle_calls == 0
        assert report.truncated
        assert blended is scores  # not even copied

    def test_oracle_calls_never_exceed_budget(self, profiles):
        source_profile, target_profile = profiles
        rng = np.random.default_rng(11)
        for budget in (0, 1, 5, 17):
            n = 50
            scores = rng.uniform(-0.2, 0.2, size=n)
            rows = rng.integers(0, len(source_profile), size=n)
            cols = rng.integers(0, len(target_profile), size=n)
            _, report = _executor(CascadePlan(budget=budget)).escalate_pairs(
                source_profile, target_profile, rows, cols, scores, 0.0
            )
            assert report.oracle_calls <= budget
            assert report.n_escalated <= budget

    def test_grid_and_pair_paths_agree(self, profiles):
        source_profile, target_profile = profiles
        n_rows, n_cols = 4, 5
        rng = np.random.default_rng(12)
        merged = rng.uniform(-1, 1, size=(n_rows, n_cols))
        plan = CascadePlan(band=0.6, budget=7)
        grid_blended, grid_report = _executor(plan).escalate_grid(
            source_profile, target_profile, None, None, merged.copy(), 0.0
        )
        grid_rows, grid_cols = np.meshgrid(
            np.arange(n_rows), np.arange(n_cols), indexing="ij"
        )
        pair_blended, pair_report = _executor(plan).escalate_pairs(
            source_profile,
            target_profile,
            grid_rows.ravel(),
            grid_cols.ravel(),
            merged.ravel().copy(),
            0.0,
        )
        np.testing.assert_array_equal(grid_blended.ravel(), pair_blended)
        assert grid_report.escalated_pairs == pair_report.escalated_pairs

    def test_judgements_cache_under_clock_free_keys(self, profiles):
        source_profile, target_profile = profiles
        cache = ResponseCache(max_entries=64)
        executor = _executor(CascadePlan(band=0.5, budget=None), cache=cache)
        scores = np.array([0.1])
        executor.escalate_pairs(
            source_profile, target_profile, np.array([0]), np.array([0]), scores, 0.0
        )
        key = oracle_request_key(
            "recorded",
            element_view(source_profile, 0),
            element_view(target_profile, 0),
        )
        assert cache.get(key, ORACLE_CACHE_CLOCKS) == pytest.approx(0.9)
        # Content-addressed entries survive any repository watermark.
        assert cache.evict_watermark((999, 999)) == 0
        assert cache.get(key, ORACLE_CACHE_CLOCKS) == pytest.approx(0.9)

    def test_counters_aggregate_reports(self, profiles):
        source_profile, target_profile = profiles
        counters = CascadeCounters()
        executor = CascadeExecutor(
            CascadePlan(band=0.5, budget=2),
            oracle=RecordedOracle(default=0.5),
            counters=counters,
        )
        scores = np.array([0.1, 0.2, 0.3])
        for _ in range(2):
            executor.escalate_pairs(
                source_profile,
                target_profile,
                np.zeros(3, dtype=int),
                np.arange(3),
                scores.copy(),
                0.0,
            )
        totals = counters.to_dict()
        assert totals["requests"] == 2
        assert totals["ambiguous"] == 6
        assert totals["escalated"] == 4
        assert totals["truncated"] == 2

    def test_report_round_trip(self):
        report = CascadeReport(
            plan=CascadePlan(band=0.3, budget=4),
            n_ambiguous=9,
            n_escalated=4,
            oracle_calls=3,
            oracle_cache_hits=1,
            truncated=True,
            stages=(
                CascadeStage("cheap", 100, 0.5),
                CascadeStage("oracle", 4, 0.1, oracle_calls=3),
            ),
            escalated_pairs=(("a", "b"),),
        )
        rebuilt = CascadeReport.from_dict(report.to_dict())
        assert rebuilt == report                  # escalated_pairs excluded
        assert rebuilt.escalated_pairs == ()      # counts only on the wire
        assert rebuilt.elapsed_seconds == pytest.approx(0.6)


class TestPipelineIntegration:
    def test_zero_cascade_is_bit_identical(self, sample_relational, sample_xml):
        plain = HarmonyMatchEngine().match(sample_relational, sample_xml)
        explicit = HarmonyMatchEngine(cascade=None).match(
            sample_relational, sample_xml
        )
        np.testing.assert_array_equal(plain.matrix.scores, explicit.matrix.scores)
        assert explicit.cascade is None

    def test_zero_budget_cascade_scores_match_plain(
        self, sample_relational, sample_xml
    ):
        service = MatchService()
        plain = service.match_pair(
            sample_relational, sample_xml, options=MatchOptions(execution="exact")
        )
        zero = service.match_pair(
            sample_relational,
            sample_xml,
            options=MatchOptions(
                execution="exact", cascade=CascadePlan(budget=0)
            ),
        )
        np.testing.assert_allclose(
            zero.result.matrix.scores, plain.result.matrix.scores, atol=1e-9
        )
        assert zero.cascade is not None
        assert zero.cascade.n_escalated == 0

    def test_service_threads_cascade_through_both_routes(
        self, sample_relational, sample_xml
    ):
        service = MatchService()
        plan = CascadePlan(band=0.4, budget=6)
        for execution in ("exact", "batch"):
            response = service.match_pair(
                sample_relational,
                sample_xml,
                options=MatchOptions(execution=execution, cascade=plan),
            )
            report = response.cascade
            assert report is not None
            assert report.plan == plan
            assert report.n_escalated <= 6
            assert report.oracle_calls <= 6
            assert [stage.name for stage in report.stages] == ["cheap", "oracle"]
            # The envelope round-trips with the report aboard.
            from repro.service.response import MatchResponse

            assert MatchResponse.from_dict(response.to_dict()).cascade == report
        status = service.cascade_status()
        assert status["requests"] == 2
        assert status["oracle_calls"] + status["oracle_cache_hits"] >= 1
        assert status["compiled_plans"] == 1

    def test_batch_runner_escalates_candidates_only(
        self, sample_relational, sample_xml
    ):
        service = MatchService()
        response = service.match_pair(
            sample_relational,
            sample_xml,
            options=MatchOptions(
                execution="batch", cascade=CascadePlan(band=0.9, budget=None)
            ),
        )
        report = response.cascade
        assert report is not None
        # The cheap stage saw the candidate list, not the cross-product.
        assert report.stages[0].n_pairs == response.n_candidates
        assert report.stages[0].n_pairs < response.n_pairs

    def test_process_pool_workers_rebuild_the_cascade(self, small_pair):
        service = MatchService()
        corpus = {
            "T1": small_pair.target.schema,
            "T2": small_pair.source.schema,
        }
        # Batch routing: auto would route this small sweep to the exact
        # engine, where no pool runs.
        options = MatchOptions(
            execution="batch", cascade=CascadePlan(band=0.4, budget=5)
        )
        responses = service.match_corpus(
            small_pair.source.schema,
            corpus,
            options=options,
            workers=2,
        )
        assert len(responses) == 2
        assert all(response.route == "batch" for response in responses)
        for response in responses:
            assert response.cascade is not None
            assert response.cascade.n_escalated <= 5
        # The workers' oracle spend reaches the service's counters.
        reports = [response.cascade for response in responses]
        status = service.cascade_status()
        assert status["requests"] == len(reports)
        assert status["ambiguous"] == sum(r.n_ambiguous for r in reports)
        assert status["escalated"] == sum(r.n_escalated for r in reports)
        assert status["oracle_calls"] == sum(r.oracle_calls for r in reports) > 0
        assert status["oracle_cache_hits"] == sum(
            r.oracle_cache_hits for r in reports
        )
