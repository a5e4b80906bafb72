"""The corpus subsystem: index lifecycle, reuse policy, corpus_match."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus import FINGERPRINT_FORMAT_VERSION, CorpusIndex
from repro.match import Correspondence, MatchStatus, SemanticAnnotation
from repro.network import MappingGraph, compose_stored
from repro.repository import (
    AssertionMethod,
    MetadataRepository,
    ReusePolicy,
    TrustPolicy,
)
from repro.repository.reuse import PriorAssertion
from repro.schema import Schema
from repro.service import (
    CorpusCandidate,
    CorpusMatchRequest,
    CorpusMatchResponse,
    MatchOptions,
    MatchService,
)


def themed_schema(name, roots):
    schema = Schema(name)
    for root, children in roots.items():
        parent = schema.add_root(root)
        for child in children:
            schema.add_child(parent, child)
    return schema


def medical(name, extra=()):
    return themed_schema(
        name,
        {"patient": ["blood_test", "diagnosis", "physician", *extra]},
    )


@pytest.fixture(params=["memory", "pooled"])
def repository(request, tmp_path):
    if request.param == "memory":
        repo = MetadataRepository()
    else:
        repo = MetadataRepository(path=str(tmp_path / "corpus.db"))
    yield repo
    repo.close()


class TestCorpusIndexLifecycle:
    def test_fresh_index_is_stale_until_refreshed(self, repository):
        repository.register(medical("m1"))
        index = CorpusIndex(repository)
        assert index.is_stale()
        refresh = index.refresh()
        assert not index.is_stale()
        assert refresh.n_indexed == 1
        assert refresh.n_derived == 1
        assert index.refresh().was_noop

    def test_register_marks_stale_and_refresh_is_incremental(self, repository):
        repository.register(medical("m1"))
        index = CorpusIndex(repository)
        index.refresh()
        repository.register(medical("m2"))
        assert index.is_stale()
        refresh = index.refresh()
        # Only the new schema was touched; m1 stayed indexed as-is.
        assert refresh.n_added == 1
        assert refresh.n_indexed == 2
        assert not index.is_stale()

    def test_unregister_marks_stale_and_drops_entry(self, repository):
        for name in ("m1", "m2"):
            repository.register(medical(name))
        index = CorpusIndex(repository)
        index.refresh()
        repository.unregister("m2")
        assert index.is_stale()
        refresh = index.refresh()
        assert refresh.n_removed == 1
        assert sorted(index.names) == ["m1"]

    def test_reregister_under_same_name_reindexes(self, repository):
        repository.register(medical("m1"))
        index = CorpusIndex(repository)
        index.refresh()
        # Same name, different content: the fingerprint was dropped on
        # register, so the refresh must re-derive, not reload stale terms.
        repository.register(medical("m1", extra=["zeppelin_count"]), name="m1")
        assert index.is_stale()
        refresh = index.refresh()
        assert refresh.n_derived == 1
        assert refresh.n_from_fingerprints == 0
        # The new content is retrievable and the fingerprint re-persisted.
        hits = index.top_candidates(
            themed_schema("probe", {"hangar": ["zeppelin_count"]}), limit=5
        )
        assert [hit.schema_name for hit in hits] == ["m1"]
        assert repository.get_fingerprint("m1") is not None

    def test_reregister_identical_schema_is_a_noop(self, repository):
        repository.register(medical("m1"))
        index = CorpusIndex(repository)
        index.refresh()
        generation = repository.generation
        # Identical content under the same name: nothing changes -- the
        # fingerprint survives and the index never goes stale (the CLI
        # re-registers its whole corpus on every --db invocation).
        repository.register(medical("m1"))
        assert repository.generation == generation
        assert repository.get_fingerprint("m1") is not None
        assert not index.is_stale()

    def test_query_refreshes_lazily(self, repository):
        repository.register(medical("m1"))
        index = CorpusIndex(repository)
        hits = index.top_candidates(medical("probe"), limit=5)
        assert [hit.schema_name for hit in hits] == ["m1"]
        repository.register(medical("m2"))
        hits = index.top_candidates(medical("probe"), limit=5)
        assert sorted(hit.schema_name for hit in hits) == ["m1", "m2"]

    def test_top_candidates_validation(self, repository):
        index = CorpusIndex(repository)
        with pytest.raises(ValueError):
            index.top_candidates(medical("probe"), limit=0)


class TestFingerprintPersistence:
    def test_reopen_reloads_from_fingerprints(self, tmp_path):
        path = str(tmp_path / "fp.db")
        with MetadataRepository(path=path) as repository:
            for name in ("m1", "m2", "m3"):
                repository.register(medical(name))
            cold = CorpusIndex(repository).refresh()
            assert cold.n_derived == 3
        with MetadataRepository(path=path) as reopened:
            warm = CorpusIndex(reopened).refresh()
            assert warm.n_from_fingerprints == 3
            assert warm.n_derived == 0

    def test_fingerprint_reload_ranks_like_cold_build(self, tmp_path):
        path = str(tmp_path / "rank.db")
        probe = medical("probe")
        with MetadataRepository(path=path) as repository:
            repository.register(medical("m1"))
            repository.register(themed_schema("v1", {"vehicle": ["fuel", "engine"]}))
            cold_hits = CorpusIndex(repository).top_candidates(probe, limit=5)
        with MetadataRepository(path=path) as reopened:
            warm_hits = CorpusIndex(reopened).top_candidates(probe, limit=5)
        assert [(h.schema_name, pytest.approx(h.score)) for h in cold_hits] == [
            (h.schema_name, h.score) for h in warm_hits
        ]

    def test_tampered_fingerprint_is_rederived(self, tmp_path):
        path = str(tmp_path / "tamper.db")
        with MetadataRepository(path=path) as repository:
            repository.register(medical("m1"))
            CorpusIndex(repository).refresh()
        with MetadataRepository(path=path) as reopened:
            fingerprint = reopened.get_fingerprint("m1")
            fingerprint["hash"] = "not-the-payload-hash"
            reopened.put_fingerprint("m1", fingerprint)
            refresh = CorpusIndex(reopened).refresh()
            assert refresh.n_derived == 1
            assert refresh.n_from_fingerprints == 0

    def test_sibling_index_over_one_repository_stays_fresh(self, repository):
        # Two indexes share one repository; whichever refreshes second
        # must still notice re-registered content even though the first
        # refresh already re-persisted the fingerprint.
        repository.register(medical("m1"))
        first = CorpusIndex(repository)
        second = CorpusIndex(repository)
        first.refresh()
        second.refresh()
        repository.register(medical("m1", extra=["zeppelin_count"]), name="m1")
        assert first.refresh().n_added == 1      # re-derives, re-persists
        refresh = second.refresh()               # fingerprint present again...
        assert refresh.n_added == 1              # ...but hash changed: rebuilt
        probe = themed_schema("probe", {"hangar": ["zeppelin_count"]})
        assert [h.schema_name for h in second.top_candidates(probe, limit=5)] == ["m1"]

    def test_unknown_format_version_is_rederived(self, tmp_path):
        path = str(tmp_path / "version.db")
        with MetadataRepository(path=path) as repository:
            repository.register(medical("m1"))
            CorpusIndex(repository).refresh()
        with MetadataRepository(path=path) as reopened:
            fingerprint = reopened.get_fingerprint("m1")
            fingerprint["format_version"] = FINGERPRINT_FORMAT_VERSION + 1
            reopened.put_fingerprint("m1", fingerprint)
            refresh = CorpusIndex(reopened).refresh()
            assert refresh.n_derived == 1


class TestRepositoryEdgeCases:
    def test_unregister_target_side_cascades_only_its_matches(self, repository):
        for name in ("a", "b", "c"):
            repository.register(medical(name))
        repository.store_match(
            "a", "b", Correspondence("x", "y", 0.5), asserted_by="alice"
        )
        repository.store_match(
            "a", "c", Correspondence("x", "z", 0.6), asserted_by="alice"
        )
        repository.unregister("b")  # referenced as *target* only
        remaining = repository.matches()
        assert len(remaining) == 1
        assert remaining[0].target_schema == "c"
        assert repository.matches_touching("b") == []

    def test_unregister_drops_fingerprint(self, repository):
        repository.register(medical("a"))
        CorpusIndex(repository).refresh()
        assert repository.get_fingerprint("a") is not None
        repository.unregister("a")
        assert repository.get_fingerprint("a") is None
        assert repository.fingerprint_names() == []

    def test_generation_advances_on_register_and_unregister(self, repository):
        start = repository.generation
        repository.register(medical("a"))
        assert repository.generation == start + 1
        repository.unregister("a")
        assert repository.generation == start + 2

    def test_store_matches_is_one_sqlite_transaction(self, tmp_path):
        # One pooled connection, so tracing it sees every statement.
        repository = MetadataRepository(path=str(tmp_path / "txn.db"), pool_size=1)
        for name in ("a", "b"):
            repository.register(medical(name))
        backend = repository.backend
        connection = backend._acquire()
        backend._release(connection)
        statements = []
        connection.set_trace_callback(statements.append)
        count = repository.store_matches(
            "a",
            "b",
            [Correspondence("x", f"y{i}", 0.5) for i in range(10)],
            asserted_by="engine",
        )
        connection.set_trace_callback(None)
        assert count == 10
        # Two transactions for the whole batch -- one reserving the
        # sequence block, ONE writing every row plus the clock bump --
        # never one commit per match.
        commits = sum(1 for s in statements if s.strip().upper() == "COMMIT")
        assert commits == 2
        assert len(repository.matches()) == 10
        repository.close()

    def test_put_fingerprints_steps_a_few_statements(self, tmp_path):
        # sqlite3 releases the interpreter lock around every statement, so
        # a bulk fingerprint write racing queries must not step one INSERT
        # per row: 600 rows go out as a handful of multi-row INSERTs.
        repository = MetadataRepository(path=str(tmp_path / "fp.db"), pool_size=1)
        backend = repository.backend
        connection = backend._acquire()
        backend._release(connection)
        statements = []
        connection.set_trace_callback(statements.append)
        repository.put_fingerprints(
            {f"s{i:04d}": {"hash": f"h{i}", "terms": {}} for i in range(600)}
        )
        connection.set_trace_callback(None)
        inserts = [s for s in statements if s.lstrip().upper().startswith("INSERT")]
        assert 1 <= len(inserts) <= 3
        assert len(repository.fingerprint_names()) == 600
        repository.close()

    def test_put_schemas_steps_a_few_statements(self, tmp_path):
        # The bulk-ingest write: 600 schemata, half with a fingerprint and
        # half dropping one, step a handful of multi-row statements in one
        # transaction, not two per schema.
        repository = MetadataRepository(path=str(tmp_path / "s.db"), pool_size=1)
        backend = repository.backend
        connection = backend._acquire()
        backend._release(connection)
        names = [f"s{i:04d}" for i in range(600)]
        statements = []
        connection.set_trace_callback(statements.append)
        backend.put_schemas(
            {name: {"n": name} for name in names},
            fingerprints={name: {"hash": name, "terms": {}} for name in names[::2]},
        )
        connection.set_trace_callback(None)
        verbs = [s.split()[0].upper() for s in statements]
        assert verbs.count("INSERT") <= 5
        assert verbs.count("DELETE") == 1
        assert verbs.count("COMMIT") == 1
        assert len(statements) <= 10
        assert backend.schema_names() == names
        assert sorted(backend.fingerprint_hashes()) == names[::2]
        repository.close()

    def test_store_matches_requires_registered_schemas(self, repository):
        with pytest.raises(KeyError):
            repository.store_matches(
                "ghost", "b", [Correspondence("x", "y", 0.5)], asserted_by="a"
            )


def _reference_priors(policy, scan, source, target):
    """ReusePolicy.priors recomputed from a plain store scan."""
    candidates, rejected = [], set()
    for match in scan:
        correspondence = match.correspondence
        if (match.source_schema, match.target_schema) == (source, target):
            pair = (correspondence.source_id, correspondence.target_id)
        elif (match.source_schema, match.target_schema) == (target, source):
            pair = (correspondence.target_id, correspondence.source_id)
        else:
            continue
        if correspondence.status is MatchStatus.REJECTED:
            rejected.add(pair)
            continue
        if policy.trust is not None and not policy.trust.trusts(match.provenance):
            continue
        method = match.provenance.method
        candidates.append(PriorAssertion(
            *pair,
            correspondence.score,
            policy.weight_for(method) * correspondence.score,
            method,
            match.provenance.asserted_by,
        ))
    if policy.include_composed:
        for derived in compose_stored(scan, source, target, policy=policy.trust):
            candidates.append(PriorAssertion(
                derived.source_id,
                derived.target_id,
                derived.score,
                policy.composed_weight * derived.score,
                AssertionMethod.COMPOSED,
                derived.asserted_by,
            ))
    best = {}
    for prior in candidates:
        if prior.pair in rejected:
            continue
        if prior.pair not in best or prior.weighted_score > best[prior.pair].weighted_score:
            best[prior.pair] = prior
    return best


class TestReusePolicy:
    def _repo(self):
        repository = MetadataRepository()
        for name in ("a", "b", "c"):
            repository.register(medical(name))
        return repository

    def test_dict_round_trip_keeps_the_wire_keys(self):
        policy = ReusePolicy(boost=0.5, trust=TrustPolicy.for_search())
        payload = policy.to_dict()
        assert list(payload) == [
            "human_weight", "automatic_weight", "imported_weight",
            "composed_weight", "boost", "seed_scale", "seed_floor",
            "include_composed", "trust",
        ]
        assert payload["trust"] == TrustPolicy.for_search().to_dict()
        assert ReusePolicy.from_dict(json.loads(json.dumps(payload))) == policy
        assert ReusePolicy().to_dict()["trust"] is None

    def test_from_dict_fills_defaults_and_ignores_unknown_keys(self):
        assert ReusePolicy.from_dict({}) == ReusePolicy()
        assert ReusePolicy.from_dict(
            {"seed_floor": 0.4, "trust": None, "future_knob": 1}
        ) == ReusePolicy(seed_floor=0.4)

    def test_human_prior_boosts_more_than_automatic(self):
        repository = self._repo()
        repository.store_match(
            "a", "b", Correspondence("x1", "y1", 0.8), asserted_by="alice",
            method=AssertionMethod.HUMAN_VALIDATED,
        )
        repository.store_match(
            "a", "b", Correspondence("x2", "y2", 0.8), asserted_by="engine",
        )
        fresh = [Correspondence("x1", "y1", 0.4), Correspondence("x2", "y2", 0.4)]
        outcome = ReusePolicy().rematch(MappingGraph(repository).view(), "a", "b", fresh)
        by_pair = {c.pair: c for c in outcome.correspondences}
        assert by_pair[("x1", "y1")].score > by_pair[("x2", "y2")].score > 0.4
        assert outcome.n_boosted == 2

    def test_boosted_note_carries_prior_provenance(self):
        repository = self._repo()
        repository.store_match(
            "a", "b", Correspondence("x", "y", 0.8), asserted_by="alice",
            method=AssertionMethod.HUMAN_VALIDATED,
        )
        outcome = ReusePolicy().rematch(
            MappingGraph(repository).view(), "a", "b", [Correspondence("x", "y", 0.4)]
        )
        note = outcome.correspondences[0].note
        assert "reuse-boosted" in note
        assert "alice" in note
        assert "human" in note

    def test_flipped_direction_priors_apply(self):
        repository = self._repo()
        repository.store_match(
            "b", "a", Correspondence("y", "x", 0.8), asserted_by="alice",
            method=AssertionMethod.HUMAN_VALIDATED,
        )
        outcome = ReusePolicy().rematch(
            MappingGraph(repository).view(), "a", "b", [Correspondence("x", "y", 0.4)]
        )
        assert outcome.n_boosted == 1
        assert outcome.correspondences[0].score > 0.4

    def test_missed_prior_is_seeded_with_provenance(self):
        repository = self._repo()
        repository.store_match(
            "a", "b", Correspondence("x", "y", 0.9), asserted_by="alice",
            method=AssertionMethod.HUMAN_VALIDATED,
        )
        outcome = ReusePolicy().rematch(MappingGraph(repository).view(), "a", "b", [])
        assert outcome.n_seeded == 1
        seeded = outcome.correspondences[0]
        assert seeded.asserted_by == "reuse"
        assert seeded.status is MatchStatus.CANDIDATE
        assert "reuse-seeded" in seeded.note
        assert seeded.score == pytest.approx(0.9 * 0.8)  # weight 1.0, seed_scale 0.8

    def test_weak_prior_is_not_seeded(self):
        repository = self._repo()
        repository.store_match(
            "a", "b", Correspondence("x", "y", 0.2), asserted_by="engine",
        )
        outcome = ReusePolicy().rematch(MappingGraph(repository).view(), "a", "b", [])
        # 0.2 x automatic 0.5 x seed_scale 0.8 = 0.08 < seed_floor 0.2
        assert outcome.n_seeded == 0

    def test_rejected_priors_never_boost_or_seed(self):
        repository = self._repo()
        repository.store_match(
            "a", "b",
            Correspondence("x", "y", 0.9, status=MatchStatus.REJECTED),
            asserted_by="alice", method=AssertionMethod.HUMAN_VALIDATED,
        )
        outcome = ReusePolicy().rematch(
            MappingGraph(repository).view(), "a", "b", [Correspondence("x", "y", 0.4)]
        )
        assert outcome.n_boosted == 0
        assert outcome.n_seeded == 0
        assert outcome.correspondences[0].score == pytest.approx(0.4)

    def test_rejection_vetoes_older_priors_for_the_pair(self):
        # An engineer's "spurious" verdict buries every other assertion
        # for that pair -- including older automatic ones and flipped
        # rejections recorded in the other direction.
        repository = self._repo()
        repository.store_match(
            "a", "b", Correspondence("x", "y", 0.9), asserted_by="engine",
        )
        repository.store_match(
            "b", "a",
            Correspondence("y", "x", 0.9, status=MatchStatus.REJECTED),
            asserted_by="alice", method=AssertionMethod.HUMAN_VALIDATED,
        )
        outcome = ReusePolicy().rematch(
            MappingGraph(repository).view(), "a", "b", [Correspondence("x", "y", 0.4)]
        )
        assert outcome.n_boosted == 0
        assert outcome.n_seeded == 0
        assert outcome.correspondences[0].score == pytest.approx(0.4)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_graph_view_matches_a_fresh_scan(self, repository, seed):
        """priors/rematch/recall through the mapping graph's cached view
        equal a reference built from a fresh store scan, over a random
        history of stores, rejections and unregisters -- and the view
        rebuilds exactly when the clocks move."""
        rng = random.Random(seed)
        names = ["a", "b", "c", "d"]
        for name in names:
            repository.register(medical(name))
        graph = MappingGraph(repository)
        service = MatchService(repository=repository)
        policies = (
            ReusePolicy(),
            ReusePolicy(include_composed=False),
            ReusePolicy(trust=TrustPolicy(require_human=True)),
        )
        built_at = None
        for _ in range(20):
            registered = repository.schema_names()
            roll = rng.random()
            if roll < 0.1 and len(registered) > 2:
                repository.unregister(rng.choice(registered))
            elif roll < 0.2 and len(registered) < len(names):
                repository.register(
                    medical(rng.choice(sorted(set(names) - set(registered))))
                )
            elif roll < 0.8:
                source, target = rng.sample(registered, 2)
                repository.store_matches(
                    source,
                    target,
                    [
                        Correspondence(
                            f"{source}.{rng.choice('xyz')}",
                            f"{target}.{rng.choice('xyz')}",
                            rng.uniform(0.1, 1.0),
                            status=(
                                MatchStatus.REJECTED
                                if rng.random() < 0.2
                                else MatchStatus.CANDIDATE
                            ),
                        )
                        for _ in range(rng.randint(1, 4))
                    ],
                    asserted_by=rng.choice(["alice", "engine"]),
                    method=rng.choice(
                        [AssertionMethod.HUMAN_VALIDATED, AssertionMethod.AUTOMATIC]
                    ),
                )
            # else: no write, so the view must stay as built.
            clocks = repository.clocks()
            assert graph.refresh().rebuilt == (clocks != built_at)
            built_at = clocks
            scan = repository.matches()
            view = graph.view()
            assert view.matches == tuple(scan)
            registered = repository.schema_names()
            for source in registered:
                for target in registered:
                    if source == target:
                        continue
                    for policy in policies:
                        expected = _reference_priors(policy, scan, source, target)
                        assert policy.priors(view, source, target) == expected
                    fresh = [Correspondence(f"{source}.x", f"{target}.x", 0.5)]
                    assert policies[0].rematch(
                        view, source, target, fresh
                    ) == policies[0].apply(
                        fresh, _reference_priors(policies[0], scan, source, target)
                    )
                    assert service.recall(source, target) == tuple(
                        m.correspondence
                        for m in scan
                        if (m.source_schema, m.target_schema) == (source, target)
                    )

    def test_trust_gate_filters_priors(self):
        repository = self._repo()
        repository.store_match(
            "a", "b", Correspondence("x", "y", 0.9), asserted_by="engine",
        )
        policy = ReusePolicy(trust=TrustPolicy(require_human=True))
        outcome = policy.rematch(
            MappingGraph(repository).view(), "a", "b", [Correspondence("x", "y", 0.4)]
        )
        assert outcome.n_boosted == 0
        assert outcome.n_priors == 0

    def test_composed_priors_join_at_composed_weight(self):
        repository = self._repo()
        repository.store_match(
            "a", "c", Correspondence("x", "z", 0.8), asserted_by="alice"
        )
        repository.store_match(
            "c", "b", Correspondence("z", "y", 0.7), asserted_by="alice"
        )
        priors = ReusePolicy().priors(MappingGraph(repository).view(), "a", "b")
        assert ("x", "y") in priors
        prior = priors[("x", "y")]
        assert prior.method is AssertionMethod.COMPOSED
        assert prior.weighted_score == pytest.approx(0.35 * 0.7)
        assert not ReusePolicy(include_composed=False).priors(
            MappingGraph(repository).view(), "a", "b"
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            ReusePolicy(boost=1.5)
        with pytest.raises(ValueError):
            ReusePolicy(human_weight=-0.1)
        with pytest.raises(ValueError):
            ReusePolicy(seed_floor=2.0)


class TestCorpusMatchService:
    def _service(self):
        repository = MetadataRepository()
        repository.register(medical("med1"))
        repository.register(medical("med2", extra=["ward"]))
        repository.register(
            themed_schema("motor", {"vehicle": ["registration", "fuel_level"]})
        )
        return MatchService(repository=repository)

    def test_requires_repository(self):
        with pytest.raises(ValueError):
            MatchService().corpus_match(CorpusMatchRequest(source=medical("q")))
        with pytest.raises(ValueError):
            MatchService().corpus_index()

    def test_registered_source_is_excluded_and_ranked(self):
        service = self._service()
        response = service.corpus_match(CorpusMatchRequest(source="med1", top_k=2))
        assert response.source_name == "med1"
        assert "med1" not in response.candidate_names
        assert response.candidate_names[0] == "med2"
        assert response.n_registered == 3
        assert len(response) <= 2
        assert response.best.target_name == "med2"
        assert response.best.correspondences

    def test_warm_corpus_matches_share_one_store_scan(self):
        service = self._service()
        service.repository.store_match(
            "med1", "med2", Correspondence("m.x", "p.y", 0.9), asserted_by="alice"
        )
        backend = service.repository.backend
        scans = []
        all_matches = backend.all_matches
        backend.all_matches = lambda: scans.append(1) or all_matches()
        for _ in range(5):
            response = service.corpus_match(CorpusMatchRequest(source="med1", top_k=2))
            assert response.reuse_applied
        assert len(scans) == 1
        service.repository.store_match(
            "med1", "motor", Correspondence("m.x", "v.y", 0.5), asserted_by="alice"
        )
        service.corpus_match(CorpusMatchRequest(source="med1", top_k=2))
        assert len(scans) == 2  # a write moves the clock: one rebuild

    def test_inline_source_skips_reuse(self):
        service = self._service()
        response = service.corpus_match(
            CorpusMatchRequest(source=medical("probe"), top_k=3)
        )
        assert response.reuse_applied is False

    def test_same_named_registered_schema_is_not_the_inline_source(self):
        # An inline query whose .name collides with a *different*
        # registered schema: that schema stays a candidate, and its
        # stored priors are NOT lent to the inline query.
        service = self._service()
        repository = service.repository
        repository.store_match(
            "med1", "med2",
            Correspondence("m.x", "p.y", 0.9), asserted_by="alice",
            method=AssertionMethod.HUMAN_VALIDATED,
        )
        inline = medical("med1", extra=["surgeon"])  # same name, new content
        response = service.corpus_match(CorpusMatchRequest(source=inline, top_k=3))
        assert "med1" in response.candidate_names   # still a candidate
        assert response.reuse_applied is False      # no name-borrowed priors
        assert all(c.n_boosted == 0 for c in response.candidates)
        assert response.source_name == "med1"       # the schema's own name

    def test_underfilled_retrieval_widens_the_fetch(self):
        # Several identical registered copies of the query must not
        # shrink the candidate shortlist below the requested width.
        service = self._service()
        service.repository.register(medical("med3", extra=["clinic"]))
        query = medical("m_query")
        for alias in ("copy_a", "copy_b", "copy_c"):
            service.repository.register(query, name=alias)
        response = service.corpus_match(
            CorpusMatchRequest(source=query, top_k=3, retrieval_limit=3)
        )
        assert not set(response.candidate_names) & {"copy_a", "copy_b", "copy_c"}
        # All three real medical schemata were still retrieved and matched
        # even though the identical copies dominate the BM25 ranking.
        assert response.n_retrieved == 3
        assert set(response.candidate_names) == {"med1", "med2", "med3"}

    def test_by_name_query_keeps_identical_siblings(self):
        # Two distinct registered systems with identical schemata -- the
        # consolidation case: querying one BY NAME must surface the other
        # as the (obviously best) candidate, not hide it as a "copy".
        service = self._service()
        service.repository.register(
            service.repository.schema("med1"), name="med1_mirror"
        )
        response = service.corpus_match(CorpusMatchRequest(source="med1", top_k=2))
        assert response.candidate_names[0] == "med1_mirror"
        assert "med1" not in response.candidate_names

    def test_copy_registered_under_custom_name_is_excluded(self):
        # The query schema lives in the registry under a different name:
        # content-based exclusion must drop it (a self-match would
        # otherwise take the top slot), and reuse keys on that name.
        service = self._service()
        query = medical("m_query")
        service.repository.register(query, name="custom_alias")
        response = service.corpus_match(CorpusMatchRequest(source=query, top_k=3))
        assert "custom_alias" not in response.candidate_names
        assert response.source_name == "custom_alias"
        assert response.reuse_applied is True

    def test_prior_assertions_boost_candidates(self):
        service = self._service()
        repository = service.repository
        baseline = service.corpus_match(
            CorpusMatchRequest(source="med1", top_k=1, reuse=None)
        )
        top = baseline.best
        strongest = top.correspondences[0]
        repository.store_match(
            "med1", top.target_name,
            strongest.accept(by="alice"),
            asserted_by="alice", method=AssertionMethod.HUMAN_VALIDATED,
        )
        boosted = service.corpus_match(CorpusMatchRequest(source="med1", top_k=1))
        assert boosted.reuse_applied is True
        assert boosted.best.n_boosted >= 1
        boosted_strongest = {
            c.pair: c for c in boosted.best.correspondences
        }[strongest.pair]
        assert boosted_strongest.score > strongest.score
        assert "reuse-boosted" in boosted_strongest.note

    def test_exclude_and_retrieval_limit(self):
        service = self._service()
        response = service.corpus_match(
            CorpusMatchRequest(
                source="med1", top_k=3, exclude=("med2",), retrieval_limit=1
            )
        )
        assert "med2" not in response.candidate_names
        assert response.n_retrieved <= 1

    def test_request_validation(self):
        with pytest.raises(ValueError):
            CorpusMatchRequest(source="a", top_k=0)
        with pytest.raises(ValueError):
            CorpusMatchRequest(source="a", retrieval_limit=0)
        with pytest.raises(TypeError):
            CorpusMatchRequest(source=42)
        assert CorpusMatchRequest(source="a", top_k=5).effective_retrieval_limit == 15
        assert (
            CorpusMatchRequest(source="a", retrieval_limit=7).effective_retrieval_limit
            == 7
        )


def _score_strategy():
    return st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


def _options_strategy():
    return st.one_of(
        st.just(MatchOptions()),
        st.builds(
            MatchOptions,
            voters=st.just(("name_token", "path")),
            merger=st.sampled_from(("conviction_linear", "average", "min")),
            selection=st.sampled_from(("threshold", "top_k")),
            threshold=_score_strategy(),
            execution=st.sampled_from(("auto", "exact", "batch")),
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


def _candidate_strategy():
    return st.builds(
        CorpusCandidate,
        target_name=st.text(min_size=1, max_size=12),
        retrieval_score=st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
        match_score=st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
        n_source=st.integers(min_value=0, max_value=5000),
        n_target=st.integers(min_value=0, max_value=5000),
        n_candidates=st.integers(min_value=0, max_value=10_000_000),
        elapsed_seconds=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        n_boosted=st.integers(min_value=0, max_value=100),
        n_seeded=st.integers(min_value=0, max_value=100),
        correspondences=st.lists(_correspondence_strategy(), max_size=4).map(tuple),
    )


def _corpus_response_strategy():
    return st.builds(
        CorpusMatchResponse,
        source_name=st.text(min_size=1, max_size=12),
        n_registered=st.integers(min_value=0, max_value=10_000),
        n_retrieved=st.integers(min_value=0, max_value=10_000),
        top_k=st.integers(min_value=1, max_value=20),
        elapsed_seconds=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        retrieval_seconds=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        options=_options_strategy(),
        reuse_applied=st.booleans(),
        candidates=st.lists(_candidate_strategy(), max_size=3).map(tuple),
    )


class TestCorpusResponseRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(_corpus_response_strategy())
    def test_dict_and_json_round_trip(self, response):
        assert CorpusMatchResponse.from_dict(response.to_dict()) == response
        assert CorpusMatchResponse.from_json(response.to_json()) == response
        json.dumps(response.to_dict())  # strictly JSON-serialisable

    def test_version_gate(self):
        with pytest.raises(ValueError):
            CorpusMatchResponse.from_dict({"format_version": 99})

    def test_live_response_round_trips(self):
        repository = MetadataRepository()
        repository.register(medical("m1"))
        repository.register(medical("m2"))
        service = MatchService(repository=repository)
        response = service.corpus_match(CorpusMatchRequest(source="m1", top_k=2))
        rebuilt = CorpusMatchResponse.from_json(response.to_json())
        assert rebuilt == response
