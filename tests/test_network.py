"""Mapping network: graph lifecycle, multi-hop composition, service, CLI."""

import json

import pytest

from repro.match import Correspondence, MatchStatus
from repro.network import MappingGraph, build_adjacency, compose_stored
from repro.repository import (
    AssertionMethod,
    MetadataRepository,
    ReusePolicy,
    TrustPolicy,
    compose_matches,
)
from repro.schema import Schema
from repro.service import (
    MatchOptions,
    MatchService,
    NetworkMatchRequest,
    NetworkMatchResponse,
)
from repro.synthetic import generate_mapping_chain


def small_schema(name, elements=("x", "y")):
    schema = Schema(name)
    root = schema.add_root(name.upper())
    for element in elements:
        schema.add_child(root, element)
    return schema


@pytest.fixture(params=["memory", "pooled"])
def repository(request, tmp_path):
    if request.param == "memory":
        repo = MetadataRepository()
    else:
        repo = MetadataRepository(path=str(tmp_path / "network.db"))
    yield repo
    repo.close()


@pytest.fixture
def chain_repository(repository):
    """a - b - c - d chain with the b<->c mapping stored REVERSED (c -> b)."""
    for name in "abcd":
        repository.register(small_schema(name))
    repository.store_match(
        "a", "b", Correspondence("a.x", "b.x", 0.8), asserted_by="alice"
    )
    repository.store_match(
        "c", "b", Correspondence("c.x", "b.x", 0.7), asserted_by="alice"
    )
    repository.store_match(
        "c", "d", Correspondence("c.x", "d.x", 0.9), asserted_by="alice"
    )
    return repository


class TestMappingGraph:
    def test_topology(self, chain_repository):
        graph = MappingGraph(chain_repository)
        assert graph.n_nodes == 4
        refresh = graph.refresh()
        assert refresh.n_edges == 3
        assert graph.neighbours("b") == ["a", "c"]
        assert graph.neighbours("a") == ["b"]
        with pytest.raises(KeyError):
            graph.neighbours("missing")

    def test_legs_flip_stored_direction(self, chain_repository):
        graph = MappingGraph(chain_repository)
        # b -> c is only stored as c -> b; traversal must see it flipped.
        legs = graph.legs("b", "c")
        assert [(leg.source_element, leg.target_element) for leg in legs] == [
            ("b.x", "c.x")
        ]

    def test_paths_are_acyclic_and_bounded(self, chain_repository):
        graph = MappingGraph(chain_repository)
        assert graph.paths("a", "c", max_hops=1) == [("a", "b", "c")]
        assert graph.paths("a", "d", max_hops=1) == []
        assert graph.paths("a", "d", max_hops=2) == [("a", "b", "c", "d")]
        # A direct edge is never a "path" (composition needs >= 1 pivot).
        assert graph.paths("a", "b", max_hops=3) == []
        with pytest.raises(ValueError):
            graph.paths("a", "d", max_hops=0)

    def test_single_pivot_composition_flips_legs(self, chain_repository):
        graph = MappingGraph(chain_repository)
        composed = graph.compose("a", "c", max_hops=1)
        assert len(composed) == 1
        assert composed[0].pair == ("a.x", "c.x")
        assert composed[0].score == pytest.approx(0.7)  # min of the legs

    def test_multi_hop_decays_per_extra_pivot(self, chain_repository):
        graph = MappingGraph(chain_repository, hop_decay=0.9)
        composed = graph.compose("a", "d", max_hops=2)
        assert composed[0].pair == ("a.x", "d.x")
        # min(0.8, 0.7, 0.9) = 0.7; one pivot beyond the first -> one decay.
        assert composed[0].score == pytest.approx(0.7 * 0.9)
        assert "composed via b > c" in composed[0].note

    def test_multi_path_evidence_merges_strongest(self, repository):
        for name in ("a", "p", "q", "c"):
            repository.register(small_schema(name))
        for pivot, score in (("p", 0.9), ("q", 0.5)):
            repository.store_match(
                "a", pivot, Correspondence("a.x", f"{pivot}.x", score),
                asserted_by="alice",
            )
            repository.store_match(
                pivot, "c", Correspondence(f"{pivot}.x", "c.x", score),
                asserted_by="alice",
            )
        graph = MappingGraph(repository)
        composed = graph.compose("a", "c", max_hops=1)
        assert len(composed) == 1
        assert composed[0].score == pytest.approx(0.9)  # p wins
        assert "+1 more path" in composed[0].note
        route = graph.route("a", "c", max_hops=1)
        assert route.n_paths == 2

    def test_rejected_legs_never_traverse(self, chain_repository):
        chain_repository.store_match(
            "a", "b",
            Correspondence("a.y", "b.y", 0.99, status=MatchStatus.REJECTED),
            asserted_by="bob",
        )
        graph = MappingGraph(chain_repository)
        assert all(c.pair != ("a.y", "c.y") for c in graph.compose("a", "c"))

    def test_trust_policy_gates_legs_per_query(self, chain_repository):
        graph = MappingGraph(chain_repository)
        strict = TrustPolicy(min_confidence=0.75)
        # The c->b leg (0.7) falls below the gate; composition dies.
        assert graph.compose("a", "c", max_hops=1, policy=strict) == []
        # Same cached adjacency, permissive query still composes.
        assert len(graph.compose("a", "c", max_hops=1)) == 1

    def test_staleness_tracks_both_clocks(self, chain_repository):
        graph = MappingGraph(chain_repository)
        graph.refresh()
        assert not graph.is_stale()
        assert not graph.refresh().rebuilt
        chain_repository.store_match(
            "a", "d", Correspondence("a.y", "d.y", 0.5), asserted_by="alice"
        )
        assert graph.is_stale()
        assert graph.refresh().rebuilt
        chain_repository.register(small_schema("e"))
        assert graph.is_stale()
        chain_repository.unregister("e")
        assert graph.is_stale()
        graph.refresh()
        assert not graph.is_stale()

    def test_unregister_drops_edges(self, chain_repository):
        graph = MappingGraph(chain_repository)
        assert graph.paths("a", "d", max_hops=2)
        chain_repository.unregister("b")
        assert graph.paths("a", "d", max_hops=3) == []
        with pytest.raises(KeyError):
            graph.paths("a", "b", max_hops=1)

    def test_hop_decay_validation(self, chain_repository):
        with pytest.raises(ValueError):
            MappingGraph(chain_repository, hop_decay=0.0)
        with pytest.raises(ValueError):
            MappingGraph(chain_repository).compose("a", "c", hop_decay=1.5)

    def test_degenerate_self_query_refused(self, chain_repository):
        # An a -> P -> a round trip must never come back as a plausible
        # "composition" of a schema with itself.
        graph = MappingGraph(chain_repository)
        with pytest.raises(ValueError):
            graph.compose("b", "b", max_hops=2)
        with pytest.raises(ValueError):
            graph.paths("b", "b", max_hops=2)
        with pytest.raises(ValueError):
            compose_matches(chain_repository, "b", "b")


class TestComposeMatchesRefactor:
    """compose_matches is now the max_hops=1 case of the path composer."""

    def test_reversed_direction_legs_compose(self, chain_repository):
        # Regression: both legs of a -> c touch stored rows whose query
        # orientation differs from the stored one (c -> b is reversed).
        composed = compose_matches(chain_repository, "a", "c")
        assert [c.pair for c in composed] == [("a.x", "c.x")]
        assert composed[0].score == pytest.approx(0.7)
        flipped = compose_matches(chain_repository, "c", "a")
        assert [c.pair for c in flipped] == [("c.x", "a.x")]

    def test_k1_matches_reference_implementation(self, repository):
        """The refactored composer reproduces the original single-pivot
        algorithm (inlined here) to 1e-9 on a dense multi-pivot fixture."""
        import random

        rng = random.Random(18)
        names = ["s", "t", "p1", "p2", "p3"]
        for name in names:
            repository.register(small_schema(name, ["e0", "e1", "e2"]))
        stored = []
        for left in names:
            for right in names:
                if left >= right:
                    continue
                for _ in range(3):
                    correspondence = Correspondence(
                        f"{left}.e{rng.randrange(3)}",
                        f"{right}.e{rng.randrange(3)}",
                        round(rng.uniform(0.1, 1.0), 3),
                    )
                    if rng.random() < 0.5:
                        repository.store_match(
                            left, right, correspondence, asserted_by="alice"
                        )
                        stored.append((left, right, correspondence))
                    else:
                        flipped = Correspondence(
                            correspondence.target_id,
                            correspondence.source_id,
                            correspondence.score,
                        )
                        repository.store_match(
                            right, left, flipped, asserted_by="alice"
                        )
                        stored.append((right, left, flipped))

        def reference(source_schema, target_schema):
            via = {}
            best = {}
            def legs(schema_name):
                out = []
                for a, b, c in stored:
                    if a == schema_name:
                        out.append((b, c.source_id, c.target_id, c.score))
                    elif b == schema_name:
                        out.append((a, c.target_id, c.source_id, c.score))
                return out
            for pivot, own, pivot_el, score in legs(source_schema):
                if pivot == target_schema:
                    continue
                via.setdefault((pivot, pivot_el), []).append((own, score))
            for pivot, own, pivot_el, score in legs(target_schema):
                if pivot == source_schema:
                    continue
                for source_el, source_score in via.get((pivot, pivot_el), []):
                    pair = (source_el, own)
                    composed = min(source_score, score)
                    if composed > best.get(pair, float("-inf")):
                        best[pair] = composed
            return best

        for source, target in (("s", "t"), ("t", "s"), ("p1", "p3")):
            expected = reference(source, target)
            actual = {
                c.pair: c.score for c in compose_matches(repository, source, target)
            }
            assert set(actual) == set(expected)
            for pair, score in expected.items():
                assert actual[pair] == pytest.approx(score, abs=1e-9)

    def test_compose_stored_needs_no_repository(self, chain_repository):
        stored = chain_repository.matches()
        assert compose_stored(stored, "a", "c") == compose_matches(
            chain_repository, "a", "c"
        )

    def test_multi_hop_through_compose_matches(self, chain_repository):
        composed = compose_matches(
            chain_repository, "a", "d", max_hops=2, hop_decay=1.0
        )
        assert [c.pair for c in composed] == [("a.x", "d.x")]
        assert composed[0].score == pytest.approx(0.7)

    def test_adjacency_skips_self_matches(self, repository):
        repository.register(small_schema("a"))
        repository.store_match(
            "a", "a", Correspondence("a.x", "a.y", 0.9), asserted_by="alice"
        )
        assert build_adjacency(repository.matches()) == {}


class TestReusePolicyComposedParameter:
    def test_external_composed_candidates_join_at_composed_weight(
        self, chain_repository
    ):
        policy = ReusePolicy()
        external = [Correspondence("a.x", "d.x", 0.63, asserted_by="composer")]
        priors = policy.priors(
            MappingGraph(chain_repository).view(), "a", "d", composed=external
        )
        assert priors[("a.x", "d.x")].method is AssertionMethod.COMPOSED
        assert priors[("a.x", "d.x")].weighted_score == pytest.approx(
            policy.composed_weight * 0.63
        )

    def test_rejection_still_vetoes_external_composed(self, chain_repository):
        chain_repository.store_match(
            "a", "d",
            Correspondence("a.x", "d.x", 0.9, status=MatchStatus.REJECTED),
            asserted_by="bob",
        )
        policy = ReusePolicy()
        external = [Correspondence("a.x", "d.x", 0.99, asserted_by="composer")]
        priors = policy.priors(
            MappingGraph(chain_repository).view(), "a", "d", composed=external
        )
        assert ("a.x", "d.x") not in priors


class TestNetworkMatchService:
    def test_requires_repository(self):
        with pytest.raises(ValueError):
            MatchService().network_match(NetworkMatchRequest(source="a", target="b"))

    def test_requires_registered_endpoints(self, chain_repository):
        service = MatchService(repository=chain_repository)
        with pytest.raises(KeyError):
            service.network_match(NetworkMatchRequest(source="a", target="nope"))

    def test_compose_only(self, chain_repository):
        service = MatchService(repository=chain_repository)
        response = service.network_match(
            NetworkMatchRequest(source="a", target="d", max_hops=2)
        )
        assert not response.verified
        assert response.n_paths == 1
        assert response.paths[0].nodes == ("a", "b", "c", "d")
        assert response.correspondences == response.composed
        assert response.correspondences[0].score == pytest.approx(0.7 * 0.9)
        assert response.n_nodes == 4 and response.n_edges == 3

    def test_min_score_filters_composed(self, chain_repository):
        service = MatchService(repository=chain_repository)
        response = service.network_match(
            NetworkMatchRequest(source="a", target="d", max_hops=2, min_score=0.95)
        )
        assert response.composed == ()
        assert response.n_paths == 1  # the path existed; its evidence was weak

    def test_verify_folds_composition_into_fresh_run(self, tmp_path):
        chain = generate_mapping_chain(n_schemata=3, seed=7)
        repository = MetadataRepository()
        for generated in chain.schemata:
            repository.register(generated.schema)
        service = MatchService(repository=repository)
        options = MatchOptions(selection="stable_marriage")
        for i in range(2):
            service.persist(
                service.match_pair(chain.names[i], chain.names[i + 1], options=options)
            )
        response = service.network_match(
            NetworkMatchRequest(
                source=chain.names[0],
                target=chain.names[2],
                max_hops=1,
                options=options,
                verify=True,
            )
        )
        assert response.verified
        assert response.n_boosted > 0
        boosted = [c for c in response.correspondences if "reuse-boosted" in c.note]
        assert len(boosted) == response.n_boosted

    def test_verify_reuses_the_pair_route_runner(self):
        chain = generate_mapping_chain(n_schemata=3, seed=7)
        repository = MetadataRepository()
        for generated in chain.schemata:
            repository.register(generated.schema)
        service = MatchService(repository=repository)
        options = MatchOptions(execution="batch")
        for i in range(2):
            service.persist(
                service.match_pair(chain.names[i], chain.names[i + 1], options=options)
            )
        response = service.network_match(
            NetworkMatchRequest(
                source=chain.names[0],
                target=chain.names[2],
                max_hops=1,
                options=options,
                verify=True,
            )
        )
        assert response.verified
        assert list(service._runners) == [(options, True)]

    def test_warm_graph_is_shared_across_calls(self, chain_repository):
        service = MatchService(repository=chain_repository)
        request = NetworkMatchRequest(source="a", target="c", max_hops=1)
        service.network_match(request)
        graph = service.mapping_graph()
        assert not graph.is_stale()
        assert service.mapping_graph() is graph

    def test_response_json_round_trip(self, chain_repository):
        service = MatchService(repository=chain_repository)
        response = service.network_match(
            NetworkMatchRequest(source="a", target="d", max_hops=2)
        )
        assert NetworkMatchResponse.from_json(response.to_json()) == response
        with pytest.raises(ValueError):
            NetworkMatchResponse.from_dict({"format_version": 99})

    def test_request_validation(self):
        with pytest.raises(TypeError):
            NetworkMatchRequest(source=small_schema("a"), target="b")
        with pytest.raises(ValueError):
            NetworkMatchRequest(source="a", target="a")
        with pytest.raises(ValueError):
            NetworkMatchRequest(source="a", target="b", max_hops=0)
        with pytest.raises(ValueError):
            NetworkMatchRequest(source="a", target="b", hop_decay=0.0)
        with pytest.raises(TypeError):
            NetworkMatchRequest(source="a", target="b", reuse=None)

    def test_verify_fold_inherits_request_trust(self, tmp_path):
        """A request-level trust gate governs direct priors too, not just
        the routed legs."""
        chain = generate_mapping_chain(n_schemata=3, seed=7)
        repository = MetadataRepository()
        for generated in chain.schemata:
            repository.register(generated.schema)
        service = MatchService(repository=repository)
        options = MatchOptions(selection="stable_marriage")
        for i in range(2):
            service.persist(
                service.match_pair(chain.names[i], chain.names[i + 1], options=options)
            )
        # A direct low-trust automatic assertion between the endpoints.
        truth = sorted(chain.truth_pairs(0, 2))[0]
        repository.store_match(
            chain.names[0], chain.names[2],
            Correspondence(truth[0], truth[1], 0.9),
            asserted_by="untrusted-engine",
        )
        gated = TrustPolicy(trusted_asserters=frozenset({"nobody"}))
        response = service.network_match(
            NetworkMatchRequest(
                source=chain.names[0], target=chain.names[2],
                max_hops=1, options=options, verify=True, trust=gated,
            )
        )
        # Every leg and every direct prior fails the gate: nothing composes,
        # nothing boosts, nothing seeds.
        assert response.composed == ()
        assert response.n_boosted == 0 and response.n_seeded == 0
        assert all("reuse-" not in c.note for c in response.correspondences)


class TestMappingChain:
    def test_ground_truth_is_total_for_any_pair(self):
        chain = generate_mapping_chain(n_schemata=5, seed=3)
        size = len(chain.schemata[0].schema)
        assert all(len(g.schema) == size for g in chain.schemata)
        assert len(chain.truth_pairs(0, 1)) == size
        assert len(chain.truth_pairs(0, 4)) == size
        assert chain.names == ["N00", "N01", "N02", "N03", "N04"]

    def test_deterministic(self):
        first = generate_mapping_chain(n_schemata=3, seed=11)
        second = generate_mapping_chain(n_schemata=3, seed=11)
        assert first.truth_pairs(0, 2) == second.truth_pairs(0, 2)

    def test_too_short(self):
        with pytest.raises(ValueError):
            generate_mapping_chain(n_schemata=1)


class TestNetworkMatchCli:
    @pytest.fixture
    def chain_db(self, tmp_path):
        chain = generate_mapping_chain(n_schemata=4, seed=2009)
        path = str(tmp_path / "chain.db")
        with MetadataRepository(path=path) as repository:
            for generated in chain.schemata:
                repository.register(generated.schema)
            service = MatchService(repository=repository)
            options = MatchOptions(selection="stable_marriage")
            for i in range(3):
                service.persist(
                    service.match_pair(
                        chain.names[i], chain.names[i + 1], options=options
                    )
                )
        return path, chain.names

    def test_text_output(self, chain_db, capsys):
        from repro.cli import main

        path, names = chain_db
        assert main(["network-match", names[0], names[2], "--db", path]) == 0
        out = capsys.readouterr().out
        assert "pivot path(s)" in out
        assert f"via {names[1]}" in out

    def test_json_output(self, chain_db, capsys):
        from repro.cli import main

        path, names = chain_db
        assert main(
            ["network-match", names[0], names[3], "--db", path,
             "--max-hops", "2", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["routing"]["max_hops"] == 2
        assert payload["routing"]["paths"][0]["nodes"] == names
        restored = NetworkMatchResponse.from_dict(payload)
        assert restored.source_name == names[0]

    def test_unknown_endpoint_exits_2(self, chain_db, capsys):
        from repro.cli import main

        path, names = chain_db
        with pytest.raises(SystemExit) as excinfo:
            main(["network-match", names[0], "missing", "--db", path])
        assert excinfo.value.code == 2
