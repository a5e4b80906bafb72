"""Thread-safety regression: shared caches under a concurrent hammer.

The serving tier shares ONE MatchService (profile cache, feature space,
corpus index, mapping graph) and ONE MetadataRepository across handler
threads.  These tests hammer the shared paths from a thread pool and hold
the results to the serial answers -- any lost update, half-rebuilt index,
or torn cache would show up as a mismatch or an exception.

Equality contract: identical pairs, statuses and notes, scores to 1e-9.
Bitwise score identity is deliberately NOT asserted: the shared
vocabulary interns tokens in arrival order, so a different thread
interleaving permutes sparse column order and with it the (non-
associative) float summation order inside dot products -- a last-ulp
effect, not a data race.  The FeatureSpace lock is what keeps it at one
ulp: without it this suite fails with wholesale wrong scores.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.corpus import CorpusIndex
from repro.repository import MetadataRepository
from repro.service import CorpusMatchRequest, MatchService, NetworkMatchRequest
from repro.synthetic import generate_clustered_corpus

N_THREADS = 8
ROUNDS = 3
SCORE_TOLERANCE = 1e-9


def assert_same_correspondences(actual, expected, context=""):
    """Same pair set, statuses and notes; scores equal to 1e-9."""
    ours = {c.pair: c for c in actual}
    theirs = {c.pair: c for c in expected}
    assert set(ours) == set(theirs), context
    for pair, mine in ours.items():
        reference = theirs[pair]
        assert mine.status is reference.status, (context, pair)
        assert mine.note == reference.note, (context, pair)
        assert abs(mine.score - reference.score) <= SCORE_TOLERANCE, (context, pair)


@pytest.fixture(scope="module")
def corpus_schemata():
    corpus = generate_clustered_corpus(
        n_domains=2, schemata_per_domain=3, seed=2009
    )
    return [generated.schema for generated in corpus.schemata]


@pytest.fixture
def repository(corpus_schemata):
    repository = MetadataRepository()
    for schema in corpus_schemata:
        repository.register(schema)
    return repository


class TestThreadedServiceEqualsSerial:
    def test_match_pair_hammer(self, repository):
        names = sorted(repository.schema_names())
        pairs = list(itertools.combinations(names, 2))
        serial_service = MatchService(repository=repository)
        serial = {
            pair: serial_service.match_pair(*pair).correspondences
            for pair in pairs
        }

        hammered_service = MatchService(repository=repository)
        workload = pairs * ROUNDS

        def run(pair):
            return pair, hammered_service.match_pair(*pair).correspondences

        with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
            for pair, correspondences in pool.map(run, workload):
                assert_same_correspondences(
                    correspondences, serial[pair], context=pair
                )

    def test_corpus_match_hammer(self, repository):
        names = sorted(repository.schema_names())
        requests = [CorpusMatchRequest(source=name, top_k=3) for name in names]
        serial_service = MatchService(repository=repository)
        serial = {}
        for request in requests:
            response = serial_service.corpus_match(request)
            serial[request.source] = [
                (c.target_name, c.correspondences) for c in response.candidates
            ]

        hammered_service = MatchService(repository=repository)

        def run(request):
            response = hammered_service.corpus_match(request)
            return request.source, [
                (c.target_name, c.correspondences) for c in response.candidates
            ]

        with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
            for source, candidates in pool.map(run, requests * ROUNDS):
                reference = serial[source]
                assert [name for name, _ in candidates] == [
                    name for name, _ in reference
                ], source
                for (name, ours), (_, theirs) in zip(candidates, reference):
                    assert_same_correspondences(
                        ours, theirs, context=(source, name)
                    )

    def test_network_match_hammer(self, repository):
        service = MatchService(repository=repository)
        names = sorted(repository.schema_names())
        # Store a lineage so the network has edges to route through.
        for left, right in zip(names, names[1:]):
            service.persist(service.match_pair(left, right))
        requests = [
            NetworkMatchRequest(source=left, target=right, max_hops=2)
            for left, right in zip(names, names[2:])
        ]
        serial_service = MatchService(repository=repository)
        serial = {
            (r.source, r.target): serial_service.network_match(r).correspondences
            for r in requests
        }

        hammered_service = MatchService(repository=repository)

        def run(request):
            return request, hammered_service.network_match(request).correspondences

        with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
            for request, correspondences in pool.map(run, requests * ROUNDS):
                assert_same_correspondences(
                    correspondences,
                    serial[(request.source, request.target)],
                    context=(request.source, request.target),
                )


class TestIndexRefreshUnderWrites:
    def test_queries_race_registrations(self, repository, corpus_schemata):
        """Readers never see half-rebuilt postings while writers register."""
        index = CorpusIndex(repository)
        index.refresh()
        query = corpus_schemata[0]
        errors: list[Exception] = []

        def reader():
            try:
                for _ in range(30):
                    hits = index.top_candidates(query, limit=5)
                    assert len(hits) >= 1
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(exc)

        extra = generate_clustered_corpus(
            n_domains=2, schemata_per_domain=2, seed=7
        )
        with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
            futures = [pool.submit(reader) for _ in range(N_THREADS - 1)]
            for generated in extra.schemata:
                repository.register(generated.schema, name=f"late_{generated.schema.name}")
            for future in futures:
                future.result()
        assert errors == []
        # The index converges on the final registry.
        assert len(index) == len(repository)
        assert not index.is_stale()

    def test_register_landing_mid_refresh_stays_visible(
        self, repository, corpus_schemata
    ):
        """The refresh stamps the generation captured BEFORE scanning the
        registry: a register landing mid-refresh must leave the index
        stale (to be picked up next query), never silently unindexed."""
        index = CorpusIndex(repository)
        index.refresh()
        repository.register(corpus_schemata[0], name="pre_refresh_arrival")
        original = repository.schema_names

        def racing_schema_names():
            names = original()
            # The interleaved write: lands after the refresh captured its
            # clock and scanned the registry, so it is not in `names`.
            repository.register(
                corpus_schemata[1], name="mid_refresh_arrival"
            )
            return names

        repository.schema_names = racing_schema_names
        try:
            index.refresh()
        finally:
            del repository.schema_names
        # The published snapshot lacks the mid-refresh arrival.
        assert index.n_indexed() == len(repository) - 1
        assert index.is_stale()  # the stamped clock predates the write
        assert "mid_refresh_arrival" in index.names  # next query picks it up
