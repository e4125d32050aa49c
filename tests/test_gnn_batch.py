"""The batched kGNN kernel answers exactly as the per-candidate engine does.

``GNNQueryEngine.query_many`` runs every candidate of a round through
:func:`repro.gnn.batch.batch_kgnn`; these tests hold it to
``[query(k, c) for c in candidates]`` — same ids, same order, same cache
traffic — across the exact index kinds, the three aggregates, tied and
co-located data, and index mutations.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.poi import POI
from repro.datasets.synthetic import uniform_pois
from repro.errors import ConfigurationError
from repro.geometry.point import Point
from repro.geometry.space import LocationSpace
from repro.gnn.aggregate import MAX, MIN, SUM
from repro.gnn.batch import batch_kgnn
from repro.gnn.engine import GNNQueryEngine
from repro.index.bruteforce import BruteForceIndex
from repro.partition.layout import GroupLayout
from repro.partition.solver import solve_partition
from repro.serve.cache import KnnLRUCache

EXACT_KINDS = ("rtree", "kdtree", "grid", "bruteforce")
AGGREGATES = {"sum": SUM, "max": MAX, "min": MIN}
SPACE = LocationSpace.unit_square()

# Coordinates on a coarse lattice: many co-located POIs and many exactly
# tied aggregate scores, which is where tie-breaking can go wrong.
lattice = st.integers(0, 6).map(lambda i: i / 6)
lattice_point = st.builds(Point, lattice, lattice)
free_point = st.builds(
    Point,
    st.floats(0, 1, allow_nan=False),
    st.floats(0, 1, allow_nan=False),
)
locations = st.lists(st.one_of(lattice_point, free_point), min_size=1, max_size=3)
candidate_sets = st.lists(locations, min_size=1, max_size=5)


def _pois(points):
    return [POI(i, p) for i, p in enumerate(points)]


def _ids(answers):
    return [[poi.poi_id for poi in answer] for answer in answers]


def _engine(pois, kind, aggregate):
    # A small R-tree fan-out splits co-located duplicates across leaves.
    return GNNQueryEngine(
        pois, aggregate=aggregate, index=kind, max_entries=4, space=SPACE
    )


def _assert_equivalent(pois, kind, aggregate, k, candidates):
    looped = _engine(pois, kind, aggregate)
    batched = _engine(pois, kind, aggregate)
    expected = [looped.query(k, c) for c in candidates]
    assert _ids(batched.query_many(k, candidates)) == _ids(expected)
    assert batched.index_counters.queries == looped.index_counters.queries


@pytest.mark.parametrize("kind", EXACT_KINDS)
@pytest.mark.parametrize("aggregate", sorted(AGGREGATES))
@given(
    points=st.lists(st.one_of(lattice_point, free_point), min_size=1, max_size=70),
    candidates=candidate_sets,
    k=st.integers(1, 12),
)
@settings(max_examples=25, deadline=None)
def test_query_many_matches_per_candidate_queries(kind, aggregate, points, candidates, k):
    _assert_equivalent(_pois(points), kind, AGGREGATES[aggregate], k, candidates)


@pytest.mark.parametrize("kind", EXACT_KINDS)
@given(
    points=st.lists(lattice_point, min_size=1, max_size=50),
    candidates=candidate_sets,
    extra=st.integers(0, 3),
)
@settings(max_examples=20, deadline=None)
def test_k_one_and_k_beyond_database(kind, points, candidates, extra):
    pois = _pois(points)
    for k in (1, len(pois) + extra):
        _assert_equivalent(pois, kind, SUM, k, candidates)


@pytest.mark.parametrize("kind", ("rtree", "kdtree"))
@pytest.mark.parametrize("aggregate", sorted(AGGREGATES))
@given(
    spot=lattice_point,
    copies=st.integers(2, 40),
    others=st.lists(lattice_point, max_size=30),
    candidates=candidate_sets,
    k=st.integers(1, 45),
)
@settings(max_examples=40, deadline=None)
def test_colocated_duplicates_split_across_leaves(
    kind, aggregate, spot, copies, others, candidates, k
):
    """Dozens of POIs on one spot land in several leaves; the tied answers
    must come back in exactly MBM's order."""
    pois = _pois([spot] * copies + others)
    _assert_equivalent(pois, kind, AGGREGATES[aggregate], k, candidates)


def test_duplicates_really_span_leaves():
    """The duplicate fixture above exercises cross-leaf ties, not one leaf."""
    pois = _pois([Point(0.5, 0.5)] * 40)
    engine = _engine(pois, "rtree", SUM)
    roots = engine.tree.traversal_roots()
    assert not roots[0].is_leaf
    _assert_equivalent(pois, "rtree", SUM, 10, [[Point(0.2, 0.3)], [Point(0.5, 0.5)]])


@pytest.mark.parametrize("aggregate", sorted(AGGREGATES))
def test_tie_group_spanning_many_leaves(aggregate):
    """Four leaves share one (bound, corner) key and their POIs tie with a
    fifth leaf's: MBM's order comes from the walk, not the leaves."""
    pois = _pois([Point(0.0, 0.0)] * 15 + [Point(0.0, 1 / 6)] * 2)
    for k in range(1, len(pois) + 1):
        _assert_equivalent(pois, "rtree", AGGREGATES[aggregate], k, [[Point(0.0, 1 / 6)]])


@pytest.mark.parametrize("kind", EXACT_KINDS)
@given(
    points=st.lists(st.one_of(lattice_point, free_point), min_size=6, max_size=60),
    extra=st.lists(lattice_point, min_size=1, max_size=4),
    candidates=candidate_sets,
    k=st.integers(1, 8),
)
@settings(max_examples=15, deadline=None)
def test_mutations_invalidate_the_leaf_view(kind, points, extra, candidates, k):
    pois = _pois(points)
    looped = _engine(pois, kind, SUM)
    batched = _engine(pois, kind, SUM)
    batched.query_many(k, candidates)  # builds and caches the leaf view
    for engine in (looped, batched):
        for j, p in enumerate(extra):
            engine.insert(POI(len(points) + j, p))
        engine.delete(pois[0])
        engine.delete(pois[len(pois) // 2])
    expected = [looped.query(k, c) for c in candidates]
    assert _ids(batched.query_many(k, candidates)) == _ids(expected)


def test_flat_index_keeps_enumeration_tiebreak():
    """A flat index is one bucket: equal (score, location) ties keep the
    entries' enumeration order, as the exhaustive scan always did."""
    index = BruteForceIndex()
    for i in (3, 1, 2, 0):
        index.insert(Point(0.5, 0.5), i)
    index.insert(Point(0.1, 0.1), 9)
    [ranked] = batch_kgnn(index, [[Point(0.5, 0.4)]], 3, SUM)
    assert [item for _, item, _ in ranked] == [3, 1, 2]


def test_validation():
    engine = _engine(_pois([Point(0.1, 0.1), Point(0.2, 0.2)]), "rtree", SUM)
    with pytest.raises(ConfigurationError):
        engine.query_many(2, [[Point(0.0, 0.0)], []])
    with pytest.raises(ConfigurationError):
        batch_kgnn(engine.tree, [[Point(0.0, 0.0)]], 0, SUM)


# ------------------------------------------------------------ protocol shape


@pytest.fixture(scope="module")
def database():
    return uniform_pois(1500, SPACE, np.random.default_rng(3))


def _protocol_candidates(seed, n=4, d=5, delta=12):
    """A delta'-candidate round as Algorithm 2 enumerates it."""
    rng = np.random.default_rng(seed)
    layout = GroupLayout(solve_partition(n, d, delta))
    sets = [
        [Point(*map(float, rng.uniform(0, 1, 2))) for _ in range(d)] for _ in range(n)
    ]
    return list(layout.enumerate_candidates(sets))


@pytest.mark.parametrize("kind", EXACT_KINDS)
def test_protocol_round_scores_no_more_than_mbm(database, kind):
    looped = GNNQueryEngine(database, index=kind)
    batched = GNNQueryEngine(database, index=kind)
    candidates = _protocol_candidates(seed=7)
    expected = [looped.query(8, c) for c in candidates]
    assert _ids(batched.query_many(8, candidates)) == _ids(expected)
    assert (
        batched.index_counters.candidates_scored
        <= looped.index_counters.candidates_scored
    )
    assert batched.index_counters.nodes_visited <= looped.index_counters.nodes_visited


class _RecordingCache(KnnLRUCache):
    """An LRU cache that logs every lookup and store, in order."""

    def __init__(self, capacity):
        super().__init__(capacity)
        self.log = []

    def lookup(self, key):
        value = super().lookup(key)
        self.log.append(("lookup", key, value is not None))
        return value

    def store(self, key, value):
        self.log.append(("store", key, tuple(p.poi_id for p in value)))
        super().store(key, value)


@pytest.mark.parametrize("capacity", [4, 64])
def test_cache_traffic_matches_the_per_candidate_loop(database, capacity):
    """Same lookups, hits, misses, stores and evictions, in the same order —
    including a capacity small enough that the batch evicts its own keys."""
    first, second = _protocol_candidates(seed=1), _protocol_candidates(seed=2)
    rounds = [first, first[:5] + second, first[::-1] + first]
    looped = GNNQueryEngine(database)
    batched = GNNQueryEngine(database)
    looped.set_knn_cache(_RecordingCache(capacity))
    batched.set_knn_cache(_RecordingCache(capacity))
    for candidates in rounds:
        misses = looped.knn_cache.stats.misses
        queries = batched.index_counters.queries
        expected = [looped.query(8, c) for c in candidates]
        assert _ids(batched.query_many(8, candidates)) == _ids(expected)
        # index.queries rises by exactly one per cache miss.
        assert (
            batched.index_counters.queries - queries
            == looped.knn_cache.stats.misses - misses
        )
    assert batched.knn_cache.log == looped.knn_cache.log
    assert batched.knn_cache.stats == looped.knn_cache.stats
    assert list(batched.knn_cache._entries) == list(looped.knn_cache._entries)
    assert batched.knn_cache.stats.hits > 0


@pytest.mark.parametrize("algorithm", ["spm", "mqm"])
def test_other_algorithms_keep_the_loop(database, algorithm):
    engine = GNNQueryEngine(database, algorithm=algorithm)
    reference = GNNQueryEngine(database)
    candidates = _protocol_candidates(seed=4)[:6]
    assert _ids(engine.query_many(8, candidates)) == _ids(
        reference.query(8, c) for c in candidates
    )
