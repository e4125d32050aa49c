"""Tests for kNN, MBM kGNN, and the query engine against the brute-force oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.poi import POI
from repro.datasets.synthetic import uniform_pois
from repro.errors import ConfigurationError
from repro.geometry.point import Point
from repro.gnn.aggregate import MAX, MIN, SUM
from repro.gnn.bruteforce import brute_force_kgnn
from repro.gnn.engine import GNNQueryEngine
from repro.gnn.knn import best_first_knn
from repro.gnn.mbm import mbm_kgnn
from repro.index.bruteforce import BruteForceIndex
from repro.index.rtree import RTree

coord = st.floats(min_value=0, max_value=1, allow_nan=False)
query_points = st.lists(st.builds(Point, coord, coord), min_size=1, max_size=6)


@pytest.fixture(scope="module")
def tree_and_pois():
    pois = uniform_pois(300, seed=5)
    tree = RTree(max_entries=8)
    tree.bulk_load((p.location, p) for p in pois)
    return tree, pois


class TestBestFirstKNN:
    def test_matches_oracle(self, tree_and_pois):
        tree, pois = tree_and_pois
        oracle = BruteForceIndex()
        for p in pois:
            oracle.insert(p.location, p)
        for seed in range(10):
            q = Point(*np.random.default_rng(seed).uniform(0, 1, 2))
            got = [item.poi_id for _, item in best_first_knn(tree, q, 15)]
            want = [item.poi_id for _, item in oracle.nearest(q, 15)]
            assert got == want

    def test_results_sorted_by_distance(self, tree_and_pois):
        tree, _ = tree_and_pois
        q = Point(0.3, 0.7)
        dists = [p.distance_to(q) for p, _ in best_first_knn(tree, q, 20)]
        assert dists == sorted(dists)

    def test_k_larger_than_database(self):
        tree = RTree()
        tree.bulk_load([(Point(0.1, 0.1), "a"), (Point(0.9, 0.9), "b")])
        assert len(best_first_knn(tree, Point(0, 0), 10)) == 2

    def test_invalid_k(self, tree_and_pois):
        tree, _ = tree_and_pois
        with pytest.raises(ConfigurationError):
            best_first_knn(tree, Point(0, 0), 0)

    def test_empty_tree(self):
        assert best_first_knn(RTree(), Point(0, 0), 3) == []


class TestMBM:
    @pytest.mark.parametrize("aggregate", [SUM, MAX, MIN], ids=lambda a: a.name)
    def test_matches_bruteforce_all_aggregates(self, tree_and_pois, aggregate):
        tree, pois = tree_and_pois
        rng = np.random.default_rng(17)
        for _ in range(8):
            n = int(rng.integers(1, 7))
            locations = [Point(*rng.uniform(0, 1, 2)) for _ in range(n)]
            got = mbm_kgnn(tree, locations, 10, aggregate)
            want = brute_force_kgnn(
                ((p.location, p) for p in pois), locations, 10, aggregate
            )
            assert [g[1].poi_id for g in got] == [w[1].poi_id for w in want]
            assert [g[2] for g in got] == pytest.approx([w[2] for w in want])

    @settings(max_examples=25, deadline=None)
    @given(query_points)
    def test_property_sum_matches_oracle(self, locations):
        pois = uniform_pois(60, seed=23)
        tree = RTree(max_entries=4)
        tree.bulk_load((p.location, p) for p in pois)
        got = mbm_kgnn(tree, locations, 5, SUM)
        want = brute_force_kgnn(((p.location, p) for p in pois), locations, 5, SUM)
        assert [g[1].poi_id for g in got] == [w[1].poi_id for w in want]

    def test_scores_ascending(self, tree_and_pois):
        tree, _ = tree_and_pois
        locations = [Point(0.2, 0.2), Point(0.8, 0.8)]
        scores = [s for _, _, s in mbm_kgnn(tree, locations, 12, SUM)]
        assert scores == sorted(scores)

    def test_single_location_equals_knn(self, tree_and_pois):
        tree, _ = tree_and_pois
        q = Point(0.4, 0.6)
        via_mbm = [item.poi_id for _, item, _ in mbm_kgnn(tree, [q], 10, SUM)]
        via_knn = [item.poi_id for _, item in best_first_knn(tree, q, 10)]
        assert via_mbm == via_knn

    def test_empty_locations_rejected(self, tree_and_pois):
        tree, _ = tree_and_pois
        with pytest.raises(ConfigurationError):
            mbm_kgnn(tree, [], 5, SUM)


class TestEngine:
    def test_query_caps_k_at_database_size(self):
        engine = GNNQueryEngine(uniform_pois(5, seed=1))
        assert len(engine.query(100, [Point(0.5, 0.5)])) == 5

    def test_empty_database_rejected(self):
        with pytest.raises(ConfigurationError):
            GNNQueryEngine([])

    def test_duplicate_ids_rejected(self):
        pois = [POI(1, Point(0, 0)), POI(1, Point(1, 1))]
        with pytest.raises(ConfigurationError):
            GNNQueryEngine(pois)

    def test_poi_by_id(self):
        pois = uniform_pois(10, seed=2)
        engine = GNNQueryEngine(pois)
        assert engine.poi_by_id(3) is pois[3]
        with pytest.raises(ConfigurationError):
            engine.poi_by_id(999)

    def test_dynamic_insert_changes_answers(self):
        engine = GNNQueryEngine(uniform_pois(50, seed=3))
        q = Point(0.123, 0.456)
        new_poi = POI(10_000, q, "pop-up")
        before = engine.query(1, [q])
        engine.insert(new_poi)
        after = engine.query(1, [q])
        assert after[0].poi_id == 10_000
        assert before[0].poi_id != 10_000

    def test_dynamic_delete(self):
        pois = uniform_pois(50, seed=4)
        engine = GNNQueryEngine(pois)
        q = pois[7].location
        assert engine.query(1, [q])[0].poi_id == 7
        assert engine.delete(pois[7])
        assert engine.query(1, [q])[0].poi_id != 7
        assert not engine.delete(pois[7])

    @pytest.mark.parametrize("kind", ["rtree", "kdtree", "grid", "bruteforce"])
    def test_delete_removes_exactly_one_entry(self, kind):
        """Kinds without an in-place delete re-bulk-load the survivors;
        that load must replace the contents, not append to them."""
        pois = uniform_pois(50, seed=4)
        engine = GNNQueryEngine(pois, index=kind)
        assert engine.delete(pois[7])
        assert len(engine) == 49
        assert sorted(item.poi_id for _, item in engine.tree.entries()) == [
            p.poi_id for p in pois if p.poi_id != 7
        ]

    def test_insert_duplicate_id_rejected(self):
        pois = uniform_pois(10, seed=5)
        engine = GNNQueryEngine(pois)
        with pytest.raises(ConfigurationError):
            engine.insert(POI(3, Point(0.5, 0.5)))

    def test_query_scored_consistent(self):
        engine = GNNQueryEngine(uniform_pois(80, seed=6))
        locations = [Point(0.1, 0.1), Point(0.9, 0.9), Point(0.5, 0.2)]
        plain = engine.query(6, locations)
        scored = engine.query_scored(6, locations)
        assert [p.poi_id for p in plain] == [p.poi_id for p, _ in scored]
        assert [s for _, s in scored] == sorted(s for _, s in scored)
