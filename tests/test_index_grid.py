"""Tests for the uniform grid index."""

import pytest

from repro.errors import ConfigurationError
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.index.bruteforce import BruteForceIndex
from repro.index.grid import GridIndex


@pytest.fixture()
def grid(space):
    return GridIndex(space, cells_per_side=4)


class TestCellGeometry:
    def test_invalid_construction(self, space):
        with pytest.raises(ConfigurationError):
            GridIndex(space, 0)

    def test_cell_of_interior_points(self, grid):
        assert grid.cell_of(Point(0.1, 0.1)) == (0, 0)
        assert grid.cell_of(Point(0.9, 0.1)) == (3, 0)
        assert grid.cell_of(Point(0.6, 0.6)) == (2, 2)

    def test_boundary_points_clamp_inward(self, grid):
        assert grid.cell_of(Point(1.0, 1.0)) == (3, 3)
        assert grid.cell_of(Point(0.0, 0.0)) == (0, 0)

    def test_outside_point_rejected(self, grid):
        with pytest.raises(ConfigurationError):
            grid.cell_of(Point(1.5, 0.5))

    def test_cell_rect_partition(self, grid):
        # The 16 cell rects must tile the unit square exactly.
        total_area = sum(grid.cell_rect(c, r).area for c, r in grid.all_cells())
        assert abs(total_area - 1.0) < 1e-12

    def test_cell_center_inside_cell(self, grid):
        for c, r in grid.all_cells():
            assert grid.cell_rect(c, r).contains_point(grid.cell_center(c, r))

    def test_cell_rect_range_validation(self, grid):
        with pytest.raises(ConfigurationError):
            grid.cell_rect(4, 0)

    def test_cell_of_center_roundtrip(self, grid):
        for cell in grid.all_cells():
            assert grid.cell_of(grid.cell_center(*cell)) == cell


class TestGridQueries:
    def test_insert_and_bucket(self, grid, small_pois):
        for poi in small_pois:
            grid.insert(poi.location, poi)
        assert len(grid) == len(small_pois)
        # Buckets partition the entries.
        bucketed = sum(len(grid.bucket(c, r)) for c, r in grid.all_cells())
        assert bucketed == len(small_pois)

    def test_range_query_matches_bruteforce(self, space, small_pois):
        grid = GridIndex(space, 7)
        oracle = BruteForceIndex()
        for poi in small_pois:
            grid.insert(poi.location, poi)
            oracle.insert(poi.location, poi)
        for rect in [
            Rect(0.0, 0.0, 0.3, 0.3),
            Rect(0.25, 0.25, 0.75, 0.75),
            Rect(0.0, 0.0, 1.0, 1.0),
            Rect(0.5, 0.5, 0.5001, 0.5001),
        ]:
            got = sorted(p.poi_id for _, p in grid.range_query(rect))
            want = sorted(p.poi_id for _, p in oracle.range_query(rect))
            assert got == want

    def test_range_query_outside_space(self, grid, small_pois):
        for poi in small_pois[:5]:
            grid.insert(poi.location, poi)
        assert grid.range_query(Rect(2.0, 2.0, 3.0, 3.0)) == []

    def test_entries_iterates_all(self, grid, small_pois):
        for poi in small_pois[:20]:
            grid.insert(poi.location, poi)
        assert len(list(grid.entries())) == 20


class TestTraversalCache:
    @staticmethod
    def _leaf_items(grid):
        (root,) = grid.traversal_roots()
        return sorted(p.poi_id for leaf in root.children for p in leaf.items)

    def test_reused_until_the_grid_changes(self, grid, small_pois):
        grid.bulk_load((poi.location, poi) for poi in small_pois[:50])
        first = grid.traversal_roots()
        assert grid.traversal_roots() is first

    def test_insert_invalidates(self, grid, small_pois):
        grid.bulk_load((poi.location, poi) for poi in small_pois[:50])
        before = grid.traversal_roots()
        extra = small_pois[50]
        grid.insert(extra.location, extra)
        assert grid.traversal_roots() is not before
        assert self._leaf_items(grid) == sorted(p.poi_id for p in small_pois[:51])

    def test_bulk_load_invalidates(self, grid, small_pois):
        grid.bulk_load((poi.location, poi) for poi in small_pois[:50])
        before = grid.traversal_roots()
        grid.bulk_load((poi.location, poi) for poi in small_pois[100:120])
        assert grid.traversal_roots() is not before
        assert self._leaf_items(grid) == sorted(p.poi_id for p in small_pois[100:120])
