"""Batched exact kGNN: one pass answers every candidate query of a round.

Algorithm 2 (line 3) runs the kGNN black box once per candidate, and the
δ′ candidates of a round draw on only n·d distinct locations.  As SANNS
splits secure kNN into batched distance computation and top-k selection,
:func:`batch_kgnn` shares the per-location work across the batch:

- the index is flattened once per ``(tree, tree.version)`` into a
  :class:`LeafView` (a flat index is one bucket);
- each distinct location's mindist row to every leaf is computed once;
- per candidate, leaves are scored in ascending bound order — the
  smallest prefix holding ``k`` entries, then chunks doubling from 1 —
  while their bound is within the running k-th float score;
- float scores only filter: the band around the k-th score is re-ranked
  by :func:`~repro.gnn.aggregate.rank_top_k` with the scalar aggregate,
  so the answers are exactly :func:`~repro.gnn.mbm.mbm_kgnn`'s.
"""

from __future__ import annotations

import weakref
from typing import Any, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.geometry.distance import mindist_point_rect
from repro.geometry.point import Point
from repro.gnn.aggregate import Aggregate, rank_top_k
from repro.index.base import IndexCounters, SpatialIndex

#: Relative slack on the float k-th score: covers rounding differences
#: between the numpy filter and the scalar scorer.
_SLACK = 1e-9


class LeafView:
    """The entries of an index grouped by leaf, as flat arrays."""

    __slots__ = ("hierarchical", "rects", "mbrs", "sizes", "offsets", "xs", "ys", "items")

    def __init__(self, tree: SpatialIndex) -> None:
        roots = tree.traversal_roots()
        self.hierarchical = roots is not None
        if roots is None:
            self.rects: list = [None]
            buckets = [list(tree.entries())]
        else:
            leaves, stack = [], [r for r in reversed(roots) if r.mbr is not None]
            while stack:
                node = stack.pop()
                if node.is_leaf:
                    leaves.append(node)
                else:
                    stack.extend(c for c in reversed(node.children) if c.mbr is not None)
            self.rects = [leaf.mbr for leaf in leaves]
            buckets = [zip(leaf.points, leaf.items, strict=True) for leaf in leaves]
        xs, ys, self.items, sizes = [], [], [], []
        for bucket in buckets:
            before = len(self.items)
            for p, item in bucket:
                xs.append(p.x)
                ys.append(p.y)
                self.items.append(item)
            sizes.append(len(self.items) - before)
        self.sizes = np.array(sizes, dtype=np.int64)
        self.offsets = np.concatenate(([0], np.cumsum(self.sizes)))
        self.xs = np.array(xs, dtype=float)
        self.ys = np.array(ys, dtype=float)
        self.mbrs = np.array(
            [(r.xmin, r.ymin, r.xmax, r.ymax) if r else (0.0,) * 4 for r in self.rects],
            dtype=float,
        ).reshape(-1, 4)

    def point(self, i: int) -> Point:
        """Entry ``i``'s location, equal to the one the index holds."""
        return Point(float(self.xs[i]), float(self.ys[i]))

    def mindist_row(self, q: Point) -> np.ndarray:
        """``mindist(q, leaf MBR)`` for every leaf, as the scalar form computes it."""
        xmin, ymin, xmax, ymax = self.mbrs.T
        dx = np.maximum(np.maximum(xmin - q.x, 0.0), q.x - xmax)
        dy = np.maximum(np.maximum(ymin - q.y, 0.0), q.y - ymax)
        return np.hypot(dx, dy)

    def entry_range(self, leaves: np.ndarray) -> np.ndarray:
        """Flat entry indices of ``leaves``, leaf by leaf."""
        sizes = self.sizes[leaves]
        # Each entry's index is its leaf's start plus its rank inside the leaf.
        shift = self.offsets[leaves] - (np.cumsum(sizes) - sizes)
        return np.repeat(shift, sizes) + np.arange(sizes.sum())


_VIEWS: "weakref.WeakKeyDictionary[SpatialIndex, tuple[int, LeafView]]" = (
    weakref.WeakKeyDictionary()
)


def leaf_view(tree: SpatialIndex) -> LeafView:
    """The cached leaf view of ``tree``, rebuilt whenever its version moves."""
    cached = _VIEWS.get(tree)
    if cached is None or cached[0] != tree.version:
        cached = (tree.version, LeafView(tree))
        _VIEWS[tree] = cached
    return cached[1]


def batch_kgnn(
    tree: SpatialIndex,
    candidates: Sequence[Sequence[Point]],
    k: int,
    aggregate: Aggregate,
    counters: IndexCounters | None = None,
) -> list[list[tuple[Point, Any, float]]]:
    """``[mbm_kgnn(tree, c, k, aggregate, counters) for c in candidates]``, batched.

    ``counters`` receives one scored leaf per ``nodes_visited`` (hierarchical
    indexes only) and every scored entry in ``candidates_scored``.
    """
    if k < 1:
        raise ConfigurationError("k must be positive")
    if any(len(locations) == 0 for locations in candidates):
        raise ConfigurationError("kGNN query needs at least one location")
    view = leaf_view(tree)
    rows: dict[Point, np.ndarray] = {}
    results = []
    for locations in candidates:
        for q in locations:
            if q not in rows:
                rows[q] = view.mindist_row(q)
        results.append(_one(view, tree, locations, k, aggregate, rows, counters))
    return results


def _one(view, tree, locations, k, aggregate, rows, counters):
    """One candidate against the shared view and location rows."""
    bounds = aggregate.combine_rows(np.column_stack([rows[q] for q in locations]))
    order = np.argsort(bounds, kind="stable")
    prefix = int(np.searchsorted(np.cumsum(view.sizes[order]), k)) + 1
    qx = np.array([q.x for q in locations])
    qy = np.array([q.y for q in locations])
    scored_idx: list[np.ndarray] = []
    scored: list[np.ndarray] = []
    leaves_scored = 0

    def score(leaves: np.ndarray) -> float:
        """Score every entry of ``leaves``; return the running k-th score."""
        nonlocal leaves_scored
        leaves_scored += len(leaves)
        idx = view.entry_range(leaves)
        scored_idx.append(idx)
        scored.append(
            aggregate.combine_rows(np.hypot(view.xs[idx, None] - qx, view.ys[idx, None] - qy))
        )
        costs = np.concatenate(scored)
        return float(np.partition(costs, k - 1)[k - 1]) if len(costs) >= k else np.inf

    kth = score(order[:prefix])
    start, width = prefix, 1
    while start < len(order):
        threshold = kth + _SLACK * abs(kth)
        chunk = order[start : start + width]
        if bounds[chunk[0]] > threshold:
            break
        kth = score(chunk[bounds[chunk] <= threshold])
        start, width = start + width, width * 2

    idx = np.concatenate(scored_idx)
    band = idx[np.concatenate(scored) <= kth + _SLACK * abs(kth)].tolist()
    leaf_of = (np.searchsorted(view.offsets, band, side="right") - 1).tolist()
    leaf_keys = {}
    for leaf in set(leaf_of):
        rect = view.rects[leaf]
        leaf_keys[leaf] = () if rect is None else (
            aggregate(mindist_point_rect(q, rect) for q in locations),
            rect.xmin,
            rect.ymin,
        )
    ranked = rank_top_k(
        (
            ((leaf_keys[leaf], leaf, i), view.point(i), view.items[i])
            for i, leaf in zip(band, leaf_of, strict=True)
        ),
        locations,
        len(band),
        aggregate,
    )
    if _undecided(ranked, k):
        # Only the tree's push order ranks these ties, so MBM answers.
        from repro.gnn.mbm import mbm_kgnn

        return mbm_kgnn(tree, locations, k, aggregate, counters)
    if counters is not None:
        if view.hierarchical:
            counters.nodes_visited += leaves_scored
        counters.candidates_scored += len(idx)
    return [(p, item, s) for s, _, _, p, item in ranked[:k]]


def _tie_key(entry) -> tuple:
    score, location, (leaf_key, _, _), _, _ = entry
    return score, location, leaf_key


def _undecided(ranked: list, k: int) -> bool:
    """Whether a tie reaching the top ``k`` spans two leaves with equal keys.

    MBM expands leaves in ``(bound, corner)`` order and pushes their
    entries in that order, so equal ``(score, location)`` entries rank by
    their leaves' keys.  Two leaves with the same key are ordered by when
    the search reached their parents, which this view does not keep.
    """
    if not ranked:
        return False
    last = _tie_key(ranked[min(k, len(ranked)) - 1])
    for a, b in zip(ranked, ranked[1:], strict=False):
        if _tie_key(a) > last:
            return False
        if _tie_key(a) == _tie_key(b) and a[2][1] != b[2][1]:
            return True
    return False
