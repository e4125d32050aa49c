"""Minimum Bounding Method (MBM) for group kNN queries [24].

MBM generalizes best-first kNN to a *group* of query locations: a tree node
is ranked by ``F(mindist(MBR, l_1), ..., mindist(MBR, l_n))``.  Because F
is monotonically increasing and ``mindist`` lower-bounds every real
distance from any point inside the MBR, this value lower-bounds the
aggregate cost of every POI under the node, so best-first order remains
exact.  This is the plaintext kGNN black box run per candidate query by the
LSP (Algorithm 2 line 3).

Like :mod:`repro.gnn.knn` the search is index-agnostic: it walks whatever
hierarchy :meth:`~repro.index.base.SpatialIndex.traversal_roots` exposes.
A flat index goes through :func:`~repro.gnn.batch.batch_kgnn` as a single
bucket, which scores every entry — identical answers, different work, both
metered through the optional :class:`~repro.index.base.IndexCounters`.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Any, Sequence

from repro.errors import ConfigurationError
from repro.geometry.distance import mindist_point_rect
from repro.geometry.point import Point
from repro.gnn.aggregate import Aggregate
from repro.gnn.batch import batch_kgnn
from repro.index.base import IndexCounters, SpatialIndex


def mbm_kgnn(
    tree: SpatialIndex,
    locations: Sequence[Point],
    k: int,
    aggregate: Aggregate,
    counters: IndexCounters | None = None,
) -> list[tuple[Point, Any, float]]:
    """Exact top-``k`` group nearest neighbors.

    Returns ``(location, item, score)`` triples in ascending aggregate-cost
    order, where ``score = F(dis(p, l_1), ..., dis(p, l_n))``.  Ties break
    deterministically on location.
    """
    if k < 1:
        raise ConfigurationError("k must be positive")
    if not locations:
        raise ConfigurationError("kGNN query needs at least one location")
    roots = tree.traversal_roots()
    if roots is None:
        return batch_kgnn(tree, [locations], k, aggregate, counters)[0]
    seq = count()
    heap: list[tuple[float, tuple[float, float], int, bool, Any]] = []
    for root in roots:
        if root.mbr is not None:
            bound = aggregate(mindist_point_rect(q, root.mbr) for q in locations)
            heapq.heappush(heap, (bound, (0.0, 0.0), next(seq), False, root))
    result: list[tuple[Point, Any, float]] = []
    while heap and len(result) < k:
        score, _, _, is_point, payload = heapq.heappop(heap)
        if is_point:
            p, item = payload
            result.append((p, item, score))
            continue
        node = payload
        if counters is not None:
            counters.nodes_visited += 1
        if node.is_leaf:
            if counters is not None:
                counters.candidates_scored += len(node.points)
            for p, item in zip(node.points, node.items, strict=True):
                cost = aggregate(p.distance_to(q) for q in locations)
                heapq.heappush(heap, (cost, (p.x, p.y), next(seq), True, (p, item)))
        else:
            for child in node.children:
                if child.mbr is not None:
                    bound = aggregate(
                        mindist_point_rect(q, child.mbr) for q in locations
                    )
                    heapq.heappush(
                        heap,
                        (bound, (child.mbr.xmin, child.mbr.ymin), next(seq), False, child),
                    )
    return result
