"""Ablation: the plaintext kGNN black box — MBM vs SPM vs MQM ([24]).

The paper instantiates C_q with MBM; SPM and MQM are the other two
algorithms of Papadias et al.  This bench times all three on the benchmark
database across group spreads (tight groups favour SPM's centroid stream;
spread groups favour MBM's aggregate pruning; MQM pays one stream per
user), and verifies they return identical answers.

The ``batched`` row times one protocol-shaped round instead: the δ′
candidate queries Algorithm 2 enumerates from n location sets of size d,
answered by per-candidate MBM (``mbm-round``) and by one
``GNNQueryEngine.query_many`` call, which must return identical ids.
"""

from __future__ import annotations

import time

import numpy as np

from repro.geometry.point import Point
from repro.gnn.mbm import mbm_kgnn
from repro.gnn.mqm import mqm_kgnn
from repro.gnn.spm import spm_kgnn
from repro.partition.layout import GroupLayout
from repro.partition.solver import solve_partition

ALGORITHMS = {"mbm": mbm_kgnn, "spm": spm_kgnn, "mqm": mqm_kgnn}
SPREADS = [0.02, 0.1, 0.3, 1.0]  # group diameter as a fraction of the space
QUERIES_PER_POINT = 8
N = 8
K = 8
D = 25
DELTA = 100


def _group(space, spread: float, rng) -> list[Point]:
    cx, cy = rng.uniform(spread / 2, 1 - spread / 2, 2)
    xs = np.clip(rng.uniform(cx - spread / 2, cx + spread / 2, N), 0, 1)
    ys = np.clip(rng.uniform(cy - spread / 2, cy + spread / 2, N), 0, 1)
    return [Point(float(x), float(y)) for x, y in zip(xs, ys, strict=True)]


def _round(spread: float, rng) -> list[tuple[Point, ...]]:
    """The δ′ candidate queries of one PPGNN round (Table 3 defaults)."""
    layout = GroupLayout(solve_partition(N, D, DELTA))
    cx, cy = rng.uniform(spread / 2, 1 - spread / 2, 2)
    sets = []
    for _ in range(N):
        xs = np.clip(rng.uniform(cx - spread / 2, cx + spread / 2, D), 0, 1)
        ys = np.clip(rng.uniform(cy - spread / 2, cy + spread / 2, D), 0, 1)
        sets.append([Point(float(x), float(y)) for x, y in zip(xs, ys, strict=True)])
    return list(layout.enumerate_candidates(sets))


def test_ablation_kgnn_algorithms(lsp, settings, recorder, benchmark):
    tree = lsp.engine.tree
    aggregate = lsp.aggregate
    times = {name: [] for name in (*ALGORITHMS, "mbm-round", "batched")}
    lsp.engine.query_many(K, [[Point(0.5, 0.5)]])  # builds the cached leaf view
    for spread in SPREADS:
        rng = np.random.default_rng(settings.seed)
        groups = [_group(lsp.space, spread, rng) for _ in range(QUERIES_PER_POINT)]
        answers = {}
        for name, algorithm in ALGORITHMS.items():
            start = time.perf_counter()
            results = [algorithm(tree, group, K, aggregate) for group in groups]
            times[name].append((time.perf_counter() - start) / len(groups))
            answers[name] = [[item.poi_id for _, item, _ in r] for r in results]
        assert answers["mbm"] == answers["spm"] == answers["mqm"]

        candidates = _round(spread, rng)
        start = time.perf_counter()
        looped = [mbm_kgnn(tree, c, K, aggregate) for c in candidates]
        times["mbm-round"].append((time.perf_counter() - start) / len(candidates))
        start = time.perf_counter()
        batched = lsp.engine.query_many(K, candidates)
        times["batched"].append((time.perf_counter() - start) / len(candidates))
        assert [[item.poi_id for _, item, _ in r] for r in looped] == [
            [poi.poi_id for poi in r] for r in batched
        ]

    recorder.record(
        "ablation_kgnn",
        f"Ablation: kGNN algorithm time vs group spread (n={N}, k={K})",
        "spread",
        SPREADS,
        {
            name: [f"{t * 1000:.2f} ms" for t in series]
            for name, series in times.items()
        },
        notes=(
            "all three return identical answers; MBM is the paper's C_q. "
            "mbm-round / batched: per-candidate time over one δ′-candidate "
            f"round (n={N}, d={D}, δ={DELTA}), identical ids"
        ),
    )

    group = _group(lsp.space, 0.1, np.random.default_rng(1))
    benchmark.pedantic(
        lambda: mbm_kgnn(tree, group, K, aggregate), rounds=3, iterations=1
    )
