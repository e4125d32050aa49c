"""Figure 6: the group query evaluation (n > 1) of PPGNN / PPGNN-OPT / Naive.

Sweeps delta (6a-c), k (6d-f), n (6g-i), and theta0 (6j-l), reporting the
three costs per point.  Expected shapes from the paper:

- vs delta: OPT's comm/user cost grows ~sqrt(delta') and stays well below
  PPGNN; Naive is worst (every user ships delta locations); LSP costs are
  nearly identical across the three (dominated by answer sanitation).
- vs k: comm/user roughly flat; LSP rises then flattens once sanitation
  truncates answers anyway (see Fig 7a).
- vs n: Naive grows fastest (n * delta dummies); LSP grows linearly (the
  inequality count per test grows with nothing, but the number of target
  users does).
- vs theta0: comm/user flat; LSP drops steeply then flattens, tracking the
  Eqn (17) sample size.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.harness import format_bytes, format_seconds, measure_protocol
from repro.core.group import run_ppgnn
from repro.core.naive import run_naive
from repro.core.opt import run_ppgnn_opt

DELTA_VALUES = [25, 50, 100, 150, 200]
K_VALUES = [2, 4, 8, 16, 32]
N_VALUES = [2, 4, 8, 16, 32]
THETA_VALUES = [0.01, 0.02, 0.05, 0.1]

PROTOCOLS = {
    "ppgnn": run_ppgnn,
    "ppgnn-opt": run_ppgnn_opt,
    "naive": run_naive,
}

METRICS = (("comm", "comm_bytes"), ("user", "user_seconds"), ("lsp", "lsp_seconds"))

#: Per-query report fields behind the timed metrics, shown as a min-max
#: range next to the mean: three-query means alone are too noisy to rank.
RANGES = {"user": "user_cost_seconds", "lsp": "lsp_cost_seconds"}


def _group(lsp, n: int, seed: int):
    return lsp.space.sample_points(n, np.random.default_rng(seed))


def _sweep(lsp, settings, xs, config_for, n_for):
    """Measure the three protocols at every sweep point."""
    rows = {metric: {name: [] for name in PROTOCOLS} for metric, _ in METRICS}
    for x in xs:
        cfg = config_for(x)
        n = n_for(x)
        for name, runner in PROTOCOLS.items():
            reports = []

            def run(seed, runner=runner, cfg=cfg, n=n, reports=reports):
                result = runner(lsp, _group(lsp, n, seed), cfg, seed=seed)
                reports.append(result.report)
                return result

            measured = measure_protocol(
                run, repeats=settings.repeats, base_seed=settings.seed
            )
            for metric, attr in METRICS:
                if metric == "comm":
                    cell = format_bytes(measured.comm_bytes)
                else:
                    per_query = [getattr(r, RANGES[metric]) for r in reports]
                    cell = (
                        f"{format_seconds(getattr(measured, attr))} "
                        f"[{format_seconds(min(per_query))}-"
                        f"{format_seconds(max(per_query))}]"
                    )
                rows[metric][name].append(cell)
    return rows


def _record(recorder, figure, labels, x_label, xs, rows):
    for (metric, _), label in zip(METRICS, labels, strict=True):
        recorder.record(figure, label, x_label, xs, rows[metric])


def test_fig6_vary_delta(lsp, settings, config_factory, recorder, benchmark):
    rows = _sweep(
        lsp,
        settings,
        DELTA_VALUES,
        config_for=lambda delta: config_factory(delta=delta),
        n_for=lambda _: 8,
    )
    _record(
        recorder,
        "fig6",
        (
            "Fig 6a: communication cost vs delta (n=8)",
            "Fig 6b: user cost vs delta (n=8)",
            "Fig 6c: LSP cost vs delta (n=8)",
        ),
        "delta",
        DELTA_VALUES,
        rows,
    )
    cfg = config_factory()
    benchmark.pedantic(
        lambda: run_ppgnn(lsp, _group(lsp, 8, 0), cfg, seed=0), rounds=1, iterations=1
    )


def test_fig6_vary_k(lsp, settings, config_factory, recorder, benchmark):
    rows = _sweep(
        lsp,
        settings,
        K_VALUES,
        config_for=lambda k: config_factory(k=k),
        n_for=lambda _: 8,
    )
    _record(
        recorder,
        "fig6",
        (
            "Fig 6d: communication cost vs k (n=8)",
            "Fig 6e: user cost vs k (n=8)",
            "Fig 6f: LSP cost vs k (n=8)",
        ),
        "k",
        K_VALUES,
        rows,
    )
    cfg = config_factory(k=16)
    benchmark.pedantic(
        lambda: run_ppgnn_opt(lsp, _group(lsp, 8, 0), cfg, seed=0),
        rounds=1,
        iterations=1,
    )


def test_fig6_vary_n(lsp, settings, config_factory, recorder, benchmark):
    rows = _sweep(
        lsp,
        settings,
        N_VALUES,
        config_for=lambda _: config_factory(),
        n_for=lambda n: n,
    )
    _record(
        recorder,
        "fig6",
        (
            "Fig 6g: communication cost vs n",
            "Fig 6h: user cost vs n",
            "Fig 6i: LSP cost vs n",
        ),
        "n",
        N_VALUES,
        rows,
    )
    cfg = config_factory()
    benchmark.pedantic(
        lambda: run_naive(lsp, _group(lsp, 16, 0), cfg, seed=0), rounds=1, iterations=1
    )


def test_fig6_vary_theta(lsp, settings, config_factory, recorder, benchmark):
    if settings.sanitation_samples is not None:
        pytest.skip("theta0 sweep requires the exact Eqn-17 sample size")
    rows = _sweep(
        lsp,
        settings,
        THETA_VALUES,
        config_for=lambda theta0: config_factory(theta0=theta0),
        n_for=lambda _: 8,
    )
    _record(
        recorder,
        "fig6",
        (
            "Fig 6j: communication cost vs theta0 (n=8)",
            "Fig 6k: user cost vs theta0 (n=8)",
            "Fig 6l: LSP cost vs theta0 (n=8)",
        ),
        "theta0",
        THETA_VALUES,
        rows,
    )
    cfg = config_factory(theta0=0.05)
    benchmark.pedantic(
        lambda: run_ppgnn(lsp, _group(lsp, 8, 1), cfg, seed=1), rounds=1, iterations=1
    )
