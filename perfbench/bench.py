"""The measurement loop, metric derivation, and the steadiness report.

Gated run (``--trace 0``): a fixed number of timed units that takes about
``--seconds`` on the reference host (:func:`unit_count`), split over
``PARTS`` fresh processes run one after another.  Each part sets up once,
then runs its share.  Every set-up is bracketed by the reference kernel,
every unit is preceded by a reading, and every time is corrected for host
speed as ``raw_s * REF_NOMINAL_S / ref_measured_s``, where
``ref_measured_s`` is the median of the part's readings: a single reading
is too noisy to correct one unit by.  ``gc.collect()`` runs between units,
never inside one; answers are checked after each unit, outside it.

Traced run (``--trace 1``): one process sets up ``SETUP_REPS`` times, then
every unit executes twice on identical inputs, once untraced and once with
the layer wrappers of :mod:`tracing` installed, alternating which goes
first.  The traced executions give the per-layer numbers; the pair gives
the overhead.
"""
from __future__ import annotations

import gc
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

from refkernel import REF_NOMINAL_S, ReferenceKernel
from workloads import SETUP_REPS, WORKLOADS, ExactReference
import tracing

OUT_DIR = Path(__file__).resolve().parent / "out"

#: Gated end-to-end metrics (the final JSON line): name -> unit.  Times
#: are drift-corrected.
END_TO_END = {
    "query_p50_s": "s",
    "query_tail_s": "s",
    "queries_per_s": "1/s",
    "coordinator_p50_s": "s",
    "comm_bytes_per_query": "bytes",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: Printed and in the steadiness report, but not gated: too unsteady
#: between runs (see README.md).
UNGATED = {"lsp_p50_s": "s"}

#: Per-layer metrics of the traced run: name -> unit (per query unless the
#: README says otherwise).
PER_LAYER = {
    "gnn.kgnn_s": "s",
    "gnn.kgnn_calls": "count",
    "index.nodes_visited": "count",
    "index.candidates_scored": "count",
    "core.sanitize_s": "s",
    "core.sanitize_samples": "count",
    "core.sanitize_prefix_len": "count",
    "encoding.encode_s": "s",
    "crypto.encrypt_s": "s",
    "crypto.encryptions": "count",
    "crypto.select_s": "s",
    "crypto.scalar_muls": "count",
    "crypto.decrypt_s": "s",
    "crypto.decryptions": "count",
    "crypto.pool_refill_s": "s",
    "crypto.pool_hit_ratio": "ratio",
    "transport.send_s": "s",
    "transport.messages": "count",
    "core.round_other_s": "s",
    "serve.plan_s": "s",
    "serve.replica_build_s": "s",
    "serve.knn_cache_hit_ratio": "ratio",
    "serve.sim_queue_wait_p50_s": "s",
    "serve.jobs_failed": "count",
    "serve.jobs_rejected": "count",
    "datasets.load_s": "s",
    "index.build_s": "s",
    "crypto.keygen_s": "s",
    "setup.warmup_s": "s",
    "host.ref_kernel_s": "s",
    "tracing.overhead_ratio": "ratio",
}

#: Processes a gated run is split over, one after another; each sets up
#: once, so ``setup_s`` is still a median of ``SETUP_REPS`` set-ups.
PARTS = SETUP_REPS
#: Kernel readings each part takes before and again after its units.
EXTRA_READINGS = 1
#: A gated run whose parts have not all finished this many seconds after
#: it started kills the one still running and fails.
RUN_TIMEOUT_S = 170

#: Layer spans counted as crypto in the traced shares.
CRYPTO_SPANS = ("crypto.encrypt", "crypto.select", "crypto.decrypt", "crypto.pool_refill")


@dataclass
class Timed:
    """One bracketed measurement: raw seconds and the kernel times around it."""

    raw_s: float
    ref_before_s: float
    ref_after_s: float | None
    result: object = None


def _bracketed(kernel: ReferenceKernel, call, after: bool = True) -> Timed:
    """Time ``call`` between kernel readings; with ``after`` false only the
    one before, for back-to-back units whose next reading follows soon."""
    gc.collect()
    before = kernel.measure()
    start = time.perf_counter()
    result = call()
    raw = time.perf_counter() - start
    return Timed(raw, before, kernel.measure() if after else None, result)


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest nearest-rank
    percentile with at least ten samples beyond it, never below the median:
    with fewer than 21 samples it is the sample just above the median."""
    ordered = sorted(values)
    n = len(ordered)
    rank = max(n - 10, n // 2 + 1)
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def _setup(workload, seed: int, rep: int, kernel: ReferenceKernel):
    """Set up once; returns the state and the timing, which carries the
    set-up steps' raw seconds as ``result``."""
    parts: dict[str, float] = {}

    @contextmanager
    def clock(name):
        start = time.perf_counter()
        yield
        parts[name] = time.perf_counter() - start

    timed = _bracketed(kernel, lambda: workload.setup(seed, rep, clock))
    state, timed.result = timed.result, parts
    return state, timed


def _setups(workload, seed: int, kernel: ReferenceKernel):
    """Set up ``SETUP_REPS`` times; returns the last state and every timing."""
    timings, state = [], None
    for rep in range(SETUP_REPS):
        state = None  # release the previous set-up before timing the next
        state, timed = _setup(workload, seed, rep, kernel)
        timings.append(timed)
    return state, timings


def _execute(unit, kernel: ReferenceKernel, recorder=None, after: bool = True) -> Timed:
    """Prepare, time, and check one unit (traced when ``recorder`` is set)."""
    unit.prepare()
    with tracing.traced(recorder) if recorder else nullcontext():
        root = recorder.span(tracing.ROOT) if recorder and unit.root_span else nullcontext()

        def call():
            with root:
                return unit.execute()

        timed = _bracketed(kernel, call, after)
    timed.result = unit.finish(timed.result, timed.raw_s)
    return timed


def _end_to_end(parts: list[dict], corrected: bool) -> dict:
    """End-to-end metrics pooled over the parts of a gated run, each part's
    times scaled by its own correction factor (or by 1 for raw)."""

    def factor(part):
        return REF_NOMINAL_S / statistics.median(part["refs"]) if corrected else 1.0

    samples = [
        [value * factor(part) for value in sample[:3]] + [sample[3]]
        for part in parts
        for unit in part["units"]
        for sample in unit["samples"]
    ]
    latencies = [s[0] for s in samples]
    value, percentile, beyond = tail(latencies)
    busy_s = sum(unit["raw_s"] * factor(part) for part in parts for unit in part["units"])
    return {
        "query_p50_s": statistics.median(latencies),
        "query_tail_s": value,
        "query_tail_pct": percentile,
        "query_tail_beyond": beyond,
        "queries_per_s": len(samples) / busy_s,
        "coordinator_p50_s": statistics.median(s[1] for s in samples),
        "lsp_p50_s": statistics.median(s[2] for s in samples),
        "comm_bytes_per_query": statistics.fmean(s[3] for s in samples),
        "setup_s": statistics.median(part["setup_s"] * factor(part) for part in parts),
        "peak_rss_mb": max(part["rss_mb"] for part in parts),
        "samples": len(samples),
    }


def _per_layer(recorder, paired: list[tuple[Timed, Timed]], setups, factor: float):
    """Per-layer metrics, layer shares of the traced query time, that time."""
    traced = [t for _, t in paired]
    totals = tracing.layer_totals(recorder.spans)
    root = totals.get(tracing.ROOT, {"spans": 0})
    queries = max(root["spans"], 1)

    def per_query(name: str, key: str = "self_s") -> float:
        value = totals.get(name, {}).get(key, 0) / queries
        return value * factor if key == "self_s" else value

    def per_call(name: str, key: str) -> float:
        entry = totals.get(name)
        return entry[key] / entry["spans"] if entry else 0.0

    info = [t.result.info for t in traced if t.result.info]

    def ratio(hits: str, lookups: str) -> float:
        total = sum(i[lookups] for i in info)
        return sum(i[hits] for i in info) / total if total else 0.0

    plans = [r["attrs"]["sim_queue_wait_p50_s"] for r in recorder.spans if r["name"] == "serve.plan"]
    untraced_p50 = statistics.median(s.latency_s for u, _ in paired for s in u.result.samples)
    traced_p50 = statistics.median(s.latency_s for _, t in paired for s in t.result.samples)
    metrics = {
        "gnn.kgnn_s": per_query("gnn.kgnn"),
        "gnn.kgnn_calls": per_query("gnn.kgnn", "spans"),
        "index.nodes_visited": per_query("gnn.kgnn", "nodes_visited"),
        "index.candidates_scored": per_query("gnn.kgnn", "candidates_scored"),
        "core.sanitize_s": per_query("core.sanitize"),
        "core.sanitize_samples": per_query("core.sanitize", "samples"),
        "core.sanitize_prefix_len": per_call("core.sanitize", "prefix_len"),
        "encoding.encode_s": per_query("encoding.encode"),
        "crypto.encrypt_s": per_query("crypto.encrypt"),
        "crypto.encryptions": per_query("crypto.encrypt", "encryptions"),
        "crypto.select_s": per_query("crypto.select"),
        "crypto.scalar_muls": per_query("crypto.select", "scalar_muls"),
        "crypto.decrypt_s": per_query("crypto.decrypt"),
        "crypto.decryptions": per_query("crypto.decrypt", "decryptions"),
        "crypto.pool_refill_s": per_query("crypto.pool_refill"),
        "crypto.pool_hit_ratio": ratio("pool_pooled", "pool_takes"),
        "transport.send_s": per_query("transport.send"),
        "transport.messages": per_query("transport.send", "messages"),
        "core.round_other_s": per_query(tracing.ROOT),
        "serve.plan_s": per_query("serve.plan"),
        "serve.replica_build_s": per_query("serve.replica_build"),
        "serve.knn_cache_hit_ratio": ratio("cache_hits", "cache_lookups"),
        "serve.sim_queue_wait_p50_s": statistics.median(plans) if plans else 0.0,
        "serve.jobs_failed": sum(i["jobs_failed"] for i in info),
        "serve.jobs_rejected": sum(i["jobs_rejected"] for i in info),
        "host.ref_kernel_s": REF_NOMINAL_S / factor,
        "tracing.overhead_ratio": traced_p50 / untraced_p50,
    }
    for part in ("datasets.load_s", "index.build_s", "crypto.keygen_s", "setup.warmup_s"):
        metrics[part] = statistics.median(t.result[part] for t in setups) * factor
    query_s = root.get("wall_s", 0.0) / queries * factor
    shares = {
        "gnn.kgnn_s+core.sanitize_s": (metrics["gnn.kgnn_s"] + metrics["core.sanitize_s"]) / query_s,
        "gnn.kgnn_s": metrics["gnn.kgnn_s"] / query_s,
        "crypto.*": sum(per_query(name) for name in CRYPTO_SPANS) / query_s,
        "core.round_other_s": metrics["core.round_other_s"] / query_s,
    }
    return metrics, shares, query_s


def unit_count(workload, seconds: float, trace: int) -> int:
    """Units in one run: ``seconds`` of nominal unit time, at least one.
    A traced run executes each unit twice, so it takes half as many."""
    return max(1, round(seconds / workload.unit_s / (2 if trace else 1)))


def _frozen_kernel() -> ReferenceKernel:
    kernel = ReferenceKernel()
    # The kernel's graph is a quarter-million GC-tracked lists.  Left in
    # the collector's view, every full collection inside a query would
    # walk it and charge the program for the benchmark's own heap (about
    # 0.5 s per collection).  Freezing before any set-up keeps the
    # program's own objects collectable as usual.
    gc.collect()
    gc.freeze()
    return kernel


def _fail(names: dict, attempted: int, failed: int) -> int:
    zeros = {name: {"value": 0.0, "unit": unit} for name, unit in names.items()}
    print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": zeros}))
    return 1


def run(args) -> int:
    if args.part >= 0:
        return run_part(args)
    return _traced(args) if args.trace else _gated(args)


def run_part(args) -> int:
    """One part of a gated run, in its own process: set up once, run this
    part's share of the units, and print everything as one ``part`` line."""
    workload = WORKLOADS[args.workload]
    kernel = _frozen_kernel()
    state, setup = _setup(workload, args.seed, args.part, kernel)
    state["reference"] = ExactReference(state["lsp"], state["pois"])
    # A fixed number of units, sized to take about --seconds on the
    # reference host: a run's sample count, and with it the percentile
    # query_tail_s picks, must not depend on the host's speed that minute.
    count = unit_count(workload, args.seconds, 0)
    sizes = [count // PARTS + (i < count % PARTS) for i in range(PARTS)]
    start = sum(sizes[: args.part])
    units = []
    # Extra readings around the measured phase steady the part's factor,
    # which otherwise rests on as few as four.
    extra = [kernel.measure() for _ in range(EXTRA_READINGS)]
    with workload.measuring(state):
        stream = workload.units(state, args.seed)
        for unit in itertools.islice(stream, start, start + sizes[args.part]):
            timed = _execute(unit, kernel, after=False)
            result = timed.result
            units.append(
                {
                    "raw_s": timed.raw_s,
                    "refs": [timed.ref_before_s],
                    "samples": [
                        [s.latency_s, s.coordinator_s, s.lsp_s, s.comm_bytes] for s in result.samples
                    ],
                    "attempted": result.attempted,
                    "failed": result.failed,
                    "digest": result.info.get("answers_digest"),
                }
            )
    extra += [kernel.measure() for _ in range(EXTRA_READINGS)]
    part = {
        "setup_s": setup.raw_s,
        "refs": [setup.ref_before_s, setup.ref_after_s, *extra] + [r for u in units for r in u["refs"]],
        "units": units,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print("part " + json.dumps(part))
    return 0


def _gated(args) -> int:
    """Run the ``PARTS`` parts one after another, each in a fresh process,
    and pool them.  One process varies from the next by more than the
    kernel tracks (memory layout, a slow spell of the host), so a run
    averages over several."""
    parts = []
    deadline = time.monotonic() + RUN_TIMEOUT_S
    for index in range(PARTS):
        command = [
            sys.executable, str(Path(__file__).resolve().parent / "run.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", "0", "--part", str(index),
        ]
        try:
            done = subprocess.run(
                command, capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic())
            )
        except subprocess.TimeoutExpired:
            print(f"part {index} did not finish within the run's {RUN_TIMEOUT_S} s", file=sys.stderr)
            return _fail(END_TO_END, 1 + sum(u["attempted"] for p in parts for u in p["units"]), 1)
        line = next((l for l in done.stdout.splitlines() if l.startswith("part ")), None)
        if done.returncode != 0 or line is None:
            print(f"part {index} failed (exit {done.returncode})\n{done.stdout}{done.stderr}", file=sys.stderr)
            return _fail(END_TO_END, 1 + sum(u["attempted"] for p in parts for u in p["units"]), 1)
        parts.append(json.loads(line[len("part "):]))

    units = [u for p in parts for u in p["units"]]
    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units)
    for u in units:
        if u["digest"] is not None:
            print(f"answers_digest {u['digest']}")
    print(f"workload {args.workload}: attempted {attempted}, failed {failed}")
    if failed or not any(u["samples"] for u in units):
        return _fail(END_TO_END, max(attempted, 1), failed)
    corrected = _end_to_end(parts, corrected=True)
    raw = _end_to_end(parts, corrected=False)
    ref_s = [statistics.median(p["refs"]) for p in parts]
    for name, unit in {**END_TO_END, **UNGATED}.items():
        print(f"{name:22s} {corrected[name]:14.6f} {unit:6s} (raw {raw[name]:.6f})")
    print(
        f"query_tail_s is p{corrected['query_tail_pct']:.1f} of "
        f"{corrected['samples']} samples, {corrected['query_tail_beyond']} beyond it"
    )
    print("detail " + json.dumps({"raw": raw, "corrected": corrected, "ref_s": ref_s}))
    final = {name: {"value": corrected[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": final}))
    return 0


def _traced(args) -> int:
    workload = WORKLOADS[args.workload]
    kernel = _frozen_kernel()
    state, setups = _setups(workload, args.seed, kernel)
    state["reference"] = ExactReference(state["lsp"], state["pois"])
    recorder = tracing.SpanRecorder()
    units: list[Timed] = []
    paired: list[tuple[Timed, Timed]] = []
    count = unit_count(workload, args.seconds, 1)
    with workload.measuring(state):
        for index, unit in enumerate(itertools.islice(workload.units(state, args.seed), count)):
            order = (None, recorder) if index % 2 == 0 else (recorder, None)
            first, second = (_execute(unit, kernel, r) for r in order)
            untraced, traced = (first, second) if index % 2 == 0 else (second, first)
            units += [untraced, traced]
            paired.append((untraced, traced))

    attempted = sum(u.result.attempted for u in units)
    failed = sum(u.result.failed for u in units)
    for u in units:
        if "answers_digest" in u.result.info:
            print(f"answers_digest {u.result.info['answers_digest']}")
    print(f"workload {args.workload}: attempted {attempted}, failed {failed}")
    if failed or not any(u.result.samples for u in units):
        return _fail(PER_LAYER, attempted, failed)
    # Host speed for the whole run: the median of every bracket reading.
    ref_s = statistics.median(
        reading for t in units + setups for reading in (t.ref_before_s, t.ref_after_s)
    )
    factor = REF_NOMINAL_S / ref_s
    metrics, shares, query_s = _per_layer(recorder, paired, setups, factor)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl"
    recorder.write_jsonl(path)
    print(f"trace: {len(recorder.spans)} spans -> {path}")
    print(f"traced query time {query_s:.4f} s (corrected); layer shares of it:")
    for name, share in shares.items():
        print(f"  {name:28s} {share:7.1%}")
    if shares["core.round_other_s"] > 0.10:
        print("WARNING: core.round_other_s exceeds 10% of query time; a hot path is not wrapped")
    final = {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER.items()}
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": final}))
    return 0


def steadiness(args) -> int:
    """Run the workload ``args.steadiness`` times; print each metric's spread."""
    runs = []
    for i in range(args.steadiness):
        seed = args.seed + i
        command = [
            sys.executable, str(Path(__file__).resolve().parent / "run.py"),
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(args.seconds), "--trace", "0",
        ]
        done = subprocess.run(command, capture_output=True, text=True, timeout=900)
        lines = done.stdout.splitlines()
        detail = next((json.loads(l[7:]) for l in lines if l.startswith("detail ")), None)
        if done.returncode != 0 or detail is None:
            print(f"seed {seed}: run failed (exit {done.returncode})\n{done.stdout}{done.stderr}")
            return 1
        runs.append(detail)
        print(f"seed {seed}: detail " + json.dumps(detail), flush=True)
    print(f"\n{args.workload}: {len(runs)} runs, seeds {args.seed}..{args.seed + len(runs) - 1}, {args.seconds:g} s each")
    print(f"{'metric':22s} {'kind':9s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s} {'min':>12s} {'max':>12s}")
    for name in {**END_TO_END, **UNGATED}:
        for kind in ("raw", "corrected"):
            values = [run[kind][name] for run in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            print(
                f"{name:22s} {kind:9s} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                f"{(q3 - q1) / median:8.2%} {min(values):12.6g} {max(values):12.6g}"
            )
    return 0
