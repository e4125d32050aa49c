"""The benchmark's workloads, driven only through ``repro``'s public API.

Every workload has the same shape:

- ``setup(seed, rep, clock)`` builds the database, the LSP and its index,
  the group key, and runs one warm-up query, timing each part with
  ``clock``.  Everything it does counts toward ``setup_s``.
- ``units(state, seed)`` yields an endless stream of timed units built
  from the run seed.  A unit is prepared outside the timed region, then
  ``execute()`` is the timed region, then ``finish()`` checks every answer
  against an exact plaintext reference, outside the timed region.

The reference (:class:`ExactReference`) scores every POI, so it shares
nothing with the index under test.
"""

from __future__ import annotations

import itertools
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from repro import LSPServer, PPGNNConfig, random_group, run_ppgnn, run_ppgnn_opt
from repro.core.session import QuerySession
from repro.crypto.paillier import generate_keypair
from repro.datasets import SEQUOIA_SIZE, load_sequoia
from repro.serve import (
    BucketRunner,
    GroupProfile,
    QueryJob,
    ServeConfig,
    ServeEngine,
    Workload,
    WorkloadSpec,
)

#: Stride separating per-query seeds of one run from the run seed.
_SEED_STRIDE = 1_000_003
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3


@dataclass
class Sample:
    """One completed query, in raw seconds."""

    latency_s: float
    coordinator_s: float
    lsp_s: float
    comm_bytes: int


@dataclass
class UnitResult:
    """What one timed unit produced once its answers were checked."""

    samples: list[Sample]
    attempted: int
    failed: int
    info: dict = field(default_factory=dict)


class ExactReference:
    """The exact plaintext top-k under the sum aggregate, by full scan.

    numpy scores every POI as a filter; every POI within float error of the
    k-th score is then re-scored with the same scalar expression and
    ``(score, location)`` order the kGNN black box uses, so ties break the
    same way.
    """

    def __init__(self, lsp: LSPServer, pois) -> None:
        if lsp.aggregate.name != "sum":
            raise ValueError("the reference scan assumes the sum aggregate")
        self.aggregate = lsp.aggregate
        self.pois = list(pois)
        self.xs = np.array([p.location.x for p in self.pois])
        self.ys = np.array([p.location.y for p in self.pois])

    def topk(self, locations, k: int) -> tuple[int, ...]:
        k = min(k, len(self.pois))
        scores = np.zeros(len(self.pois))
        for q in locations:
            scores += np.hypot(self.xs - q.x, self.ys - q.y)
        kth = np.partition(scores, k - 1)[k - 1]
        band = np.nonzero(scores <= kth + 1e-9 * max(1.0, kth))[0]
        ranked = sorted(
            (
                self.aggregate(p.location.distance_to(q) for q in locations),
                (p.location.x, p.location.y),
                p.poi_id,
            )
            for p in (self.pois[i] for i in band)
        )
        return tuple(pid for _, _, pid in ranked[:k])


def answer_matches(answer: tuple[int, ...], reference: tuple[int, ...], sanitized: bool) -> bool:
    """A sanitized answer is a non-empty prefix of the reference; else equal."""
    if sanitized:
        return 0 < len(answer) <= len(reference) and answer == reference[: len(answer)]
    return answer == reference


@contextmanager
def patched(owner, name: str, replacement):
    """Temporarily replace ``owner.name``; the original is always restored."""
    original = owner.__dict__[name]
    setattr(owner, name, replacement)
    try:
        yield
    finally:
        setattr(owner, name, original)


# ------------------------------------------------------------ protocol rounds


@dataclass(frozen=True)
class ProtocolWorkload:
    """Closed loop of single-client group queries with a fresh group each."""

    name: str
    runner: Callable  # run_ppgnn or run_ppgnn_opt
    pois: int
    keysize: int
    sanitize: bool
    #: Corrected seconds of one unit on the reference host; sets how many
    #: units a run of ``--seconds`` holds.
    unit_s: float
    n: int = 8
    d: int = 25
    delta: int = 100
    k: int = 8
    theta0: float = 0.05

    def _config(self, key_seed: int) -> PPGNNConfig:
        return PPGNNConfig(
            d=self.d,
            delta=self.delta,
            k=self.k,
            theta0=self.theta0,
            sanitize=self.sanitize,
            keysize=self.keysize,
            key_seed=key_seed,
        )

    def setup(self, seed: int, rep: int, clock) -> dict:
        with clock("datasets.load_s"):
            pois = load_sequoia(self.pois)
        with clock("index.build_s"):
            lsp = LSPServer(pois, seed=seed)
        # A distinct key per set-up, so key-derived tables are rebuilt.
        key_seed = seed * SETUP_REPS + rep + 1
        with clock("crypto.keygen_s"):
            generate_keypair(self.keysize, seed=key_seed)
        state = {"pois": pois, "lsp": lsp, "config": self._config(key_seed)}
        warmup = next(self.units(state, seed + 7_777_777))
        warmup.prepare()
        with clock("setup.warmup_s"):
            warmup.execute()
        return state

    def units(self, state: dict, seed: int):
        rng = np.random.default_rng(seed)
        lsp = state["lsp"]
        for i in itertools.count():
            group = random_group(self.n, lsp.space, rng)
            yield ProtocolUnit(self, state, group, seed * _SEED_STRIDE + i)

    @contextmanager
    def measuring(self, state: dict):
        """Context of the measured phase: nothing to install."""
        yield


class ProtocolUnit:
    """One group query: the runner call, from request to decrypted answer."""

    #: The measuring loop opens this unit's root span.
    root_span = True

    def __init__(self, workload: ProtocolWorkload, state: dict, group, query_seed: int):
        self.workload = workload
        self.state = state
        self.group = group
        self.query_seed = query_seed

    def prepare(self) -> None:
        # Pin the LSP's sanitation sampler so a repeat of this unit is exact.
        self.state["lsp"].reset_rng(self.query_seed)

    def execute(self):
        return self.workload.runner(
            self.state["lsp"], self.group, self.state["config"], seed=self.query_seed
        )

    def finish(self, result, wall_s: float) -> UnitResult:
        reference = self.state["reference"].topk(self.group, self.workload.k)
        ok = answer_matches(result.answer_ids, reference, self.workload.sanitize)
        report = result.report
        sample = Sample(
            latency_s=wall_s,
            coordinator_s=report.time_by_role.get("coordinator", 0.0),
            lsp_s=report.lsp_cost_seconds,
            comm_bytes=report.total_comm_bytes,
        )
        return UnitResult(samples=[sample] if ok else [], attempted=1, failed=0 if ok else 1)


# ------------------------------------------------------------------ serving


class JobClock:
    """Times every ``BucketRunner.run_job`` and keeps each job's cost report.

    Installed for the measured phase: a job's latency is measured at the bucket
    runner, and the session's ``CostReport`` rides along for the
    coordinator and LSP figures the serving report does not carry.
    """

    def __init__(self) -> None:
        self.jobs: dict[int, tuple[float, object]] = {}
        self._current: list = []

    @contextmanager
    def installed(self):
        clock = self
        run_job = BucketRunner.__dict__["run_job"]
        query = QuerySession.__dict__["query"]

        def timed_run_job(runner, job, group):
            clock._current.append(None)
            start = time.perf_counter()
            try:
                return run_job(runner, job, group)
            finally:
                elapsed = time.perf_counter() - start
                clock.jobs[job.job_id] = (elapsed, clock._current.pop())

        def reporting_query(session, *args, **kwargs):
            result = query(session, *args, **kwargs)
            if clock._current:
                clock._current[-1] = result.report
            return result

        with patched(BucketRunner, "run_job", timed_run_job), patched(
            QuerySession, "query", reporting_query
        ):
            yield self


#: Fresh jobs of one serving batch: ppgnn : ppgnn-opt : naive = 2 : 1 : 1,
#: all with groups of five.  Job cost clusters by group size, so a mix of
#: sizes puts the median between clusters, where it jumps with small
#: changes (see README.md, "The serving batch").
GROUP_SIZE = 5
FRESH = tuple(
    (protocol, GROUP_SIZE)
    for protocol in ("ppgnn", "ppgnn", "ppgnn", "ppgnn", "ppgnn-opt", "ppgnn-opt", "naive", "naive")
)
#: Verbatim re-issues per batch, keeping the 2 : 1 : 1 mix: 4 of 12 jobs.
REPEATS = ("ppgnn", "ppgnn", "ppgnn-opt", "naive")
TENANTS = ("tenant-0", "tenant-1", "tenant-2")


@dataclass(frozen=True)
class ServeWorkload:
    """Balanced batches of group queries through ``ServeEngine``.

    ``generate_workload`` draws each job's protocol and group size
    independently, so the mix of a run's two dozen jobs, and with it the
    median job latency, swings with the seed (40-60 % IQR over five seeds).
    Each batch here fixes the mix exactly and takes only the group
    locations, the job order, which jobs repeat, the per-job seeds and the
    Poisson arrivals from the seed.
    """

    name: str
    #: Corrected seconds of one batch on the reference host.
    unit_s: float = 6.5
    pois: int = SEQUOIA_SIZE
    keysize: int = 512
    d: int = 10
    delta: int = 30
    k: int = 8
    rate_qps: float = 4.0

    def batch(self, seed: int, space, fresh=None, repeats=REPEATS) -> Workload:
        """One batch: ``fresh`` (protocol, group size) jobs plus ``repeats``."""
        rng = random.Random(seed)
        nprng = np.random.default_rng(seed)
        fresh = FRESH if fresh is None else fresh
        groups = tuple(
            GroupProfile(g, TENANTS[g % len(TENANTS)], tuple(space.sample_points(size, nprng)))
            for g, (_, size) in enumerate(fresh)
        )
        order = list(range(len(fresh)))
        rng.shuffle(order)
        slots = [(g, seed * _SEED_STRIDE + g) for g in order]
        for protocol in repeats:
            # Re-issue one earlier fresh job of this protocol, verbatim.
            choices = [i for i, (g, _) in enumerate(slots) if fresh[g][0] == protocol]
            original = rng.choice(choices)
            slots.insert(rng.randint(original + 1, len(slots)), slots[original])
        jobs, clock, first = [], 0.0, {}
        for job_id, (g, job_seed) in enumerate(slots):
            clock += rng.expovariate(self.rate_qps)
            first.setdefault(job_seed, job_id)
            jobs.append(
                QueryJob(
                    job_id=job_id,
                    tenant=groups[g].tenant,
                    group_id=g,
                    protocol=fresh[g][0],
                    k=self.k,
                    seed=job_seed,
                    arrival_time=clock,
                    repeat_of=None if first[job_seed] == job_id else first[job_seed],
                )
            )
        spec = WorkloadSpec(
            queries=len(jobs),
            rate_qps=self.rate_qps,
            tenants=TENANTS,
            groups=len(groups),
            repeat_fraction=len(repeats) / len(jobs),
            seed=seed,
        )
        return Workload(spec=spec, groups=groups, jobs=tuple(jobs))

    def setup(self, seed: int, rep: int, clock) -> dict:
        with clock("datasets.load_s"):
            pois = load_sequoia(self.pois)
        with clock("index.build_s"):
            lsp = LSPServer(pois, seed=seed)
        key_seed = seed * SETUP_REPS + rep + 1
        with clock("crypto.keygen_s"):
            generate_keypair(self.keysize, seed=key_seed)
        config = PPGNNConfig(d=self.d, delta=self.delta, k=self.k, keysize=self.keysize, key_seed=key_seed)
        serve_config = ServeConfig(
            workers=2,
            executor="serial",
            nonce_pool=True,
            # Each job tops its pool up by exactly what it spends, so it
            # pays for its own nonces.  With the default chunk of 64, the
            # job that drained a pool paid about 0.5 s for the next ones.
            nonce_chunk=1,
            knn_cache_size=256,
            guard=True,
        )
        state = {"pois": pois, "lsp": lsp, "engine": ServeEngine(lsp, config, serve_config), "clock": None}
        # One job per protocol, so every code path is warm; one worker, so
        # the warm-up builds one replica, not two.
        warmup = self.batch(
            seed + 7_777_777,
            lsp.space,
            fresh=[("ppgnn", 3), ("ppgnn-opt", 3), ("naive", 3)],
            repeats=(),
        )
        with clock("setup.warmup_s"):
            ServeEngine(lsp, config, replace(serve_config, workers=1)).run(warmup)
        return state

    @contextmanager
    def measuring(self, state: dict):
        """Context of the measured phase: job latencies are taken per job."""
        clock = JobClock()
        state["clock"] = clock
        with clock.installed():
            yield

    def units(self, state: dict, seed: int):
        space = state["lsp"].space
        for i in itertools.count():
            yield ServeUnit(self, state, self.batch(seed * _SEED_STRIDE + i, space))


class ServeUnit:
    """One ``ServeEngine.run``: plan, replica builds, and every job."""

    #: Each job's root span opens at ``BucketRunner.run_job`` instead.
    root_span = False

    def __init__(self, workload: ServeWorkload, state: dict, generated) -> None:
        self.workload = workload
        self.state = state
        self.generated = generated

    def prepare(self) -> None:
        if self.state["clock"] is not None:
            self.state["clock"].jobs.clear()

    def execute(self):
        return self.state["engine"].run(self.generated)

    def finish(self, report, wall_s: float) -> UnitResult:
        reference = self.state["reference"]
        clock = self.state["clock"]
        samples, failed = [], 0
        for job in self.generated.jobs:
            outcome = report.outcomes.get(job.job_id)
            locations = self.generated.group(job.group_id).locations
            ok = (
                outcome is not None
                and outcome.ok
                and answer_matches(outcome.answer_ids, reference.topk(locations, job.k), True)
            )
            if not ok:
                failed += 1
                continue
            latency, cost = clock.jobs[job.job_id]
            samples.append(
                Sample(
                    latency_s=latency,
                    coordinator_s=cost.time_by_role.get("coordinator", 0.0),
                    lsp_s=cost.lsp_cost_seconds,
                    comm_bytes=outcome.comm_bytes,
                )
            )
        lookups = report.cache["hits"] + report.cache["misses"]
        takes = report.pool["pooled"] + report.pool["dry"]
        return UnitResult(
            samples=samples,
            attempted=len(self.generated.jobs),
            failed=failed,
            info={
                "answers_digest": report.answers_digest,
                "cache_hits": report.cache["hits"],
                "cache_lookups": lookups,
                "pool_pooled": report.pool["pooled"],
                "pool_takes": takes,
                "jobs_failed": report.failed,
                "jobs_rejected": report.rejected,
            },
        )


WORKLOADS = {
    # Table 3 defaults; kGNN and sanitation dominate the round.
    "paper-ppgnn-512": ProtocolWorkload(
        name="paper-ppgnn-512",
        runner=run_ppgnn,
        pois=SEQUOIA_SIZE,
        keysize=512,
        sanitize=True,
        unit_s=3.0,
    ),
    # Small database, paper key, no sanitation: crypto dominates, kGNN is
    # bypassed, so kGNN changes should not move it.
    "opt-nas-1024-city": ProtocolWorkload(
        name="opt-nas-1024-city",
        runner=run_ppgnn_opt,
        pois=2000,
        keysize=1024,
        sanitize=False,
        unit_s=1.45,
    ),
    # Same layers used differently: kNN-cache hits, nonce-pool refills and
    # replica builds inside the run.
    "serve-repeat-mix": ServeWorkload(name="serve-repeat-mix"),
}

