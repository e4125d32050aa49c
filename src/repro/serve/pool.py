"""Execution backends: per-bucket runners, serial or multiprocessing.

Jobs are routed to buckets by ``group_id % workers``, so every query of a
group executes in the same bucket, in planned start order.  A bucket is a
self-contained serving cell: its own LSP replica, its own session table,
its own shared nonce-pool registry and kNN result cache.  Because the
bucket assignment and the within-bucket order depend only on the plan —
never on the execution backend — the serial and multiprocessing executors
produce *identical* outcomes and cache/pool statistics; processes only
shrink wall-clock time.

:class:`LSPSpec` is the picklable recipe a worker process uses to rebuild
its LSP replica (POIs, space, sanitation knobs).  Real crypto runs here —
the simulated clock of :mod:`repro.serve.engine` never consults these
timings.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.core.common import group_keypair
from repro.core.config import PPGNNConfig
from repro.core.lsp import LSPServer
from repro.core.plan import RoundPlan
from repro.core.session import QuerySession
from repro.crypto.noncepool import NoncePoolRegistry, PoolStats
from repro.datasets.poi import POI
from repro.errors import ReproError
from repro.geometry.space import LocationSpace
from repro.guard.guard import ProtocolGuard
from repro.index.base import IndexCounters
from repro.metrics.quality import estimate_brownout_quality
from repro.obs import MetricsRegistry, MetricsSnapshot, Observability, Tracer
from repro.serve.cache import CacheStats, KnnLRUCache
from repro.serve.workload import GroupProfile, QueryJob
from repro.transport.channel import FaultyChannel
from repro.transport.faults import FaultPlan
from repro.transport.retry import RetryPolicy
from repro.transport.session import ResilientSession

if TYPE_CHECKING:
    from repro.cluster.scatter import ClusterRunner, ClusterStats

_PROTOCOL_INDEX = {"ppgnn": 0, "ppgnn-opt": 1, "naive": 2}


@dataclass(frozen=True)
class LSPSpec:
    """Everything needed to rebuild an equivalent LSP in another process."""

    pois: tuple[POI, ...]
    space: LocationSpace
    aggregate_name: str = "sum"
    gamma: float = 0.05
    eta: float = 0.2
    phi: float = 0.1
    sanitation_samples: int | None = None
    #: Index substrate behind the replica's kGNN engine (see
    #: :data:`repro.gnn.engine.INDEX_KINDS`).
    index: str = "rtree"

    @classmethod
    def from_lsp(cls, lsp: LSPServer) -> "LSPSpec":
        return cls(
            pois=tuple(lsp.engine.pois),
            space=lsp.space,
            aggregate_name=lsp.aggregate.name,
            gamma=lsp.gamma,
            eta=lsp.eta,
            phi=lsp.phi,
            sanitation_samples=lsp.sanitation_samples,
            index=getattr(lsp.engine, "index_kind", "rtree"),
        )

    def build(self) -> LSPServer:
        return LSPServer(
            pois=list(self.pois),
            space=self.space,
            aggregate_name=self.aggregate_name,
            gamma=self.gamma,
            eta=self.eta,
            phi=self.phi,
            sanitation_samples=self.sanitation_samples,
            index=self.index,
        )


@dataclass(frozen=True)
class RunnerOptions:
    """Picklable per-bucket execution knobs (a slice of ``ServeConfig``)."""

    nonce_pool: bool = True
    nonce_seed: int = 0
    nonce_chunk: int = 64
    knn_cache_size: int | None = 256
    faults: FaultPlan | None = None
    guard: bool = False
    deadline_seconds: float | None = None
    obs: bool = False
    # Per-bucket trace ring size (None keeps the Tracer default).  The
    # bucket publishes evictions as ``obs.trace.spans_dropped`` so trend
    # and exemplar data loss is visible instead of silent.
    trace_capacity: int | None = None
    # Wrap each job in a ``serve.job`` root span (carrying its job id) so
    # latency-histogram exemplars can link a bucket back to the concrete
    # trace.  Off by default: the no-exemplar trace is byte-identical to
    # every prior release.
    exemplars: bool = False
    cluster: object | None = None  # a repro.cluster.ClusterConfig, or None
    # Overload-control knobs (see repro.serve.control).  The defaults
    # reproduce the pre-control behaviour bit for bit.
    retry_budget: int | None = None
    breaker_failures: int | None = None
    breaker_probe_after: int = 8


@dataclass(frozen=True, slots=True)
class JobOutcome:
    """What one executed job produced (picklable, wall-time-free).

    ``answer_ids`` and ``comm_bytes`` are the determinism-bearing fields:
    they must match a direct :class:`~repro.core.session.QuerySession` run
    of the same job byte for byte.
    """

    job_id: int
    tenant: str
    group_id: int
    protocol: str
    ok: bool
    answer_ids: tuple[int, ...] = ()
    comm_bytes: int = 0
    error_type: str | None = None
    error: str | None = None
    # Cluster degradation provenance.  The defaults describe every
    # non-cluster outcome, so the digest formula (and the pinned
    # regression fixtures) are untouched when ``cluster=None``.
    partial: bool = False
    coverage: float = 1.0
    lost_shards: tuple[int, ...] = ()
    expected_recall: float = 1.0
    # Brownout provenance: the smaller k this job actually executed with
    # (None = served at full k), and the quality-scored PartialAnswer a
    # degraded or shard-partial job returned.
    degraded_k: int | None = None
    partial_answer: object | None = None


@dataclass
class BucketStats:
    """Shared-resource counters of one bucket, merged into the report.

    When the bucket ran with observability on, ``metrics`` carries its
    registry snapshot and ``spans`` its trace as one span *group* (a tuple
    of span dicts with bucket-local ids).  Merging keeps groups separate —
    the engine remaps ids per group when it assembles the run-wide trace —
    and always happens in bucket order, so serial and multiprocessing
    executors produce identical merged observations.
    """

    pool: PoolStats = field(default_factory=PoolStats)
    cache: CacheStats = field(default_factory=CacheStats)
    retransmissions: int = 0
    corrupt_rejected: int = 0
    metrics: MetricsSnapshot | None = None
    spans: tuple = ()
    cluster: ClusterStats | None = None

    def merge(self, other: "BucketStats") -> None:
        self.pool.merge(other.pool)
        self.cache.merge(other.cache)
        self.retransmissions += other.retransmissions
        self.corrupt_rejected += other.corrupt_rejected
        if other.cluster is not None:
            if self.cluster is None:
                from repro.cluster.scatter import ClusterStats

                self.cluster = ClusterStats()
            self.cluster.merge(other.cluster)
        if other.metrics is not None:
            registry = MetricsRegistry()
            if self.metrics is not None:
                registry.merge_snapshot(self.metrics)
            registry.merge_snapshot(other.metrics)
            self.metrics = registry.snapshot()
        self.spans = self.spans + other.spans


class BucketRunner:
    """Executes one bucket's jobs against one LSP replica.

    Sessions are keyed ``(group_id, protocol, k)`` — a group that issues
    the same query shape repeatedly reuses one key pair and one session,
    the amortized-setup model of :class:`QuerySession`.  All sessions of a
    bucket share the runner's nonce-pool registry (per-public-key pools)
    and its LSP-side kNN cache.
    """

    def __init__(
        self,
        lsp: LSPServer,
        base_config: PPGNNConfig,
        options: RunnerOptions,
    ) -> None:
        self.lsp = lsp
        self.base_config = base_config
        self.options = options
        self.registry = (
            NoncePoolRegistry(seed=options.nonce_seed, chunk=options.nonce_chunk)
            if options.nonce_pool
            else None
        )
        if options.knn_cache_size is not None and options.cluster is None:
            lsp.engine.set_knn_cache(KnnLRUCache(options.knn_cache_size))
        self._sessions: dict[tuple[int, str, int], QuerySession] = {}
        self.obs = None
        if options.obs:
            self.obs = (
                Observability(tracer=Tracer(capacity=options.trace_capacity))
                if options.trace_capacity is not None
                else Observability()
            )
        self._guard = (
            ProtocolGuard(deadline_seconds=options.deadline_seconds, obs=self.obs)
            if options.guard
            else None
        )
        self._cluster: ClusterRunner | None = None
        if options.cluster is not None:
            # The cell becomes a scatter–gather cluster: its database is
            # partitioned across shard LSPs (the cell's own LSP is never
            # queried directly) while nonce pools, guard, observability,
            # and message-level faults thread through unchanged.  Imported
            # lazily: repro.cluster reaches back into repro.serve for the
            # cost model, so a module-level import would be circular.
            from repro.cluster.scatter import ClusterRunner

            self._cluster = ClusterRunner(
                lsp,
                base_config,
                options.cluster,
                transport_faults=options.faults,
                guard=self._guard,
                obs=self.obs,
                registry=self.registry,
                top_up=self._top_up_pool if self.registry is not None else None,
                deadline_seconds=options.deadline_seconds,
                knn_cache_size=options.knn_cache_size,
                retry_budget=options.retry_budget,
                breaker_failures=options.breaker_failures,
                breaker_probe_after=options.breaker_probe_after,
            )

    # ------------------------------------------------------------- sessions

    def _session(self, job: QueryJob, config: PPGNNConfig) -> QuerySession:
        key = (job.group_id, job.protocol, job.k)
        session = self._sessions.get(key)
        if session is not None:
            return session
        kwargs = dict(
            lsp=self.lsp,
            config=config,
            protocol=job.protocol,
            seed=job.seed,
            max_history=1,
            guard=self._guard,
            obs=self.obs,
        )
        if self.options.faults is not None:
            # One independent fault stream per session, derived from the
            # plan seed and the session key so replays are exact.
            plan = replace(
                self.options.faults,
                seed=self.options.faults.seed * 7919
                + job.group_id * 31
                + _PROTOCOL_INDEX[job.protocol] * 7
                + job.k,
            )
            if self.options.retry_budget is not None:
                kwargs["policy"] = RetryPolicy(
                    retry_budget=self.options.retry_budget
                )
            session = ResilientSession(channel=FaultyChannel(plan), **kwargs)
        else:
            session = QuerySession(**kwargs)
        if self.registry is not None:
            keypair = group_keypair(config)
            # The bucket owns the group's key pair, so its pool refills
            # may run the half-width CRT-split path.
            session.nonce_pool = self.registry.pool_for(
                keypair.public_key, keypair.secret_key
            )
        self._sessions[key] = session
        return session

    def _top_up_pool(self, job: QueryJob, config: PPGNNConfig, n: int) -> None:
        """Precompute exactly the factors the next round will spend."""
        public_key = group_keypair(config).public_key
        for length, s in RoundPlan.for_protocol(job.protocol, n, config).indicators:
            self.registry.ensure(public_key, length, s=s)

    # ------------------------------------------------------------ execution

    @staticmethod
    def _effective_job(job: QueryJob) -> tuple[QueryJob, int | None]:
        """The job as it will actually execute under a brownout.

        A controller-degraded job runs verbatim at the smaller
        ``brownout_k`` — same group, same seed — so its answer is an
        exact *prefix* of the requested top-k, not an approximation.
        """
        if job.brownout_k is not None and job.brownout_k < job.k:
            return replace(job, k=job.brownout_k), job.brownout_k
        return job, None

    def _approximate_quality(self):
        """The engine's measured recall, when it serves approximate answers."""
        engine = self.lsp.engine
        if not getattr(engine, "is_approximate", False):
            return None
        return getattr(engine, "recall_estimate", None)

    def _brownout_answer(self, job: QueryJob, answer_ids, degraded_k: int):
        """(PartialAnswer, quality) for a brownout-degraded answer."""
        from repro.cluster.merge import PartialAnswer

        quality = estimate_brownout_quality(job.k, degraded_k)
        return (
            PartialAnswer(
                answer_ids=answer_ids,
                covered_shards=(),
                lost_shards=(),
                coverage=quality.coverage,
                quality=quality,
            ),
            quality,
        )

    def run_job(self, job: QueryJob, group: GroupProfile) -> JobOutcome:
        if self.obs is not None and self.options.exemplars:
            # One root span per job, stamped with the job id: the engine's
            # latency histogram records this span's (merged) id as the
            # bucket exemplar, closing the loop from a flagged p99 row to
            # a renderable trace.
            with self.obs.span("serve.job", job_id=job.job_id):
                return self._execute_job(job, group)
        return self._execute_job(job, group)

    def _execute_job(self, job: QueryJob, group: GroupProfile) -> JobOutcome:
        if self._cluster is not None:
            return self._run_cluster_job(job, group)
        effective, degraded_k = self._effective_job(job)
        config = (
            self.base_config
            if effective.k == self.base_config.k
            else replace(self.base_config, k=effective.k)
        )
        session = self._session(effective, config)
        if self.registry is not None:
            self._top_up_pool(effective, config, len(group.locations))
        # Pin the sanitation sampler to the job seed: a repeat re-runs the
        # exact round (cache-servable), and bucket order alone decides the
        # stream — identical under serial and multiprocessing execution.
        self.lsp.reset_rng(job.seed)
        try:
            result = session.query(group.locations, seed=job.seed)
        except ReproError as exc:
            return JobOutcome(
                job_id=job.job_id,
                tenant=job.tenant,
                group_id=job.group_id,
                protocol=job.protocol,
                ok=False,
                error_type=type(exc).__name__,
                error=str(exc),
                degraded_k=degraded_k,
            )
        approx = self._approximate_quality()
        if degraded_k is None and approx is None:
            return JobOutcome(
                job_id=job.job_id,
                tenant=job.tenant,
                group_id=job.group_id,
                protocol=job.protocol,
                ok=True,
                answer_ids=result.answer_ids,
                comm_bytes=result.report.total_comm_bytes,
            )
        from repro.cluster.merge import PartialAnswer

        if degraded_k is None:
            # Approximate-index answer at full k: exact within the candidate
            # set, marked partial with the engine's measured recall so it
            # can never masquerade (or digest) as an exact answer.
            quality = approx
        else:
            quality = estimate_brownout_quality(job.k, degraded_k)
            if approx is not None:
                # Brownout and approximate recall are independent
                # degradations (which k positions vs. which candidates),
                # so they compose multiplicatively — same rule as the
                # brownout-on-shard-partial case in the cluster path.
                from repro.metrics.quality import PartialAnswerQuality

                quality = PartialAnswerQuality(
                    coverage=quality.coverage * approx.coverage,
                    expected_recall=quality.expected_recall
                    * approx.expected_recall,
                    guaranteed_recall=quality.guaranteed_recall
                    * approx.guaranteed_recall,
                )
        partial_answer = PartialAnswer(
            answer_ids=result.answer_ids,
            covered_shards=(),
            lost_shards=(),
            coverage=quality.coverage,
            quality=quality,
        )
        return JobOutcome(
            job_id=job.job_id,
            tenant=job.tenant,
            group_id=job.group_id,
            protocol=job.protocol,
            ok=True,
            answer_ids=result.answer_ids,
            comm_bytes=result.report.total_comm_bytes,
            partial=True,
            coverage=quality.coverage,
            expected_recall=quality.expected_recall,
            degraded_k=degraded_k,
            partial_answer=partial_answer,
        )

    def _run_cluster_job(self, job: QueryJob, group: GroupProfile) -> JobOutcome:
        """Scatter–gather path: full answer, typed partial, or typed failure."""
        effective, degraded_k = self._effective_job(job)
        try:
            scattered = self._cluster.run_job(effective, group)
        except ReproError as exc:
            return JobOutcome(
                job_id=job.job_id,
                tenant=job.tenant,
                group_id=job.group_id,
                protocol=job.protocol,
                ok=False,
                error_type=type(exc).__name__,
                error=str(exc),
                degraded_k=degraded_k,
            )
        partial = scattered.partial
        expected_recall = scattered.expected_recall
        partial_answer = scattered.partial_answer
        if degraded_k is not None:
            # A brownout stacked on a (possibly shard-partial) scatter:
            # the k-prefix ratio and the data-coverage recall compose
            # multiplicatively, since the two degradations are
            # independent (which k positions are served vs. which POIs
            # were reachable).
            from repro.cluster.merge import PartialAnswer

            quality = estimate_brownout_quality(job.k, degraded_k)
            partial = True
            expected_recall = scattered.expected_recall * quality.expected_recall
            base = scattered.partial_answer
            if base is not None:
                from repro.metrics.quality import PartialAnswerQuality

                combined = PartialAnswerQuality(
                    coverage=base.quality.coverage * quality.coverage,
                    expected_recall=expected_recall,
                    guaranteed_recall=base.quality.guaranteed_recall
                    * quality.guaranteed_recall,
                )
                partial_answer = PartialAnswer(
                    answer_ids=base.answer_ids,
                    covered_shards=base.covered_shards,
                    lost_shards=base.lost_shards,
                    coverage=base.coverage,
                    quality=combined,
                )
            else:
                partial_answer, _ = self._brownout_answer(
                    job, scattered.answer_ids, degraded_k
                )
        return JobOutcome(
            job_id=job.job_id,
            tenant=job.tenant,
            group_id=job.group_id,
            protocol=job.protocol,
            ok=True,
            answer_ids=scattered.answer_ids,
            comm_bytes=scattered.comm_bytes,
            partial=partial,
            coverage=scattered.coverage,
            lost_shards=scattered.lost_shards,
            expected_recall=expected_recall,
            degraded_k=degraded_k,
            partial_answer=partial_answer,
        )

    def stats(self) -> BucketStats:
        stats = BucketStats()
        if self.registry is not None:
            stats.pool.merge(self.registry.stats)
        cache = self.lsp.engine.knn_cache
        if cache is not None:
            stats.cache.merge(cache.stats)
        for session in self._sessions.values():
            transport = getattr(session, "transport", None)
            if transport is not None:
                stats.retransmissions += transport.stats.retransmissions
                stats.corrupt_rejected += transport.stats.corrupt_rejected
        if self._cluster is not None:
            stats.cluster = self._cluster.stats
            stats.cache.merge(self._cluster.cache_stats())
            for transport in self._cluster.transports():
                stats.retransmissions += transport.stats.retransmissions
                stats.corrupt_rejected += transport.stats.corrupt_rejected
        if self.obs is not None:
            # Shared-resource counters are published once, at bucket close,
            # so repeats and evictions are already folded in.
            self.obs.count("serve.cache.hits", stats.cache.hits)
            self.obs.count("serve.cache.misses", stats.cache.misses)
            self.obs.count("serve.pool.pooled", stats.pool.pooled)
            self.obs.count("crypto.fastexp.windowed", stats.pool.windowed)
            self.obs.count("crypto.fastexp.crt_split", stats.pool.crt_split)
            self.obs.count("crypto.fastexp.fast_muls", stats.pool.fast_muls)
            self.obs.count("crypto.fastexp.dry", stats.pool.dry)
            index_totals = IndexCounters()
            engines = [self.lsp.engine]
            if self._cluster is not None:
                engines.extend(s.engine for s in self._cluster.shard_lsps)
            for engine in engines:
                counters = getattr(engine, "index_counters", None)
                if counters is not None:
                    index_totals.merge(counters)
            self.obs.count("index.queries", index_totals.queries)
            self.obs.count("index.nodes_visited", index_totals.nodes_visited)
            self.obs.count("index.candidates_scored", index_totals.candidates_scored)
            if self.obs.tracer.dropped:
                # Ring-buffer evictions mean the exported trace (and any
                # exemplar span ids pointing into it) is incomplete;
                # publish the loss so `repro analyze` can warn.
                self.obs.count(
                    "obs.trace.spans_dropped", self.obs.tracer.dropped
                )
            stats.metrics = self.obs.snapshot()
            stats.spans = (
                tuple(span.to_dict() for span in self.obs.tracer.spans()),
            )
        return stats


def _run_bucket(payload) -> tuple[list[JobOutcome], BucketStats]:
    """Worker entry point: rebuild the cell, run its jobs in order."""
    spec, base_config, options, groups, jobs = payload
    runner = BucketRunner(spec.build(), base_config, options)
    outcomes = [runner.run_job(job, groups[job.group_id]) for job in jobs]
    return outcomes, runner.stats()


def execute_buckets(
    buckets: list[list[QueryJob]],
    spec: LSPSpec,
    base_config: PPGNNConfig,
    options: RunnerOptions,
    groups: tuple[GroupProfile, ...],
    processes: int | None = None,
) -> tuple[dict[int, JobOutcome], BucketStats]:
    """Run every bucket, serially or across ``processes`` workers.

    Returns outcomes keyed by job id plus bucket stats merged in bucket
    order — both independent of the backend, by construction.
    """
    payloads = [
        (spec, base_config, options, groups, jobs) for jobs in buckets if jobs
    ]
    if processes is not None and processes > 1 and len(payloads) > 1:
        import multiprocessing as mp

        try:
            ctx = mp.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            ctx = mp.get_context("spawn")
        with ctx.Pool(min(processes, len(payloads))) as pool:
            results = pool.map(_run_bucket, payloads)
    else:
        results = [_run_bucket(payload) for payload in payloads]
    outcomes: dict[int, JobOutcome] = {}
    totals = BucketStats()
    for bucket_outcomes, stats in results:
        for outcome in bucket_outcomes:
            outcomes[outcome.job_id] = outcome
        totals.merge(stats)
    return outcomes, totals
