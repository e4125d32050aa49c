"""Scatter–gather chaos: every fault plan degrades honestly, never wrongly.

The chaos property (the robustness contract of the cluster): under *any*
seeded :class:`ShardFaultPlan`, a scattered job either reproduces the
single-LSP answer exactly, or returns a typed
:class:`~repro.cluster.merge.PartialAnswer` that is the exact answer over
the covered shards — or fails with a typed
:class:`~repro.errors.ShardLostError` below the quorum.  There is no
fourth outcome; silent corruption is structurally impossible.
"""

import random

import pytest

from repro.cluster import ClusterConfig, ReplicaFault, ShardFaultPlan
from repro.cluster.merge import ShardAnswer, merge_answers
from repro.cluster.scatter import ClusterRunner
from repro.core.common import group_keypair
from repro.core.config import PPGNNConfig
from repro.core.lsp import LSPServer
from repro.core.session import QuerySession
from repro.datasets.synthetic import uniform_pois
from repro.errors import (
    CheckpointError,
    ConfigurationError,
    ProtocolError,
    ShardLostError,
)
from repro.geometry.space import LocationSpace
from repro.guard.checkpoint import checkpoint_scatter, restore_scatter
from repro.serve import BucketRunner, RunnerOptions
from repro.serve.workload import GroupProfile, QueryJob

SAMPLES = 8

SPACE = LocationSpace.unit_square()
POIS = uniform_pois(120, SPACE, seed=7)
CONFIG = PPGNNConfig(
    d=3, delta=6, k=3, keysize=128, key_seed=2,
    sanitize=False, sanitation_samples=SAMPLES,
)
GROUP = GroupProfile(
    group_id=0,
    tenant="tenant-0",
    locations=tuple(p.location for p in uniform_pois(3, SPACE, seed=21)),
)


def make_lsp():
    return LSPServer(list(POIS), space=SPACE, sanitation_samples=SAMPLES)


def make_job(job_id=0, protocol="ppgnn", k=3, seed=17):
    return QueryJob(
        job_id=job_id,
        tenant=GROUP.tenant,
        group_id=GROUP.group_id,
        protocol=protocol,
        k=k,
        seed=seed,
        arrival_time=0.0,
    )


def single_lsp_answer(job):
    lsp = make_lsp()
    lsp.reset_rng(job.seed)
    session = QuerySession(
        lsp=lsp, config=CONFIG, protocol=job.protocol, seed=job.seed
    )
    return session.query(GROUP.locations, seed=job.seed).answer_ids


def random_fault_plan(seed: int, shards: int, replicas: int) -> ShardFaultPlan:
    """A randomized but seeded shard-fault plan for the chaos property."""
    rng = random.Random(seed)
    faults = {}
    for shard in range(shards):
        for replica in range(replicas):
            roll = rng.random()
            if roll < 0.25:
                faults[(shard, replica)] = ReplicaFault(
                    kill_after=rng.randint(0, 2)
                )
            elif roll < 0.40:
                faults[(shard, replica)] = ReplicaFault(
                    slow_start=rng.randint(1, 3),
                    slow_factor=rng.uniform(2.0, 6.0),
                )
            elif roll < 0.55:
                start = rng.randint(0, 4)
                faults[(shard, replica)] = ReplicaFault(
                    down=((start, start + rng.randint(1, 3)),)
                )
    return ShardFaultPlan(replicas=faults, seed=seed, jitter_seconds=0.002)


class TestHealthyCluster:
    @pytest.mark.parametrize("protocol", ["ppgnn", "ppgnn-opt", "naive"])
    def test_merged_equals_single_lsp(self, protocol):
        """All shards respond -> answer identical to one big LSP."""
        runner = ClusterRunner(
            make_lsp(), CONFIG, ClusterConfig(shards=3, replicas=2)
        )
        job = make_job(protocol=protocol)
        outcome = runner.run_job(job, GROUP)
        assert not outcome.partial
        assert outcome.coverage == 1.0
        assert outcome.answer_ids == single_lsp_answer(job)

    def test_rejects_sanitized_config(self):
        with pytest.raises(ConfigurationError):
            ClusterRunner(
                make_lsp(),
                PPGNNConfig(
                    d=3, delta=6, k=3, keysize=128,
                    sanitize=True, sanitation_samples=SAMPLES,
                ),
                ClusterConfig(shards=2),
            )

    def test_comm_bytes_accumulate_over_shards(self):
        runner = ClusterRunner(make_lsp(), CONFIG, ClusterConfig(shards=2))
        outcome = runner.run_job(make_job(), GROUP)
        assert outcome.comm_bytes > 0
        assert runner.stats.subqueries == 2


class TestChaosProperty:
    @pytest.mark.parametrize("chaos_seed", range(8))
    def test_never_silently_wrong(self, chaos_seed):
        """Satellite 3: any seeded fault plan -> exact, partial, or typed error."""
        shards, replicas = 3, 2
        plan = random_fault_plan(chaos_seed, shards, replicas)
        cluster = ClusterConfig(
            shards=shards,
            replicas=replicas,
            quorum=0.4,
            faults=plan,
            hedge_factor=1.5,
        )
        runner = ClusterRunner(make_lsp(), CONFIG, cluster)
        reference = ClusterRunner(
            make_lsp(), CONFIG, ClusterConfig(shards=shards, replicas=replicas)
        )
        for job_id in range(3):
            job = make_job(job_id=job_id, seed=17 + job_id)
            expected_full = reference.run_job(job, GROUP).answer_ids
            try:
                outcome = runner.run_job(job, GROUP)
            except ShardLostError:
                continue  # below quorum: typed failure, never a wrong answer
            if not outcome.partial:
                assert outcome.answer_ids == expected_full
                assert outcome.coverage == 1.0
            else:
                partial = outcome.partial_answer
                assert partial is not None
                assert 0.0 < outcome.coverage < 1.0
                assert outcome.coverage >= cluster.quorum
                assert set(partial.covered_shards).isdisjoint(partial.lost_shards)
                # The degraded answer is the *exact* top-k over the covered
                # shards' POIs: recompute it from scratch and compare.
                covered_answers = [
                    ShardAnswer(
                        shard_id=s,
                        replica=0,
                        answer_ids=tuple(
                            p.poi_id
                            for p in runner.shard_lsps[s].engine.query(
                                job.k, list(GROUP.locations)
                            )
                        ),
                        comm_bytes=0,
                        simulated_seconds=0.0,
                    )
                    for s in partial.covered_shards
                ]
                exact_covered = merge_answers(
                    covered_answers,
                    GROUP.locations,
                    runner.aggregate,
                    job.k,
                    runner.poi_map,
                )
                assert outcome.answer_ids == exact_covered

    def test_all_replicas_dead_raises_typed_error(self):
        kills = {(s, r): 0 for s in range(2) for r in range(2)}
        cluster = ClusterConfig(
            shards=2, replicas=2, faults=ShardFaultPlan.killing(kills)
        )
        runner = ClusterRunner(make_lsp(), CONFIG, cluster)
        with pytest.raises(ShardLostError) as excinfo:
            runner.run_job(make_job(), GROUP)
        assert excinfo.value.shard_id in (0, 1)

    def test_failover_to_live_replica_preserves_answer(self):
        """Primary replicas dead everywhere -> secondaries serve, same ids."""
        job = make_job()
        healthy = ClusterRunner(
            make_lsp(), CONFIG, ClusterConfig(shards=2, replicas=2)
        )
        expected = healthy.run_job(job, GROUP).answer_ids
        ring = healthy.ring
        kills = {
            (shard, ring.route(job.tenant, job.group_id, shard)): 0
            for shard in range(2)
        }
        degraded = ClusterRunner(
            make_lsp(),
            CONFIG,
            ClusterConfig(
                shards=2, replicas=2, faults=ShardFaultPlan.killing(kills)
            ),
        )
        outcome = degraded.run_job(job, GROUP)
        assert not outcome.partial
        assert outcome.answer_ids == expected
        assert outcome.failovers == 2
        assert degraded.stats.failovers == 2

    def test_slow_replica_triggers_hedge(self):
        job = make_job()
        plan = ShardFaultPlan(
            replicas={
                (shard, replica): ReplicaFault(slow_start=5, slow_factor=10.0)
                for shard in range(2)
                for replica in range(2)
            }
        )
        # Every replica is slow, so hedges fire but cannot win.
        runner = ClusterRunner(
            make_lsp(),
            CONFIG,
            ClusterConfig(shards=2, replicas=2, faults=plan, hedge_factor=2.0),
        )
        outcome = runner.run_job(job, GROUP)
        assert runner.stats.hedges == 2
        assert outcome.answer_ids == single_lsp_answer(job)
        # Only the primary is slow: the hedge to the fast replica wins.
        slow_primary = ShardFaultPlan(
            replicas={
                (shard, runner.ring.route(job.tenant, job.group_id, shard)):
                ReplicaFault(slow_start=5, slow_factor=10.0)
                for shard in range(2)
            }
        )
        winner = ClusterRunner(
            make_lsp(),
            CONFIG,
            ClusterConfig(
                shards=2, replicas=2, faults=slow_primary, hedge_factor=2.0
            ),
        )
        won = winner.run_job(job, GROUP)
        assert winner.stats.hedge_wins == 2
        assert won.answer_ids == single_lsp_answer(job)


class TestScatterCheckpoint:
    def _run_resumed(self, runner, job, kill_plan_runner):
        """Serve one shard, checkpoint, restore into a fresh cell, finish."""
        state = runner.begin(job)
        runner.step(state, job, GROUP)
        blob = runner.checkpoint(state)
        resumed_state = kill_plan_runner.restore(blob)
        while not resumed_state.done:
            kill_plan_runner.step(resumed_state, job, GROUP)
        return kill_plan_runner.finish(resumed_state, job, GROUP)

    def test_restore_matches_uninterrupted_degraded_run(self):
        """Satellite 4: kill a shard mid-scatter; resume == uninterrupted."""
        job = make_job()
        plan = ShardFaultPlan.killing({(2, 0): 0}, seed=5)
        cluster = ClusterConfig(shards=3, replicas=1, quorum=0.3, faults=plan)

        uninterrupted = ClusterRunner(make_lsp(), CONFIG, cluster)
        expected = uninterrupted.run_job(job, GROUP)
        assert expected.partial and expected.lost_shards == (2,)

        first = ClusterRunner(make_lsp(), CONFIG, cluster)
        second = ClusterRunner(make_lsp(), CONFIG, cluster)
        resumed = self._run_resumed(first, job, second)
        assert resumed.answer_ids == expected.answer_ids
        assert resumed.coverage == expected.coverage
        assert resumed.lost_shards == expected.lost_shards
        assert resumed.comm_bytes == expected.comm_bytes

    def test_checkpoint_round_trip_preserves_fault_interpreter(self):
        job = make_job()
        plan = ShardFaultPlan.killing({(1, 0): 1}, seed=5)
        runner = ClusterRunner(
            make_lsp(), CONFIG, ClusterConfig(shards=3, replicas=1, faults=plan)
        )
        state = runner.begin(job)
        runner.step(state, job, GROUP)
        restored = restore_scatter(checkpoint_scatter(state))
        assert restored.job_id == state.job_id
        assert restored.pending == state.pending
        assert restored.answers == state.answers
        assert restored.lost == state.lost
        assert restored.elapsed_seconds == state.elapsed_seconds
        assert restored.fault_served == state.fault_served
        assert restored.fault_sequence == state.fault_sequence

    def test_malformed_checkpoints_rejected(self):
        from repro.errors import CryptoError

        job = make_job()
        runner = ClusterRunner(make_lsp(), CONFIG, ClusterConfig(shards=2))
        state = runner.begin(job)
        runner.step(state, job, GROUP)
        blob = runner.checkpoint(state)
        with pytest.raises(CryptoError):
            restore_scatter(b"XXXX" + blob[4:])
        with pytest.raises(CryptoError):
            restore_scatter(blob + b"\x00")
        with pytest.raises(CryptoError):
            restore_scatter(blob[:10])

    def test_inconsistent_checkpoint_rejected(self):
        job = make_job()
        runner = ClusterRunner(make_lsp(), CONFIG, ClusterConfig(shards=2))
        state = runner.begin(job)
        runner.step(state, job, GROUP)
        state.pending.append(state.answers[0].shard_id)  # answered AND open
        with pytest.raises(CheckpointError):
            restore_scatter(checkpoint_scatter(state))

    def test_step_after_done_raises(self):
        runner = ClusterRunner(make_lsp(), CONFIG, ClusterConfig(shards=2))
        job = make_job()
        outcome_state = runner.begin(job)
        while not outcome_state.done:
            runner.step(outcome_state, job, GROUP)
        with pytest.raises(ProtocolError):
            runner.step(outcome_state, job, GROUP)
        incomplete = runner.begin(job)
        with pytest.raises(ProtocolError):
            runner.finish(incomplete, job, GROUP)


class TestKeyOwnedPools:
    def test_cluster_first_job_leaves_the_bucket_pool_key_owned(self):
        """Scattered sessions pass the group secret key, as bucket sessions do.

        Otherwise whether the shared pool refills on the half-width owner
        path would depend on which kind of job reached it first.
        """
        runner = BucketRunner(
            make_lsp(),
            CONFIG,
            RunnerOptions(cluster=ClusterConfig(shards=2, replicas=1)),
        )
        runner.run_job(make_job(), GROUP)
        keypair = group_keypair(CONFIG)
        pool = runner.registry.pool_for(keypair.public_key)
        assert pool.secret_key is keypair.secret_key
