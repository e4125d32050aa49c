"""The group round (Section 4.2, Algorithms 1 and 2) and the PPGNN runner.

One function, :func:`_run_round`, simulates a full round of any group
protocol from its :class:`~repro.core.plan.RoundPlan`:

1. *Query generation* (Algorithm 1).  The coordinator u_c takes the
   partition parameters from the plan (offline-precomputed, per the
   paper), draws the placement plan, broadcasts ``pos_j`` to each
   subgroup, encrypts the plan's indicator vectors over the candidate
   positions, and sends the query to LSP.  Every user independently builds
   its location set (``params.d`` long) with the real location at the
   broadcast position and uploads it.
2. *Query processing* (Algorithm 2).  LSP enumerates the candidate-query
   list, answers each with the kGNN black box, sanitizes each answer when
   Privacy IV is on, and privately selects the real query's ciphertext —
   flat for PPGNN and Naive, two-phase for PPGNN-OPT.
3. *Answer decryption.*  The coordinator decrypts, decodes, and broadcasts
   the plaintext answer to the other n - 1 users.

:func:`run_ppgnn` is the PPGNN wrapper; :func:`repro.core.opt.run_ppgnn_opt`
and :func:`repro.core.naive.run_naive` are the other two.  Setting
``config.sanitize = False`` yields PPGNN-NAS (Section 8.3.2).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.common import (
    build_location_set,
    decrypt_answer,
    derive_rngs,
    group_keypair,
    publish_round,
)
from repro.core.config import PPGNNConfig
from repro.core.lsp import LSPServer
from repro.core.plan import RoundPlan
from repro.core.result import ProtocolResult
from repro.crypto.homomorphic import encrypt_indicator
from repro.encoding.answers import AnswerCodec
from repro.errors import ConfigurationError
from repro.geometry.point import Point
from repro.geometry.space import LocationSpace
from repro.guard.guard import ProtocolGuard, begin_round
from repro.obs import Observability, maybe_span
from repro.partition.layout import GroupLayout
from repro.protocol.messages import (
    GroupQueryRequest,
    LocationSetUpload,
    OptGroupQueryRequest,
    PlaintextAnswerBroadcast,
    PositionAssignment,
)
from repro.protocol.metrics import COORDINATOR, LSP, USER, CostLedger
from repro.transport.transport import Transport, send


def random_group(
    n: int, space: LocationSpace, rng: np.random.Generator
) -> list[Point]:
    """n user locations drawn uniformly from the space (the paper's workload)."""
    if n < 1:
        raise ConfigurationError("a group needs at least one user")
    return space.sample_points(n, rng)


def run_ppgnn(
    lsp: LSPServer,
    locations: Sequence[Point],
    config: PPGNNConfig,
    seed: int = 0,
    dummy_generator=None,
    nonce_pool=None,
    transport: Transport | None = None,
    guard: ProtocolGuard | None = None,
    obs: Observability | None = None,
) -> ProtocolResult:
    """Execute one full PPGNN round and return the answer plus cost report.

    ``dummy_generator`` optionally overrides the uniform dummy model with a
    strategy from :mod:`repro.dummies`.  ``nonce_pool`` (a
    :class:`~repro.crypto.noncepool.NoncePool` under the group key) moves
    the indicator encryption's obfuscation exponentiations offline — the
    mobile-coordinator optimization; the measured coordinator time then
    covers only the online phase.  ``transport`` routes every message
    through a :mod:`repro.transport` channel (envelopes, checksums,
    retries); None keeps the historical perfect in-memory network.
    ``guard`` arms the hostile-input defenses of :mod:`repro.guard`
    (state machines, inbound validation, round deadlines); None keeps the
    historical trusting behavior.  ``obs`` traces the round as a
    ``round.ppgnn`` span with per-phase children and publishes the crypto
    operation counters; None keeps the uninstrumented path byte-identical.
    """
    plan = RoundPlan.for_protocol("ppgnn", len(locations), config)
    return _run_round(
        plan, lsp, locations, config, seed, dummy_generator, nonce_pool,
        transport, guard, obs,
    )


def _run_round(
    plan: RoundPlan,
    lsp: LSPServer,
    locations: Sequence[Point],
    config: PPGNNConfig,
    seed: int,
    dummy_generator,
    nonce_pool,
    transport: Transport | None,
    guard: ProtocolGuard | None,
    obs: Observability | None,
) -> ProtocolResult:
    """One round of ``plan``'s protocol, traced as its ``plan.span`` span.

    ``encrypt_indicator``, ``decrypt_answer`` and ``send`` resolve through
    this module's globals, so wrapping them here sees every protocol.
    """
    n = len(locations)
    params = plan.params
    with maybe_span(obs, plan.span, n=n, seed=seed) as round_span:
        ledger = CostLedger()
        rng, nprng = derive_rngs(seed)
        keypair = group_keypair(config)  # offline key setup
        layout = GroupLayout(params)
        codec = AnswerCodec(config.keysize, config.k, lsp.space)
        rg = begin_round(
            guard,
            layout=layout,
            public_key=keypair.public_key,
            space=lsp.space,
            ledger=ledger,
            k=config.k,
            answer_m=codec.m,
            answer_s=plan.answer_s,
            inner_length=plan.block_width,
            outer_length=plan.omega,
        )

        # --- Algorithm 1: coordinator side -------------------------------
        with ledger.clock(COORDINATOR), maybe_span(obs, "coordinator.encrypt_query"):
            placement = layout.plan_placement(rng)
            hot_indices = plan.hot_indices(placement.query_index)
            counter = ledger.counter(COORDINATOR)
            indicators = []
            # In plan order: the inner (eps_1) vector before the outer one.
            for (length, s), hot in zip(plan.indicators, hot_indices, strict=True):
                if nonce_pool is not None:
                    from repro.crypto.noncepool import pooled_indicator

                    vector = pooled_indicator(
                        nonce_pool, length, hot, s=s, rng=rng,
                        public_key=keypair.public_key,
                    )
                    counter.encryptions += length
                else:
                    vector = encrypt_indicator(
                        keypair.secret_key, length, hot, s=s, rng=rng,
                        counter=counter,
                    )
                indicators.append(tuple(vector))
            fields = dict(
                k=config.k,
                public_key=keypair.public_key,
                subgroup_sizes=params.subgroup_sizes,
                segment_sizes=params.segment_sizes,
                theta0=config.theta0 if config.sanitize else None,
            )
            if plan.two_phase:
                inner, outer = indicators
                request = OptGroupQueryRequest(
                    inner_indicator=inner, outer_indicator=outer, **fields
                )
            else:
                request = GroupQueryRequest(indicator=indicators[0], **fields)
        rg.planned()
        positions = {}
        for subgroup, position in enumerate(placement.absolute_positions):
            message = PositionAssignment(position)
            for user in layout.users_of_subgroup(subgroup):
                delivered = send(transport, ledger, COORDINATOR, f"user:{user}", message)
                rg.position_delivered(user, delivered)
                positions[user] = delivered.position
        request = send(transport, ledger, COORDINATOR, LSP, request)
        rg.request_delivered(request)

        # --- Algorithm 1: every user uploads its location set ------------
        uploads = []
        with maybe_span(obs, "uploads", users=n):
            for i, real in enumerate(locations):
                with ledger.clock(USER):
                    location_set = build_location_set(
                        real, positions[i], params.d, lsp.space, nprng,
                        dummy_generator,
                    )
                    upload = LocationSetUpload(i, location_set)
                delivered = send(transport, ledger, f"user:{i}", LSP, upload)
                rg.upload_delivered(delivered)
                uploads.append(delivered)

        # --- Algorithm 2: LSP (clocked inside the handler) ---------------
        rg.uploads_complete()
        answer_query = (
            lsp.answer_group_query_opt if plan.two_phase else lsp.answer_group_query
        )
        with maybe_span(obs, "lsp.answer") as lsp_span:
            encrypted = answer_query(request, uploads, ledger)
        if lsp_span is not None:
            lsp_span.set(kgnn_queries=lsp.last_stats.kgnn_queries)
        encrypted = send(transport, ledger, LSP, COORDINATOR, encrypted)
        rg.answer_delivered(encrypted)

        # --- Answer decryption and broadcast ------------------------------
        answers = decrypt_answer(
            keypair, codec, encrypted, ledger, nested=plan.two_phase,
            guard_round=rg, obs=obs,
        )
        broadcast = PlaintextAnswerBroadcast(tuple(answers))
        for user in range(1, n):
            delivered = send(transport, ledger, COORDINATOR, f"user:{user}", broadcast)
            rg.broadcast_delivered(user, delivered)
        rg.finished()

        result = ProtocolResult(
            protocol=plan.label,
            answers=tuple(answers),
            report=ledger.report(),
            delta_prime=params.delta_prime,
            m=codec.m,
            query_index=placement.query_index,
        )
        if round_span is not None:
            publish_round(obs, round_span, result, lsp)
        return result
