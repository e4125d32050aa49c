"""The Naive baseline from the opening of Section 4.

Every user generates a location set of length *delta* (not d) and all users
place their real locations at the same slot; the LSP forms exactly delta
candidate queries by aligning positions across the n sets.  Structurally
this is the degenerate partition ``alpha = 1`` (one subgroup) with delta
segments of size 1 (:func:`naive_partition`) — each segment contributes
exactly one candidate and the shared relative position is forced to 0 —
so the round is the group round of :mod:`repro.core.group` with that
hand-built partition, inheriting all privacy behaviour while paying the
extra ``(delta - d) * n`` dummy generation and transmission the paper
criticizes.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.common import decrypt_answer
from repro.core.config import PPGNNConfig
from repro.core.group import _run_round
from repro.core.lsp import LSPServer
from repro.core.plan import RoundPlan, naive_partition
from repro.core.result import ProtocolResult
from repro.crypto.homomorphic import encrypt_indicator
from repro.geometry.point import Point
from repro.guard.guard import ProtocolGuard
from repro.obs import Observability
from repro.transport.transport import Transport, send

__all__ = [
    "naive_partition",
    "run_naive",
    # Kept as module globals: benchmark tracing wraps them per runner module.
    "decrypt_answer",
    "encrypt_indicator",
    "send",
]


def run_naive(
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
    """Execute one Naive-solution round.

    ``nonce_pool`` moves the delta-length indicator's obfuscation
    exponentiations offline, exactly as in :func:`repro.core.group
    .run_ppgnn`.  ``transport`` routes every message through a
    :mod:`repro.transport` channel; None keeps the historical perfect
    in-memory network.  ``guard`` arms the hostile-input defenses of
    :mod:`repro.guard`; None keeps the historical trusting behavior.
    ``obs`` traces the round as a ``round.naive`` span and publishes the
    crypto operation counters; None keeps the uninstrumented path
    byte-identical.
    """
    plan = RoundPlan.for_protocol("naive", len(locations), config)
    return _run_round(
        plan, lsp, locations, config, seed, dummy_generator, nonce_pool,
        transport, guard, obs,
    )
