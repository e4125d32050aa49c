"""PPGNN-OPT: the two-phase private selection of Section 6.

Instead of one indicator of length delta', the coordinator sends two small
vectors: ``[v1]`` (eps_1, length ``ceil(delta'/omega)``) selecting the
position *within* a block, and ``[[v2]]`` (eps_2, length ``omega``)
selecting the block.  The LSP selects per-block with ``[v1]``, then selects
across blocks with ``[[v2]]`` by treating each eps_1 ciphertext as an eps_2
plaintext; the coordinator decrypts twice.

The round is the group round of :mod:`repro.core.group` with the
two-phase selection shape of :class:`~repro.core.plan.RoundPlan`; the
block-count rules (:func:`optimal_omega`, :func:`paper_omega`) live in
:mod:`repro.core.plan`.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.common import decrypt_answer
from repro.core.config import PPGNNConfig
from repro.core.group import _run_round
from repro.core.lsp import LSPServer
from repro.core.plan import RoundPlan, optimal_omega, paper_omega, split_indicator_index
from repro.core.result import ProtocolResult
from repro.crypto.homomorphic import encrypt_indicator
from repro.geometry.point import Point
from repro.guard.guard import ProtocolGuard
from repro.obs import Observability
from repro.transport.transport import Transport, send

__all__ = [
    "optimal_omega",
    "paper_omega",
    "run_ppgnn_opt",
    "split_indicator_index",
    # Kept as module globals: benchmark tracing wraps them per runner module.
    "decrypt_answer",
    "encrypt_indicator",
    "send",
]


def run_ppgnn_opt(
    lsp: LSPServer,
    locations: Sequence[Point],
    config: PPGNNConfig,
    seed: int = 0,
    omega: int | None = None,
    dummy_generator=None,
    nonce_pool=None,
    transport: Transport | None = None,
    guard: ProtocolGuard | None = None,
    obs: Observability | None = None,
) -> ProtocolResult:
    """Execute one PPGNN-OPT round (group sizes n >= 1).

    ``omega`` overrides the block count (the omega-sweep ablation uses it);
    by default the exact integer optimum is chosen.  ``nonce_pool`` (a
    :class:`~repro.crypto.noncepool.NoncePool` under the group key) moves
    the obfuscation exponentiations of *both* indicators offline — the
    inner eps_1 vector and the outer eps_2 vector each consume one pooled
    factor per ciphertext at their level.  ``transport`` routes every
    message through a :mod:`repro.transport` channel; None keeps the
    historical perfect in-memory network.  ``guard`` arms the
    hostile-input defenses of :mod:`repro.guard`; None keeps the
    historical trusting behavior.  ``obs`` traces the round as a
    ``round.ppgnn-opt`` span and publishes the crypto operation counters;
    None keeps the uninstrumented path byte-identical.
    """
    plan = RoundPlan.for_protocol("ppgnn-opt", len(locations), config, omega)
    return _run_round(
        plan, lsp, locations, config, seed, dummy_generator, nonce_pool,
        transport, guard, obs,
    )
