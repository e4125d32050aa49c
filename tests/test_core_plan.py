"""The round plan and the one round function behind the three group runners.

1. :class:`RoundPlan` derives each protocol's shape: Naive is the
   degenerate partition, PPGNN-OPT the two-phase selection.
2. The serving cost model reads the plan; its float predictions are pinned
   to the values of the per-protocol formulas it replaced.
3. ``repro.core.group._run_round`` resolves ``encrypt_indicator``,
   ``decrypt_answer`` and ``send`` through ``repro.core.group``'s globals,
   so one wrapper there sees every encryption, decryption and message of
   all three protocols (benchmark tracing relies on it), and the three
   names stay importable from ``repro.core.opt`` and ``repro.core.naive``.
"""

import hashlib
import math

import numpy as np
import pytest

import repro.core.group as group_module
import repro.core.naive as naive_module
import repro.core.opt as opt_module
from repro.core.config import PPGNNConfig
from repro.core.group import random_group, run_ppgnn
from repro.core.naive import run_naive
from repro.core.opt import run_ppgnn_opt
from repro.core.plan import RoundPlan, naive_partition, optimal_omega
from repro.errors import ConfigurationError
from repro.partition.solver import solve_partition
from repro.protocol.metrics import COORDINATOR
from repro.serve.costs import CostModel

HOOKED = ("encrypt_indicator", "decrypt_answer", "send")

RUNNERS = {"ppgnn": run_ppgnn, "ppgnn-opt": run_ppgnn_opt, "naive": run_naive}

#: SHA-256 over ``CostModel().predict_seconds`` for protocol x n {1, 2, 3,
#: 5, 8} x keysize {256, 512, 1024} at the Table 3 defaults, captured from
#: the per-protocol formulas before they were replaced by the plan.
PREDICT_SECONDS_DIGEST = (
    "85b2c7bc82086ec745254fcc975f83864ac41d89a978526273a3b05dd75e6e63"
)


class TestRoundPlan:
    def test_naive_is_the_degenerate_partition(self):
        plan = RoundPlan.for_protocol("naive", 5, PPGNNConfig(d=4, delta=12))
        assert plan.params == naive_partition(5, 12)
        assert plan.params.d == 12  # users upload delta locations
        assert plan.indicators == ((12, 1),)
        assert plan.answer_s == 1
        assert (plan.label, plan.span) == ("naive", "round.naive")

    def test_ppgnn_is_flat_over_the_solved_partition(self):
        config = PPGNNConfig()
        plan = RoundPlan.for_protocol("ppgnn", 8, config)
        assert plan.params == solve_partition(8, config.d, config.delta)
        assert not plan.two_phase
        assert plan.indicators == ((plan.params.delta_prime, 1),)
        assert (plan.label, plan.span) == ("ppgnn", "round.ppgnn")
        nas = RoundPlan.for_protocol("ppgnn", 8, config.without_sanitation())
        assert (nas.label, nas.span) == ("ppgnn-nas", "round.ppgnn")

    def test_opt_is_two_phase(self):
        plan = RoundPlan.for_protocol("ppgnn-opt", 8, PPGNNConfig())
        delta_prime = plan.params.delta_prime
        assert plan.omega == optimal_omega(delta_prime)
        assert plan.block_width == math.ceil(delta_prime / plan.omega)
        assert plan.indicators == ((plan.block_width, 1), (plan.omega, 2))
        assert plan.answer_s == 2
        assert plan.selection_muls(7) == (
            (7 * plan.block_width * plan.omega, 1),
            (7 * plan.omega, 2),
        )

    @pytest.mark.parametrize("omega", [1, 2, 5, 17])
    def test_hot_indices_address_every_candidate(self, omega):
        config = PPGNNConfig(d=6, delta=17)
        plan = RoundPlan.for_protocol("ppgnn-opt", 3, config, omega)
        for query_index in range(plan.params.delta_prime):
            within, block = plan.hot_indices(query_index)
            assert 0 <= within < plan.block_width and 0 <= block < plan.omega
            assert block * plan.block_width + within == query_index

    @pytest.mark.parametrize(
        "protocol, n, omega, message",
        [
            ("ppgnn-fast", 3, None, "unknown protocol"),
            ("ppgnn", 0, None, "at least one user"),
            ("naive", 3, 2, "ppgnn-opt only"),
            ("ppgnn-opt", 3, 0, "omega must be in"),
        ],
    )
    def test_rejects_bad_shapes(self, protocol, n, omega, message):
        with pytest.raises(ConfigurationError, match=message):
            RoundPlan.for_protocol(protocol, n, PPGNNConfig(d=6, delta=17), omega)


def test_predict_seconds_equals_the_per_protocol_formulas():
    rows = []
    for protocol in ("ppgnn", "ppgnn-opt", "naive"):
        for n in (1, 2, 3, 5, 8):
            for keysize in (256, 512, 1024):
                config = PPGNNConfig(keysize=keysize)
                try:
                    value = repr(CostModel().predict_seconds(protocol, n, config))
                except ConfigurationError as error:
                    value = type(error).__name__
                rows.append(f"{protocol} {n} {keysize} {value}")
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert digest == PREDICT_SECONDS_DIGEST


@pytest.mark.parametrize("module", [group_module, opt_module, naive_module])
def test_hooked_names_are_runner_module_globals(module):
    for name in HOOKED:
        assert name in vars(module)
    if module is not group_module:
        assert set(HOOKED) <= set(module.__all__)


@pytest.mark.parametrize("protocol", sorted(RUNNERS))
def test_group_globals_see_every_operation(monkeypatch, lsp, fast_config, protocol):
    """Wrappers on ``repro.core.group`` count all of a round's crypto and traffic."""
    seen = {"encryptions": 0, "decryptions": 0, "messages": 0}
    encrypt = group_module.encrypt_indicator
    decrypt = group_module.decrypt_answer
    send = group_module.send

    def counting_encrypt(key, length, *args, **kwargs):
        seen["encryptions"] += length
        return encrypt(key, length, *args, **kwargs)

    def counting_decrypt(keypair, codec, encrypted, ledger, *args, **kwargs):
        counter = ledger.counter(COORDINATOR)
        before = counter.decryptions
        answers = decrypt(keypair, codec, encrypted, ledger, *args, **kwargs)
        seen["decryptions"] += counter.decryptions - before
        return answers

    def counting_send(*args, **kwargs):
        seen["messages"] += 1
        return send(*args, **kwargs)

    monkeypatch.setattr(group_module, "encrypt_indicator", counting_encrypt)
    monkeypatch.setattr(group_module, "decrypt_answer", counting_decrypt)
    monkeypatch.setattr(group_module, "send", counting_send)
    config = fast_config.without_sanitation()
    group = random_group(3, lsp.space, np.random.default_rng(6))
    result = RUNNERS[protocol](lsp, group, config, seed=4)

    predicted = CostModel().predict_ops(protocol, 3, config)
    coordinator = result.report.ops_by_role[COORDINATOR]
    assert seen["encryptions"] == predicted["encryptions"] == coordinator.encryptions
    assert seen["decryptions"] == predicted["decryptions"] == coordinator.decryptions
    assert seen["messages"] == sum(result.report.messages_by_link.values())
