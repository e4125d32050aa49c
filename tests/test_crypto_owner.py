"""Key-owner encryption: the lifted half-width nonce path is value-identical.

The coordinator owns the group key pair, so it encrypts through
``PaillierPrivateKey.encrypt`` / ``.obfuscate``.  Every test here holds
that path to the public-key values, and runs under the ambient
``REPRO_FASTEXP`` setting (CI runs this module with it on and off).
"""

import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PPGNNConfig
from repro.core.group import random_group, run_ppgnn
from repro.core.lsp import LSPServer
from repro.core.naive import run_naive
from repro.core.opt import run_ppgnn_opt
from repro.crypto import fastexp
from repro.crypto.homomorphic import encrypt_indicator
from repro.crypto.noncepool import NoncePool, encrypt_with_pool
from repro.crypto.paillier import generate_keypair
from repro.datasets import load_sequoia
from repro.obs.profile import owner_nonce_cost, profile_keypair

KEY_BITS = (512, 1024)


def _keys(bits: int):
    return generate_keypair(bits, seed=20180326)  # cached per (bits, seed)


def _edge_nonces(keypair) -> list[int]:
    """r = 1, r = N - 1, r == 1 (mod p), and r == -1 (mod q)."""
    sk = keypair.secret_key
    p, q, n = sk.p, sk.q, keypair.public_key.n
    one_mod_p = 1 + p * (q // 3)
    minus_one_mod_q = q - 1 + q * (p // 5)
    assert one_mod_p % p == 1 and minus_one_mod_q % q == q - 1
    return [1, n - 1, one_mod_p, minus_one_mod_q]


@st.composite
def _owner_cases(draw):
    keypair = _keys(draw(st.sampled_from(KEY_BITS)))
    s = draw(st.integers(min_value=1, max_value=3))
    r = draw(
        st.one_of(
            st.sampled_from(_edge_nonces(keypair)),
            st.integers(min_value=1, max_value=keypair.public_key.n - 1),
        )
    )
    return keypair, s, r


@settings(max_examples=25, deadline=None)
@given(_owner_cases())
def test_obfuscate_property(case):
    keypair, s, r = case
    pk = keypair.public_key
    assert keypair.secret_key.obfuscate(r, s) == pow(
        r, pk.n**s, pk.n ** (s + 1)
    )


@pytest.mark.parametrize("bits", KEY_BITS)
@pytest.mark.parametrize("s", [1, 2, 3])
def test_edge_nonces_match_pow(bits, s):
    keypair = _keys(bits)
    pk = keypair.public_key
    for r in _edge_nonces(keypair):
        expected = pow(r, pk.n_pow(s), pk.ciphertext_modulus(s))
        assert keypair.secret_key.obfuscate(r, s) == expected
        assert pk.obfuscate(r, s) == expected


@pytest.mark.parametrize("s", [1, 2])
def test_encrypt_indicator_matches_public_key(s):
    keypair = _keys(512)
    owned = encrypt_indicator(keypair.secret_key, 6, 2, s=s, rng=random.Random(11))
    public = encrypt_indicator(keypair.public_key, 6, 2, s=s, rng=random.Random(11))
    assert [c.value for c in owned] == [c.value for c in public]
    assert all(c.public_key == keypair.public_key and c.s == s for c in owned)
    assert [keypair.secret_key.decrypt(c) for c in owned] == [0, 0, 1, 0, 0, 0]


def test_owner_pool_matches_public_pool():
    keypair = _keys(512)
    owner = NoncePool(keypair.public_key, keypair.secret_key)
    public = NoncePool(keypair.public_key)
    owner.refill(3, s=2, rng=random.Random(5))
    public.refill(3, s=2, rng=random.Random(5))
    assert [owner.take(2) for _ in range(3)] == [public.take(2) for _ in range(3)]
    # A dry owner pool falls back to the key owner's encryption.
    dry = encrypt_with_pool(owner, 9, s=2, rng=random.Random(6))
    assert dry.value == keypair.public_key.encrypt(9, s=2, rng=random.Random(6)).value


def test_owner_refill_ledger_is_exact():
    keypair = _keys(512)
    pool = NoncePool(keypair.public_key, keypair.secret_key)
    pool.refill(3, rng=random.Random(1))
    (chain, _), (tables, _) = owner_nonce_cost(keypair.secret_key, 1)
    # The per-factor cost excludes nothing: chains, tables and Garner.
    assert pool.stats.fast_muls == 3 * (chain + tables)


@pytest.mark.parametrize("s", [1, 2])
def test_profiled_owner_encrypt_is_charged_under_its_own_class(s):
    keys, profiler = profile_keypair(_keys(512))
    c = keys.secret_key.encrypt(5, s=s, rng=random.Random(2))
    assert keys.secret_key.decrypt(c) == 5
    ledger = profiler.to_dict()
    assert "encrypt" not in ledger
    (chain, chain_work), (tables, _) = owner_nonce_cost(keys.secret_key, s)
    assert ledger["encrypt.owner"]["calls"] == 1
    assert ledger["encrypt.owner"]["bigint_muls"] == chain + 2 * s + 1
    assert ledger.get("encrypt.owner.tables", {}).get("bigint_muls", 0) == tables
    keys.public_key.encrypt(5, s=s, rng=random.Random(2))
    public_work = profiler.to_dict()["encrypt"]["mul_work"]
    if fastexp.enabled():
        # Half-width chains: less limb-weighted work than the full-width
        # window program, nonce for nonce.
        assert ledger["encrypt.owner"]["mul_work"] < public_work


class _RecordingLSP(LSPServer):
    """An LSP that keeps every request-indicator ciphertext value it sees."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.values: list[int] = []

    def answer_group_query(self, request, uploads, ledger):
        self.values += [c.value for c in request.indicator]
        return super().answer_group_query(request, uploads, ledger)

    def answer_group_query_opt(self, request, uploads, ledger):
        self.values += [c.value for c in request.inner_indicator]
        self.values += [c.value for c in request.outer_indicator]
        return super().answer_group_query_opt(request, uploads, ledger)


#: Digests of the request indicators, captured from the public-key path.
PINNED_INDICATORS = {
    (256, "ppgnn"): (9, "5d4075801ffb1a88"),
    (256, "opt"): (6, "c87c870f310c77a8"),
    (256, "naive"): (6, "8abc834b800b760c"),
    (512, "ppgnn"): (9, "fff4180cbf942287"),
    (512, "opt"): (6, "420e64755900833d"),
    (512, "naive"): (6, "448e1db899c3b6da"),
}
_RUNNERS = {"ppgnn": run_ppgnn, "opt": run_ppgnn_opt, "naive": run_naive}


@pytest.mark.parametrize("keysize, protocol", sorted(PINNED_INDICATORS))
def test_runner_request_indicators_are_pinned(keysize, protocol):
    config = PPGNNConfig(
        d=3, delta=6, k=3, sanitize=False, keysize=keysize, key_seed=7
    )
    lsp = _RecordingLSP(load_sequoia(300), seed=7)
    group = random_group(3, lsp.space, np.random.default_rng(7))
    _RUNNERS[protocol](lsp, group, config, seed=7)
    digest = hashlib.sha256(
        b"".join(v.to_bytes((v.bit_length() + 7) // 8, "big") for v in lsp.values)
    ).hexdigest()
    assert (len(lsp.values), digest[:16]) == PINNED_INDICATORS[keysize, protocol]
