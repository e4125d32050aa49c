"""Exact communication-cost predictions for every protocol variant.

The group predictors read the round's shape from
:class:`~repro.core.plan.RoundPlan` — the same plan the runner executes —
and sum the byte-size formulas the messages themselves use, making the
ledger's totals *predictable* rather than merely measurable.  One round
is n position broadcasts, the group request (partition sizes plus the
plan's indicator vectors), n location-set uploads of ``params.d``
locations, the m-ciphertext answer at the plan's answer level, and the
plaintext answer broadcast.  PPGNN-OPT's two small indicators and eps_2
answer, and Naive's delta-length sets and indicator, are plan shapes,
not separate formulas.  The single-user round (Section 3) carries the
location set inside its request.

The consistency test (`tests/test_analysis.py`) runs every protocol and
asserts byte-exact agreement with the simulated ledger — the strongest
form of the Table 2 analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.plan import RoundPlan
from repro.encoding.answers import AnswerCodec
from repro.errors import ConfigurationError
from repro.geometry.space import LocationSpace

_INT = 4
_LOCATION = 16
_FLOAT = 8
_POI = 8


def _cipher_bytes(keysize: int, s: int) -> int:
    return ((s + 1) * keysize + 7) // 8


def _answer_integers(keysize: int, k: int) -> int:
    """m, the integers per encoded answer (field widths are space-free)."""
    return AnswerCodec(keysize, k, LocationSpace.unit_square()).m


@dataclass(frozen=True, slots=True)
class CommBreakdown:
    """Per-component communication bytes of one protocol round."""

    position_broadcasts: int
    request: int
    uploads: int
    encrypted_answer: int
    answer_broadcast: int

    @property
    def total(self) -> int:
        return (
            self.position_broadcasts
            + self.request
            + self.uploads
            + self.encrypted_answer
            + self.answer_broadcast
        )


def _plan_comm(
    plan: RoundPlan, k: int, keysize: int, answer_len: int | None = None
) -> CommBreakdown:
    """Exact bytes of one group round of ``plan``.

    ``answer_len`` is the post-sanitation POI count t (defaults to k, the
    PPGNN-NAS case); it only affects the final plaintext broadcast.
    """
    t = k if answer_len is None else answer_len
    if t > k:
        raise ConfigurationError("answer length cannot exceed k")
    params = plan.params
    request = (
        _INT
        + keysize // 8
        + _INT * (params.alpha + params.beta)
        + sum(length * _cipher_bytes(keysize, s) for length, s in plan.indicators)
        + _FLOAT
    )
    return CommBreakdown(
        position_broadcasts=params.n * _INT,
        request=request,
        uploads=params.n * (_INT + _LOCATION * params.d),
        encrypted_answer=_answer_integers(keysize, k)
        * _cipher_bytes(keysize, plan.answer_s),
        answer_broadcast=(params.n - 1) * (_INT + _POI * t),
    )


def predict_ppgnn_comm(
    n: int,
    d: int,
    delta: int,
    k: int,
    keysize: int,
    answer_len: int | None = None,
) -> CommBreakdown:
    """Exact bytes of one PPGNN round."""
    plan = RoundPlan.for_shape("ppgnn", n, d, delta)
    return _plan_comm(plan, k, keysize, answer_len)


def predict_opt_comm(
    n: int,
    d: int,
    delta: int,
    k: int,
    keysize: int,
    answer_len: int | None = None,
    omega: int | None = None,
) -> CommBreakdown:
    """Exact bytes of one PPGNN-OPT round (two-phase selection)."""
    plan = RoundPlan.for_shape("ppgnn-opt", n, d, delta, omega)
    return _plan_comm(plan, k, keysize, answer_len)


def predict_naive_comm(
    n: int,
    delta: int,
    k: int,
    keysize: int,
    answer_len: int | None = None,
) -> CommBreakdown:
    """Exact bytes of one Naive round (delta-length sets, aligned slots)."""
    plan = RoundPlan.for_shape("naive", n, delta, delta)
    return _plan_comm(plan, k, keysize, answer_len)


def predict_single_comm(d: int, k: int, keysize: int) -> CommBreakdown:
    """Exact bytes of one single-user round (Section 3.2)."""
    l1 = _cipher_bytes(keysize, 1)
    m = _answer_integers(keysize, k)
    request = _INT + keysize // 8 + _LOCATION * d + d * l1
    return CommBreakdown(
        position_broadcasts=0,
        request=request,
        uploads=0,
        encrypted_answer=m * l1,
        answer_broadcast=0,
    )
