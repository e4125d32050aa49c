"""Predicted service times for the discrete-event serving clock.

The serving engine's simulated timeline must be *deterministic*: two runs
with the same seed have to produce byte-identical reports, regardless of
how many worker processes executed the crypto or how loaded the host was.
Measured wall time can never satisfy that, so the event clock advances by
**predicted** service times instead — nominal per-operation costs times
the exact homomorphic operation counts each protocol round performs.

The counts come from the round's :class:`~repro.core.plan.RoundPlan`, the
shape the runner executes and :mod:`repro.analysis.costmodel` prices in
bytes: one encryption per indicator slot at the indicator's level, one
decryption per answer integer and level, the scalar multiplications of
each private-selection stage (Theorem 3.1; the two-phase count includes
the zero-padded block columns), and one kGNN query per candidate.

Nominal seconds are calibrated once for the 512-bit reference key and
scale cubically with key size — modular exponentiation under an l-bit
modulus costs Theta(l^3) with schoolbook arithmetic, which is what both
CPython and the paper's GMP baseline effectively pay at these sizes.
An operation at level s works modulo N^(s+1) instead of N^2 and is
weighted by the same cube of the modulus-length ratio, ``((s+1)/2)^3``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.costmodel import _answer_integers
from repro.core.config import PPGNNConfig
from repro.core.plan import RoundPlan
from repro.errors import ConfigurationError

#: Key size the nominal per-op seconds are calibrated against.
REFERENCE_KEYSIZE = 512

#: Exponent of the keysize scaling law for modular-exponentiation work.
_KEYSIZE_POWER = 3


def _level_weight(s: int) -> float:
    """Work of a level-s operation relative to eps_1.

    The modulus grows from 2l to (s+1)l bits, so modexp work grows by
    ``((s+1)/2)^3`` — 1 at eps_1, ``(3/2)^3`` at eps_2.
    """
    return ((s + 1) / 2) ** _KEYSIZE_POWER


@dataclass(frozen=True, slots=True)
class CostModel:
    """Nominal seconds per primitive at :data:`REFERENCE_KEYSIZE` bits.

    The defaults are rough pure-Python magnitudes; their absolute scale
    only stretches the simulated timeline uniformly, so relative protocol
    comparisons (and determinism) hold for any positive values.
    """

    encryption_seconds: float = 2.0e-3
    decryption_seconds: float = 2.0e-3
    scalar_mul_seconds: float = 1.0e-3
    kgnn_seconds: float = 2.0e-4

    def __post_init__(self) -> None:
        for name in (
            "encryption_seconds",
            "decryption_seconds",
            "scalar_mul_seconds",
            "kgnn_seconds",
        ):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")

    def _scale(self, keysize: int) -> float:
        return (keysize / REFERENCE_KEYSIZE) ** _KEYSIZE_POWER

    def predict_seconds(self, protocol: str, n: int, config: PPGNNConfig) -> float:
        """Predicted service seconds of one round of ``protocol`` for n users.

        Pure function of (protocol, n, config) — the determinism anchor of
        the serving engine's simulated clock.
        """
        plan = RoundPlan.for_protocol(protocol, n, config)
        m = _answer_integers(config.keysize, config.k)
        # Accumulated term by term, in the order the float sum is pinned.
        crypto = 0.0
        for length, s in plan.indicators:
            crypto += length * self.encryption_seconds * _level_weight(s)
        crypto += m * sum(
            self.decryption_seconds * _level_weight(s)
            for s in range(plan.answer_s, 0, -1)
        )
        for muls, s in plan.selection_muls(m):
            crypto += muls * self.scalar_mul_seconds * _level_weight(s)
        kgnn = plan.params.delta_prime * self.kgnn_seconds
        return crypto * self._scale(config.keysize) + kgnn

    def predict_ops(
        self, protocol: str, n: int, config: PPGNNConfig
    ) -> dict[str, int]:
        """Exact per-round operation counts of one honest protocol round.

        Same plan as :meth:`predict_seconds`, but returning the raw
        counts — the numbers a traced round's span attributes must match
        exactly (the observability acceptance check).  Only the counts
        that are a pure function of (protocol, n, config) are included:
        encryptions, decryptions, and kGNN queries.  Scalar multiplications
        are *data-dependent* (``hom_dot`` skips zero scalars, and how many
        indicator slots are zero depends on the placement draw), so they
        are deliberately absent rather than approximately present.
        """
        plan = RoundPlan.for_protocol(protocol, n, config)
        m = _answer_integers(config.keysize, config.k)
        return {
            "encryptions": sum(length for length, _ in plan.indicators),
            "decryptions": plan.answer_s * m,
            "kgnn_queries": plan.params.delta_prime,
        }
