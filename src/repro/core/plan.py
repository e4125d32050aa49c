"""The shape of one group round, derived once per (protocol, n, config).

The paper's three group protocols are one round with different shapes.
Naive is the degenerate partition ``alpha = 1`` with delta singleton
segments (Section 4 intro).  PPGNN-OPT is PPGNN with the two-phase private
selection of Section 6.  A :class:`RoundPlan` records exactly those
differences: the partition, the selection shape, the indicator vectors the
coordinator encrypts and the level the answer comes back at.

The runner (:func:`repro.core.group._run_round`), the byte predictors of
:mod:`repro.analysis.costmodel`, the serving cost model and the nonce-pool
top-up all read the plan, so this module is the only place that branches
per protocol.

The OPT block count minimizes the indicator+answer bytes.  An eps_2
ciphertext is 1.5x an eps_1 ciphertext (3 vs 2 half-keysize units), so
the cost in half-keysize units is

    cost(omega) = 3 * omega + 2 * ceil(delta' / omega) + 3 * m,

minimized near ``omega = sqrt(2 * delta' / 3)``.  The paper's analysis
rounds the eps_2 length to 2x, giving ``omega ~ sqrt(delta' / 2)``.  Both
are exposed; :func:`optimal_omega` searches the exact integer optimum so
the implementation is self-consistent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.config import PPGNNConfig
from repro.errors import ConfigurationError
from repro.partition.solver import PartitionParameters, solve_partition

#: The group protocols a plan can be built for.
PROTOCOLS = ("ppgnn", "ppgnn-opt", "naive")


def paper_omega(delta_prime: int) -> int:
    """The paper's closed form: nearest integer to sqrt(delta' / 2)."""
    if delta_prime < 1:
        raise ConfigurationError("delta' must be positive")
    return max(1, round(math.sqrt(delta_prime / 2.0)))


def optimal_omega(delta_prime: int) -> int:
    """The exact integer minimizer of the two-indicator byte cost.

    Cost in half-keysize units: ``3 * omega + 2 * ceil(delta' / omega)``
    (the answer term is constant in omega).  delta' is small, so a direct
    scan is cheap and exact.
    """
    if delta_prime < 1:
        raise ConfigurationError("delta' must be positive")
    return min(
        range(1, delta_prime + 1),
        key=lambda w: (3 * w + 2 * math.ceil(delta_prime / w), w),
    )


def split_indicator_index(query_index: int, block_width: int) -> tuple[int, int]:
    """Decompose a flat candidate index into (block, within-block) positions."""
    return query_index // block_width, query_index % block_width


def naive_partition(n: int, delta: int) -> PartitionParameters:
    """One subgroup, delta singleton segments: the aligned-candidates layout."""
    return PartitionParameters(
        subgroup_sizes=(n,),
        segment_sizes=(1,) * delta,
        delta_prime=delta,
    )


@dataclass(frozen=True, slots=True)
class RoundPlan:
    """Everything about one round's shape that does not depend on data.

    ``params.d`` is the location-set width every user uploads (delta for
    Naive).  ``omega`` is None for the flat selection over all delta'
    candidates; otherwise the selection is two-phase over ``omega`` blocks
    of ``block_width`` candidates.
    """

    label: str
    span: str
    params: PartitionParameters
    omega: int | None = None
    block_width: int | None = None

    @classmethod
    def for_protocol(
        cls, protocol: str, n: int, config: PPGNNConfig, omega: int | None = None
    ) -> "RoundPlan":
        """The plan of one ``protocol`` round for n users under ``config``."""
        return cls.for_shape(
            protocol, n, config.d, config.delta, omega, sanitize=config.sanitize
        )

    @classmethod
    def for_shape(
        cls,
        protocol: str,
        n: int,
        d: int,
        delta: int,
        omega: int | None = None,
        sanitize: bool = True,
    ) -> "RoundPlan":
        """:meth:`for_protocol` from the bare privacy parameters.

        ``omega`` overrides the OPT block count (default: the exact
        optimum); ``sanitize=False`` labels a PPGNN round PPGNN-NAS.
        """
        if protocol not in PROTOCOLS:
            raise ConfigurationError(f"unknown protocol {protocol!r}")
        if n < 1:
            raise ConfigurationError("a group needs at least one user")
        if omega is not None and protocol != "ppgnn-opt":
            raise ConfigurationError("omega applies to ppgnn-opt only")
        if protocol == "naive":
            return cls("naive", "round.naive", naive_partition(n, delta))
        params = solve_partition(n, d, delta)  # offline precomputation
        if protocol == "ppgnn":
            return cls("ppgnn" if sanitize else "ppgnn-nas", "round.ppgnn", params)
        delta_prime = params.delta_prime
        blocks = omega if omega is not None else optimal_omega(delta_prime)
        if not 1 <= blocks <= delta_prime:
            raise ConfigurationError(f"omega must be in [1, {delta_prime}]")
        return cls(
            "ppgnn-opt",
            "round.ppgnn-opt",
            params,
            blocks,
            math.ceil(delta_prime / blocks),
        )

    @property
    def two_phase(self) -> bool:
        """True for the OPT selection (within blocks, then across them)."""
        return self.omega is not None

    @property
    def indicators(self) -> tuple[tuple[int, int], ...]:
        """``(length, s)`` of each coordinator indicator, in encryption order.

        The flat selection sends one eps_1 vector over delta' candidates;
        the two-phase one sends the inner eps_1 vector over block positions
        before the outer eps_2 vector over blocks.
        """
        if self.omega is None:
            return ((self.params.delta_prime, 1),)
        return ((self.block_width, 1), (self.omega, 2))

    @property
    def answer_s(self) -> int:
        """Paillier level of the returned answer ciphertexts."""
        return 2 if self.two_phase else 1

    def hot_indices(self, query_index: int) -> tuple[int, ...]:
        """The hot position of each indicator for the real candidate."""
        if self.omega is None:
            return (query_index,)
        block, within = split_indicator_index(query_index, self.block_width)
        return (within, block)

    def selection_muls(self, m: int) -> tuple[tuple[int, int], ...]:
        """``(scalar multiplications, s)`` of each private-selection stage.

        An upper bound for an m-integer answer: ``hom_dot`` skips zero
        scalars.  The two-phase count includes the zero-padded columns.
        """
        if self.omega is None:
            return ((m * self.params.delta_prime, 1),)
        return ((m * self.block_width * self.omega, 1), (m * self.omega, 2))
