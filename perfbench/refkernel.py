"""Host-speed reference kernel for drift correction.

The benchmark host's speed drifts by tens of percent between runs, so a
raw wall time mixes the program's cost with the host's mood.  This kernel
does a fixed amount of work shaped like the program's hot paths: a
pure-Python pointer chase over a large object graph (the kGNN and R-tree
walk are interpreter- and memory-latency bound) plus a few 1024-bit
builtin ``pow`` calls (the Paillier layer is big-integer bound).  It
imports nothing from ``repro``, so no change to the program can speed it
up; timing it beside every timed unit gives the host's current speed.

A corrected time is ``raw_s * REF_NOMINAL_S / ref_measured_s``.
"""

from __future__ import annotations

import random
import statistics
import time

#: Nodes in the chased graph: large enough to spill the CPU caches.
GRAPH_NODES = 1 << 18
#: Steps per chase and pow calls per repetition.
CHASE_STEPS = 10_000
POW_CALLS = 4
#: Repetitions per measurement; the median discards up to two interrupted reps.
REPEATS = 5
#: The kernel's typical time on the reference host (2-core Xeon, CPython
#: 3.11).  Only ratios matter: it fixes the unit of corrected seconds.
REF_NOMINAL_S = 0.025


class ReferenceKernel:
    """A fixed random cycle of list nodes plus fixed big-integer operands."""

    def __init__(self, seed: int = 0x5EED) -> None:
        rng = random.Random(seed)
        order = list(range(GRAPH_NODES))
        rng.shuffle(order)
        nodes = [[None, i] for i in range(GRAPH_NODES)]
        for here, there in zip(order, order[1:] + order[:1]):
            nodes[here][0] = nodes[there]
        self._start = nodes[order[0]]
        self._operands = [
            (rng.getrandbits(1024) | 1, rng.getrandbits(1024), rng.getrandbits(1024) | 1)
            for _ in range(POW_CALLS)
        ]

    def _once(self) -> float:
        start = time.perf_counter()
        node = self._start
        for _ in range(CHASE_STEPS):
            node = node[0]
        for base, exponent, modulus in self._operands:
            pow(base, exponent, modulus)
        return time.perf_counter() - start

    def measure(self) -> float:
        """Seconds for one kernel run (median of ``REPEATS``)."""
        return statistics.median(self._once() for _ in range(REPEATS))
