#!/usr/bin/env python3
"""Paper-scale, drift-corrected benchmark of the PPGNN reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload paper-ppgnn-512 --seed 1 --seconds 17 --trace 0
    python3 perfbench/run.py --workload paper-ppgnn-512 --seed 1 --seconds 17 --trace 1
    python3 perfbench/run.py --workload paper-ppgnn-512 --seed 1 --seconds 17 --steadiness 10

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (its spans go to ``perfbench/out/``), and
``--steadiness N`` runs the workload N times with seeds ``seed..seed+N-1``
and prints each metric's spread, raw and drift-corrected.  The last line
of a run is one JSON object; the run exits 1 when any answer is wrong.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Noise hygiene: one thread per numeric library and a fixed string-hash
#: seed.  Both must be set before the interpreter (for the hash seed) and
#: numpy (for the thread pools) start, so the process re-executes itself
#: once with them in its environment.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def _pin_environment() -> None:
    if all(os.environ.get(key) == value for key, value in PINNED_ENV.items()):
        return
    os.environ.update(PINNED_ENV)
    os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]])


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--part", type=int, default=-1, help=argparse.SUPPRESS)
    parser.add_argument(
        "--steadiness", type=int, default=0, metavar="N",
        help="run the workload N times in fresh processes and report spreads",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    _pin_environment()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import bench  # noqa: E402  (numpy and repro load only after pinning)

    if args.workload not in bench.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; known: {sorted(bench.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.steadiness:
        return bench.steadiness(args)
    return bench.run(args)


if __name__ == "__main__":
    sys.exit(main())
