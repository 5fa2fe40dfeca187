"""Digest of every library output the benchmark's workloads produce.

Usage:
    python3 tools/output_digest.py --seed N [--workload NAME ...]

Runs each op of the library workloads (`panels-continuous`,
`panels-binary`, `fairness-power`; `--workload`, which may repeat, picks
some of them) of `perfbench/workloads.build_ops` for seed N once and
prints one sha256 per workload over each op's `beta` bytes,
rates, `converged`, `iterations`, `alpha` (time-sharing) and every trace
entry's `objective`, `sum_rate`, `theta`, `u` and `v`. Two checkouts whose
digests agree give bitwise the same outputs on those ops. Runs from any
directory of a checkout; it imports starvlc from `src/` and the workloads
from `perfbench/` and changes nothing there.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402

LIBRARY_WORKLOADS = ("panels-continuous", "panels-binary", "fairness-power")


def _feed(h, *values) -> None:
    """Hash arrays by their float64 bytes and scalars by `repr`, which is
    exact for floats and tells -0.0 from 0.0."""
    for value in values:
        if isinstance(value, np.ndarray):
            h.update(np.ascontiguousarray(value, dtype=float).tobytes())
        else:
            h.update(repr(value).encode())
        h.update(b"|")


def result_digest(h, result) -> None:
    rates = result.rates
    _feed(h, result.beta, rates.r1, rates.r2, rates.sum, rates.energy_efficiency,
          bool(result.converged), result.iterations, result.alpha)
    for entry in result.trace:
        _feed(h, entry.objective, entry.sum_rate, entry.state.theta, entry.state.u,
              entry.state.v)


def workload_digest(ops) -> str:
    """sha256 over the outputs of `ops`, in order."""
    api = workloads.library_api()
    h = hashlib.sha256()
    for op in ops:
        _, result = workloads.run_library(op, api)
        result_digest(h, result)
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", action="append", choices=LIBRARY_WORKLOADS)
    args = parser.parse_args(argv)
    for name in args.workload or LIBRARY_WORKLOADS:
        ops = workloads.build_ops(name, args.seed)
        print(f"{name} {len(ops)} ops {workload_digest(ops)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
