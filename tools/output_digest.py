"""Digest of every library output the benchmark's workloads produce.

Usage:
    python3 tools/output_digest.py --seed N [--workload NAME ...]

Runs each op of the library workloads (`panels-continuous`,
`panels-binary`, `fairness-power`; `--workload`, which may repeat, picks
some of them) of `perfbench/workloads.build_ops` for seed N once and
prints one line per workload:

    NAME OPS ops OUTPUTS channels CHANNELS

OUTPUTS is a sha256 over each op's `beta` bytes, rates, `converged`,
`iterations`, `alpha` (time-sharing) and every trace entry's `objective`,
`sum_rate`, `theta`, `u` and `v` (each pair as float64 bytes, whether the
solver holds it as an array or a tuple); CHANNELS is a sha256 over each op's
`ChannelSet` (`h_los`, `h_reflect` and `h_transmit`). Two checkouts whose
digests agree give bitwise the same channels and outputs on those ops. Runs
from any directory of a checkout; it imports starvlc from `src/` and the
workloads from `perfbench/` and changes nothing there.
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
    """Hash arrays and tuples by their float64 bytes and scalars by `repr`,
    which is exact for floats and tells -0.0 from 0.0."""
    for value in values:
        if isinstance(value, (np.ndarray, tuple)):
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


def workload_digests(ops) -> tuple[str, str]:
    """sha256 over the outputs of `ops` and sha256 over their channel sets,
    in order."""
    api = workloads.library_api()
    outputs, channel_sets = hashlib.sha256(), hashlib.sha256()
    for op in ops:
        channels, result = workloads.run_library(op, api)
        result_digest(outputs, result)
        _feed(channel_sets, channels.h_los, channels.h_reflect, channels.h_transmit)
    return outputs.hexdigest(), channel_sets.hexdigest()


def workload_digest(ops) -> str:
    """sha256 over the outputs of `ops`, in order."""
    return workload_digests(ops)[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", action="append", choices=LIBRARY_WORKLOADS)
    args = parser.parse_args(argv)
    for name in args.workload or LIBRARY_WORKLOADS:
        ops = workloads.build_ops(name, args.seed)
        outputs, channel_sets = workload_digests(ops)
        print(f"{name} {len(ops)} ops {outputs} channels {channel_sets}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
