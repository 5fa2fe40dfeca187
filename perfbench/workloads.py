"""The benchmark's workloads: seeded inputs, how one op runs, how it is checked.

An op is one unit of work. In the library workloads it is `channel_set`
plus one optimiser call for one scenario and one scheme; in `cli-oracle` it
is one `starvlc sweep` process. Every op's output is checked here, apart
from the program, and an op that raised, exited with a code other than 0
or 2, or failed a check counts as failed.

Why each workload exists:

- panels-continuous: the main library path. The smooth SPCA/PGA loop and
  `channel_set` do nearly all the work; `link` and `oracle` almost none.
- panels-binary: the same scenarios through `mode_switching_optimize`. Its
  per-coordinate exact-rate rounding calls `link.sum_rate` O(N) times at
  O(N) each, so `link` dominates at large N. A change that helps one use of
  the solver layer and costs the other shows up between the two.
- fairness-power: the paper's power sweep of acceptance criterion 5 (25
  powers, 1 to 100 mW, default 80-element scenario), op for op: ES and
  max-min under both schemes, time-sharing under SUD. The nonsmooth max-min
  subgradient path dominates and its known non-convergence stays visible.
- cli-oracle: fresh `starvlc sweep` processes with `sweep.oracle_check`.
  The only workload that pays for import, config parsing and CSV/manifest
  I/O, and the only one that runs the Gray-code enumeration.
"""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from starvlc import (
    DetectorScheme,
    OrientedPoint,
    channel_set,
    max_min_optimize,
    mode_switching_optimize,
    rate_pair,
    spca_optimize,
    time_sharing_optimize,
)
from starvlc.cli import default_scenario

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOADS = ("panels-continuous", "panels-binary", "fairness-power", "cli-oracle")

# Panel shapes (rows, cols) per element count, at the default 0.1 m pitch.
PANEL_SHAPES = {16: (4, 4), 80: (10, 8), 320: (20, 16), 1280: (40, 32)}
# Geometries per seed. A few of them make ES take 100x its median time, so
# the batch needs many to keep wall_s steady from seed to seed;
# panels-binary, whose ops cost 4x more, runs the first half.
PANEL_GEOMETRIES = 480

SOLVERS = {
    "es": spca_optimize,
    "ts": time_sharing_optimize,
    "ms": mode_switching_optimize,
    "maxmin": max_min_optimize,
}
SPANS = {"channel_set": "channel.channel_set", "es": "spca.es", "ts": "spca.ts",
         "ms": "spca.ms", "maxmin": "spca.maxmin"}

CLI_ENTRY = "import sys; from starvlc.cli import main; sys.exit(main())"
CLI_COLS = 4
CLI_TIMEOUT_S = 120.0
ORACLE_MAX_N = 20  # sweep points up to this size must carry an oracle value


@dataclass(frozen=True)
class LibraryOp:
    kind: str  # key of SOLVERS
    scenario: object
    scheme: DetectorScheme


@dataclass(frozen=True)
class CliOp:
    spec_text: str
    scheme: str
    expected_counts: tuple
    kind: str = "cli"


@dataclass(frozen=True)
class Outcome:
    ok: bool
    converged: bool
    reason: str = ""
    min_rate: float | None = None  # max-min ops
    shortfall: float | None = None  # cli ops: max(0, oracle_sum - sum_rate)


def failed(reason: str) -> Outcome:
    return Outcome(ok=False, converged=False, reason=reason)


# ---------------------------------------------------------------- inputs

# Ranges of the random coordinates: panel centre (y, z), UE1 (x, y), UE2
# (x, y), AP (x, y) and both powers (W). UEs stand at z = 1 m facing up, the
# AP hangs at z = 3 m facing down, the panel sits in the wall at x = 5 m.
GEOMETRY_RANGES = ((1.5, 3.5), (1.0, 2.0), (1.0, 4.9), (0.5, 4.5), (5.1, 9.0),
                   (0.5, 4.5), (0.5, 4.9), (0.5, 4.5), (0.01, 0.2), (0.01, 0.2))


def random_geometries(rng, count: int) -> list:
    """`count` seeded two-room geometries, drawn as a Latin hypercube: each
    coordinate takes one value from each of `count` equal strata of its
    range, so two seeds' batches cover the ranges alike."""
    columns = []
    for lo, hi in GEOMETRY_RANGES:
        u = (rng.permutation(count) + rng.random(count)) / count
        columns.append(lo + u * (hi - lo))
    geometries = []
    for cy, cz, x1, y1, x2, y2, xa, ya, p1, p2 in zip(*(c.tolist() for c in columns)):
        geometries.append({"center": [5.0, cy, cz], "ue1": [x1, y1, 1.0],
                           "ue2": [x2, y2, 1.0], "ap": [xa, ya, 3.0], "p1": p1, "p2": p2})
    return geometries


def panel_scenario(geometry: dict, rows: int, cols: int):
    sc = default_scenario()
    return replace(
        sc,
        panel=replace(sc.panel, rows=rows, cols=cols, center=np.array(geometry["center"])),
        ue1=OrientedPoint(geometry["ue1"], [0.0, 0.0, 1.0]),
        ue2=OrientedPoint(geometry["ue2"], [0.0, 0.0, 1.0]),
        ap=OrientedPoint(geometry["ap"], [0.0, 0.0, -1.0]),
        p1=geometry["p1"],
        p2=geometry["p2"],
    )


def _panel_ops(rng, kinds, geometries, sizes, small) -> list:
    """Ops on the first `geometries` of the seed's panel geometries, so both
    panel workloads of one seed share their scenarios."""
    drawn = random_geometries(rng, 1 if small else PANEL_GEOMETRIES)
    ops = []
    for geometry in drawn[:geometries]:
        for n in sizes:
            scenario = panel_scenario(geometry, *PANEL_SHAPES[n])
            for scheme in DetectorScheme:
                ops.extend(LibraryOp(kind, scenario, scheme) for kind in kinds)
    return ops


def _fairness_ops(powers) -> list:
    """Acceptance criterion 5's calls at each power: ES and max-min under
    both schemes, time-sharing under SUD."""
    base = default_scenario()
    ops = []
    for p in powers:
        scenario = replace(base, p1=float(p), p2=float(p))
        for scheme in DetectorScheme:
            ops.extend(LibraryOp(kind, scenario, scheme) for kind in ("es", "maxmin"))
        ops.append(LibraryOp("ts", scenario, DetectorScheme.SUD))
    return ops


def cli_spec_text(geometry: dict, start: int, stop: int, steps: int) -> str:
    entries = {
        "ap.position": geometry["ap"],
        "ue1.position": geometry["ue1"],
        "ue2.position": geometry["ue2"],
        "ris.center": geometry["center"],
        "ris.rows": 1,
        "ris.cols": CLI_COLS,
        "power.ue1": geometry["p1"],
        "power.ue2": geometry["p2"],
        "sweep.parameter": "element_count",
        "sweep.start": start,
        "sweep.stop": stop,
        "sweep.steps": steps,
        "sweep.oracle_check": True,
    }
    return "".join(f"{key} = {value!r}\n" for key, value in entries.items())


def _cli_ops(rng, geometries, stop) -> list:
    steps = stop // CLI_COLS
    counts = tuple(CLI_COLS * k for k in range(1, steps + 1))
    ops = []
    for geometry in random_geometries(rng, geometries):
        text = cli_spec_text(geometry, CLI_COLS, stop, steps)
        ops.extend(CliOp(text, scheme.value, counts) for scheme in DetectorScheme)
    return ops


def build_ops(workload: str, seed: int, small: bool = False) -> list:
    """The workload's fixed batch of ops for `seed`, in a seeded order.

    `small` shrinks every workload to a few ops for the benchmark's tests.
    fairness-power's inputs are the paper's fixed grid: its seed only
    orders the ops.
    """
    rng = np.random.default_rng(seed)
    if workload == "panels-continuous":
        ops = _panel_ops(rng, ("es", "ts"), PANEL_GEOMETRIES,
                         (16, 80) if small else tuple(PANEL_SHAPES), small)
    elif workload == "panels-binary":
        ops = _panel_ops(rng, ("ms",), PANEL_GEOMETRIES // 2,
                         (16, 80) if small else tuple(PANEL_SHAPES), small)
    elif workload == "fairness-power":
        powers = np.linspace(0.001, 0.1, 25)
        ops = _fairness_ops(powers[:1] if small else powers)
    elif workload == "cli-oracle":
        ops = _cli_ops(rng, 1 if small else 6, 8 if small else 20)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [ops[i] for i in rng.permutation(len(ops))]


# ---------------------------------------------------------------- running

def library_api(tracer=None) -> dict:
    """The public calls a library op makes, wrapped in spans when tracing."""
    api = {"channel_set": channel_set, **SOLVERS}
    if tracer is not None:
        api = {name: tracer.wrap(SPANS[name], fn) for name, fn in api.items()}
    return api


def run_library(op: LibraryOp, api: dict):
    channels = api["channel_set"](op.scenario)
    return channels, api[op.kind](channels, op.scenario, op.scheme)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_cli(op: CliOp, work: Path, traced: bool):
    """Run one sweep process in the new directory `work`. Returns (exit code,
    output dir, stderr tail, trace record or None)."""
    work.mkdir(parents=True)
    spec = work / "spec.txt"
    spec.write_text(op.spec_text)
    out = work / "out"
    sweep_args = ["sweep", str(spec), "--out", str(out), "--scheme", op.scheme]
    trace_path = work / "trace.json"
    if traced:
        cmd = [sys.executable, str(HERE / "traced_cli.py"), str(trace_path), *sweep_args]
    else:
        cmd = [sys.executable, "-c", CLI_ENTRY, *sweep_args]
    proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=CLI_TIMEOUT_S)
    record = None
    if traced and trace_path.is_file():
        record = json.loads(trace_path.read_text())
    return proc.returncode, out, proc.stderr[-500:], record


# ---------------------------------------------------------------- checks

def _finite_nonneg(x) -> bool:
    return math.isfinite(x) and x >= 0.0


def check_library(op: LibraryOp, channels, result) -> Outcome:
    """Rates finite and >= 0, beta of shape (N,) in [0, 1] (binary for MS),
    and the returned rates equal to `rate_pair` recomputed at beta."""
    n = channels.element_count
    beta = np.asarray(result.beta, dtype=float)
    rates = result.rates
    if beta.shape != (n,):
        return failed(f"beta shape {beta.shape}, expected ({n},)")
    if not np.all(np.isfinite(beta)) or np.any(beta < 0.0) or np.any(beta > 1.0):
        return failed("beta outside [0, 1]")
    if op.kind == "ms" and not np.all((beta == 0.0) | (beta == 1.0)):
        return failed("mode-switching beta is not binary")
    if not all(_finite_nonneg(r) for r in (rates.r1, rates.r2, rates.sum)):
        return failed(f"rates not finite and >= 0: {rates}")
    again = rate_pair(channels, beta, op.scenario, op.scheme)
    for got, want in ((rates.r1, again.r1), (rates.r2, again.r2), (rates.sum, again.sum)):
        if not math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12):
            return failed(f"returned rates {rates} differ from rate_pair {again}")
    min_rate = min(rates.r1, rates.r2) if op.kind == "maxmin" else None
    return Outcome(ok=True, converged=bool(result.converged), min_rate=min_rate)


def check_cli(op: CliOp, code: int, out: Path, stderr: str = "") -> Outcome:
    """Exit code 0 or 2 (2 iff some point did not converge), one sweep.csv
    row per expected N, an oracle value at every N <= ORACLE_MAX_N, and a
    manifest."""
    if code not in (0, 2):
        return failed(f"exit code {code}: {stderr.strip()}")
    csv_path = out / "sweep.csv"
    if not csv_path.is_file() or not (out / "manifest.txt").is_file():
        return failed("sweep.csv or manifest.txt missing")
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    try:
        counts = tuple(int(float(row["swept_value"])) for row in rows)
        if counts != op.expected_counts:
            return failed(f"swept counts {counts}, expected {op.expected_counts}")
        shortfall = 0.0
        all_converged = True
        for n, row in zip(counts, rows):
            r1, r2, total = float(row["r1"]), float(row["r2"]), float(row["sum_rate"])
            if not all(_finite_nonneg(r) for r in (r1, r2, total)):
                return failed(f"N={n}: rates not finite and >= 0")
            if not math.isclose(total, r1 + r2, rel_tol=1e-9, abs_tol=1e-12):
                return failed(f"N={n}: sum_rate != r1 + r2")
            all_converged = all_converged and row["converged"] == "1"
            if n <= ORACLE_MAX_N:
                if not row["oracle_sum"]:
                    return failed(f"N={n}: oracle_sum missing")
                oracle_sum = float(row["oracle_sum"])
                if not _finite_nonneg(oracle_sum):
                    return failed(f"N={n}: oracle_sum not finite and >= 0")
                shortfall = max(shortfall, oracle_sum - total)
    except (KeyError, ValueError) as err:
        return failed(f"malformed sweep.csv: {err!r}")
    if all_converged != (code == 0):
        return failed(f"exit code {code} disagrees with the converged column")
    return Outcome(ok=True, converged=code == 0, shortfall=shortfall)
