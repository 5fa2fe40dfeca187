"""Layered benchmark for starvlc.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in `workloads.WORKLOADS`, or `all` to run
them one after another. Runs from any directory of a checkout whose `src/`
holds the starvlc package; it builds nothing and imports starvlc from
there. One client runs one op at a time (a closed loop); `cli-oracle` runs
one child process at a time.

A run first times `SETUP_REPEATS` fresh interpreters importing
`starvlc.cli` (after one unmeasured warm-up). It then runs the workload's
fixed batch of ops again and again while another whole batch still fits in
`--seconds` (always at least once) and reports each timing as the median
over batches. With `--trace 1` it alternates untraced and traced batches
(at least one of each), reports the per-layer metrics of the traced ones
and their overhead against the untraced ones, and also times single calls
(the probes). Every op's output is checked.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics (end-to-end ones untraced, per-layer ones traced). The lines
before it print each metric with its unit, and the run's facts: machine,
versions, seed, and which percentile `op_ms_tail` is.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracing
from speed import Speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 11
SETUP_TIMEOUT_S = 60.0
TAIL_BEYOND = 10  # op_ms_tail: the percentile with this many samples above it ...
TAIL_GROUP = 100  # ... in every group of this many ops

END_TO_END = {  # name: unit
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "converged_frac": "ratio",
}

PER_LAYER = {
    "geometry.calls": "count",
    "geometry.self_s": "s",
    "channel.calls": "count",
    "channel.self_s": "s",
    "channel.ms_p50": "ms",
    "link.sum_rate_calls": "count",
    "link.rate_pair_calls": "count",
    "link.self_s": "s",
    "spca.es_ms_p50": "ms",
    "spca.ts_ms_p50": "ms",
    "spca.ms_ms_p50": "ms",
    "spca.maxmin_ms_p50": "ms",
    "spca.outer_iterations": "count",
    "spca.unconverged": "count",
    "spca.self_s": "s",
    "spca.maxmin_rate_mean_bpcu": "bpcu",
    "spca.reduced_objective_us.n80": "us",
    "spca.reduced_objective_us.n1280": "us",
    "spca.subproblem_ms.n80": "ms",
    "spca.subproblem_ms.n1280": "ms",
    "oracle.calls": "count",
    "oracle.vertices": "count",
    "oracle.self_s": "s",
    "oracle.shortfall_max_bpcu": "bpcu",
    "kernels.self_s": "s",
    "kernels.ns_per_vertex": "ns",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}


def locate_package() -> None:
    """Put the checkout's `src/` first on sys.path, or exit with an error."""
    if not (SRC / "starvlc" / "__init__.py").is_file():
        sys.exit(f"perfbench: no starvlc package under {SRC}; "
                 "run from a checkout that holds src/starvlc")
    sys.path.insert(0, str(SRC))


def pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU, so the calibration
    slices measure the CPU that runs the work (see speed.py)."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


@dataclass
class Batch:
    """One pass over the ops. Times are scaled to nominal machine speed, and
    the wall time is the sum of the ops' times (one client, back to back)."""

    wall_s: float
    latencies_s: list
    outcomes: list
    raw_wall_s: float
    factor: float


@dataclass
class Run:
    batches: list = field(default_factory=list)
    traced: list = field(default_factory=list)


def quantile(values: list, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by a Beta(p(n+1), (1-p)(n+1)) density. It reads the
    same quantile as one order statistic would, but from the samples around
    it, so one noisy op next to a gap in the latencies cannot move it much."""
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    t = np.linspace(0.0, 1.0, 20001)[1:-1]
    log_pdf = (a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]))])
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, t, cdf))
    return float(weights @ x)


def tail(values: list) -> tuple[float, float, int]:
    """(value, percentile, samples beyond per group): the highest percentile
    with TAIL_BEYOND samples above it in every TAIL_GROUP ops, which is p90
    for batches of 100 ops or more. On a batch of thousands of ops the
    highest percentile with ten samples beyond it would be above p99.5, set
    by a handful of extreme geometries that differ from seed to seed. Batches of fewer
    than 2 * TAIL_BEYOND + 1 ops keep half their samples above the tail."""
    group = min(len(values), TAIL_GROUP)
    beyond = min(TAIL_BEYOND, (group - 1) // 2)
    p = (group - beyond) / group
    return quantile(values, p), 100.0 * p, beyond


def measure_setup(repeats: int) -> tuple[list, list]:
    """Seconds from spawning a fresh interpreter to `import starvlc.cli`
    done, and the import alone as timed inside the child."""
    import workloads

    probe = ("import json, time; t = time.perf_counter(); import starvlc, starvlc.cli; "
             "print(json.dumps([time.monotonic(), time.perf_counter() - t, starvlc.__file__]))")
    setup, imports = [], []
    speed = Speed()
    for i in range(repeats + 1):
        speed.sample()
        start = time.monotonic()  # same clock as the child's time.monotonic()
        proc = subprocess.run([sys.executable, "-c", probe], env=workloads.child_env(),
                              capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
                              check=True)
        done, import_s, where = json.loads(proc.stdout)
        if not Path(where).resolve().is_relative_to(SRC.resolve()):
            sys.exit(f"perfbench: child imported starvlc from {where}, not {SRC}")
        if i:  # the first spawn warms the byte-code cache
            setup.append(done - start)
            imports.append(import_s)
    speed.sample()
    return [t * speed.factor() for t in setup], [t * speed.factor() for t in imports]


def run_batch(workload: str, ops: list, tracer=None) -> Batch:
    """Run every op once, timing each and checking its output right after
    (untimed), so no op's output outlives its check."""
    import workloads

    work = HERE / "_work" / str(os.getpid())
    if workload == "cli-oracle":
        def execute(op):
            return workloads.run_cli(op, work, traced=tracer is not None)
    else:
        api = workloads.library_api(tracer)

        def execute(op):
            return workloads.run_library(op, api)

    latencies, marks, outcomes = [], [], []
    speed = Speed()
    with tracing.install(tracer) if tracer else contextlib.nullcontext():
        speed.sample()
        for op in ops:
            marks.append(speed.mark())
            t0 = time.perf_counter()
            try:
                output = execute(op)
            except Exception as err:  # the op failed; count it and go on
                output = err
            latencies.append(time.perf_counter() - t0)
            try:
                outcomes.append(_check(op, output, tracer))
            finally:
                shutil.rmtree(work, ignore_errors=True)
            speed.maybe_sample()
        speed.sample()
    scaled = [t * speed.factor_since(m) for t, m in zip(latencies, marks)]
    return Batch(sum(scaled), scaled, outcomes, sum(latencies), sum(scaled) / sum(latencies))


def _check(op, output, tracer):
    """The op's outcome; also hands a traced sweep's spans to `tracer`."""
    import workloads

    if isinstance(output, Exception):
        return workloads.failed(f"raised {output!r}")
    if op.kind == "cli":
        code, out, stderr, record = output
        if record is not None:
            tracer.merge(record["trace"])
        return workloads.check_cli(op, code, out, stderr)
    channels, result = output
    try:
        return workloads.check_library(op, channels, result)
    except ValueError as err:
        return workloads.failed(f"check raised {err!r}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 small: bool = False):
    """Run one workload; returns (result dict, facts dict)."""
    import workloads

    ops = workloads.build_ops(workload, seed, small=small)
    setup, imports = measure_setup(1 if small else SETUP_REPEATS)
    probes = run_probes(small) if trace else {}
    tracer = tracing.Tracer()
    run = Run()
    start = time.perf_counter()
    while True:
        run.batches.append(run_batch(workload, ops))
        if trace:
            run.traced.append(run_batch(workload, ops, tracer))
        spent = time.perf_counter() - start
        per_round = run.batches[-1].raw_wall_s + (run.traced[-1].raw_wall_s if trace else 0.0)
        if spent + per_round > seconds:
            break
    every = run.batches + run.traced
    outcomes = [o for b in every for o in b.outcomes]
    attempted = len(outcomes)
    failures = [o.reason for o in outcomes if not o.ok]
    facts = machine_facts(workload, seed, seconds, trace)
    facts.update(ops_per_batch=len(ops), batches=len(run.batches),
                 traced_batches=len(run.traced), failures=failures[:5],
                 raw_wall_s=[b.raw_wall_s for b in every],
                 speed_factor=[b.factor for b in every])
    if trace:
        metrics = layer_metrics(run, tracer, probes, imports)
    else:
        metrics = end_to_end_metrics(run, workload, setup, facts)
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    return result, facts


def end_to_end_metrics(run: Run, workload: str, setup: list, facts: dict) -> dict:
    walls = [b.wall_s for b in run.batches]
    wall = statistics.median(walls)
    tails = [tail(b.latencies_s) for b in run.batches]
    outcomes = [o for b in run.batches for o in b.outcomes]
    who = resource.RUSAGE_CHILDREN if workload == "cli-oracle" else resource.RUSAGE_SELF
    facts["op_ms_tail"] = {"percentile": tails[0][1], "samples_beyond": tails[0][2],
                           "samples_per_batch": len(run.batches[0].latencies_s)}
    facts["quality"] = quality(outcomes)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "ops_per_s": len(run.batches[0].latencies_s) / wall,
        "op_ms_p50": 1e3 * statistics.median(quantile(b.latencies_s, 0.5) for b in run.batches),
        "op_ms_tail": 1e3 * statistics.median(t[0] for t in tails),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "ok_frac": sum(o.ok for o in outcomes) / len(outcomes),
        "converged_frac": sum(o.ok and o.converged for o in outcomes) / len(outcomes),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def quality(outcomes: list) -> dict:
    """Solution quality: mean min-rate of max-min ops, worst oracle shortfall."""
    mins = [o.min_rate for o in outcomes if o.min_rate is not None]
    shortfalls = [o.shortfall for o in outcomes if o.shortfall is not None]
    return {"spca.maxmin_rate_mean_bpcu": statistics.fmean(mins) if mins else 0.0,
            "oracle.shortfall_max_bpcu": max([0.0, *shortfalls])}


def layer_metrics(run: Run, tracer, probes: dict, imports: list) -> dict:
    per_batch = 1.0 / len(run.traced)
    # span times are raw; scale them like the traced batches' wall times
    scale = statistics.fmean(b.factor for b in run.traced)
    seconds = scale * per_batch

    def p50_ms(name):
        values = tracer.durations.get(name)
        return 1e3 * scale * statistics.median(values) if values else 0.0

    untraced = statistics.median(b.wall_s for b in run.batches)
    traced = statistics.median(b.wall_s for b in run.traced)
    values = {
        "geometry.calls": tracer.layer_calls("geometry") * per_batch,
        "geometry.self_s": tracer.layer_self_s("geometry") * seconds,
        "channel.calls": tracer.layer_calls("channel") * per_batch,
        "channel.self_s": tracer.layer_self_s("channel") * seconds,
        "channel.ms_p50": p50_ms("channel.channel_set"),
        "link.sum_rate_calls": tracer.calls["link.sum_rate"] * per_batch,
        "link.rate_pair_calls": tracer.calls["link.rate_pair"] * per_batch,
        "link.self_s": tracer.layer_self_s("link") * seconds,
        "spca.es_ms_p50": p50_ms("spca.es"),
        "spca.ts_ms_p50": p50_ms("spca.ts"),
        "spca.ms_ms_p50": p50_ms("spca.ms"),
        "spca.maxmin_ms_p50": p50_ms("spca.maxmin"),
        "spca.outer_iterations": tracer.counts["spca.outer_iterations"] * per_batch,
        "spca.unconverged": tracer.counts["spca.unconverged"] * per_batch,
        "spca.self_s": tracer.layer_self_s("spca") * seconds,
        "oracle.calls": tracer.layer_calls("oracle") * per_batch,
        "oracle.vertices": tracer.counts["oracle.vertices"] * per_batch,
        "oracle.self_s": tracer.layer_self_s("oracle") * seconds,
        "kernels.self_s": tracer.layer_self_s("kernels") * seconds,
        "cli.import_s": statistics.median(imports),
        "cli.self_s": tracer.layer_self_s("cli") * seconds,
        "trace.overhead_frac": traced / untraced - 1.0,
        **quality([o for b in run.traced for o in b.outcomes]),
        **probes,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def run_probes(small: bool) -> dict:
    """Single-call timings of public calls, independent of the workload:
    `reduced_objective` and `solve_subproblem` at N = 80 and N = 1280, and
    the enumeration kernel's cost per vertex."""
    from starvlc import (DetectorScheme, SpcaConfig, channel_set, reduced_objective,
                         solve_subproblem, spca_optimize)
    from starvlc._kernels import enumerate_vertices

    import workloads

    def median_s(fn, repeats):
        speed = Speed()
        speed.sample()
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        speed.sample()
        return statistics.median(times) * speed.factor()

    geometry = workloads.random_geometries(np.random.default_rng(0), 1)[0]
    scheme = DetectorScheme.SIC
    theta0 = np.full(2, SpcaConfig().theta_init)
    values = {}
    for n in (80, 1280):
        sc = workloads.panel_scenario(geometry, *workloads.PANEL_SHAPES[n])
        ch = channel_set(sc)
        theta = spca_optimize(ch, sc, scheme).trace[-1].state.theta
        beta = np.full(n, 0.5)
        values[f"spca.reduced_objective_us.n{n}"] = 1e6 * median_s(
            lambda: reduced_objective(beta, theta, ch, sc, scheme), 20 if small else 400)
        values[f"spca.subproblem_ms.n{n}"] = 1e3 * median_s(
            lambda: solve_subproblem(theta0, ch, sc, scheme), 3 if small else 21)
    vertices_n = 12 if small else 16
    rng = np.random.default_rng(0)
    hr = np.ascontiguousarray(rng.uniform(0.0, 5e-5, size=vertices_n))
    ht = np.ascontiguousarray(rng.uniform(0.0, 5e-5, size=vertices_n))
    seconds = median_s(lambda: enumerate_vertices(5e-5, hr, ht, 0.07, 0.07, 1e-10, True), 3)
    values["kernels.ns_per_vertex"] = 1e9 * seconds / 2**vertices_n
    return values


def git_commit() -> str:
    """HEAD's commit when the checkout is a git work tree, else 'unknown'."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy
    import starvlc

    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "kernel_backend": starvlc.KERNEL_BACKEND,
            "commit": git_commit(), "machine": platform.machine()}


def report(result: dict, facts: dict) -> None:
    for name, metric in result["metrics"].items():
        print(f"{facts['workload']:<18} {name:<34} {metric['value']:>14.6g} {metric['unit']}")
    print("facts " + json.dumps(facts, sort_keys=True))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="input seed; pick one not used in tuning to re-check a claim")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    locate_package()
    pin_to_one_cpu()
    import workloads

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if not set(names) <= set(workloads.WORKLOADS):
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)} or all")
    results = {}
    for name in names:
        result, facts = run_workload(name, args.seed, args.seconds, bool(args.trace))
        report(result, facts)
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:  # `all`: one object, metrics keyed workload/metric
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}/{m}": v for w, r in results.items()
                             for m, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
