"""Tests of the benchmark itself. Run from the repository root with

    python3 -m pytest perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.locate_package()

import tracing  # noqa: E402
import workloads  # noqa: E402
from starvlc import DetectorScheme, channel_set, mode_switching_optimize, spca_optimize  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_small_workload_reports_every_metric(workload, trace):
    result, facts = run.run_workload(workload, seed=3, seconds=0.01, trace=trace, small=True)
    assert result["correct"], facts["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    reported = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert reported == declared
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    for key in ("nproc", "python", "numpy", "kernel_backend", "commit", "seed"):
        assert key in facts


def test_declared_metrics_match_the_runner():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_same_seed_same_inputs():
    a = workloads.build_ops("cli-oracle", 11)
    b = workloads.build_ops("cli-oracle", 11)
    c = workloads.build_ops("cli-oracle", 12)
    assert a == b and a != c


def _library_case(kind="es", solver=spca_optimize):
    geometry = workloads.random_geometries(np.random.default_rng(0), 1)[0]
    scenario = workloads.panel_scenario(geometry, 4, 4)
    op = workloads.LibraryOp(kind, scenario, DetectorScheme.SIC)
    channels = channel_set(scenario)
    return op, channels, solver(channels, scenario, op.scheme)


def test_library_check_accepts_a_true_result():
    assert workloads.check_library(*_library_case()).ok
    assert workloads.check_library(*_library_case("ms", mode_switching_optimize)).ok


def test_library_check_rejects_out_of_box_beta():
    op, channels, result = _library_case()
    bad = replace(result, beta=np.full_like(result.beta, 1.5))
    assert not workloads.check_library(op, channels, bad).ok


def test_library_check_rejects_wrong_beta_shape():
    op, channels, result = _library_case()
    bad = replace(result, beta=result.beta[:-1])
    assert not workloads.check_library(op, channels, bad).ok


def test_library_check_rejects_mismatched_rates():
    op, channels, result = _library_case()
    rates = result.rates
    bad = replace(result, rates=replace(rates, r1=rates.r1 + 0.1, sum=rates.sum + 0.1))
    assert not workloads.check_library(op, channels, bad).ok


def test_library_check_rejects_fractional_mode_switching():
    op, channels, result = _library_case("ms", mode_switching_optimize)
    bad = replace(result, beta=np.full_like(result.beta, 0.5))
    bad = replace(bad, rates=workloads.rate_pair(channels, bad.beta, op.scenario, op.scheme))
    assert not workloads.check_library(op, channels, bad).ok


def test_failed_op_counts_in_the_batch():
    """A sweep the CLI rejects (exit 1) is counted as failed, not skipped."""
    op = workloads.build_ops("cli-oracle", 3, small=True)[0]
    broken = replace(op, spec_text=op.spec_text + "ris.pitch = -1.0\n")
    batch = run.run_batch("cli-oracle", [op, broken])
    assert [o.ok for o in batch.outcomes] == [True, False]
    assert "exit code 1" in batch.outcomes[1].reason
    assert not (HERE / "_work").exists() or not any((HERE / "_work").iterdir())


def _sweep_dir(tmp_path, rows, manifest=True):
    out = tmp_path / "out"
    out.mkdir()
    header = "swept_value,r1,r2,sum_rate,ee,iters,converged,oracle_sum,oracle_gap\n"
    (out / "sweep.csv").write_text(header + "".join(r + "\n" for r in rows))
    if manifest:
        (out / "manifest.txt").write_text("seed = None\n")
    return out


GOOD_ROWS = ["4,0.1,0.2,0.30000000000000004,1.5,2,1,0.3,0.0",
             "8,0.1,0.3,0.4,2.0,2,1,0.4,0.0"]


def test_cli_check_accepts_a_true_sweep(tmp_path):
    op = workloads.CliOp("", "sic", (4, 8))
    assert workloads.check_cli(op, 0, _sweep_dir(tmp_path, GOOD_ROWS)).ok


@pytest.mark.parametrize("case", ["exit 1", "missing oracle", "missing row",
                                  "no manifest", "exit 0 but unconverged"])
def test_cli_check_rejects_corrupted_sweeps(tmp_path, case):
    op = workloads.CliOp("", "sic", (4, 8))
    rows, code, manifest = list(GOOD_ROWS), 0, True
    if case == "exit 1":
        code = 1
    elif case == "missing oracle":
        rows[1] = "8,0.1,0.3,0.4,2.0,2,1,,"
    elif case == "missing row":
        rows = rows[:1]
    elif case == "no manifest":
        manifest = False
    else:
        rows[1] = "8,0.1,0.3,0.4,2.0,50,0,0.4,0.0"
    assert not workloads.check_cli(op, code, _sweep_dir(tmp_path, rows, manifest)).ok


def test_tail_keeps_ten_samples_beyond_it():
    value, percentile, beyond = run.tail([float(i) for i in range(100)])
    assert (percentile, beyond) == (90.0, 10) and value == pytest.approx(89.9, abs=0.5)
    value, percentile, beyond = run.tail([float(i) for i in range(1000)])
    assert (percentile, beyond) == (90.0, 10) and value == pytest.approx(899.0, abs=1.0)
    value, percentile, beyond = run.tail([float(i) for i in range(8)])
    assert beyond == 3 and percentile == 62.5 and 3.5 < value < 5.5


def test_quantile_matches_order_statistics_on_uniform_samples():
    values = list(np.random.default_rng(0).permutation(1001).astype(float))
    assert run.quantile(values, 0.5) == pytest.approx(500.0, abs=0.5)
    assert run.quantile(values, 0.9) == pytest.approx(900.0, abs=1.0)


def test_tracer_self_time_excludes_children():
    tracer = tracing.Tracer()
    inner = tracer.wrap("link.inner", lambda: sum(range(20000)))
    outer = tracer.wrap("spca.outer", lambda: [inner() for _ in range(3)])
    outer()
    assert tracer.calls["link.inner"] == 3 and tracer.calls["spca.outer"] == 1
    children = tracer.total_s["link.inner"]
    assert tracer.self_s["spca.outer"] == pytest.approx(tracer.total_s["spca.outer"] - children)


def test_install_restores_the_package():
    import starvlc.spca

    original = starvlc.spca.sum_rate
    with tracing.install(tracing.Tracer()):
        assert starvlc.spca.sum_rate is not original
    assert starvlc.spca.sum_rate is original


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli-oracle",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
