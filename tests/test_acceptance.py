"""End-to-end acceptance suite.

Each test prints a single PASS/FAIL summary line (visible with `pytest -s`
or in captured output on failure) and then asserts the same condition.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from starvlc import (
    DetectorScheme,
    OrientedPoint,
    channel_set,
    coordinate_scan,
    max_min_optimize,
    mode_switching_optimize,
    reduced_objective,
    spca_optimize,
    time_sharing_optimize,
    vertex_enumerate,
)
from starvlc.cli import SweepSpec, no_ris_rate_ue1, scenario_at, sweep_values
from starvlc.spca import _ReducedProblem
from util import random_scenario, reference_scenario

SHAPES = {4: (2, 2), 8: (2, 4), 12: (3, 4)}


def report(label, ok, detail):
    print(f"[{label}] {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def ue1_position_sweep():
    """16-point UE1 x-sweep (3.0 -> 4.5 m) on the full 80-element default
    scenario, SIC: continuous and binary optima plus the bare-LOS baseline.

    Shared by the mode-switching-equivalence and crossover criteria.
    """
    sc = reference_scenario()
    xs = np.linspace(3.0, 4.5, 16)
    points = []
    for x in xs:
        scx = replace(sc, ue1=OrientedPoint([x, 2.5, 1.0], [0, 0, 1]))
        ch = channel_set(scx)
        es = spca_optimize(ch, scx, DetectorScheme.SIC)
        ms = mode_switching_optimize(ch, scx, DetectorScheme.SIC)
        points.append({
            "x": float(x),
            "es": es,
            "ms": ms,
            "no_ris_r1": no_ris_rate_ue1(scx),
        })
    return points


def test_criterion_1_oracle_equivalence():
    """Continuous optimizer matches exhaustive vertex enumeration on small
    randomized panels, for both detection schemes."""
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    runs = 0
    for _trial in range(20):
        for n, (rows, cols) in SHAPES.items():
            sc = random_scenario(rng, rows=rows, cols=cols)
            ch = channel_set(sc)
            for scheme in DetectorScheme:
                result = spca_optimize(ch, sc, scheme)
                oracle = vertex_enumerate(ch, sc, scheme)
                gap = oracle.best_rates.sum - result.rates.sum
                worst = max(worst, gap)
                runs += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-3 and elapsed < 120.0
    report("criterion 1: oracle equivalence", ok,
           f"{runs} runs, worst gap {worst:.3e} bpcu, {elapsed:.1f} s")


def test_criterion_2_mode_switching_equivalence(ue1_position_sweep):
    """Binary coefficients lose nothing: mode-switching sum-rate equals the
    continuous optimum along the UE1 position sweep."""
    gaps = [abs(p["es"].rates.sum - p["ms"].rates.sum) for p in ue1_position_sweep]
    worst = max(gaps)
    ok = worst <= 1e-3
    report("criterion 2: mode-switching equivalence", ok,
           f"16 points, worst |ES - MS| = {worst:.3e} bpcu")


def test_criterion_3_convergence_speed():
    """Outer loop settles within a handful of iterations from theta = 100,
    with a monotone objective trace."""
    sc = reference_scenario()
    ch = channel_set(sc)
    sic = spca_optimize(ch, sc, DetectorScheme.SIC)
    sud = spca_optimize(ch, sc, DetectorScheme.SUD)

    def monotone(result):
        objs = [e.objective for e in result.trace]
        return all(b >= a - 1e-10 for a, b in zip(objs, objs[1:]))

    ok = (sic.converged and sic.iterations <= 6
          and sud.converged and sud.iterations <= 8
          and monotone(sic) and monotone(sud))
    report("criterion 3: convergence speed", ok,
           f"SIC {sic.iterations} iters, SUD {sud.iterations} iters, "
           f"monotone={monotone(sic) and monotone(sud)}")


def test_criterion_4_sic_dominance_vs_element_count():
    """SIC beats SUD at every panel size and both curves grow with N."""
    spec = SweepSpec(parameter="element_count", start=10, stop=80, steps=10,
                     scenario=reference_scenario())
    counts = sweep_values(spec)
    sud_curve = []
    sic_curve = []
    for n in counts:
        scn = scenario_at(spec, n)
        ch = channel_set(scn)
        sud_curve.append(spca_optimize(ch, scn, DetectorScheme.SUD).rates.sum)
        sic_curve.append(spca_optimize(ch, scn, DetectorScheme.SIC).rates.sum)
    dominance = all(s >= u - 1e-12 for s, u in zip(sic_curve, sud_curve))
    grow_sud = all(b >= a - 1e-6 for a, b in zip(sud_curve, sud_curve[1:]))
    grow_sic = all(b >= a - 1e-6 for a, b in zip(sic_curve, sic_curve[1:]))
    ok = dominance and grow_sud and grow_sic
    report("criterion 4: SIC dominance over element count", ok,
           f"N = {counts[0]}..{counts[-1]} ({len(counts)} sizes), "
           f"dominance={dominance}, monotone SUD={grow_sud}, SIC={grow_sic}")


def test_criterion_5_energy_efficiency_shape():
    """Power sweep 1 -> 100 mW: efficiency peaks in the interior while
    spectral efficiency keeps climbing; time sharing's served rate tracks
    the SUD sum from below; max-min never exceeds the unconstrained optimum."""
    sc = reference_scenario()
    powers = np.linspace(0.001, 0.1, 25)
    ee = {s: [] for s in DetectorScheme}
    se = {s: [] for s in DetectorScheme}
    ts_gap = 0.0
    ts_bounded = True
    maxmin_ok = True
    for p in powers:
        scp = replace(sc, p1=float(p), p2=float(p))
        ch = channel_set(scp)
        sums = {}
        for scheme in DetectorScheme:
            res = spca_optimize(ch, scp, scheme)
            sums[scheme] = res.rates.sum
            ee[scheme].append(res.rates.energy_efficiency)
            se[scheme].append(res.rates.sum)
            mm = max_min_optimize(ch, scp, scheme)
            maxmin_ok = maxmin_ok and mm.rates.sum <= res.rates.sum + 1e-6
        ts = time_sharing_optimize(ch, scp, DetectorScheme.SUD)
        served = ts.rates.r1 if ts.alpha == 1.0 else ts.rates.r2
        ts_gap = max(ts_gap, abs(served - sums[DetectorScheme.SUD]))
        ts_bounded = ts_bounded and served <= sums[DetectorScheme.SUD] + 1e-9

    def unimodal_with_interior_peak(ys):
        k = int(np.argmax(ys))
        rising = all(b > a for a, b in zip(ys[: k + 1], ys[1 : k + 1]))
        falling = all(b < a for a, b in zip(ys[k:], ys[k + 1 :]))
        return 0 < k < len(ys) - 1 and rising and falling

    shapes_ok = all(unimodal_with_interior_peak(ee[s]) for s in DetectorScheme)
    se_ok = all(all(b > a for a, b in zip(se[s], se[s][1:])) for s in DetectorScheme)
    ok = shapes_ok and se_ok and ts_bounded and ts_gap <= 1e-3 and maxmin_ok
    report("criterion 5: energy-efficiency shape", ok,
           f"interior EE peak={shapes_ok}, SE strictly increasing={se_ok}, "
           f"max |timeshare served rate - SUD| = {ts_gap:.3e} bpcu "
           f"(bounded={ts_bounded}), maxmin bounded={maxmin_ok}")


def test_criterion_6_position_sweep_crossover(ue1_position_sweep):
    """As UE1 approaches the panel its rate grows, the panel flips from
    mostly-transmitting to mostly-reflecting, and the panel never hurts."""
    r1 = [p["es"].rates.r1 for p in ue1_position_sweep]
    mean_beta = [float(np.mean(p["es"].beta)) for p in ue1_position_sweep]
    r1_monotone = all(b >= a - 1e-9 for a, b in zip(r1, r1[1:]))
    crossover = mean_beta[0] < 0.5 < mean_beta[-1]
    helps = all(p["es"].rates.r1 >= p["no_ris_r1"] - 1e-12 for p in ue1_position_sweep)
    ok = r1_monotone and crossover and helps
    report("criterion 6: position-sweep crossover", ok,
           f"r1 monotone={r1_monotone}, mean beta {mean_beta[0]:.3f} -> "
           f"{mean_beta[-1]:.3f} (crossover={crossover}), RIS helps={helps}")


def test_criterion_7_endpoint_optimality_scans():
    """Per-coordinate scans around the optimum peak at a box endpoint, and
    dead elements give flat scans."""
    sc = reference_scenario()
    ch = channel_set(sc)
    result = spca_optimize(ch, sc, DetectorScheme.SIC)
    values, argmax = coordinate_scan(ch, sc, DetectorScheme.SIC, result.beta)
    endpoint_best = True
    for i in range(values.shape[0]):
        best = values[i].max()
        if best > max(values[i, 0], values[i, -1]) + 1e-9:
            endpoint_best = False
    argmax_ok = bool(np.all((argmax == 0.0) | (argmax == 1.0)))

    # one element below the detector plane: both of its gains are zero
    dead_sc = replace(sc, panel=replace(sc.panel, rows=2, cols=1,
                                        center=np.array([5.0, 2.5, 1.0]),
                                        pitch=1.0))
    dead_ch = channel_set(dead_sc)
    dead = np.flatnonzero((dead_ch.h_reflect == 0.0) & (dead_ch.h_transmit == 0.0))
    dead_vals, _ = coordinate_scan(dead_ch, dead_sc, DetectorScheme.SIC,
                                   np.full(dead_ch.element_count, 0.5))
    flat = dead.size > 0 and all(np.ptp(dead_vals[i]) == 0.0 for i in dead)
    ok = endpoint_best and argmax_ok and flat
    report("criterion 7: endpoint-optimality scans", ok,
           f"endpoint best={endpoint_best}, argmax binary={argmax_ok}, "
           f"dead scans flat={flat} ({dead.size} dead element(s))")


def test_criterion_8_numerical_hygiene():
    """Analytic gradients, surrogate bound and concavity all verified by
    sampling."""
    rng = np.random.default_rng(808)
    sc = random_scenario(rng, rows=2, cols=3)
    ch = channel_set(sc)
    eps = 1e-6
    worst_rel = 0.0
    for k in range(100):
        scheme = DetectorScheme.SIC if k % 2 else DetectorScheme.SUD
        beta = rng.uniform(0.05, 0.95, size=ch.element_count)
        # theta near the tight surrogate parameters keeps both users in the
        # smooth (unclamped) region where the gradient is classical
        a, v2 = _ReducedProblem(ch, sc, scheme).terms(beta)
        theta = (a / v2) * 10.0 ** rng.uniform(-0.3, 0.25, size=2)
        _, g = reduced_objective(beta, theta, ch, sc, scheme)
        fd = np.empty_like(g)
        for i in range(beta.size):
            bp = beta.copy()
            bp[i] += eps
            bm = beta.copy()
            bm[i] -= eps
            fd[i] = (reduced_objective(bp, theta, ch, sc, scheme)[0]
                     - reduced_objective(bm, theta, ch, sc, scheme)[0]) / (2 * eps)
        denom = max(float(np.linalg.norm(fd)), 1e-12)
        worst_rel = max(worst_rel, float(np.linalg.norm(fd - g)) / denom)
    grad_ok = worst_rel < 1e-5

    n_samples = 10_000
    u = rng.uniform(1e-8, 1e4, size=n_samples)
    v = rng.uniform(1e-8, 1e2, size=n_samples)
    theta = rng.uniform(1e-6, 1e6, size=n_samples)
    bound = u / (2 * theta) + v * v * theta / 2
    bound_ok = bool(np.all(bound >= np.sqrt(u) * v * (1 - 1e-12)))

    # Concavity holds on the region where the eliminated SINR bound is
    # positive for both users; sample segment endpoints from that region.
    concave_ok = True
    mid = np.full(ch.element_count, 0.5)
    problems = {s: _ReducedProblem(ch, sc, s) for s in DetectorScheme}
    thetas = {}
    for scheme, prob in problems.items():
        am, v2m = prob.terms(mid)
        thetas[scheme] = am / v2m

    def unclamped(scheme, beta):
        a_t, v2_t = problems[scheme].terms(beta)
        return bool(np.all(2 * thetas[scheme] * a_t - thetas[scheme] ** 2 * v2_t > 0))

    checked = 0
    attempts = 0
    while checked < n_samples and attempts < 20 * n_samples:
        attempts += 1
        scheme = DetectorScheme.SIC if attempts % 2 else DetectorScheme.SUD
        a_pt = rng.uniform(0, 1, size=ch.element_count)
        b_pt = rng.uniform(0, 1, size=ch.element_count)
        if not (unclamped(scheme, a_pt) and unclamped(scheme, b_pt)):
            continue
        theta_pair = thetas[scheme]
        fa = reduced_objective(a_pt, theta_pair, ch, sc, scheme)[0]
        fb = reduced_objective(b_pt, theta_pair, ch, sc, scheme)[0]
        fm = reduced_objective(0.5 * (a_pt + b_pt), theta_pair, ch, sc, scheme)[0]
        checked += 1
        if fm < 0.5 * (fa + fb) - 1e-10:
            concave_ok = False
            break
    concave_ok = concave_ok and checked == n_samples
    ok = grad_ok and bound_ok and concave_ok
    report("criterion 8: numerical hygiene", ok,
           f"worst gradient rel err {worst_rel:.3e}, bound holds={bound_ok}, "
           f"concavity holds={concave_ok} ({checked} samples)")
