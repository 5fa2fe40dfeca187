import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from starvlc import (
    ChannelSet,
    DetectorScheme,
    channel_set,
    effective_channels,
    max_min_optimize,
    mode_switching_optimize,
    rate_pair,
    reduced_objective,
    sinr_from_gains,
    solve_subproblem,
    spca_optimize,
    sum_rate,
    time_sharing_optimize,
    vertex_enumerate,
)
from starvlc import spca
from starvlc.link import RATE_SINR_SCALE
from starvlc.spca import _ReducedProblem
from util import random_scenario, reference_scenario


def small_setup(seed=0, rows=2, cols=3):
    rng = np.random.default_rng(seed)
    sc = random_scenario(rng, rows=rows, cols=cols)
    return sc, channel_set(sc)


def reference_user_values_grads(prob, beta, theta):
    """Per-user reduced values and (2, N) gradients w.r.t. beta, each built
    element by element from dA/dbeta and dV^2/dbeta: the vectorised
    reference for the scalar derivatives in `_ReducedProblem`."""
    h1, h2 = prob.gains(beta)
    g1 = prob.a1 * h1
    g2 = prob.a2 * h2
    dg1 = prob.a1 * prob.hr  # dH1/dbeta = hr, dH2/dbeta = -ht
    dg2 = -prob.a2 * prob.ht
    if prob.scheme is DetectorScheme.SIC:
        a, da = (g1 / prob.sigma, g2), (dg1 / prob.sigma, dg2)
        v2, dv2 = (1.0, g1 * g1 + prob.sigma2), (None, 2.0 * g1 * dg1)
    else:
        a, da = (g1, g2), (dg1, dg2)
        v2 = (g2 * g2 + prob.sigma2, g1 * g1 + prob.sigma2)
        dv2 = (2.0 * g2 * dg2, 2.0 * g1 * dg1)
    values = np.zeros(2)
    grads = np.zeros((2, prob.n))
    for k in range(2):
        t = theta[k]
        u = 2.0 * t * a[k] - t * t * v2[k]
        if u <= 0.0:
            continue
        values[k] = 0.5 * math.log2(1.0 + RATE_SINR_SCALE * u)
        du = 2.0 * t * da[k] - (0.0 if dv2[k] is None else t * t * dv2[k])
        grads[k] = 0.5 * RATE_SINR_SCALE / (math.log(2.0) * (1.0 + RATE_SINR_SCALE * u)) * du
    return values, grads


def reference_value_grad(prob, beta, theta):
    """`_ReducedProblem.value_grad` from the per-user gradients."""
    values, grads = reference_user_values_grads(prob, beta, theta)
    weights = np.asarray(prob.weights, dtype=float)
    return float(weights @ values), weights @ grads


def reference_min_value_grad(prob, beta, theta):
    """`_ReducedProblem.min_value_grad` from the per-user gradients."""
    values, grads = reference_user_values_grads(prob, beta, theta)
    if abs(values[0] - values[1]) < 1e-15:
        return float(values[0]), 0.5 * (grads[0] + grads[1])
    k = int(np.argmin(values))
    return float(values[k]), grads[k]


def assert_matches_reference(prob, beta, theta):
    for fg, ref in ((prob.value_grad, reference_value_grad),
                    (prob.min_value_grad, reference_min_value_grad)):
        f, g = fg(beta, theta)
        f_ref, g_ref = ref(prob, beta, theta)
        assert f == pytest.approx(f_ref, rel=1e-12, abs=0.0)
        np.testing.assert_allclose(g, g_ref, rtol=1e-12, atol=0.0)


class TestSurrogateBound:
    def test_upper_bound_and_tightness(self):
        """u/(2 theta) + v^2 theta / 2 >= sqrt(u) v, equal at theta = sqrt(u)/v."""
        rng = np.random.default_rng(123)
        u = rng.uniform(1e-8, 1e4, size=10_000)
        v = rng.uniform(1e-8, 1e2, size=10_000)
        theta = rng.uniform(1e-6, 1e6, size=10_000)
        lhs = u / (2.0 * theta) + v * v * theta / 2.0
        rhs = np.sqrt(u) * v
        assert np.all(lhs >= rhs * (1.0 - 1e-12))
        tight = u / (2.0 * (np.sqrt(u) / v)) + v * v * (np.sqrt(u) / v) / 2.0
        np.testing.assert_allclose(tight, rhs, rtol=1e-12)


class TestReducedObjective:
    def test_gradient_matches_finite_differences(self):
        """Exact gradient vs central differences on random interior points."""
        sc, ch = small_setup(seed=1)
        rng = np.random.default_rng(17)
        eps = 1e-6
        for scheme in DetectorScheme:
            prob = _ReducedProblem(ch, sc, scheme)
            for _ in range(10):
                beta = rng.uniform(0.05, 0.95, size=ch.element_count)
                # perturb around the tight surrogate parameters so both
                # users stay in the smooth (unclamped) region
                a, v2 = prob.terms(beta)
                theta = (a / v2) * 10.0 ** rng.uniform(-0.3, 0.25, size=2)
                f, g = reduced_objective(beta, theta, ch, sc, scheme)
                fd = np.empty_like(g)
                for i in range(beta.size):
                    bp = beta.copy()
                    bp[i] += eps
                    bm = beta.copy()
                    bm[i] -= eps
                    fd[i] = (reduced_objective(bp, theta, ch, sc, scheme)[0]
                             - reduced_objective(bm, theta, ch, sc, scheme)[0]) / (2 * eps)
                denom = max(float(np.linalg.norm(fd)), 1e-12)
                assert float(np.linalg.norm(fd - g)) / denom < 1e-5

    def test_concavity_along_random_segments(self):
        """Midpoint value >= average of endpoint values on the region where
        the eliminated SINR bound stays positive for both users."""
        sc, ch = small_setup(seed=2)
        rng = np.random.default_rng(23)
        for scheme in DetectorScheme:
            prob = _ReducedProblem(ch, sc, scheme)
            a_mid, v2_mid = prob.terms(np.full(ch.element_count, 0.5))
            theta = a_mid / v2_mid

            def unclamped(beta):
                a_t, v2_t = prob.terms(beta)
                return bool(np.all(2 * theta * a_t - theta**2 * v2_t > 0))

            checked = 0
            for _ in range(2000):
                a = rng.uniform(0, 1, size=ch.element_count)
                b = rng.uniform(0, 1, size=ch.element_count)
                if not (unclamped(a) and unclamped(b)):
                    continue
                checked += 1
                fa = reduced_objective(a, theta, ch, sc, scheme)[0]
                fb = reduced_objective(b, theta, ch, sc, scheme)[0]
                fm = reduced_objective(0.5 * (a + b), theta, ch, sc, scheme)[0]
                assert fm >= 0.5 * (fa + fb) - 1e-10
            assert checked >= 100

    @pytest.mark.parametrize("weights", [(1.0, 1.0), (1.0, 0.0), (0.0, 1.0)])
    @pytest.mark.parametrize("scheme", list(DetectorScheme))
    def test_value_grad_matches_reference(self, scheme, weights):
        """Values and gradients from the two scalar derivatives match the
        per-user vectorised reference on seeded room panels (with and
        without dead elements), near the tight surrogate parameters and
        with one user's bound clamped at 0 (theta past 2 A / V^2)."""
        rng = np.random.default_rng(61)
        clamped = 0
        for sc, ch in [*room_panels(1, True), *room_panels(1, False)]:
            prob = _ReducedProblem(ch, sc, scheme, weights)
            for k in range(6):
                beta = rng.uniform(0.0, 1.0, size=ch.element_count)
                a, v2 = prob.terms(beta)
                theta = (a / v2) * 10.0 ** rng.uniform(-0.3, 0.25, size=2)
                if k >= 4:
                    theta[k - 4] = 3.0 * a[k - 4] / v2[k - 4]
                    clamped += 1
                    values, _ = reference_user_values_grads(prob, beta, theta)
                    assert values[k - 4] == 0.0
                assert_matches_reference(prob, beta, theta)
        assert clamped == 16

    def test_min_value_grad_tie_matches_reference(self):
        """Equal user values take the average of the two users' gradients:
        a SUD panel whose users mirror each other (equal powers, H1 == H2
        exactly at beta = 0.5, equal theta) ties exactly."""
        v = np.array([3.0, 1.0, 2.0, 5.0]) * 2.0 ** -20
        ch = ChannelSet(h_los=float(v.sum()) / 2.0, h_reflect=v, h_transmit=2.0 * v)
        sc = replace(reference_scenario(), p1=0.05, p2=0.05)
        prob = _ReducedProblem(ch, sc, DetectorScheme.SUD)
        beta = np.full(4, 0.5)
        a, v2 = prob.terms(beta)
        theta = 0.5 * a / v2
        values, _ = reference_user_values_grads(prob, beta, theta)
        assert values[0] == values[1] > 0.0
        assert_matches_reference(prob, beta, theta)
        _, g = prob.min_value_grad(beta, theta)
        assert np.all(g != 0.0)

    @pytest.mark.parametrize("scheme", list(DetectorScheme))
    def test_solvers_match_the_reference_gradient(self, scheme, monkeypatch):
        """ES, time-sharing and MS return bitwise the same beta and rates
        when the reduced objective is the per-user reference, on seeded
        room panels with dead elements."""
        panels = list(room_panels(2, dead_elements=True))
        solvers = (spca_optimize, time_sharing_optimize, mode_switching_optimize)
        fast = [solve(ch, sc, scheme) for sc, ch in panels for solve in solvers]
        monkeypatch.setattr(_ReducedProblem, "value_grad", reference_value_grad)
        slow = [solve(ch, sc, scheme) for sc, ch in panels for solve in solvers]
        for a, b in zip(fast, slow):
            np.testing.assert_array_equal(a.beta, b.beta)
            assert a.rates == b.rates

    def test_invalid_theta_rejected(self):
        sc, ch = small_setup()
        with pytest.raises(ValueError):
            reduced_objective(np.zeros(ch.element_count), [0.0, 1.0], ch, sc,
                              DetectorScheme.SUD)

    @pytest.mark.parametrize("scheme", list(DetectorScheme))
    @pytest.mark.parametrize("user", ["p1", "p2"])
    def test_float_range_limit_keeps_the_objective_finite(self, scheme, user):
        """At the largest power `check_float_range` accepts for one user (the
        other at its default), the per-user reference forms every product
        without a numpy overflow, at both vertices and the midpoint and at
        every pair of theta_init and the largest theta A / V^2 can reach."""
        sc = reference_scenario()
        ch = channel_set(sc)
        lo, hi = 0.0, 308.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            try:
                spca.check_float_range(ch, replace(sc, **{user: 10.0 ** mid}))
                lo = mid
            except ValueError:
                hi = mid
        prob = _ReducedProblem(ch, replace(sc, **{user: 10.0 ** lo}), scheme)
        g = max(prob.a1 * (prob.h_los + prob.hr.sum()), prob.a2 * prob.ht.sum())
        thetas = (spca.SETTINGS.theta_init, g / prob.sigma2)
        with np.errstate(over="raise", invalid="raise"):
            for b in (0.0, 0.5, 1.0):
                beta = np.full(ch.element_count, b)
                for theta in np.array([(t1, t2) for t1 in thetas for t2 in thetas]):
                    for ref in (reference_value_grad, reference_min_value_grad):
                        f, grad = ref(prob, beta, theta)
                        assert math.isfinite(f) and np.all(np.isfinite(grad))
                    f, grad = prob.value_grad(beta, theta)
                    assert math.isfinite(f) and np.all(np.isfinite(grad))


class TestSubproblem:
    def test_solution_is_stationary(self):
        """Projected gradient vanishes at the subproblem solution."""
        sc, ch = small_setup(seed=3)
        theta = np.array([100.0, 100.0])
        for scheme in DetectorScheme:
            beta, ok = solve_subproblem(theta, ch, sc, scheme)
            assert ok
            _, g = reduced_objective(beta, theta, ch, sc, scheme)
            pg = np.clip(beta + g, 0.0, 1.0) - beta
            assert np.max(np.abs(pg)) < 1e-6

    def test_beats_random_points(self):
        sc, ch = small_setup(seed=4)
        theta = np.array([100.0, 100.0])
        beta, _ = solve_subproblem(theta, ch, sc, DetectorScheme.SIC)
        fstar = reduced_objective(beta, theta, ch, sc, DetectorScheme.SIC)[0]
        rng = np.random.default_rng(29)
        for _ in range(100):
            trial = rng.uniform(0, 1, size=ch.element_count)
            assert fstar >= reduced_objective(trial, theta, ch, sc, DetectorScheme.SIC)[0] - 1e-8


class TestSpca:
    @pytest.mark.parametrize("scheme", [DetectorScheme.SUD, DetectorScheme.SIC])
    def test_matches_vertex_oracle_small(self, scheme):
        rng = np.random.default_rng(31)
        for _ in range(5):
            sc = random_scenario(rng, rows=2, cols=3)
            ch = channel_set(sc)
            result = spca_optimize(ch, sc, scheme)
            oracle = vertex_enumerate(ch, sc, scheme)
            assert result.converged
            assert result.rates.sum >= oracle.best_rates.sum - 1e-3

    def test_surrogate_trace_monotone(self):
        sc = reference_scenario()
        ch = channel_set(sc)
        for scheme in DetectorScheme:
            result = spca_optimize(ch, sc, scheme)
            objs = [entry.objective for entry in result.trace]
            assert all(b >= a - 1e-10 for a, b in zip(objs, objs[1:]))
            exact = [entry.sum_rate for entry in result.trace]
            assert all(b >= a - 1e-10 for a, b in zip(exact, exact[1:]))

    def test_trace_records_the_subproblem_value(self):
        """Each trace entry's objective is the value the inner solve returned
        with its beta: the last is the reduced objective at the result."""
        sc = reference_scenario()
        ch = channel_set(sc)
        for scheme in DetectorScheme:
            result = spca_optimize(ch, sc, scheme)
            last = result.trace[-1]
            assert last.objective == reduced_objective(result.beta, last.state.theta,
                                                       ch, sc, scheme)[0]

    def test_default_scenario_fast_convergence(self):
        sc = reference_scenario()
        ch = channel_set(sc)
        sic = spca_optimize(ch, sc, DetectorScheme.SIC)
        sud = spca_optimize(ch, sc, DetectorScheme.SUD)
        assert sic.converged and sic.iterations <= 6
        assert sud.converged and sud.iterations <= 8

    def test_beta_stays_in_box(self):
        sc, ch = small_setup(seed=6, rows=3, cols=4)
        result = spca_optimize(ch, sc, DetectorScheme.SIC)
        assert np.all(result.beta >= 0.0) and np.all(result.beta <= 1.0)

    def test_empty_panel(self):
        sc = reference_scenario()
        sc = replace(sc, panel=replace(sc.panel, rows=0))
        ch = channel_set(sc)
        result = spca_optimize(ch, sc, DetectorScheme.SIC)
        assert result.beta.shape == (0,)
        assert result.rates.r2 == 0.0  # nothing reaches the AP from room 2
        assert result.rates.r1 > 0.0


def reference_rounding(channels, scenario, scheme, beta):
    """O(N^2) reference for the rounding in `mode_switching_optimize`: each
    fractional coordinate, in index order, goes to the better of {0, 1} by a
    full sum-rate evaluation of both candidates (ties to 1)."""
    beta = beta.copy()
    for i in range(beta.size):
        if beta[i] in (0.0, 1.0):
            continue
        lo = beta.copy()
        lo[i] = 0.0
        hi = beta.copy()
        hi[i] = 1.0
        f0 = sum_rate(channels, lo, scenario, scheme)
        f1 = sum_rate(channels, hi, scenario, scheme)
        beta[i] = 1.0 if f1 >= f0 else 0.0
    return beta


def with_dead_elements(channels):
    """`channels` with every third element's gains zeroed."""
    hr = channels.h_reflect.copy()
    ht = channels.h_transmit.copy()
    hr[::3] = 0.0
    ht[::3] = 0.0
    return ChannelSet(h_los=channels.h_los, h_reflect=hr, h_transmit=ht)


def fractional(beta):
    return (beta > 0.0) & (beta < 1.0)


def dead(channels):
    return (channels.h_reflect == 0.0) & (channels.h_transmit == 0.0)


def room_panels(count, dead_elements):
    """`count` seeded room panels per shape from 2 x 3 to 20 x 16, every
    third element dead if `dead_elements`."""
    rng = np.random.default_rng(1 if dead_elements else 2)
    for rows, cols in [(2, 3), (4, 4), (10, 8), (20, 16)] * count:
        sc = random_scenario(rng, rows, cols)
        ch = channel_set(sc)
        yield sc, with_dead_elements(ch) if dead_elements else ch


def es_with_fractional_dead_elements(monkeypatch):
    """Make `mode_switching_optimize` round from an ES optimum whose dead
    elements sit at 0.5 (any value is optimal there), so the rounding has
    fractional coordinates to decide: each of them is a tie."""
    es = spca_optimize

    def patched(ch, sc, scheme):
        result = es(ch, sc, scheme)
        return replace(result, beta=np.where(dead(ch), 0.5, result.beta))
    monkeypatch.setattr(spca, "spca_optimize", patched)
    return patched


class TestModeSwitching:
    def test_result_is_binary(self):
        sc, ch = small_setup(seed=7, rows=2, cols=4)
        result = mode_switching_optimize(ch, sc, DetectorScheme.SIC)
        assert set(np.unique(result.beta)) <= {0.0, 1.0}

    def test_no_worse_than_nearest_rounding(self):
        rng = np.random.default_rng(37)
        for _ in range(5):
            sc = random_scenario(rng, rows=2, cols=3)
            ch = channel_set(sc)
            for scheme in DetectorScheme:
                cont = spca_optimize(ch, sc, scheme)
                ms = mode_switching_optimize(ch, sc, scheme)
                naive = np.round(cont.beta)
                assert ms.rates.sum >= sum_rate(ch, naive, sc, scheme) - 1e-12

    def test_matches_vertex_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            sc = random_scenario(rng, rows=2, cols=3)
            ch = channel_set(sc)
            oracle = vertex_enumerate(ch, sc, DetectorScheme.SIC)
            ms = mode_switching_optimize(ch, sc, DetectorScheme.SIC)
            assert ms.rates.sum >= oracle.best_rates.sum - 1e-3

    @pytest.mark.parametrize("scheme", list(DetectorScheme))
    def test_rounding_matches_reference_at_es_optimum(self, scheme, monkeypatch):
        """Bitwise the reference's beta, from an ES optimum whose elements
        that see no light (both gains 0) sit at 0.5: they must round to 1,
        the tie rule. Seed 0's 20 x 16 panel has over 100 of them."""
        es = es_with_fractional_dead_elements(monkeypatch)
        tied = 0
        for seed, (rows, cols) in enumerate([(20, 16), (2, 3), (4, 4), (10, 8)] * 2):
            sc = random_scenario(np.random.default_rng(seed), rows, cols)
            ch = channel_set(sc)
            if seed % 2:
                ch = with_dead_elements(ch)
            start = es(ch, sc, scheme).beta
            ms = mode_switching_optimize(ch, sc, scheme).beta
            np.testing.assert_array_equal(ms, reference_rounding(ch, sc, scheme, start))
            assert np.all(ms[dead(ch) & fractional(start)] == 1.0)
            tied += int(np.sum(dead(ch) & fractional(start)))
            if seed == 0:
                assert np.sum(fractional(start)) >= 100
        assert tied >= 100

    @pytest.mark.parametrize("scheme", list(DetectorScheme))
    def test_rounding_matches_reference_from_fractional_start(self, scheme, monkeypatch):
        """Bitwise the reference's beta when most coordinates start
        fractional (up to 320 of them), on seeded room panels, with and
        without dead elements, and on balanced panels: gain directions
        spread over the quarter circle and a weak LOS, so each rounding
        decision depends on the gains the earlier ones left behind."""
        rng = np.random.default_rng(100)
        cases = []
        for k, (rows, cols) in enumerate([(2, 3), (4, 4), (10, 8), (20, 16)] * 2):
            sc = random_scenario(rng, rows, cols)
            ch = channel_set(sc)
            cases.append((sc, with_dead_elements(ch) if k % 2 else ch))
        for n in (16, 80, 320):
            angle = rng.uniform(0.0, 0.5 * np.pi, size=n)
            gain = 1e-6 * rng.uniform(0.5, 1.5, size=n)
            cases.append((reference_scenario(),
                          ChannelSet(h_los=1e-7, h_reflect=gain * np.cos(angle),
                                     h_transmit=gain * np.sin(angle))))
        es = spca_optimize
        for sc, ch in cases:
            start = rng.uniform(0.0, 1.0, size=ch.element_count)
            start[rng.random(start.size) < 0.2] = 1.0
            monkeypatch.setattr(spca, "spca_optimize",
                                lambda *args: replace(es(*args), beta=start.copy()))
            ms = mode_switching_optimize(ch, sc, scheme)
            np.testing.assert_array_equal(ms.beta, reference_rounding(ch, sc, scheme, start))
            assert ms.rates == rate_pair(ch, ms.beta, sc, scheme)

    @pytest.mark.parametrize("rows, cols", [(4, 4), (20, 16)])
    def test_rounding_makes_no_rate_calls(self, rows, cols, monkeypatch):
        """MS costs what ES costs plus one `rate_pair` for the final rates,
        however many coordinates it rounds."""
        calls = Counter()

        def counting(name):
            fn = getattr(spca, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        for name in ("sum_rate", "rate_pair"):
            monkeypatch.setattr(spca, name, counting(name))
        es_start = es_with_fractional_dead_elements(monkeypatch)
        sc = random_scenario(np.random.default_rng(0), rows, cols)
        ch = with_dead_elements(channel_set(sc))
        for scheme in DetectorScheme:
            calls.clear()
            es = es_start(ch, sc, scheme)
            es_calls = calls.copy()
            calls.clear()
            mode_switching_optimize(ch, sc, scheme)
            assert np.sum(fractional(es.beta)) > 0
            assert calls["sum_rate"] <= es_calls["sum_rate"]
            assert calls["rate_pair"] == es_calls["rate_pair"] + 1

    @pytest.mark.parametrize("dead_elements", [False, True])
    @pytest.mark.parametrize("scheme", list(DetectorScheme))
    def test_es_optimum_is_binary_and_is_ms(self, scheme, dead_elements):
        """The paper's claim that ES and MS perform the same: on seeded room
        panels the ES optimum is already binary, so MS returns it as is."""
        for sc, ch in room_panels(4, dead_elements):
            es = spca_optimize(ch, sc, scheme)
            assert not np.any(fractional(es.beta))
            np.testing.assert_array_equal(mode_switching_optimize(ch, sc, scheme).beta,
                                          es.beta)


class TestDeadElements:
    @pytest.mark.parametrize("scheme", list(DetectorScheme))
    def test_solvers_leave_dead_elements_at_one(self, scheme):
        """Elements with both gains 0 start at 1 and, with zero gradient,
        stay there under every solver. (Max-min takes seconds at 20 x 16.)"""
        for sc, ch in room_panels(2, dead_elements=True):
            if ch.element_count > 80:
                continue
            for solve in (spca_optimize, time_sharing_optimize, max_min_optimize):
                assert np.all(solve(ch, sc, scheme).beta[dead(ch)] == 1.0)
            theta = np.array([100.0, 100.0])
            assert np.all(solve_subproblem(theta, ch, sc, scheme)[0][dead(ch)] == 1.0)


class TestTimeSharing:
    def test_alpha_is_endpoint(self):
        sc, ch = small_setup(seed=8)
        for scheme in DetectorScheme:
            res = time_sharing_optimize(ch, sc, scheme)
            assert res.alpha in (0.0, 1.0)
            assert res.converged

    def test_value_is_best_single_user_rate(self):
        # The winning weighted rate must beat serving either user with any
        # binary vertex assignment.
        sc, ch = small_setup(seed=9)
        res = time_sharing_optimize(ch, sc, DetectorScheme.SUD)
        won = res.rates.r1 if res.alpha == 1.0 else res.rates.r2
        n = ch.element_count
        for mask in range(2**n):
            beta = np.array([(mask >> i) & 1 for i in range(n)], dtype=float)
            from starvlc import rate_pair

            rp = rate_pair(ch, beta, sc, DetectorScheme.SUD)
            assert won >= max(rp.r1, rp.r2) - 1e-6


class TestMaxMin:
    def test_min_rate_not_below_other_solvers(self):
        sc, ch = small_setup(seed=12, rows=2, cols=4)
        for scheme in DetectorScheme:
            mm = max_min_optimize(ch, sc, scheme)
            best_sum = spca_optimize(ch, sc, scheme)
            assert min(mm.rates.r1, mm.rates.r2) >= \
                min(best_sum.rates.r1, best_sum.rates.r2) - 1e-6
            assert mm.rates.sum <= best_sum.rates.sum + 1e-6

    def test_min_rate_zero_when_a_user_is_dead(self):
        # No transmit-side gain at all: user 2's rate is pinned at zero.
        sc = reference_scenario()
        sc = replace(sc, panel=replace(sc.panel, rows=1, cols=2))
        ch = ChannelSet(h_los=5e-5, h_reflect=[2e-5, 1e-5], h_transmit=[0.0, 0.0])
        mm = max_min_optimize(ch, sc, DetectorScheme.SIC)
        assert min(mm.rates.r1, mm.rates.r2) == 0.0


class TestAuxiliaryRecovery:
    def test_recovered_u_is_exact_sinr(self):
        from starvlc.spca import _recover_auxiliaries

        sc, ch = small_setup(seed=14)
        rng = np.random.default_rng(43)
        for scheme in DetectorScheme:
            prob = _ReducedProblem(ch, sc, scheme)
            for _ in range(20):
                beta = rng.uniform(0, 1, size=ch.element_count)
                u, v = _recover_auxiliaries(prob, beta)
                s1, s2 = sinr_from_gains(*effective_channels(ch, beta), sc, scheme)
                assert u[0] == pytest.approx(s1, rel=1e-10, abs=1e-30)
                assert u[1] == pytest.approx(s2, rel=1e-10, abs=1e-30)
                assert np.all(v > 0.0)
