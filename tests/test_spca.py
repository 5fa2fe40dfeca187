import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    grads = np.zeros((2, prob.hr.size))
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
    """`_ReducedProblem.value_slopes` (the sum of the users' values) and its
    gradient from the per-user gradients."""
    values, grads = reference_user_values_grads(prob, beta, theta)
    return float(values[0] + values[1]), grads[0] + grads[1]


def reference_user_value_grad(k):
    """User k's own value and gradient from the per-user reference: the
    objective time-sharing passes for user k."""
    def ref(prob, beta, theta):
        values, grads = reference_user_values_grads(prob, beta, theta)
        return float(values[k]), grads[k]
    return ref


def user_objective(prob, k):
    """User k's own (value, dF/dg1, dF/dg2), as time-sharing passes it."""
    return lambda beta, theta: prob.user_values(beta, theta)[k]


def reference_min_value_grad(prob, beta, theta):
    """`_ReducedProblem.min_value_slopes` and its gradient from the per-user
    gradients."""
    values, grads = reference_user_values_grads(prob, beta, theta)
    if abs(values[0] - values[1]) < 1e-15:
        return float(values[0]), 0.5 * (grads[0] + grads[1])
    k = int(np.argmin(values))
    return float(values[k]), grads[k]


def assert_matches_reference(prob, beta, theta, objective=None, ref=None):
    """The min objective, and `objective` (default the sum), match their
    per-user references in value and gradient."""
    pairs = ((objective or prob.value_slopes, ref or reference_value_grad),
             (prob.min_value_slopes, reference_min_value_grad))
    for objective, ref in pairs:
        f, x, y = objective(beta, theta)
        g = prob.gradient(x, y)
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

    @pytest.mark.parametrize("user", [None, 0, 1], ids=["sum", "user1", "user2"])
    @pytest.mark.parametrize("scheme", list(DetectorScheme))
    def test_value_grad_matches_reference(self, scheme, user):
        """Values and gradients from the two scalar derivatives (of the sum,
        or of one user's own value, and of the min) match the per-user
        vectorised reference on seeded room panels (with and without dead
        elements), near the tight surrogate parameters and with one user's
        bound clamped at 0 (theta past 2 A / V^2)."""
        rng = np.random.default_rng(61)
        clamped = 0
        for sc, ch in [*room_panels(1, True), *room_panels(1, False)]:
            prob = _ReducedProblem(ch, sc, scheme)
            if user is None:
                objective, ref = prob.value_slopes, reference_value_grad
            else:
                objective, ref = user_objective(prob, user), reference_user_value_grad(user)
            for k in range(6):
                beta = rng.uniform(0.0, 1.0, size=ch.element_count)
                a, v2 = prob.terms(beta)
                theta = (a / v2) * 10.0 ** rng.uniform(-0.3, 0.25, size=2)
                if k >= 4:
                    theta[k - 4] = 3.0 * a[k - 4] / v2[k - 4]
                    clamped += 1
                    values, _ = reference_user_values_grads(prob, beta, theta)
                    assert values[k - 4] == 0.0
                assert_matches_reference(prob, beta, theta, objective, ref)
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
        _, x, y = prob.min_value_slopes(beta, theta)
        assert np.all(prob.gradient(x, y) != 0.0)

    @pytest.mark.parametrize("scheme", list(DetectorScheme))
    def test_solvers_match_the_reference_gradient(self, scheme, monkeypatch):
        """ES, time-sharing and MS return bitwise the same beta and rates
        when the reduced objectives and their gradient are the per-user
        reference, on seeded room panels with dead elements. ES and MS
        evaluate the sum (`value_slopes`), time-sharing each user's own
        value (`user_values`); each solver is checked to have run through
        its reference. A reference objective hands its point and its name
        on as the slopes, so the gradient `_pga` forms from them is that
        reference's at that point."""
        panels = list(room_panels(2, dead_elements=True))
        solvers = (spca_optimize, time_sharing_optimize, mode_switching_optimize)
        fast = [solve(ch, sc, scheme) for sc, ch in panels for solve in solvers]
        calls = Counter()
        refs = {"sum": reference_value_grad, 0: reference_user_value_grad(0),
                1: reference_user_value_grad(1)}

        def reference_objective(prob, beta, theta):
            calls["value_slopes"] += 1
            return refs["sum"](prob, beta, theta)[0], beta, (theta, "sum")

        def reference_user_values(prob, beta, theta):
            calls["user_values"] += 1
            return tuple((refs[k](prob, beta, theta)[0], beta, (theta, k)) for k in range(2))

        def reference_gradient(prob, beta, slope):
            calls["gradient"] += 1
            theta, name = slope
            return refs[name](prob, beta, theta)[1]

        monkeypatch.setattr(_ReducedProblem, "value_slopes", reference_objective)
        monkeypatch.setattr(_ReducedProblem, "user_values", reference_user_values)
        monkeypatch.setattr(_ReducedProblem, "gradient", reference_gradient)
        slow = []
        for sc, ch in panels:
            for solve in solvers:
                calls.clear()
                slow.append(solve(ch, sc, scheme))
                objective = "user_values" if solve is time_sharing_optimize else "value_slopes"
                assert calls[objective] > 0 and calls["gradient"] > 0
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
                    for ref in (reference_value_grad, reference_user_value_grad(0),
                                reference_user_value_grad(1), reference_min_value_grad):
                        f, grad = ref(prob, beta, theta)
                        assert math.isfinite(f) and np.all(np.isfinite(grad))
                    for f, x, y in (prob.value_slopes(beta, theta), *prob.user_values(beta, theta)):
                        assert math.isfinite(f) and np.all(np.isfinite(prob.gradient(x, y)))


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


@st.composite
def grid_panels(draw):
    """A `ChannelSet` of 1 to 12 elements with every gain a multiple (0 to
    7, or a multiple of an earlier element's) of 10 * 2^-24, dead elements
    (both gains 0) and parallel ones among them, and powers of 1 to 100 mW."""
    g = 10.0 * 2.0 ** -24
    pairs = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["free", "dead", "parallel"]))
        if kind == "dead":
            pairs.append((0, 0))
        elif kind == "parallel" and pairs:
            base, m = draw(st.sampled_from(pairs)), draw(st.integers(1, 3))
            pairs.append((m * base[0], m * base[1]))
        else:
            pairs.append((draw(st.integers(0, 7)), draw(st.integers(0, 7))))
    hr, ht = (g * np.array(gains, dtype=float) for gains in zip(*pairs))
    ch = ChannelSet(h_los=g * draw(st.integers(0, 7)), h_reflect=hr, h_transmit=ht)
    p1, p2 = draw(st.floats(1e-3, 1e-1)), draw(st.floats(1e-3, 1e-1))
    return ch, replace(reference_scenario(), p1=p1, p2=p2)


class TestSpca:
    @settings(max_examples=200, deadline=None)
    @given(grid_panels())
    def test_es_and_ms_never_beat_the_exact_optimum(self, case):
        """ES and MS sum rates are at most the exact optimum (+1e-9
        relative) under both schemes. The reverse bound does not hold on
        such panels: ES can stop short of it (CHANGES `FOUND`)."""
        ch, sc = case
        for scheme in DetectorScheme:
            exact = vertex_enumerate(ch, sc, scheme).best_rates.sum
            for solve in (spca_optimize, mode_switching_optimize):
                assert solve(ch, sc, scheme).rates.sum <= exact * (1.0 + 1e-9)

    @pytest.mark.parametrize("scheme", [
        DetectorScheme.SUD,
        pytest.param(DetectorScheme.SIC, marks=pytest.mark.xfail(
            strict=True, reason="ES stops at beta = 1, short of the exact optimum")),
    ])
    def test_es_and_ms_reach_the_exact_optimum_on_the_reproducer(self, scheme):
        """The ES shortfall reproducer of ROADMAP aim 3. Under SIC, ES
        returns 1.364196e-4 at beta all ones and reports convergence; the
        exact optimum is 1.464103e-4. Under SUD both reach 1.464060e-4."""
        g = 10.0 * 2.0 ** -24
        ch = ChannelSet(h_los=3 * g, h_reflect=g * np.array([3.0, 4, 0, 7, 0, 5]),
                        h_transmit=g * np.array([0.0, 3, 4, 3, 0, 3]))
        sc = reference_scenario()
        sc = replace(sc, panel=replace(sc.panel, rows=1, cols=6),
                     p1=0.02277867760647677, p2=0.03390996153644736)
        exact = vertex_enumerate(ch, sc, scheme).best_rates.sum
        for solve in (spca_optimize, mode_switching_optimize):
            assert solve(ch, sc, scheme).rates.sum >= exact * (1.0 - 1e-9)

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


def paper_scale_panels(dead_elements):
    """The default scenario and seeded room panels at N = 80 and 1280,
    every third element dead if `dead_elements`."""
    rng = np.random.default_rng(3 if dead_elements else 4)
    shapes = [(10, 8), (40, 32)] * 3
    for sc in [reference_scenario(), *(random_scenario(rng, r, c) for r, c in shapes)]:
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
        however many coordinates it rounds: it scores each coordinate's two
        candidates with one `rates_from_gains` call each, from the carried
        gains, and makes no full rate evaluation per candidate."""
        calls = Counter()

        def counting(name):
            fn = getattr(spca, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        for name in ("rates_from_gains", "rate_pair"):
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
            rounded = int(np.sum(fractional(es.beta)))
            assert rounded > 0
            assert calls["rates_from_gains"] == es_calls["rates_from_gains"] + 2 * rounded
            assert calls["rate_pair"] == es_calls["rate_pair"] + 1

    @pytest.mark.parametrize("dead_elements", [False, True])
    @pytest.mark.parametrize("scheme", list(DetectorScheme))
    def test_es_optimum_is_binary_and_is_ms(self, scheme, dead_elements):
        """The paper's claim that ES and MS perform the same: on seeded room
        panels, at N = 80 and 1280 too, and on the default scenario, the ES
        optimum is already binary, so MS returns it as is, and both reach
        the exact optimum."""
        for sc, ch in [*room_panels(4, dead_elements), *paper_scale_panels(dead_elements)]:
            es = spca_optimize(ch, sc, scheme)
            assert not np.any(fractional(es.beta))
            ms = mode_switching_optimize(ch, sc, scheme)
            np.testing.assert_array_equal(ms.beta, es.beta)
            exact = vertex_enumerate(ch, sc, scheme).best_rates.sum
            assert abs(es.rates.sum - exact) <= 1e-9
            assert abs(ms.rates.sum - exact) <= 1e-9


def reference_pga(prob, objective, theta, beta0):
    """`spca._pga` before value-first trials, kept verbatim: every trial
    forms the step d, tests it for zero and forms the candidate's gradient
    before the Armijo test. The solvers must match it bitwise."""
    SETTINGS, _project = spca.SETTINGS, spca._project

    def fg(beta, theta):
        f, x, y = objective(beta, theta)
        return f, prob.gradient(x, y)

    beta = _project(np.asarray(beta0, dtype=float))
    f, g = fg(beta, theta)
    if beta.size == 0:
        return beta, f, True
    step = SETTINGS.step_init
    prev_beta = None
    prev_g = None
    for _ in range(SETTINGS.max_inner_iterations):
        pg = _project(beta + g) - beta
        if np.abs(pg).max() < SETTINGS.inner_tolerance:
            return beta, f, True
        if prev_beta is not None:
            db = beta - prev_beta
            dg = g - prev_g
            denom = float(db @ dg)
            if denom < 0.0:  # ascent: curvature along db should be negative
                step = float(db @ db) / (-denom)
            else:
                step = SETTINGS.step_init
            step = min(max(step, 1e-12), 1e12)
        accepted = False
        t = step
        for _bt in range(200):
            cand = _project(beta + t * g)
            d = cand - beta
            if np.abs(d).max() == 0.0:
                break
            fc, gc = fg(cand, theta)
            if fc >= f + SETTINGS.armijo_slope * float(g @ d):
                accepted = True
                break
            t *= SETTINGS.armijo_shrink
        if not accepted:
            # no ascent step found: treat as converged at a stationary point
            return beta, f, True
        prev_beta, prev_g = beta, g
        beta, f, g = cand, fc, gc
    return beta, f, False


# Acceptance criterion 5's powers (W), with max-min SIC on the default
# scenario at its hardest: at 0.013375 one inner solve stops unconverged at
# the iteration limit, at 0.05875 its inner solves run 80k+ trials.
CRITERION_5_POWERS = np.linspace(0.001, 0.1, 25)[[0, 3, 14]]


def value_first_panels(solve):
    """Seeded room panels with dead elements (for max-min up to N = 80,
    where it takes milliseconds, not seconds) and the default scenario at
    `CRITERION_5_POWERS`."""
    for sc, ch in room_panels(1, dead_elements=True):
        if solve is not max_min_optimize or ch.element_count <= 80:
            yield sc, ch
    for p in CRITERION_5_POWERS:
        sc = replace(reference_scenario(), p1=float(p), p2=float(p))
        yield sc, channel_set(sc)


def assert_bitwise_equal(a, b):
    assert a.beta.tobytes() == b.beta.tobytes()
    assert (a.rates, a.converged, a.iterations) == (b.rates, b.converged, b.iterations)
    assert [e.objective for e in getattr(a, "trace", [])] == \
        [e.objective for e in getattr(b, "trace", [])]


def count_inner_work(monkeypatch):
    """Record (trials, accepted steps, gradients formed) for each inner
    solve. Trials are the objective calls after the start's. A solve
    projects once at the start, once per trial and once per iteration's
    stationarity test, so its iterations are projections minus objective
    calls; every iteration but a converged solve's last moves beta. The
    objective is counted as `_pga` receives it, so each solver's own
    objective (the sum, one user's value or the min) counts alike."""
    counts = Counter()

    def counting(owner, name):
        fn = getattr(owner, name)

        def counted(*args):
            counts[name] += 1
            return fn(*args)
        monkeypatch.setattr(owner, name, counted)

    counting(spca, "_project")
    counting(_ReducedProblem, "gradient")
    pga = spca._pga
    solves = []

    def counted_pga(prob, objective, *args):
        counts.clear()

        def counted_objective(*point):
            counts["objective"] += 1
            return objective(*point)
        beta, f, converged = pga(prob, counted_objective, *args)
        values = counts["objective"]
        iterations = counts["_project"] - values
        solves.append((values - 1, iterations - int(converged), counts["gradient"]))
        return beta, f, converged
    monkeypatch.setattr(spca, "_pga", counted_pga)
    return solves


@st.composite
def box_steps(draw):
    """A point of the box with entries at 0 and 1, a gradient with mixed
    signs over many decades (zeros and subnormals among them) and a step
    length in the range `_pga` backtracks over: 1e12 down to 200 halvings
    of 1e-12."""
    n = draw(st.integers(1, 12))
    beta = draw(st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
                         min_size=n, max_size=n))
    decades = st.builds(lambda sign, m, e: sign * m * 10.0 ** e, st.sampled_from([-1.0, 1.0]),
                        st.floats(1.0, 10.0), st.integers(-300, 280))
    entry = st.one_of(st.just(0.0), st.floats(-1e-307, 1e-307), decades)
    g = draw(st.lists(entry, min_size=n, max_size=n))
    t = draw(st.floats(1e-12 * 2.0 ** -199, 1e12))
    return np.array(beta), np.array(g), t


class TestValueFirstTrials:
    @settings(max_examples=200, deadline=None)
    @given(box_steps())
    def test_projection_step_never_opposes_the_gradient(self, case):
        """The lemma `_pga`'s value-first trials rest on: the box projection
        never moves a coordinate against its gradient entry, so g @ d >= 0
        and a trial whose value fell fails the Armijo test."""
        beta, g, t = case
        d = spca._project(beta + t * g) - beta
        assert np.all(g * d >= 0.0)
        assert float(g @ d) >= 0.0

    @pytest.mark.parametrize("scheme", list(DetectorScheme))
    @pytest.mark.parametrize("solve", [spca_optimize, mode_switching_optimize,
                                       time_sharing_optimize, max_min_optimize],
                             ids=lambda solve: solve.__name__)
    def test_solvers_match_the_reference_loop(self, solve, scheme, monkeypatch):
        """The solver returns bitwise the same beta, rates, converged flag,
        iteration count and trace objectives as with the loop that forms
        each trial's step and gradient before its value test."""
        cases = list(value_first_panels(solve))
        fast = [solve(ch, sc, scheme) for sc, ch in cases]
        monkeypatch.setattr(spca, "_pga", reference_pga)
        for (sc, ch), result in zip(cases, fast):
            assert_bitwise_equal(result, solve(ch, sc, scheme))

    def test_gradients_only_at_accepted_steps(self, monkeypatch):
        """Each inner solve forms one gradient at its start and one per
        accepted step. On the default scenario, max-min under SIC rejects
        most trials, so they outnumber the gradients at least 10 to 1."""
        solves = count_inner_work(monkeypatch)
        for sc, ch in room_panels(1, dead_elements=True):
            if ch.element_count <= 80:
                for solve in (spca_optimize, time_sharing_optimize, max_min_optimize):
                    before = len(solves)
                    solve(ch, sc, DetectorScheme.SIC)
                    assert len(solves) > before
        sc = reference_scenario()
        before = len(solves)
        max_min_optimize(channel_set(sc), sc, DetectorScheme.SIC)
        assert len(solves) > before > 0
        for trials, accepted, gradients in solves:
            assert gradients == accepted + 1
        trials = sum(trial for trial, _, _ in solves[before:])
        gradients = sum(gradient for _, _, gradient in solves[before:])
        assert trials >= 10 * gradients


def reference_recover_auxiliaries(prob, beta):
    """`spca._recover_auxiliaries` before the single-`terms` outer loop, kept
    verbatim."""
    a, v2 = prob.terms(beta)
    v = np.sqrt(v2)
    u = np.where(v > 0.0, (a / v) ** 2, 0.0)
    return u, v


def reference_theta_update(u, v, theta_prev):
    """`spca._theta_update` before the single-`terms` outer loop, kept
    verbatim."""
    theta = np.empty(2)
    for k in range(2):
        if v[k] < 1e-30 or u[k] <= 0.0:
            theta[k] = theta_prev[k]
        else:
            theta[k] = math.sqrt(u[k]) / v[k]
    return theta


def reference_spca_loop(prob, objective, beta0):
    """`spca._spca_loop` before the single-`terms` outer loop, kept verbatim
    but for `prob.n`, which is `channels.element_count`, and for taking the
    problem and objective (it built them from the solver's `weights` and
    `minmax`): it recovers the auxiliaries, records a fully validated
    `sum_rate` and updates theta through the two helpers above. The solvers
    must match it bitwise."""
    SETTINGS, _start, _pga = spca.SETTINGS, spca._start, spca._pga
    channels, scenario, scheme = prob.channels, prob.scenario, prob.scheme
    theta = np.full(2, SETTINGS.theta_init)
    beta = _start(prob, beta0)
    trace = []
    prev = None  # (beta, u, v) of the previous outer iteration
    converged = False
    inner_ok = True
    iterations = 0
    for _m in range(SETTINGS.max_outer_iterations):
        beta, value, ok = _pga(prob, objective, theta, beta)
        inner_ok = inner_ok and ok
        iterations += 1
        u, v = reference_recover_auxiliaries(prob, beta)
        trace.append(spca.TraceEntry(objective=value,
                                     sum_rate=sum_rate(channels, beta, scenario, scheme),
                                     state=spca.SurrogateState(theta=theta.copy(), u=u, v=v)))
        if prev is not None:
            delta = max(
                float(np.max(np.abs(beta - prev[0]))) if channels.element_count else 0.0,
                float(np.max(np.abs(u - prev[1]))),
                float(np.max(np.abs(v - prev[2]))),
            )
            if delta < SETTINGS.tolerance:
                converged = True
                break
        prev = (beta.copy(), u.copy(), v.copy())
        theta = reference_theta_update(u, v, theta)
    rates = rate_pair(channels, beta, scenario, scheme)
    return spca.SpcaResult(beta=beta, rates=rates, trace=trace,
                           converged=converged and inner_ok, iterations=iterations)


class TestOuterLoop:
    @pytest.mark.parametrize("scheme", list(DetectorScheme))
    @pytest.mark.parametrize("solve", [spca_optimize, mode_switching_optimize,
                                       time_sharing_optimize, max_min_optimize],
                             ids=lambda solve: solve.__name__)
    def test_solvers_match_the_reference_outer_loop(self, solve, scheme, monkeypatch):
        """The solver returns bitwise the same beta, rates, converged flag,
        iteration count and trace objectives, thetas and auxiliaries as
        with the outer loop that recovers the auxiliaries and the trace's
        sum-rate separately; the trace's sum-rate, now the rates of the
        recovered SINRs, agrees to 1e-12."""
        cases = list(value_first_panels(solve))
        fast = [solve(ch, sc, scheme) for sc, ch in cases]
        loops = []

        def counted(*args):
            loops.append(args)
            return reference_spca_loop(*args)
        monkeypatch.setattr(spca, "_spca_loop", counted)
        for (sc, ch), result in zip(cases, fast):
            ref = solve(ch, sc, scheme)
            assert_bitwise_equal(result, ref)
            if isinstance(result, spca.TimeSharingResult):
                assert result.alpha == ref.alpha
                continue
            assert len(result.trace) == len(ref.trace) == result.iterations
            for entry, ref_entry in zip(result.trace, ref.trace):
                for field in ("theta", "u", "v"):
                    assert getattr(entry.state, field).tobytes() == \
                        getattr(ref_entry.state, field).tobytes()
                assert entry.sum_rate == pytest.approx(ref_entry.sum_rate, rel=1e-12, abs=0.0)
        starts = 6 if solve is time_sharing_optimize else 3
        assert len(loops) == starts * len(cases) > 0


class WeightedProblem(_ReducedProblem):
    """`_ReducedProblem` with the `weights` it took before each solver passed
    its own objective; `value_slopes` is its weighted combine, kept
    verbatim."""

    def __init__(self, channels, scenario, scheme, weights=(1.0, 1.0)):
        super().__init__(channels, scenario, scheme)
        self.weights = weights

    def value_slopes(self, beta, theta):
        """Weighted objective and its slopes (dF/dg1, dF/dg2)."""
        (f1, x1, y1), (f2, x2, y2) = self.user_values(beta, theta)
        w1, w2 = self.weights
        return w1 * f1 + w2 * f2, w1 * x1 + w2 * x2, w1 * y1 + w2 * y2


def reference_score(result, weights, minmax):
    """`spca._score` before each solver passed its own score, kept verbatim."""
    if minmax:
        return min(result.rates.r1, result.rates.r2)
    return weights[0] * result.rates.r1 + weights[1] * result.rates.r2


def reference_weighted_multistart(channels, scenario, scheme, weights=(1.0, 1.0),
                                  minmax=False):
    """`spca._spca_multistart` with its `weights` and `minmax` knobs, kept
    verbatim but for building a `WeightedProblem`."""
    prob = WeightedProblem(channels, scenario, scheme, weights)
    objective = prob.min_value_slopes if minmax else prob.value_slopes
    best = None
    for beta0 in (spca.SETTINGS.beta_init, 0.0, 1.0):
        result = spca._spca_loop(prob, objective, beta0)
        if best is None or (reference_score(result, weights, minmax)
                            > reference_score(best, weights, minmax)):
            best = result
    return best


def reference_time_sharing(channels, scenario, scheme, multistart):
    """`spca.time_sharing_optimize` on the weighted multistart, kept verbatim."""
    best_r1 = multistart(channels, scenario, scheme, weights=(1.0, 0.0))
    best_r2 = multistart(channels, scenario, scheme, weights=(0.0, 1.0))
    if best_r1.rates.r1 >= best_r2.rates.r2:
        win, alpha = best_r1, 1.0
    else:
        win, alpha = best_r2, 0.0
    return spca.TimeSharingResult(rates=win.rates, alpha=alpha, beta=win.beta,
                                  converged=best_r1.converged and best_r2.converged,
                                  iterations=best_r1.iterations + best_r2.iterations)


def reference_solver(solve, multistart, monkeypatch):
    """`solve` as it was on the weighted multistart `multistart`."""
    if solve is spca_optimize:
        return multistart
    if solve is max_min_optimize:
        return lambda ch, sc, scheme: multistart(ch, sc, scheme, minmax=True)
    if solve is time_sharing_optimize:
        return lambda ch, sc, scheme: reference_time_sharing(ch, sc, scheme, multistart)
    monkeypatch.setattr(spca, "spca_optimize", multistart)  # MS rounds the ES optimum
    return solve


def float_bytes(values):
    return np.array(values, dtype=float).tobytes()


class TestMultistart:
    @pytest.mark.parametrize("scheme", list(DetectorScheme))
    @pytest.mark.parametrize("solve", [spca_optimize, mode_switching_optimize,
                                       time_sharing_optimize, max_min_optimize],
                             ids=lambda solve: solve.__name__)
    def test_solvers_match_the_weighted_reference(self, solve, scheme, monkeypatch):
        """Each solver passing its own objective and score returns bitwise
        what the multistart with the `weights` and `minmax` knobs gave:
        beta, rates, flag, iterations, alpha and every trace entry's
        objective, sum-rate, theta and auxiliaries."""
        cases = list(value_first_panels(solve))
        fast = [solve(ch, sc, scheme) for sc, ch in cases]
        runs = []

        def counted(*args, **kwargs):
            runs.append(args)
            return reference_weighted_multistart(*args, **kwargs)
        reference = reference_solver(solve, counted, monkeypatch)
        for (sc, ch), result in zip(cases, fast):
            ref = reference(ch, sc, scheme)
            assert_bitwise_equal(result, ref)
            assert getattr(result, "alpha", None) == getattr(ref, "alpha", None)
            trace, ref_trace = getattr(result, "trace", []), getattr(ref, "trace", [])
            assert float_bytes([e.sum_rate for e in trace]) == \
                float_bytes([e.sum_rate for e in ref_trace])
            for entry, ref_entry in zip(trace, ref_trace):
                for field in ("theta", "u", "v"):
                    assert getattr(entry.state, field).tobytes() == \
                        getattr(ref_entry.state, field).tobytes()
        multistarts = 2 if solve is time_sharing_optimize else 1
        assert len(runs) == multistarts * len(cases) > 0


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


    @pytest.mark.parametrize("scheme", list(DetectorScheme))
    def test_winner_is_the_better_vertex_single_user_rate(self, scheme):
        """The winning rate is exactly max(R1 at beta = 1, R2 at beta = 0),
        alpha picks that argmax (ties to 1) and beta is binary: on seeded
        room panels with dead elements and on the default scenario over
        the power grid of acceptance criterion 5."""
        powers = np.linspace(0.001, 0.1, 25)
        grid = (replace(reference_scenario(), p1=float(p), p2=float(p)) for p in powers)
        cases = [*room_panels(2, dead_elements=True), *((sc, channel_set(sc)) for sc in grid)]
        for sc, ch in cases:
            n = ch.element_count
            r1 = rate_pair(ch, np.ones(n), sc, scheme).r1
            r2 = rate_pair(ch, np.zeros(n), sc, scheme).r2
            res = time_sharing_optimize(ch, sc, scheme)
            assert res.alpha == (1.0 if r1 >= r2 else 0.0)
            assert (res.rates.r1 if res.alpha == 1.0 else res.rates.r2) == max(r1, r2)
            assert set(np.unique(res.beta)) <= {0.0, 1.0}
        assert len(cases) == 33


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
        """The last trace entry's auxiliaries are those of the result: u is
        the exact SINR pair at its beta and v is positive."""
        for seed in range(14, 19):
            sc, ch = small_setup(seed=seed)
            for scheme in DetectorScheme:
                result = spca_optimize(ch, sc, scheme)
                state = result.trace[-1].state
                s1, s2 = sinr_from_gains(*effective_channels(ch, result.beta), sc, scheme)
                assert state.u[0] == pytest.approx(s1, rel=1e-10, abs=1e-30)
                assert state.u[1] == pytest.approx(s2, rel=1e-10, abs=1e-30)
                assert np.all(state.v > 0.0)
