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
from starvlc.spca import _ReducedProblem
from util import random_scenario, reference_scenario


def small_setup(seed=0, rows=2, cols=3):
    rng = np.random.default_rng(seed)
    sc = random_scenario(rng, rows=rows, cols=cols)
    return sc, channel_set(sc)


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

    def test_invalid_theta_rejected(self):
        sc, ch = small_setup()
        with pytest.raises(ValueError):
            reduced_objective(np.zeros(ch.element_count), [0.0, 1.0], ch, sc,
                              DetectorScheme.SUD)


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
    def test_rounding_matches_reference_at_es_optimum(self, scheme):
        """Bitwise the reference's beta. Panels whose elements see no light
        (both gains 0) keep those elements fractional at the ES optimum;
        they must round to 1, the tie rule. Seed 0's 20 x 16 panel leaves
        over 100 coordinates fractional."""
        tied = 0
        for seed, (rows, cols) in enumerate([(20, 16), (2, 3), (4, 4), (10, 8)] * 2):
            sc = random_scenario(np.random.default_rng(seed), rows, cols)
            ch = channel_set(sc)
            if seed % 2:
                ch = with_dead_elements(ch)
            es = spca_optimize(ch, sc, scheme).beta
            ms = mode_switching_optimize(ch, sc, scheme).beta
            np.testing.assert_array_equal(ms, reference_rounding(ch, sc, scheme, es))
            dead = (ch.h_reflect == 0.0) & (ch.h_transmit == 0.0)
            assert np.all(ms[dead & fractional(es)] == 1.0)
            tied += int(np.sum(dead & fractional(es)))
            if seed == 0:
                assert np.sum(fractional(es)) >= 100
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
        sc = random_scenario(np.random.default_rng(0), rows, cols)
        ch = with_dead_elements(channel_set(sc))
        for scheme in DetectorScheme:
            calls.clear()
            es = spca_optimize(ch, sc, scheme)
            es_calls = calls.copy()
            calls.clear()
            mode_switching_optimize(ch, sc, scheme)
            assert np.sum(fractional(es.beta)) > 0
            assert calls["sum_rate"] <= es_calls["sum_rate"]
            assert calls["rate_pair"] == es_calls["rate_pair"] + 1


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
