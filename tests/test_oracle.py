import itertools
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import starvlc.oracle
from starvlc import (
    ChannelSet,
    DetectorScheme,
    channel_set,
    coordinate_scan,
    sum_rate,
    vertex_enumerate,
)
from starvlc.link import RATE_SINR_SCALE, _sinrs
from util import random_scenario, reference_scenario


def naive_best(ch, sc, scheme):
    """Slow reference: evaluate every binary vector via itertools."""
    n = ch.element_count
    best = None
    for bits in itertools.product([0.0, 1.0], repeat=n):
        beta = np.array(bits)
        val = sum_rate(ch, beta, sc, scheme)
        # tie-break toward the lexicographically smallest vector
        if best is None or val > best[0] + 1e-18:
            best = (val, beta)
    return best


def live_count(ch):
    return int(np.count_nonzero((ch.h_reflect != 0.0) | (ch.h_transmit != 0.0)))


class TestVertexEnumerate:
    @pytest.mark.parametrize("scheme", [DetectorScheme.SUD, DetectorScheme.SIC])
    def test_matches_naive_enumeration(self, scheme):
        rng = np.random.default_rng(2718)
        for _ in range(8):
            sc = random_scenario(rng, rows=2, cols=3)
            ch = channel_set(sc)
            report = vertex_enumerate(ch, sc, scheme)
            ref_val, _ = naive_best(ch, sc, scheme)
            assert report.best_rates.sum == pytest.approx(ref_val, rel=1e-12)
            assert report.evaluations == live_count(ch) + 1
            got = sum_rate(ch, report.best_beta, sc, scheme)
            assert got == pytest.approx(report.best_rates.sum, rel=1e-14)

    def test_synthetic_channels_exact(self):
        # One strong reflect element, one strong transmit element: the
        # optimum keeps each element serving its own user.
        sc = reference_scenario()
        sc = replace(sc, panel=replace(sc.panel, rows=1, cols=2))
        ch = ChannelSet(h_los=5e-5, h_reflect=[4e-5, 1e-7], h_transmit=[1e-7, 4e-5])
        report = vertex_enumerate(ch, sc, DetectorScheme.SIC)
        np.testing.assert_array_equal(report.best_beta, [1.0, 0.0])

    def test_dead_elements_set_to_one(self):
        # Dead elements leave the rate unchanged at every vertex: the walk
        # evaluates beta = 0 alone and sets them to 1.
        sc = reference_scenario()
        sc = replace(sc, panel=replace(sc.panel, rows=1, cols=3))
        ch = ChannelSet(h_los=5e-5, h_reflect=[0.0, 0.0, 0.0], h_transmit=[0.0, 0.0, 0.0])
        for scheme in DetectorScheme:
            report = vertex_enumerate(ch, sc, scheme)
            np.testing.assert_array_equal(report.best_beta, [1.0, 1.0, 1.0])
            assert report.evaluations == 1

    def test_paper_scale_panel(self):
        """No size cap: the default 80-element panel returns a binary
        optimum after N_live + 1 evaluations (tests/test_spca.py checks its
        value against ES and MS)."""
        sc = reference_scenario()
        ch = channel_set(sc)
        for scheme in DetectorScheme:
            report = vertex_enumerate(ch, sc, scheme)
            assert report.evaluations == live_count(ch) + 1
            assert set(np.unique(report.best_beta)) <= {0.0, 1.0}

    def test_report_bookkeeping(self):
        rng = np.random.default_rng(5)
        sc = random_scenario(rng, rows=2, cols=2)
        ch = channel_set(sc)
        report = vertex_enumerate(ch, sc, DetectorScheme.SUD)
        assert report.evaluations == live_count(ch) + 1
        assert report.runtime >= 0.0
        assert report.best_beta.shape == (4,)
        assert set(np.unique(report.best_beta)) <= {0.0, 1.0}


def small_panel():
    """A seeded 1 x 3 room panel and a random `beta_star`."""
    rng = np.random.default_rng(10)
    sc = random_scenario(rng, rows=1, cols=3)
    return sc, channel_set(sc), rng.uniform(0, 1, size=3)


def dead_third_panel():
    """A seeded 8 x 10 room panel with every third element dead, and a
    fractional `beta_star`."""
    rng = np.random.default_rng(11)
    sc = random_scenario(rng, rows=8, cols=10)
    ch = channel_set(sc)
    hr, ht = ch.h_reflect.copy(), ch.h_transmit.copy()
    hr[::3] = ht[::3] = 0.0
    ch = ChannelSet(h_los=ch.h_los, h_reflect=hr, h_transmit=ht)
    return sc, ch, rng.uniform(0.05, 0.95, size=80)


class TestCoordinateScan:
    def test_shapes_and_grid(self):
        rng = np.random.default_rng(9)
        sc = random_scenario(rng, rows=2, cols=2)
        ch = channel_set(sc)
        values, argmax = coordinate_scan(ch, sc, DetectorScheme.SIC,
                                         np.full(4, 0.5), grid_points=11)
        assert values.shape == (4, 11)
        assert argmax.shape == (4,)
        assert np.all((argmax >= 0.0) & (argmax <= 1.0))

    @pytest.mark.parametrize("panel, scheme, grid_points", [
        (small_panel, DetectorScheme.SUD, 5),
        (dead_third_panel, DetectorScheme.SUD, 11),
        (dead_third_panel, DetectorScheme.SIC, 11),
    ])
    def test_matches_direct_evaluation(self, panel, scheme, grid_points):
        sc, ch, beta_star = panel()
        values, _ = coordinate_scan(ch, sc, scheme, beta_star, grid_points=grid_points)
        grid = np.linspace(0, 1, grid_points)
        for i in range(ch.element_count):
            for j, b in enumerate(grid):
                beta = beta_star.copy()
                beta[i] = b
                assert values[i, j] == pytest.approx(sum_rate(ch, beta, sc, scheme), rel=1e-14)
        dead = (ch.h_reflect == 0.0) & (ch.h_transmit == 0.0)
        assert np.all(np.ptp(values[dead], axis=1) == 0.0)

    def test_scan_works_from_the_gains(self, monkeypatch):
        """One `effective_channels` call at `beta_star`, then one
        `rates_from_gains` call per grid value and no `rate_pair` call."""
        calls = Counter()
        for name in ("rates_from_gains", "effective_channels", "rate_pair"):
            def counted(*args, _name=name, _fn=getattr(starvlc.oracle, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(starvlc.oracle, name, counted)
        sc, ch, beta_star = dead_third_panel()
        coordinate_scan(ch, sc, DetectorScheme.SIC, beta_star, grid_points=11)
        assert calls["rates_from_gains"] == ch.element_count * 11
        assert calls["effective_channels"] == 1
        assert calls["rate_pair"] == 0

    def test_dead_coordinate_scan_is_constant(self):
        sc = reference_scenario()
        sc = replace(sc, panel=replace(sc.panel, rows=1, cols=2))
        ch = ChannelSet(h_los=5e-5, h_reflect=[3e-5, 0.0], h_transmit=[2e-5, 0.0])
        values, _ = coordinate_scan(ch, sc, DetectorScheme.SIC, [0.5, 0.5], grid_points=21)
        assert np.ptp(values[1]) == 0.0
        assert np.ptp(values[0]) > 0.0

    def test_grid_points_validation(self):
        sc = reference_scenario()
        ch = channel_set(sc)
        with pytest.raises(ValueError):
            coordinate_scan(ch, sc, DetectorScheme.SIC, np.zeros(80), grid_points=2)


def docstring_p():
    """The polynomial P of `oracle`'s edge-fact proof, as its docstring
    writes it: the line `P = ...` and the lines continuing it."""
    lines = iter(starvlc.oracle.__doc__.splitlines())
    text = next(line for line in lines if line.strip().startswith("P = ")).split("=", 1)[1]
    for line in lines:
        if not line.strip().startswith(("+ ", "- ")):
            break
        text += line
    return text.strip().rstrip(".")


def evaluate_p(text, X, Y):
    return eval(text, {}, {"X": X, "Y": Y, "c": RATE_SINR_SCALE})


def sic_q_terms(x, y):
    """The three terms of Q = L_y²·L_xx - 2·L_x·L_y·L_xy + L_x²·L_yy, by
    central differences (steps 1e-3 relative) of L = 2·ln2·(R1 + R2) under
    SIC with x = a1·H1/σ, y = a2·H2/σ (so σ = 1 and the powers are x², y²)."""
    hx, hy = 1e-3 * x, 1e-3 * y

    def L(i, j):
        sinr1, sinr2 = _sinrs((x + i * hx) ** 2, (y + j * hy) ** 2, 1.0, True)
        return np.log1p(RATE_SINR_SCALE * sinr1) + np.log1p(RATE_SINR_SCALE * sinr2)
    lx = (L(1, 0) - L(-1, 0)) / (2 * hx)
    ly = (L(0, 1) - L(0, -1)) / (2 * hy)
    lxx = (L(1, 0) - 2 * L(0, 0) + L(-1, 0)) / hx**2
    lyy = (L(0, 1) - 2 * L(0, 0) + L(0, -1)) / hy**2
    lxy = (L(1, 1) - L(1, -1) - L(-1, 1) + L(-1, -1)) / (4 * hx * hy)
    return np.array([ly**2 * lxx, -2 * lx * ly * lxy, lx**2 * lyy])


class TestEdgeFactProof:
    """The SIC half of `oracle`'s edge-fact proof, in floats."""

    def q_mismatch(self, text):
        """The largest gap between 8c³·P/den and the central-difference Q at
        1000 random points, x and y log-uniform in [0.1, 10], relative to the
        size of Q's three terms."""
        rng = np.random.default_rng(2024)
        x, y = 10.0 ** rng.uniform(-1.0, 1.0, (2, 1000))
        X, Y, c = x**2, y**2, RATE_SINR_SCALE
        terms = sic_q_terms(x, y)
        q = 8 * c**3 * evaluate_p(text, X, Y) / ((1 + X) ** 2 * (1 + c * X) ** 2
                                                  * (1 + X + c * Y) ** 3)
        return float(np.max(np.abs(terms.sum(axis=0) - q) / np.abs(terms).sum(axis=0)))

    def test_p_matches_a_central_difference_q(self):
        assert self.q_mismatch(docstring_p()) < 1e-3

    def test_p_is_positive_where_l_x_is(self):
        """P > 0 where (1 + X)² > (1 - c)·Y: on Y = t·(1 + X)²/(1 - c)."""
        rng = np.random.default_rng(7)
        X = 10.0 ** rng.uniform(-3.0, 3.0, 10_000)
        t = rng.uniform(1e-3, 1.0 - 1e-3, 10_000)
        Y = t * (1 + X) ** 2 / (1 - RATE_SINR_SCALE)
        assert np.all(evaluate_p(docstring_p(), X, Y) > 0.0)

    def test_a_changed_coefficient_fails_the_match(self):
        """Each integer of the written P, raised by 1, breaks the match, so
        the match checks every coefficient (and exponent)."""
        text = docstring_p()
        numbers = list(re.finditer(r"\d+", text))
        assert len(numbers) == 15
        for number in numbers:
            changed = text[:number.start()] + str(int(number.group()) + 1) + text[number.end():]
            assert self.q_mismatch(changed) > 1e-2, changed
