import itertools
from dataclasses import replace

import numpy as np
import pytest

from starvlc import (
    ChannelSet,
    DetectorScheme,
    channel_set,
    coordinate_scan,
    sum_rate,
    vertex_enumerate,
)
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

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(10)
        sc = random_scenario(rng, rows=1, cols=3)
        ch = channel_set(sc)
        beta_star = rng.uniform(0, 1, size=3)
        values, _ = coordinate_scan(ch, sc, DetectorScheme.SUD, beta_star, grid_points=5)
        grid = np.linspace(0, 1, 5)
        for i in range(3):
            for j, b in enumerate(grid):
                beta = beta_star.copy()
                beta[i] = b
                assert values[i, j] == pytest.approx(
                    sum_rate(ch, beta, sc, DetectorScheme.SUD), rel=1e-14)

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
