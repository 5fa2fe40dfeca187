import math

import numpy as np
import pytest

from starvlc import LambertianSource, OrientedPoint, RisPanel, build_ris_grid, lambertian_order
from starvlc.geometry import panel_axes


class TestLambertianOrder:
    def test_60_degrees_gives_order_one(self):
        assert lambertian_order(math.radians(60.0)) == pytest.approx(1.0, rel=1e-12)

    def test_45_degrees_gives_order_two(self):
        assert lambertian_order(math.radians(45.0)) == pytest.approx(2.0, rel=1e-12)

    def test_30_degrees(self):
        # independent one-line evaluation of the defining formula
        expected = -math.log(2.0) / math.log(math.cos(math.radians(30.0)))
        got = lambertian_order(math.radians(30.0))
        assert got == pytest.approx(expected, rel=1e-15)
        assert got == pytest.approx(4.81884167930642, rel=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -0.1, math.pi / 2, 2.0])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            lambertian_order(bad)

    def test_strictly_decreasing_in_half_angle(self):
        # wider beams concentrate less power on-axis: smaller order
        angles = np.linspace(0.05, math.pi / 2 - 0.05, 50)
        orders = [lambertian_order(a) for a in angles]
        assert all(b < a for a, b in zip(orders, orders[1:]))
        assert all(m > 0 for m in orders)


class TestRisGrid:
    def test_single_element_at_center(self):
        panel = RisPanel(center=[5.0, 2.5, 1.5], rows=1, cols=1)
        grid = build_ris_grid(panel)
        assert grid.shape == (1, 3)
        np.testing.assert_allclose(grid[0], [5.0, 2.5, 1.5])

    def test_1x2_symmetric_about_center(self):
        p = 0.2
        panel = RisPanel(center=[5.0, 2.5, 1.5], rows=1, cols=2, pitch=p)
        grid = build_ris_grid(panel)
        np.testing.assert_allclose(grid[0], [5.0, 2.5 - p / 2, 1.5])
        np.testing.assert_allclose(grid[1], [5.0, 2.5 + p / 2, 1.5])

    def test_default_panel_matches_meshgrid_oracle(self):
        panel = RisPanel(center=[5.0, 2.5, 1.5], rows=10, cols=8, pitch=0.1)
        grid = build_ris_grid(panel)
        assert grid.shape == (80, 3)
        # independent enumeration: row-major over (z, y) offsets
        ys = 2.5 + (np.arange(8) - 3.5) * 0.1
        zs = 1.5 + (np.arange(10) - 4.5) * 0.1
        expected = np.array([[5.0, y, z] for z in zs for y in ys])
        np.testing.assert_allclose(grid, expected, atol=1e-12)
        # coplanar wall panel spanning 0.7 m x 0.9 m
        assert np.all(grid[:, 0] == 5.0)
        assert grid[:, 1].max() - grid[:, 1].min() == pytest.approx(0.7)
        assert grid[:, 2].max() - grid[:, 2].min() == pytest.approx(0.9)

    def test_centroid_is_panel_center(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            panel = RisPanel(
                center=rng.uniform(-3, 3, size=3),
                rows=int(rng.integers(1, 7)),
                cols=int(rng.integers(1, 7)),
                pitch=float(rng.uniform(0.01, 0.5)),
            )
            grid = build_ris_grid(panel)
            np.testing.assert_allclose(grid.mean(axis=0), panel.center, atol=1e-9)

    def test_ceiling_panel_lies_in_its_plane(self):
        # A normal along z takes panel_axes' non-wall branch.
        panel = RisPanel(center=[5.0, 2.5, 3.0], rows=3, cols=4, pitch=0.2, normal=[0, 0, 1])
        col_axis, row_axis = panel_axes(panel)
        axes = np.stack([col_axis, row_axis, panel.normal])
        np.testing.assert_allclose(axes @ axes.T, np.eye(3), atol=1e-12)
        grid = build_ris_grid(panel)
        assert grid.shape == (12, 3)
        np.testing.assert_array_equal(grid[:, 2], np.full(12, 3.0))
        np.testing.assert_allclose(grid.mean(axis=0), panel.center, atol=1e-12)

    def test_empty_panel(self):
        panel = RisPanel(center=[5.0, 2.5, 1.5], rows=0, cols=8)
        assert build_ris_grid(panel).shape == (0, 3)

    def test_invalid_panel(self):
        with pytest.raises(ValueError):
            RisPanel(center=[0, 0, 0], rows=-1, cols=2)
        with pytest.raises(ValueError):
            RisPanel(center=[0, 0, 0], rows=2, cols=2, pitch=0.0)


class TestOrientedPoint:
    def test_requires_unit_normal(self):
        with pytest.raises(ValueError):
            OrientedPoint([0, 0, 0], [0, 0, 2.0])

    def test_rejects_a_position_that_is_not_a_3_vector(self):
        with pytest.raises(ValueError, match="expected a 3-vector"):
            OrientedPoint([1.0, 2.0], [0, 0, 1])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="non-finite"):
            OrientedPoint([1.0, math.nan, 0.0], [0.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="non-finite"):
            OrientedPoint([1.0, 0.0, 0.0], [0.0, 0.0, math.inf])
