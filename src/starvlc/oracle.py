"""Ground-truth solvers: the exact sum-rate optimum over the coefficient
box, found by walking the outer chain of the (H1, H2) zonotope at any N, and
per-coordinate sum-rate scans."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ._kernels import enumerate_vertices
from .channel import ChannelSet, Scenario
from .link import DetectorScheme, RatePair, rate_pair, sum_rate


@dataclass(frozen=True)
class OracleReport:
    best_beta: np.ndarray
    best_rates: RatePair
    evaluations: int
    runtime: float


def vertex_enumerate(channels: ChannelSet, scenario: Scenario,
                     scheme: DetectorScheme) -> OracleReport:
    """The exact sum-rate optimum over [0, 1]^N, at a binary beta.

    Evaluates the N_live + 1 vertices of the outer chain (see
    `starvlc._kernels`). Dead elements are set to 1; among tied vertices the
    first along the walk wins.
    """
    rho = scenario.front_end.responsivity
    start = time.perf_counter()
    beta, _val, evaluations = enumerate_vertices(
        channels.h_los,
        channels.h_reflect,
        channels.h_transmit,
        rho * scenario.p1,
        rho * scenario.p2,
        scenario.noise_variance,
        scheme is DetectorScheme.SIC,
    )
    runtime = time.perf_counter() - start
    return OracleReport(
        best_beta=beta,
        best_rates=rate_pair(channels, beta, scenario, scheme),
        evaluations=evaluations,
        runtime=runtime,
    )


def coordinate_scan(channels: ChannelSet, scenario: Scenario, scheme: DetectorScheme,
                    beta_star, grid_points: int = 101) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate sum-rate scans around a reference point.

    For each coordinate i, all others are held at `beta_star` and the exact
    sum-rate is evaluated on a uniform grid over [0, 1]. Returns
    (values, argmax) where `values` has shape (N, grid_points) and `argmax`
    holds the grid value maximizing each coordinate's scan.
    """
    if grid_points < 3:
        raise ValueError(f"grid_points must be >= 3, got {grid_points}")
    beta_star = np.asarray(beta_star, dtype=float)
    n = channels.element_count
    grid = np.linspace(0.0, 1.0, grid_points)
    values = np.empty((n, grid_points))
    argmax = np.empty(n)
    for i in range(n):
        beta = beta_star.copy()
        for j, b in enumerate(grid):
            beta[i] = b
            values[i, j] = sum_rate(channels, beta, scenario, scheme)
        argmax[i] = grid[int(np.argmax(values[i]))]
    return values, argmax
