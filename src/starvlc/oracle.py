"""Ground-truth solvers for small panels: exhaustive enumeration of every
binary coefficient vector, in numpy blocks, and per-coordinate sum-rate
scans."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ._kernels import enumerate_vertices
from .channel import ChannelSet, Scenario
from .link import DetectorScheme, RatePair, rate_pair, sum_rate

# 2^24 ~ 16M vertex evaluations: a few tenths of a second per call.
MAX_ENUM_ELEMENTS = 24


@dataclass(frozen=True)
class OracleReport:
    best_beta: np.ndarray
    best_rates: RatePair
    evaluations: int
    runtime: float


def mask_to_beta(mask: int, n: int) -> np.ndarray:
    return np.array([(mask >> i) & 1 for i in range(n)], dtype=float)


def vertex_enumerate(channels: ChannelSet, scenario: Scenario,
                     scheme: DetectorScheme) -> OracleReport:
    """Evaluate the exact sum-rate at every binary coefficient vector.

    Ties are broken toward the lexicographically smallest beta. Panels above
    MAX_ENUM_ELEMENTS elements are rejected; use the SPCA solver for those.
    """
    n = channels.element_count
    if n > MAX_ENUM_ELEMENTS:
        raise ValueError(
            f"vertex enumeration is capped at {MAX_ENUM_ELEMENTS} elements "
            f"(got {n}); use the SPCA solver for larger panels"
        )
    rho = scenario.front_end.responsivity
    start = time.perf_counter()
    mask, _val, evaluations = enumerate_vertices(
        channels.h_los,
        np.ascontiguousarray(channels.h_reflect),
        np.ascontiguousarray(channels.h_transmit),
        rho * scenario.p1,
        rho * scenario.p2,
        scenario.noise_variance,
        scheme is DetectorScheme.SIC,
    )
    runtime = time.perf_counter() - start
    beta = mask_to_beta(mask, n)
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
