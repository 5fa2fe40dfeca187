"""Ground-truth solvers: the exact sum-rate optimum over the coefficient
box, found by walking the outer chain of the (H1, H2) zonotope at any N, and
per-coordinate sum-rate scans."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ._kernels import enumerate_vertices
from .channel import ChannelSet, Scenario
from .link import DetectorScheme, RatePair, effective_channels, rate_pair, rates_from_gains


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
    sum-rate is evaluated on a uniform grid over [0, 1]. Setting beta[i] to b
    moves the gains (H1, H2) of `beta_star` by (b - beta_star[i]) times the
    element's generator (h_reflect[i], -h_transmit[i]), so a scan costs
    O(N * grid_points). Returns (values, argmax) where `values` has shape
    (N, grid_points) and `argmax` holds the grid value maximizing each
    coordinate's scan.
    """
    if grid_points < 3:
        raise ValueError(f"grid_points must be >= 3, got {grid_points}")
    h1, h2 = effective_channels(channels, beta_star)
    grid = np.linspace(0.0, 1.0, grid_points)
    moves = grid - np.asarray(beta_star, dtype=float)[:, None]
    gains = zip((h1 + moves * channels.h_reflect[:, None]).ravel().tolist(),
                (h2 - moves * channels.h_transmit[:, None]).ravel().tolist())
    values = np.array([rates_from_gains(g1, g2, scenario, scheme).sum for g1, g2 in gains])
    values = values.reshape(moves.shape)
    return values, grid[np.argmax(values, axis=1)]
