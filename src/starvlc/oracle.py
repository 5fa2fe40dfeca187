"""Ground-truth solvers: the exact sum-rate optimum over the coefficient
box at any N, and per-coordinate sum-rate scans.

Rates depend on `beta` only through H1 = h_los + beta·hr and
H2 = sum(ht) - beta·ht, so the box maps onto a planar zonotope with
generators (hr_i, -ht_i) (Ziegler, *Lectures on Polytopes*, 1995, Lecture 7).
`enumerate_vertices` sorts the live generators by arctan2(ht_i, hr_i) and
takes prefix sums from beta = 0: a concave chain from beta = 0 to beta = 1,
the zonotope's upper boundary. Dead elements (both gains 0) are set to 1.

Why its best vertex is optimal over the box and over the binary vectors:
- Radial fact (proven): the gains are nonnegative, so scaling (H1, H2) up
  raises both SINRs, under SUD and SIC alike. A ray from the origin, on
  which H1 and H2 both rise, leaves the zonotope across the upper chain, so
  the optimum lies on that chain.
- Edge fact (checked numerically, not proven): along a chain edge H1 rises
  and H2 falls linearly, and the sum rate peaks at an end. See
  tests/test_link.py::test_sum_rate_peaks_at_a_segment_end and the per-edge
  check in tests/test_kernels.py.
Chain vertices are binary. The walk ranks them by the SINRs of `link`'s
rule, which also gives the rates `vertex_enumerate` reports. The tests hold
it to a Gray-code enumeration of all 2^N binary vectors,
tests/gray_reference.py.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet, Scenario
from .link import (RATE_SINR_SCALE, DetectorScheme, RatePair, _sinrs, effective_channels,
                   rate_pair, rates_from_gains)


def enumerate_vertices(h_los, hr, ht, a1, a2, sigma2, sic):
    """Exact sum-rate maximization by the walk along the outer chain.

    `a1`, `a2` are responsivity * power per user; the gains must be
    nonnegative. Returns (best_beta, best_value, evaluations): `best_beta`
    is the first maximum along the walk, 1 at dead elements, and
    `evaluations` counts the chain vertices, N_live + 1.
    """
    hr = np.asarray(hr, dtype=float)
    ht = np.asarray(ht, dtype=float)
    live = np.flatnonzero((hr != 0.0) | (ht != 0.0))
    order = live[np.argsort(np.arctan2(ht[live], hr[live]), kind="stable")]
    h1 = h_los + np.concatenate(([0.0], np.cumsum(hr[order])))
    h2 = float(ht.sum()) - np.concatenate(([0.0], np.cumsum(ht[order])))
    # Same expression as the Gray-code reference, so the values agree.
    t1, t2 = _sinrs((a1 * h1) ** 2, (a2 * h2) ** 2, sigma2, sic)
    val = 0.5 * (np.log2(1.0 + RATE_SINR_SCALE * t1) + np.log2(1.0 + RATE_SINR_SCALE * t2))
    k = int(np.argmax(val))
    beta = np.ones(len(hr))
    beta[order[k:]] = 0.0
    return beta, float(val[k]), len(val)


@dataclass(frozen=True)
class OracleReport:
    best_beta: np.ndarray
    best_rates: RatePair
    evaluations: int
    runtime: float


def vertex_enumerate(channels: ChannelSet, scenario: Scenario,
                     scheme: DetectorScheme) -> OracleReport:
    """The exact sum-rate optimum over [0, 1]^N, at a binary beta.

    Evaluates the N_live + 1 vertices of the outer chain (module docstring).
    Dead elements are set to 1; among tied vertices the first along the walk
    wins.
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
