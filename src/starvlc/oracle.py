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
- Edge fact: along a chain edge H1 rises and H2 falls linearly, and the
  sum rate peaks at an end. Write x = a1·H1/σ, y = a2·H2/σ, X = x², Y = y²
  and c = e/2π, and let subscripts denote partial derivatives. Then
  2·ln2·(R1 + R2) = L(x, y), where
      SIC: L = ln(1 + cX) + ln(1 + X + cY) - ln(1 + X),
      SUD: L = ln(1 + Y + cX) + ln(1 + X + cY) - ln(1 + Y) - ln(1 + X).
  Along an edge (x, y) = (x0 + p·s, y0 - q·s) with p, q >= 0, not both 0,
  so φ(s) = L has φ' = p·L_x - q·L_y and φ'' = p²·L_xx - 2pq·L_xy + q²·L_yy.
  Inside an edge x > 0 and y > 0, since x only rises and y only falls.
  SIC (proven): L_y = 2y·c/(1 + X + cY) > 0, and L_x = 2x·L_X has the sign
  of (1 + X)² - (1 - c)·Y, which rises with x.
  - p = 0: φ' = -q·L_y < 0, so φ falls.
  - q = 0: φ' = p·L_x changes sign at most once, from - to +, so φ falls,
    then rises.
  - p, q > 0: at a critical point p·L_x = q·L_y > 0, so (p, q) = k·(L_y, L_x)
    with k > 0 and φ'' = k²·Q, where
      Q = L_y²·L_xx - 2·L_x·L_y·L_xy + L_x²·L_yy
        = 8c³·P / ((1 + X)²·(1 + cX)²·(1 + X + cY)³),
    with, in Python syntax,
      P = X*(1 + X)**4 + (1 + (5 - c)*X + (7 - c)*X**2 + (3 + c)*X**3 + c*X**4)*Y
          - (1 - c)*(1 - 2*c*X - 3*c*X**2)*Y**2.
    L_x > 0 means Y = t·(1 + X)²/(1 - c) for some 0 < t < 1. Substituted,
    (1 - c)²·P = q_0 + q_1·X + ... + q_6·X⁶ with
      q_0 = (1 - c)·t·(1 - t),
      q_1 = (1 - c)·((1 - c) + (7 - c)·t - (4 - 2c)·t²),
      q_2 = (1 - c)·(4(1 - c) + (18 - 3c)·t - (6 - 11c)·t²),
      q_3 = 2(1 - c)·(3(1 - c) + (11 - c)·t + (12c - 2)·t²),
      q_4 = (1 - c)·(4(1 - c) + (13 + 2c)·t + (26c - 1)·t²),
      q_5 = (1 - c)·((1 - c) + 3(1 + c)·t + 14c·t²),
      q_6 = (1 - c)·c·t·(1 + 3t).
    c is about 0.433, so 4 - 2c, 6 - 11c, 12c - 2 and 26c - 1 are positive,
    and t² < t gives q_1 > (1 - c)·((1 - c) + (3 + c)·t) and
    q_2 > (1 - c)·(4(1 - c) + (12 + 8c)·t). Every q_i > 0, so P > 0 and
    Q > 0: each critical point inside the edge is a strict local minimum.
  In each case φ peaks at an end. tests/test_oracle.py evaluates this P
  against a central-difference Q.
  SUD (checked numerically, not proven): see
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

    `a1`, `a2` are `Scenario.amplitudes`, rho * p_k; the gains must be
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
    start = time.perf_counter()
    beta, _val, evaluations = enumerate_vertices(
        channels.h_los, channels.h_reflect, channels.h_transmit, *scenario.amplitudes,
        scenario.noise_variance, scheme is DetectorScheme.SIC)
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
