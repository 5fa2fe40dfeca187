"""No library call writes into an array it was given or has returned.

The inner solve builds its trial candidates and its stationarity test in
place (`spca._pga`, `spca._project`), and it may return its start vector
unchanged. These tests hold the bytes of every array a caller can see (the
channel gains, a `beta` passed in, every `beta` returned) across all the
solvers, the subproblem, the oracle and the rate functions, and check that
none of them moved.
"""

from dataclasses import replace

import numpy as np
import pytest

from starvlc import (
    ChannelSet,
    DetectorScheme,
    channel_set,
    coordinate_scan,
    effective_channels,
    max_min_optimize,
    mode_switching_optimize,
    rate_pair,
    reduced_objective,
    solve_subproblem,
    spca_optimize,
    time_sharing_optimize,
    vertex_enumerate,
)
from starvlc import spca
from util import random_scenario

SOLVERS = (spca_optimize, mode_switching_optimize, time_sharing_optimize, max_min_optimize)
THETAS = ((spca.SETTINGS.theta_init,) * 2, (3.0, 0.5))


class Held:
    """Arrays with the bytes they held when first seen."""

    def __init__(self):
        self.arrays = []

    def hold(self, array):
        self.arrays.append((array, array.tobytes()))
        return array

    def assert_unchanged(self):
        assert self.arrays
        for k, (array, before) in enumerate(self.arrays):
            assert array.tobytes() == before, f"array {k} was written"


def panels():
    """Seeded room panels of 6, 16 and 80 elements, each as `channel_set`
    builds it (a 50 degree FOV leaves some elements dead) and with every
    third element's gains zeroed on top."""
    rng = np.random.default_rng(26)
    for rows, cols in [(2, 3), (4, 4), (10, 8)]:
        sc = random_scenario(rng, rows, cols)
        sc = replace(sc, front_end=replace(sc.front_end, fov_deg=50.0))
        ch = channel_set(sc)
        hr, ht = ch.h_reflect.copy(), ch.h_transmit.copy()
        hr[::3] = ht[::3] = 0.0
        yield sc, ch
        yield sc, ChannelSet(ch.h_los, hr, ht)


@pytest.mark.parametrize("scheme", list(DetectorScheme))
def test_no_call_writes_into_a_given_or_returned_array(scheme, monkeypatch):
    """Also holds every start `_pga` is given and every iterate it returns
    inside the solvers, so a write into an earlier iterate shows."""
    held = Held()
    pga = spca._pga
    inner = []

    def holding_pga(prob, objective, theta, beta0):
        held.hold(beta0)
        beta, f, converged = pga(prob, objective, theta, beta0)
        inner.append(beta is not beta0)  # it moved
        return held.hold(beta), f, converged
    monkeypatch.setattr(spca, "_pga", holding_pga)
    rng = np.random.default_rng(7)
    dead_seen = 0
    for sc, ch in panels():
        held.hold(ch.h_reflect)
        held.hold(ch.h_transmit)
        dead_seen += int(ch.dead.sum())
        given = held.hold(rng.random(ch.element_count))
        betas = [given]
        for solve in SOLVERS:
            betas.append(held.hold(solve(ch, sc, scheme).beta))
        for theta in THETAS:
            beta, _ = solve_subproblem(theta, ch, sc, scheme)
            betas.append(held.hold(beta))
        betas.append(held.hold(vertex_enumerate(ch, sc, scheme).best_beta))
        for beta in betas:
            rate_pair(ch, beta, sc, scheme)
            effective_channels(ch, beta)
            reduced_objective(beta, THETAS[1], ch, sc, scheme)
        coordinate_scan(ch, sc, scheme, given, grid_points=5)
    assert dead_seen > 0
    assert any(inner) and not all(inner)
    held.assert_unchanged()
