"""The chain walk `starvlc.oracle.enumerate_vertices` held to the
pure-Python Gray-code enumeration of all 2^N binary vectors: the optimum's
value, a binary beta that is 1 at dead elements and reproduces that value,
and N_live + 1 evaluations. Each chain edge is checked exactly for an
interior sum-rate maximum, the step of the walk's exactness that is not
proven."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

import starvlc._kernels
from gray_reference import enumerate_vertices as enumerate_vertices_py
from starvlc import KERNEL_BACKEND
from starvlc.link import RATE_SINR_SCALE
from starvlc.oracle import enumerate_vertices

# Gains on this grid keep every partial sum exact in both kernels, so tied
# vertices tie exactly in both.
GRID = 2.0**-24


def random_inputs(rng, n):
    h_los = rng.uniform(0.0, 1e-4)
    hr = rng.uniform(0.0, 5e-5, size=n)
    ht = rng.uniform(0.0, 5e-5, size=n)
    a1 = rng.uniform(0.001, 0.2)
    a2 = rng.uniform(0.001, 0.2)
    sigma2 = 10.0 ** rng.uniform(-11, -9)
    return h_los, hr, ht, a1, a2, sigma2


def tied_inputs(rng, n):
    """Inputs with exact ties on the 2^-24 grid: every third element dead,
    and the second half of the panel repeating the gains of the first, so
    generators come in parallel pairs."""
    h_los, _, _, a1, a2, sigma2 = random_inputs(rng, n)
    half = (n + 1) // 2
    hr = GRID * rng.integers(0, 839, size=half).astype(float)
    ht = GRID * rng.integers(0, 839, size=half).astype(float)
    dead = np.arange(half) % 3 == 0
    hr[dead] = 0.0
    ht[dead] = 0.0
    return GRID * round(h_los / GRID), np.resize(hr, n), np.resize(ht, n), a1, a2, sigma2


def value_at(beta, h_los, hr, ht, a1, a2, sigma2, sic):
    """The sum rate at `beta`, by the expression both kernels evaluate."""
    s1 = (a1 * (h_los + float(beta @ hr))) ** 2
    s2 = (a2 * float((1.0 - beta) @ ht)) ** 2
    t1 = s1 / sigma2 if sic else s1 / (sigma2 + s2)
    t2 = s2 / (sigma2 + s1)
    return 0.5 * (math.log2(1.0 + RATE_SINR_SCALE * t1) + math.log2(1.0 + RATE_SINR_SCALE * t2))


def check_walk(args, sic):
    _, hr, ht, *_ = args
    beta, value, evals = enumerate_vertices(*args, sic)
    _, reference, _ = enumerate_vertices_py(*args, sic)
    dead = (hr == 0.0) & (ht == 0.0)
    assert value == pytest.approx(reference, rel=1e-12)
    assert beta.shape == hr.shape and np.all((beta == 0.0) | (beta == 1.0))
    assert np.all(beta[dead] == 1.0)
    assert value_at(beta, *args, sic) == pytest.approx(value, rel=1e-12)
    assert evals == np.count_nonzero(~dead) + 1


def test_backend_constant_is_exported():
    assert KERNEL_BACKEND == "numpy"


def test_kernels_alias_is_the_engine():
    # The benchmark's probe times `starvlc._kernels.enumerate_vertices`.
    assert starvlc._kernels.enumerate_vertices is enumerate_vertices


SIZES = list(range(17))


@pytest.mark.parametrize("sic", [False, True])
@pytest.mark.parametrize("n", SIZES)
def test_walk_matches_reference(n, sic):
    rng = np.random.default_rng(1000 + n + int(sic))
    for _ in range(10 if n <= 10 else 2):
        check_walk(random_inputs(rng, n), sic)


@pytest.mark.parametrize("sic", [False, True])
@pytest.mark.parametrize("n", SIZES)
def test_walk_matches_reference_on_ties(n, sic):
    rng = np.random.default_rng(2000 + n + int(sic))
    for _ in range(10 if n <= 10 else 2):
        check_walk(tied_inputs(rng, n), sic)


@st.composite
def grid_inputs(draw):
    """Up to 16 elements whose gains are small multiples of a few grid
    pairs: dead elements (pair (0, 0)), parallel generators and exact ties
    are common."""
    grid_int = st.integers(0, 839)
    pairs = draw(st.lists(st.tuples(grid_int, grid_int), min_size=1, max_size=4))
    n = draw(st.integers(0, 16))
    picks = draw(st.lists(st.tuples(st.sampled_from(pairs), st.integers(1, 3)),
                          min_size=n, max_size=n))
    hr = GRID * np.array([k * r for (r, _), k in picks], dtype=float)
    ht = GRID * np.array([k * t for (_, t), k in picks], dtype=float)
    h_los = GRID * draw(st.integers(0, 1679))
    a1, a2 = draw(st.floats(0.001, 0.2)), draw(st.floats(0.001, 0.2))
    sigma2 = 10.0 ** draw(st.floats(-12, -8))
    return h_los, hr, ht, a1, a2, sigma2


@settings(max_examples=40, deadline=None)
@given(args=grid_inputs(), sic=st.booleans())
def test_walk_matches_reference_on_drawn_grids(args, sic):
    check_walk(args, sic)


def chain_edge_check(h_los, hr, ht, a1, a2, sigma2, sic):
    """Every chain edge's largest interior value of f = 2^(2·R_sum) against
    its better end.

    With amplitudes x = a1·H1/σ and y = a2·H2/σ linear in the edge
    parameter s, and X = x², Y = y², f is a ratio of polynomials in s:
    SIC (1 + cX)(1 + X + cY) / (1 + X), SUD
    (1 + Y + cX)(1 + X + cY) / ((1 + Y)(1 + X)), with c = e/2π. f is
    evaluated at the real part of every root in (0, 1) of its derivative's
    numerator (degree <= 5 for SIC, <= 7 for SUD). Returns (edges, edges
    with a real interior critical point, worst relative excess over the
    better end; -inf when no point was evaluated).
    """
    c = RATE_SINR_SCALE
    sigma = math.sqrt(sigma2)
    live = np.flatnonzero((hr != 0.0) | (ht != 0.0))
    order = live[np.argsort(np.arctan2(ht[live], hr[live]), kind="stable")]
    h1 = h_los + np.concatenate(([0.0], np.cumsum(hr[order])))
    h2 = float(ht.sum()) - np.concatenate(([0.0], np.cumsum(ht[order])))

    def ratio(x, y):
        X, Y = x * x, y * y
        if sic:
            return (1 + c * X) * (1 + X + c * Y), 1 + X
        return (1 + Y + c * X) * (1 + X + c * Y), (1 + Y) * (1 + X)

    critical, worst = 0, -math.inf
    for k, i in enumerate(order):
        x0, dx = a1 * h1[k] / sigma, a1 * hr[i] / sigma
        y0, dy = a2 * h2[k] / sigma, -a2 * ht[i] / sigma
        num, den = ratio(Polynomial([x0, dx]), Polynomial([y0, dy]))
        roots = (num.deriv() * den - num * den.deriv()).roots()
        inside = (roots.real > 0.0) & (roots.real < 1.0)
        critical += bool(np.any(inside & (roots.imag == 0.0)))
        if np.any(inside):
            s = np.concatenate(([0.0, 1.0], roots.real[inside]))
            top, bottom = ratio(x0 + dx * s, y0 + dy * s)
            f = top / bottom
            worst = max(worst, float(f[2:].max() / f[:2].max() - 1.0))
    return len(order), critical, worst


def test_no_chain_edge_beats_its_ends():
    edges, critical = [], []

    @settings(max_examples=60, deadline=None)
    @given(args=grid_inputs())
    def check(args):
        for sic in (False, True):
            n, k, worst = chain_edge_check(*args, sic)
            assert worst <= 1e-12
            edges.append(n)
            critical.append(k)

    check()
    # Some edges must have had an interior critical point to compare.
    assert sum(critical) > 0 and sum(edges) > sum(critical)


def test_all_dead_panel_sets_every_element_to_one():
    # Every one of the 2^20 vertices ties: the walk evaluates beta = 0 alone
    # and sets every element to 1.
    n = 20
    zeros = np.zeros(n)
    for sic in (False, True):
        beta, val, evals = enumerate_vertices(1e-5, zeros, zeros, 0.07, 0.07, 1e-10, sic)
        np.testing.assert_array_equal(beta, np.ones(n))
        assert evals == 1
        assert val == value_at(np.zeros(n), 1e-5, zeros, zeros, 0.07, 0.07, 1e-10, sic)
        assert val > 0.0  # LOS link alone still carries user 1


def test_single_element_exhaustive():
    # n = 1: only two vertices; verify against direct evaluation.
    c = math.e / (2.0 * math.pi)
    h_los, hr, ht = 2e-5, np.array([3e-5]), np.array([4e-5])
    a1 = a2 = 0.07
    sigma2 = 1e-10

    def val(beta):
        h1 = h_los + beta * hr[0]
        h2 = (1 - beta) * ht[0]
        s1 = (a1 * h1) ** 2 / sigma2  # SIC user 1
        s2 = (a2 * h2) ** 2 / (sigma2 + (a1 * h1) ** 2)
        return 0.5 * (math.log2(1 + c * s1) + math.log2(1 + c * s2))

    beta, best, evals = enumerate_vertices(h_los, hr, ht, a1, a2, sigma2, True)
    assert best == pytest.approx(max(val(0), val(1)), rel=1e-12)
    assert beta[0] == (1.0 if val(1) > val(0) else 0.0)
    assert evals == 2
