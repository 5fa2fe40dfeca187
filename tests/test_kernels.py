"""The chain walk `starvlc._kernels.enumerate_vertices` held to the
pure-Python Gray-code enumeration of all 2^N binary vectors: the optimum's
value, a binary beta that is 1 at dead elements and reproduces that value,
and N_live + 1 evaluations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gray_reference import enumerate_vertices as enumerate_vertices_py
from starvlc import KERNEL_BACKEND
from starvlc._kernels import enumerate_vertices
from starvlc.link import RATE_SINR_SCALE

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
