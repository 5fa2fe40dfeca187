"""Agreement between the numpy block enumeration kernel and the pure-Python
Gray-code reference, tie-breaking and memory use."""

import tracemalloc

import numpy as np
import pytest

from gray_reference import enumerate_vertices as enumerate_vertices_py
from starvlc import KERNEL_BACKEND
from starvlc._kernels import enumerate_vertices


def random_inputs(rng, n):
    h_los = rng.uniform(0.0, 1e-4)
    hr = np.ascontiguousarray(rng.uniform(0.0, 5e-5, size=n))
    ht = np.ascontiguousarray(rng.uniform(0.0, 5e-5, size=n))
    a1 = rng.uniform(0.001, 0.2)
    a2 = rng.uniform(0.001, 0.2)
    sigma2 = 10.0 ** rng.uniform(-11, -9)
    return h_los, hr, ht, a1, a2, sigma2


def tied_inputs(rng, n):
    """Inputs with exact ties: every third element dead, and the second half
    of the panel repeating the gains of the first, so that once n exceeds
    one block, tied vertices lie in different blocks.

    The reference accumulates its gains along the Gray-code walk, so with
    arbitrary gains two tied masks can carry different rounding there.
    Gains on a 2^-24 grid make every partial sum exact in both kernels, so
    the ties are exact in both.
    """
    grid = 2.0**-24
    h_los, _, _, a1, a2, sigma2 = random_inputs(rng, n)
    half = (n + 1) // 2
    hr = grid * rng.integers(0, 839, size=half).astype(float)
    ht = grid * rng.integers(0, 839, size=half).astype(float)
    dead = np.arange(half) % 3 == 0
    hr[dead] = 0.0
    ht[dead] = 0.0
    return grid * round(h_los / grid), np.resize(hr, n), np.resize(ht, n), a1, a2, sigma2


def test_backend_constant_is_exported():
    assert KERNEL_BACKEND == "numpy"


def check_agreement(make_inputs, rng, n, sic):
    for _ in range(10 if n <= 10 else 2):
        args = make_inputs(rng, n)
        mask_a, val_a, evals_a = enumerate_vertices(*args, sic)
        mask_b, val_b, evals_b = enumerate_vertices_py(*args, sic)
        assert mask_a == mask_b
        assert val_a == pytest.approx(val_b, rel=1e-12)
        assert evals_a == evals_b == 2**n


# 15 and 16 exceed one block of the numpy kernel.
SIZES = [0, 1, 2, 5, 10, 15, 16]


@pytest.mark.parametrize("sic", [False, True])
@pytest.mark.parametrize("n", SIZES)
def test_backends_agree(n, sic):
    check_agreement(random_inputs, np.random.default_rng(1000 + n + int(sic)), n, sic)


@pytest.mark.parametrize("sic", [False, True])
@pytest.mark.parametrize("n", SIZES)
def test_backends_agree_on_ties(n, sic):
    check_agreement(tied_inputs, np.random.default_rng(2000 + n + int(sic)), n, sic)


def test_dead_channels_pick_all_zero_mask():
    n = 4
    zeros = np.zeros(n)
    for kernel in (enumerate_vertices, enumerate_vertices_py):
        mask, val, evals = kernel(1e-5, zeros, zeros, 0.07, 0.07, 1e-10, True)
        assert mask == 0
        assert evals == 2**n
        assert val > 0.0  # LOS link alone still carries user 1


def test_all_tied_panel_keeps_memory_bounded():
    # Every one of the 2^20 vertices ties; the kernel must still pick the
    # all-zero mask without holding the tied masks in memory.
    n = 20
    zeros = np.zeros(n)
    tracemalloc.start()
    try:
        mask, _, evals = enumerate_vertices(1e-5, zeros, zeros, 0.07, 0.07, 1e-10, False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert mask == 0
    assert evals == 2**n
    assert peak < 16 * 2**20


def test_single_element_exhaustive():
    # n = 1: only two vertices; verify against direct evaluation.
    import math

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

    mask, best, _ = enumerate_vertices(h_los, hr, ht, a1, a2, sigma2, True)
    assert best == pytest.approx(max(val(0), val(1)), rel=1e-12)
    assert mask == (1 if val(1) > val(0) else 0)
