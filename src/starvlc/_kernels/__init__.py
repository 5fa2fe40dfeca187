"""Exact sum-rate maximization over the coefficient box [0, 1]^N.

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
  tests/test_link.py::test_sum_rate_peaks_at_a_segment_end.
Chain vertices are binary. The walk ranks them by the SINRs of `link`'s
rule, which also gives the rates `vertex_enumerate` reports. The tests hold
it to a Gray-code enumeration of all 2^N binary vectors,
tests/gray_reference.py.
"""

import numpy as np

from ..link import RATE_SINR_SCALE, _sinrs


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
