"""Exact sum-rate maximization over every binary coefficient vector.

`enumerate_vertices` evaluates all 2^N vertices of [0, 1]^N with numpy, one
block of 2^k vertices at a time. The elements split into N - k leading ones,
whose 2^(N-k) subset sums of `hr` and `ht` are walked in a Python loop, and
k trailing ones, whose 2^k subset sums are built once. Each step adds one
leading subset sum to the whole trailing array, so the two effective gains
of a block cost one vector add each and memory stays O(2^k) at every N.
The tests hold it to a pure-Python Gray-code reference, tests/gray_reference.py.
"""

import math

import numpy as np

from ..link import RATE_SINR_SCALE

BACKEND = "numpy"

# 2^14 doubles per array: large enough that numpy's per-call overhead is
# amortised, small enough that a block's temporaries stay in cache.
_BLOCK_BITS = 14


def _lex_subset_sums(x):
    """Subset sums of `x`, indexed by the subset's lexicographic key.

    Position p holds the sum over the elements i with bit (len(x) - 1 - i)
    of p set, so x[0] is the most significant bit and ascending positions
    are ascending beta vectors in lexicographic order.
    """
    sums = np.zeros(1)
    for v in x[::-1]:
        sums = np.concatenate((sums, sums + v))
    return sums


def enumerate_vertices(h_los, hr, ht, a1, a2, sigma2, sic):
    """Exact sum-rate maximization over all binary coefficient vectors.

    `a1`, `a2` are responsivity * power per user. Returns
    (best_mask, best_value, evaluations) with bit i of `best_mask` set iff
    beta_i = 1; ties go to the lexicographically smallest beta vector.
    """
    hr = np.asarray(hr, dtype=float)
    ht = np.asarray(ht, dtype=float)
    n = len(hr)
    k = min(n, _BLOCK_BITS)
    lead_r, lead_t = _lex_subset_sums(hr[:n - k]), _lex_subset_sums(ht[:n - k])
    trail_r, trail_t = _lex_subset_sums(hr[n - k:]), _lex_subset_sums(ht[n - k:])
    total_t = float(ht.sum())

    # Blocks come in ascending lexicographic order of the leading elements,
    # and argmax returns a block's first maximum, so the first strict
    # improvement found is the lexicographically smallest tie.
    best_val = -math.inf
    best_key = 0  # lexicographic key: beta_0 is the most significant bit
    for q in range(len(lead_r)):
        h1 = (h_los + lead_r[q]) + trail_r
        h2 = (total_t - lead_t[q]) - trail_t
        # Same expression as the reference kernel, so the argmax agrees.
        s1 = (a1 * h1) ** 2
        s2 = (a2 * h2) ** 2
        t1 = s1 / sigma2 if sic else s1 / (sigma2 + s2)
        t2 = s2 / (sigma2 + s1)
        val = 0.5 * (np.log2(1.0 + RATE_SINR_SCALE * t1) + np.log2(1.0 + RATE_SINR_SCALE * t2))
        p = int(np.argmax(val))
        if val[p] > best_val:
            best_val = float(val[p])
            best_key = q << k | p
    best_mask = int(format(best_key, f"0{n}b")[::-1], 2) if n else 0
    return best_mask, best_val, 1 << n
