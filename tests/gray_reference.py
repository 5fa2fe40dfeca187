"""Pure-Python Gray-code vertex enumeration, the reference the tests hold
the chain walk `starvlc.oracle.enumerate_vertices` to.

Walks all 2^N binary coefficient vectors in binary-reflected Gray order so
each step flips a single coordinate, letting the two effective gains be
updated in O(1) per vertex instead of O(N). It assumes nothing about the
geometry of the (H1, H2) zonotope, which the walk relies on.
"""

import math

_C = math.e / (2.0 * math.pi)


def enumerate_vertices(h_los, hr, ht, a1, a2, sigma2, sic):
    """Exact sum-rate maximization over all binary coefficient vectors.

    `a1`, `a2` are responsivity * power per user. Returns
    (best_mask, best_value, evaluations) with bit i of `best_mask` set iff
    beta_i = 1; ties go to the first maximum in Gray order.
    """
    n = len(hr)
    h1 = h_los
    h2 = 0.0
    for i in range(n):
        h2 += ht[i]

    def value(h1, h2):
        s1 = (a1 * h1) ** 2
        s2 = (a2 * h2) ** 2
        if sic:
            t1 = s1 / sigma2
        else:
            t1 = s1 / (sigma2 + s2)
        t2 = s2 / (sigma2 + s1)
        return 0.5 * (math.log2(1.0 + _C * t1) + math.log2(1.0 + _C * t2))

    mask = 0
    best_mask = 0
    best_val = value(h1, h2)
    for idx in range(1, 1 << n):
        j = (idx & -idx).bit_length() - 1  # flipped coordinate
        bit = 1 << j
        mask ^= bit
        if mask & bit:
            h1 += hr[j]
            h2 -= ht[j]
        else:
            h1 -= hr[j]
            h2 += ht[j]
        val = value(h1, h2)
        if val > best_val:
            best_val = val
            best_mask = mask
    return best_mask, best_val, 1 << n
