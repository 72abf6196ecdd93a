"""Colexicographic subset enumeration and bitmask helpers.

Throughout the package, subsets of ``range(n)`` are enumerated by size and,
within a size, in colexicographic order.  Colex order on equal-size subsets
coincides with numeric order of their characteristic bitmasks: the set
with the smaller largest element comes first, then the one with the
smaller second-largest, and so on.
"""

from math import comb

import numpy as np


def mask_of(indices):
    """Characteristic bitmask of an iterable of vertex indices."""
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def bits_of(mask):
    """Ascending tuple of indices set in ``mask``."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def colex_combinations(n, k):
    """Yield all k-subsets of range(n) as ascending tuples, in colex order."""
    if k < 0 or k > n:
        return
    if k == 0:
        yield ()
        return
    idx = list(range(k))
    while True:
        yield tuple(idx)
        for j in range(k):
            nxt = idx[j] + 1
            limit = idx[j + 1] if j + 1 < k else n
            if nxt < limit:
                idx[j] = nxt
                for t in range(j):
                    idx[t] = t
                break
        else:
            return


def colex_array(n, k):
    """All k-subsets of range(n) as the rows of an intp array, each row
    ascending, the rows in colex order (row i is the i-th tuple of
    ``colex_combinations(n, k)``).

    Built one size at a time: the j-sets with largest element m are m
    appended to the first C(m, j-1) rows of the (j-1)-set array, because
    the colex order of the (j-1)-subsets of range(m) is a prefix of that
    of any larger range."""
    if k < 0 or k > n:
        return np.empty((0, max(k, 0)), dtype=np.intp)
    out = np.empty((comb(n, k), k), dtype=np.intp)
    counts = np.ones(n - k + 1, dtype=np.intp)
    for j in range(1, k + 1):
        # j-sets of range(n - k + j): enough room for the k - j larger elements;
        # counts[i] = C(tops[i], j - 1), the sum of C(m, j - 2) over m < tops[i]
        tops = np.arange(j - 1, n - k + j, dtype=np.intp)
        if j > 1:
            counts = np.cumsum(counts)
        starts = np.repeat(np.cumsum(counts) - counts, counts)
        total = len(starts)
        out[:total, :j - 1] = out[np.arange(total, dtype=np.intp) - starts, :j - 1]
        out[:total, j - 1] = np.repeat(tops, counts)
    return out


def subsets_size_colex(n, max_size, min_size=1):
    """All subsets of range(n) with min_size <= |S| <= max_size, size-major."""
    for k in range(min_size, max_size + 1):
        yield from colex_combinations(n, k)


def colex_rank(subset):
    """Rank of an ascending k-tuple among k-subsets in colex order."""
    return sum(comb(c, j + 1) for j, c in enumerate(subset))

