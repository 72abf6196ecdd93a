"""Colexicographic order on the subsets of ``range(n)``.

Throughout the package, subsets of ``range(n)`` are enumerated by size and,
within a size, in colexicographic order.  Colex order on equal-size subsets
coincides with numeric order of their characteristic bitmasks: the set
with the smaller largest element comes first, then the one with the
smaller second-largest, and so on.  ``colex_array`` lists the k-subsets in
that order and ``colex_rank`` gives the position of one of them.
"""

from math import comb

import numpy as np


def colex_array(n, k):
    """All k-subsets of range(n) as the rows of an intp array, each row
    ascending, the rows in colex order.

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


def colex_rank(subset):
    """Rank of an ascending k-tuple among k-subsets in colex order."""
    return sum(comb(c, j + 1) for j, c in enumerate(subset))

