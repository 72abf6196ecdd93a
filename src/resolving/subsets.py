"""Colexicographic order on the subsets of ``range(n)``.

Throughout the package, subsets of ``range(n)`` are enumerated by size and,
within a size, in colexicographic order.  Colex order on equal-size subsets
coincides with numeric order of their characteristic bitmasks: the set
with the smaller largest element comes first, then the one with the
smaller second-largest, and so on.  ``size_colex_array`` lists every
nonempty subset of at most a given size in that order, one row each, and
``colex_rank`` gives the position of a k-subset among the k-subsets.
"""

from math import comb

import numpy as np


def size_colex_array(n, top):
    """Every nonempty subset of range(n) of at most ``top`` elements, as
    the rows of an (N, top) intp array: by size, then in colex order.  A
    k-set's row holds the set ascending in its last k columns and repeats
    its smallest element in the columns before, so a min over a row is the
    min over the set.

    Each size is written in place, from the one before: the k-sets with
    largest element m are m appended to the first C(m, k - 1) of the
    (k - 1)-sets, since the colex order of the (k - 1)-subsets of range(m)
    is a prefix of that of any larger range."""
    sizes = range(1, min(top, n) + 1)
    out = np.empty((sum(comb(n, k) for k in sizes), top), dtype=np.intp)
    before = np.empty((1, 0), dtype=np.intp)  # the one 0-set
    lo = 0
    for k in sizes:
        counts = np.array([comb(m, k - 1) for m in range(k - 1, n)], dtype=np.intp)
        rows = out[lo:lo + comb(n, k)]
        lo += len(rows)
        sets = rows[:, top - k:]
        sets[:, :-1] = before[np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)]
        sets[:, -1] = np.repeat(np.arange(k - 1, n), counts)
        rows[:, :top - k] = sets[:, :1]
        before = sets
    return out


def colex_rank(subset):
    """Rank of an ascending k-tuple among k-subsets in colex order."""
    return sum(comb(c, j + 1) for j, c in enumerate(subset))
