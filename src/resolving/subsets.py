"""Colexicographic subset enumeration and bitmask helpers.

Throughout the package, subsets of ``range(n)`` are enumerated by size and,
within a size, in colexicographic order.  Colex order on equal-size subsets
coincides with numeric order of their characteristic bitmasks: the set
with the smaller largest element comes first, then the one with the
smaller second-largest, and so on.
"""

from math import comb


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


def subsets_size_colex(n, max_size, min_size=1):
    """All subsets of range(n) with min_size <= |S| <= max_size, size-major."""
    for k in range(min_size, max_size + 1):
        yield from colex_combinations(n, k)


def colex_rank(subset):
    """Rank of an ascending k-tuple among k-subsets in colex order."""
    return sum(comb(c, j + 1) for j, c in enumerate(subset))

