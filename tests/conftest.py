"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the package's machinery: distances come
from a dict-based BFS, subsets from itertools, and every check follows the
plain definition.  Agreement between these and the fast implementations is
what the randomized tests certify.  The one exception, oracle_first_basis,
judges candidate sets with the package's checkers, which those tests pin,
so that it can reach snark-sized graphs.  The reference scans are the
pure-Python checkers that the numpy block scans replaced, kept to pin
their verdicts and witnesses, the reference mask reduction is the forced
split and the minimal antichain as the two passes that the search's one
pass replaced, the reference decision kernel is the search's recursion
before its leaf prune, and the reference search runs it over every
cardinality in vertex order.  The automorphism oracle tries
every permutation of the vertices.
"""

import itertools
import random
from collections import deque
from math import comb

import numpy as np
import pytest

from resolving import (
    ArrayCollision,
    CheckVerdict,
    DominatedVertex,
    UnresolvedPair,
    all_pairs_distances,
    build_graph,
    check_mode,
    forced_vertices,
    search,
)
from resolving.subsets import colex_rank


# ---------------------------------------------------------------------------
# independent distance computation


def bfs_distances(g):
    """dists[u][v] via plain BFS; no numpy, no package distance code."""
    out = []
    for source in range(g.n):
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in g.adjacency[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        out.append([dist[v] for v in range(g.n)])
    return out


def oracle_array(dist, anchors, target):
    return tuple(min(dist[s][t] for t in target) for s in anchors)


def size_colex_subsets(n, max_size, min_size=1):
    """All subsets with min_size <= |.| <= max_size, smaller sizes first,
    colex within a size (sort combinations by their reversal)."""
    for k in range(min_size, max_size + 1):
        yield from sorted(itertools.combinations(range(n), k), key=lambda c: c[::-1])


# ---------------------------------------------------------------------------
# definitional checks


def oracle_is_resolving(dist, anchors, order):
    n = len(dist)
    seen = {}
    for sub in size_colex_subsets(n, order):
        arr = oracle_array(dist, anchors, sub)
        if arr in seen:
            return False
        seen[arr] = sub
    return True


def oracle_first_resolving_collision(dist, anchors, order):
    """First (earlier, later, array) pair in size-then-colex order, or None."""
    n = len(dist)
    seen = {}
    for sub in size_colex_subsets(n, order):
        arr = oracle_array(dist, anchors, sub)
        if arr in seen:
            return seen[arr], sub, arr
        seen[arr] = sub
    return None


def oracle_is_solid(dist, anchors, order):
    """Literal definition: no set X with |X| <= order shares its distance
    array with any other nonempty set Y."""
    n = len(dist)
    arrays = {}
    for sub in size_colex_subsets(n, n):
        arrays[sub] = oracle_array(dist, anchors, sub)
    small = [sub for sub in arrays if len(sub) <= order]
    for x in small:
        ax = arrays[x]
        for y, ay in arrays.items():
            if y != x and ay == ax:
                return False
    return True


def oracle_first_domination(dist, anchors, order):
    """First (x, Y) with x not in Y, |Y| <= order, and no anchor strictly
    closer to x than to Y; Y in size-then-colex order, x ascending."""
    n = len(dist)
    for y in size_colex_subsets(n, order):
        yset = set(y)
        for x in range(n):
            if x in yset:
                continue
            if all(dist[s][x] >= min(dist[s][t] for t in y) for s in anchors):
                return x, y
    return None


def oracle_is_doubly(dist, anchors):
    n = len(dist)
    for u in range(n):
        for v in range(u + 1, n):
            diffs = {dist[s][u] - dist[s][v] for s in anchors}
            if len(diffs) == 1:
                return False
    return True


def oracle_forced(dist, order, kind):
    """v is forced iff the full vertex set minus v fails the check."""
    n = len(dist)
    forced = []
    for v in range(n):
        rest = tuple(u for u in range(n) if u != v)
        if kind == "solid":
            ok = oracle_is_solid(dist, rest, order)
        else:
            ok = oracle_is_resolving(dist, rest, order)
        if not ok:
            forced.append(v)
    return tuple(forced)


def oracle_minimum_size(dist, mode_kind, order):
    """Smallest passing cardinality by brute force over all subsets."""
    n = len(dist)
    for k in range(1, n + 1):
        for sub in itertools.combinations(range(n), k):
            if mode_kind == "resolving":
                if oracle_is_resolving(dist, sub, order):
                    return k
            elif mode_kind == "solid":
                if oracle_is_solid(dist, sub, order):
                    return k
            else:
                if k >= 2 and oracle_is_doubly(dist, sub):
                    return k
    return None


def colex_masks(n, k):
    """Bitmasks of the k-subsets of range(n), in colex (= numeric) order,
    stepped with Gosper's hack."""
    if k == 0:
        yield 0
        return
    mask = (1 << k) - 1
    while mask < 1 << n:
        yield mask
        low = mask & -mask
        ripple = mask + low
        mask = ripple | (((mask ^ ripple) >> 2) // low)


def witness_separators(dist, witness):
    """The vertices whose distances tell apart the two sides of a failing
    check's witness; an anchor set with none of them fails by the same
    witness."""
    n = len(dist)

    def d(s, group):
        return min(dist[s][t] for t in group)

    if isinstance(witness, ArrayCollision):
        return [s for s in range(n) if d(s, witness.first) != d(s, witness.second)]
    if isinstance(witness, DominatedVertex):
        return [s for s in range(n) if dist[s][witness.vertex] < d(s, witness.dominating)]
    assert isinstance(witness, UnresolvedPair)
    return [s for s in range(n)
            if dist[s][witness.u] - dist[s][witness.v] != witness.difference]


def oracle_first_basis(g, mode):
    """Forced vertices plus the first set of the other vertices, in
    size-then-colex order, that together pass ``check_mode``; None if no set
    passes.

    Sets are judged by ``check_mode``, except that a set is skipped when it
    avoids the witness separators of an earlier failing set: it fails by
    that set's witness too."""
    dm = all_pairs_distances(g)
    dist = bfs_distances(g)
    forced = () if mode.kind == "doubly" else forced_vertices(g, mode.order, mode.kind)
    free = [v for v in range(g.n) if v not in forced]
    position = {v: i for i, v in enumerate(free)}
    separators = []
    for k in range(len(free) + 1):
        if len(forced) + k < (2 if mode.kind == "doubly" else 1):
            continue
        for combo in colex_masks(len(free), k):
            for i, sep in enumerate(separators):
                if not combo & sep:
                    # neighbours in colex order tend to fail alike
                    if i:
                        separators.insert(0, separators.pop(i))
                    break
            else:
                anchors = tuple(sorted(
                    forced + tuple(v for i, v in enumerate(free) if combo >> i & 1)))
                verdict = check_mode(dm, anchors, mode)
                if verdict.holds:
                    return anchors
                separators.append(sum(1 << position[s] for s in
                                      witness_separators(dist, verdict.witness)))
    return None


# ---------------------------------------------------------------------------
# reference scans: one set at a time, in size-then-colex order


def _anchor_tuples(dm, anchors):
    return [tuple(int(dm.dist[v, s]) for s in anchors) for v in range(dm.n)]


def _min_tuple(rows, subset):
    return tuple(min(column) for column in zip(*(rows[v] for v in subset)))


def reference_is_l_resolving(dm, anchors, order):
    """The {order}-resolving check over one tuple per set.  Sets are kept
    by the hash of their arrays with linear probing: a set goes to the
    first free key from its hash upwards, and the sets on the way have
    their arrays recomputed and compared, so clashing hashes stay exact."""
    anchors = tuple(sorted(anchors))
    rows = _anchor_tuples(dm, anchors)
    seen = {}
    for subset in size_colex_subsets(dm.n, order):
        arr = _min_tuple(rows, subset)
        key = hash(arr)
        while (earlier := seen.get(key)) is not None:
            if _min_tuple(rows, earlier) == arr:
                return CheckVerdict(False, ArrayCollision(earlier, subset, arr))
            key += 1
        seen[key] = subset
    return CheckVerdict(True)


def reference_solid_scan(dm, anchors, bound):
    """The strict-domination scan with one set of numpy calls per Y:
    the first (x, Y), Y size-then-colex and x ascending, with x not in Y
    and d(x, s) >= d(s, Y) at every anchor s."""
    anchors = tuple(sorted(anchors))
    sub = dm.dist[:, list(anchors)]
    for y in size_colex_subsets(dm.n, bound):
        dominated = (sub >= sub[list(y)].min(axis=0)).all(axis=1)
        dominated[list(y)] = False
        dominated[list(anchors)] = False
        if dominated.any():
            return CheckVerdict(False, DominatedVertex(int(np.argmax(dominated)), y))
    return CheckVerdict(True)


# ---------------------------------------------------------------------------
# reference mask reduction: the forced split and the minimal antichain as
# two passes, each sorting or counting on its own


def mode_masks(dm, mode, deadline=None):
    """The distinct masks of the whole separator family of ``mode``."""
    return search._Separators(dm, mode).masks(deadline)


def mode_blocks(dm, mode):
    """The number of masks the family of ``mode`` builds, and its blocks."""
    family = search._Separators(dm, mode)
    return family.raw, family.blocks()


def reference_table_masks(dm, mode):
    """The distinct nonempty masks of the blocks of ``mode``'s family over
    n <= 64 vertices, read off a table of 2^n flags that the blocks set:
    rows of one word, ascending, as ``mode_masks`` sorts them."""
    seen = np.zeros(1 << dm.n, dtype=bool)
    for block in mode_blocks(dm, mode)[1]:
        seen[block[:, 0]] = True
    seen[0] = False
    return np.flatnonzero(seen).astype(search._word_type(dm.n))[:, None]


def reference_split_forced(masks):
    """The vertices of the single-vertex masks (rows of words), which every
    set hitting the masks contains, ascending, and the masks that none of
    them is in."""
    cols = masks.T
    single = np.compress(np.bitwise_count(cols).sum(axis=0) == 1, cols, axis=1)
    row = np.bitwise_or.reduce(single, axis=1)
    forced = np.flatnonzero(np.unpackbits(row.view(np.uint8), bitorder="little"))
    return tuple(forced.tolist()), np.compress(~(cols & row[:, None]).any(axis=0), cols, axis=1).T


def reference_minimal_masks(masks, deadline=None):
    """The masks (distinct rows of words) that contain no other one, fewest
    bits first, in input order within a size.  The deadline is checked
    after each chunk."""
    cols = masks.T
    # the smallest unsigned type that holds 64 * W, so that the stable
    # argsort is a radix sort
    sizes = np.bitwise_count(cols).sum(axis=0, dtype=np.min_scalar_type(64 * len(cols)))
    order = np.argsort(sizes, kind="stable")
    cols, sizes = cols[:, order], sizes[order]
    kept = [cols[:, :0]]
    # the smallest masks left contain no other one: keep them, and drop
    # every larger mask that contains one of them, a chunk at a time
    while sizes.size:
        cut = np.searchsorted(sizes, sizes[0], side="right")
        level, cols, sizes = cols[:, :cut], cols[:, cut:], sizes[cut:]
        kept.append(level)
        lo = 0
        while lo < level.shape[1] and sizes.size:
            step = max(1, search._BLOCK_WORDS // cols.size)
            sub = level[:, lo:lo + step, None]
            keep = ~((cols[:, None, :] & sub) == sub).all(axis=0).any(axis=0)
            cols, sizes = np.compress(keep, cols, axis=1), sizes[keep]
            lo += step
            search._check_deadline(deadline)
    return np.concatenate(kept, axis=1).T


def reference_kept_masks(masks, split):
    """``search._kept_masks`` as the two reference passes: (forced,
    mask_count, kept masks)."""
    forced, masks = reference_split_forced(masks) if split else ((), masks)
    return forced, len(masks), reference_minimal_masks(masks)


# ---------------------------------------------------------------------------
# reference decision kernel


def reference_family(masks, free):
    """The masks (rows of words) reindexed onto the positions in ``free``
    (position j is vertex free[j]) and numbered by their lowest position,
    as ``search._family`` numbers them: (cover, lowest, members), where
    ``lowest[i]`` is the first position in mask i."""
    cover, members = search._family(search._member_matrix(masks, free))
    return cover, [(m & -m).bit_length() - 1 for m in members], members


def reference_colex_first_cover(cover, lowest, members, r):
    """The search's decision kernel without the leaf prune: at r == 1 it
    tries every allowed member of the last unhit mask.  Takes the family
    in vertex order and r; returns the colex-first r-subset (or None) and
    the number of ``hits`` calls."""
    complement = [((1 << len(lowest)) - 1) ^ c for c in cover]
    nodes = 0

    def hits(unhit, allowed, r):
        nonlocal nodes
        nodes += 1
        if not unhit:
            return True
        if r == 0:
            return False
        branches = members[unhit.bit_length() - 1] & allowed
        while branches:
            low = branches & -branches
            branches ^= low
            allowed ^= low
            rest = unhit & complement[low.bit_length() - 1]
            if (not rest) if r == 1 else hits(rest, allowed, r - 1):
                return True
        return False

    n = len(cover)
    unhit = (1 << len(lowest)) - 1
    if not hits(unhit, (1 << n) - 1, r):
        return None, nodes
    found = []
    while r:
        first = max(r - 1, lowest[unhit.bit_length() - 1]) if unhit else r - 1
        for t in range(first, n):
            rest = unhit & complement[t]
            if hits(rest, (1 << t) - 1, r - 1):
                break
        found.append(t)
        unhit, n, r = rest, t, r - 1
    return found[::-1], nodes


def colex_first_cover(cover, members, place, r, orbits=None):
    """The search's two entries over one family, as one call: the
    colex-first r-set of the vertices (an ascending list, or None), and
    the nodes of the decision plus, where it passes, the read-off.
    ``orbits`` defaults to no group."""
    if orbits is None:
        orbits = search._Orbits(None, place, place)
    decide, read_off = search._cover_search(cover, members, place, lambda nodes: None, orbits)
    passes, nodes = decide(r)
    return read_off(r) if passes else (None, nodes)


def reference_metric_dimension(g, mode, k_max=None):
    """The ascending search before degree-ordered decisions and galloping:
    over the same masks as ``search.metric_dimension``, in the
    vertex-ordered family of ``reference_family``, each cardinality from
    the lower bound up to ``k_max`` (default n) is decided and read off by
    ``reference_colex_first_cover``.  Returns (value, basis, lower_bound,
    lower_bound_source, subsets_checked, exhausted_through); value and
    basis are None when no cardinality up to ``k_max`` passes."""
    masks = mode_masks(all_pairs_distances(g), mode)
    forced, masks = ((), masks) if mode.kind == "doubly" else reference_split_forced(masks)
    source, bound = max(search.dimension_lower_bounds(g, mode, forced=forced),
                        key=lambda b: (b[1], b[0] == search.PROVENANCE_FORCED))
    free = [v for v in range(g.n) if v not in forced]
    cover, lowest, members = reference_family(reference_minimal_masks(masks), free)
    checked = exhausted = 0
    for k in range(bound, (g.n if k_max is None else min(g.n, k_max)) + 1):
        hit, _ = reference_colex_first_cover(cover, lowest, members, k - len(forced))
        if hit is not None:
            basis = tuple(sorted(forced + tuple(free[j] for j in hit)))
            return k, basis, bound, source, checked + colex_rank(hit) + 1, exhausted
        checked += comb(len(free), k - len(forced))
        exhausted, bound, source = k, k + 1, search.PROVENANCE_EXHAUSTED
    if k_max is None:
        raise AssertionError("no cardinality up to n hits every mask")
    return None, None, bound, source, checked, exhausted


def oracle_automorphisms(g):
    """Every permutation of the vertices (as a tuple of images) that maps
    the edge set onto itself, in lexicographic order."""
    edges = set(g.edges())
    return [p for p in itertools.permutations(range(g.n))
            if all((min(p[u], p[v]), max(p[u], p[v])) in edges for u, v in edges)]


# ---------------------------------------------------------------------------
# random instances


def random_connected_graph(rng, n_min=2, n_max=9):
    """Random tree plus random extra edges; always connected."""
    n = rng.randint(n_min, n_max)
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    extra = rng.randint(0, n)
    for _ in range(extra):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return build_graph(n, sorted(edges))


def random_anchor_set(rng, n, max_size=5):
    size = rng.randint(1, min(max_size, n))
    return tuple(sorted(rng.sample(range(n), size)))


@pytest.fixture
def rng():
    return random.Random(20260814)


@pytest.fixture(scope="session")
def demo():
    from resolving import demo_graph

    g = demo_graph()
    return g, all_pairs_distances(g)
