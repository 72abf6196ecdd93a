"""Distance arrays and the resolving-set checkers.

An anchor set S gives every nonempty set X of vertices a distance array
D_S(X) = (d(s, X) for s in S, ascending s), where d(s, X) = min over x in X
of d(s, x).

* S is {l}-resolving iff all distinct nonempty X, Y with |X|, |Y| <= l get
  distinct arrays.
* S is l-solid iff all distinct nonempty X, Y with |X| <= l (Y of any size)
  get distinct arrays.  Equivalently (and this is what the fast checker
  scans): for every vertex x and every nonempty Y not containing x with
  |Y| <= l there is s in S with d(s, x) < d(s, Y).
* S is doubly resolving iff for every vertex pair v, w the difference
  vector (d(v, s) - d(w, s) for s in S) is not constant.

Witness enumeration is deterministic: candidate sets are scanned by size,
then in colexicographic order, and the first violation in that order is
reported.

Both scans run over numpy blocks of one array that lists every set of at
most l vertices, size-then-colex, each row padded with its set's smallest
vertex (``subsets.size_colex_array``); a set's position is its row.  A
block's distance arrays are a min-reduce over the rows of its sets'
vertices.  The {l}-resolving scan reduces each array to a 64-bit key and
keeps only the sorted keys and rows of the sets scanned so far; every key
match is confirmed on recomputed arrays.  The l-solid scan builds the
bitsets of dominated vertices for a whole block of Y sets at once.  Blocks
start small and double, so a scan that fails early stops early.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import ModeError, OracleCapError
from .graphs import _plain_int, all_pairs_distances
from .subsets import size_colex_array

DEFAULT_ORACLE_CAP = 12
# entries (sets times anchors, or anchor words) in a scan's first block of
# sets, and the most that doubling grows a block to
_FIRST_ENTRIES = 1 << 12
_BLOCK_ENTRIES = 1 << 18


@dataclasses.dataclass(frozen=True)
class Mode:
    """A check mode: kind in {"resolving", "solid", "doubly"} plus order l."""

    kind: str
    order: int | None = None

    def __post_init__(self):
        if self.kind not in ("resolving", "solid", "doubly"):
            raise ModeError(f"unknown mode kind {self.kind!r}")
        if self.kind == "doubly":
            if self.order is not None:
                raise ModeError("doubly-resolving mode takes no order")
        elif _plain_int(self.order) is None or self.order < 1:
            raise ModeError(f"order must be a positive integer, got {self.order!r}")
        object.__setattr__(self, "order", _plain_int(self.order))

    @classmethod
    def resolving(cls, order):
        return cls("resolving", order)

    @classmethod
    def solid(cls, order):
        return cls("solid", order)

    @classmethod
    def doubly(cls):
        return cls("doubly", None)

    def validate_for(self, n):
        """Reject orders that make no sense on an n-vertex graph."""
        if self.kind == "resolving" and self.order > n:
            raise ModeError(f"resolving order {self.order} exceeds vertex count {n}")
        if self.kind == "solid" and self.order > n - 1:
            raise ModeError(
                f"solid order {self.order} needs at least {self.order + 1} vertices"
            )
        if self.kind == "doubly" and n < 2:
            raise ModeError("doubly-resolving needs at least two vertices")

    def describe(self):
        if self.kind == "doubly":
            return "doubly-resolving"
        if self.kind == "solid":
            return f"{self.order}-solid-resolving"
        return f"{{{self.order}}}-resolving"


@dataclasses.dataclass(frozen=True)
class ArrayCollision:
    """Two distinct sets sharing one distance array. ``first`` precedes
    ``second`` in size-then-colex enumeration order."""

    first: tuple[int, ...]
    second: tuple[int, ...]
    array: tuple[int, ...]


@dataclasses.dataclass(frozen=True)
class DominatedVertex:
    """A vertex x and a set Y (x not in Y) with d(s,x) >= d(s,Y) for all
    s in S; equivalently D_S(Y) = D_S(Y + {x})."""

    vertex: int
    dominating: tuple[int, ...]


@dataclasses.dataclass(frozen=True)
class UnresolvedPair:
    """A vertex pair whose distance difference is the same constant at
    every anchor."""

    u: int
    v: int
    difference: int


@dataclasses.dataclass(frozen=True)
class CheckVerdict:
    holds: bool
    witness: object | None = None

    def __bool__(self):
        return self.holds


def _as_vertex_set(s, n, what="anchor set"):
    items = []
    for v in s:
        item = _plain_int(v)
        if item is None:
            raise ModeError(f"{what} has a non-integer vertex: {v!r}")
        items.append(item)
    t = tuple(sorted(set(items)))
    if len(t) != len(items):
        raise ModeError(f"{what} has repeated vertices: {items}")
    if not t:
        raise ModeError(f"{what} must be nonempty")
    if t[0] < 0 or t[-1] >= n:
        raise ModeError(f"{what} {t} out of range for n={n}")
    return t


def distance_array(dm, anchors, target):
    """D_anchors(target): min-distance profile of target seen from anchors."""
    n = dm.n
    anchors = _as_vertex_set(anchors, n)
    target = _as_vertex_set(target, n, what="target set")
    dist = dm.dist
    return tuple(int(min(dist[s, t] for t in target)) for s in anchors)


def _anchor_rows(dm, anchors):
    """d(v, s) for s in ``anchors``, one row per vertex v, in the smallest
    unsigned dtype that holds the distances."""
    sub = dm.dist[:, list(anchors)]
    return sub.astype(np.min_scalar_type(int(sub.max())))


def set_arrays(rows, sets):
    """min over v in X of rows[v], for every row X of the intp array
    ``sets``: D_S(X) when row v of ``rows`` holds d(v, s) for s in S."""
    out = rows[sets[:, 0]]
    for c in range(1, sets.shape[1]):
        np.minimum(out, rows[sets[:, c]], out=out)
    return out


def _blocks(count, width):
    """(lo, hi) ranges over ``count`` sets of ``width`` entries each: the
    first block holds about _FIRST_ENTRIES entries, so early exits stay
    cheap, and each next one twice as many, up to _BLOCK_ENTRIES."""
    step = max(1, _FIRST_ENTRIES // width)
    cap = max(step, _BLOCK_ENTRIES // width)
    lo = 0
    while lo < count:
        yield lo, min(lo + step, count)
        lo += step
        step = min(2 * step, cap)


def _key_weights(width):
    """Fixed pseudo-random 64-bit weights: splitmix64 of 1 .. width."""
    z = np.arange(1, width + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _array_keys(arrays, weights):
    """A 64-bit key per distance array, the linear form with the given
    pseudo-random ``weights`` mod 2**64: equal arrays get equal keys;
    distinct ones rarely do."""
    return arrays.astype(np.uint64) @ weights


# ---------------------------------------------------------------------------
# {l}-resolving


def is_l_resolving(dm, anchors, order):
    """Check whether ``anchors`` is an {order}-resolving set.

    Sets are taken in blocks of rows of ``size_colex_array``: by size, and
    within a size in colex order.  A block's distance arrays are reduced
    to 64-bit keys, which are sorted stably together with the sorted keys
    of every earlier set.  Only keys and rows are kept, never arrays: when
    a key of the block matches another key, the arrays of all sets sharing
    those keys are recomputed and compared, so the check is exact even
    when distinct arrays share a key.  The reported collision is the
    equal-array pair whose later set comes first in size-then-colex order;
    no earlier set has an equal-array partner before it, so its partner is
    unique.  The scan stops at the first block holding a collision.
    """
    n = dm.n
    anchors = _as_vertex_set(anchors, n)
    Mode.resolving(order).validate_for(n)
    rows = _anchor_rows(dm, anchors)
    weights = _key_weights(len(anchors))
    sets = size_colex_array(n, order)
    keys = np.empty(0, dtype=np.uint64)  # keys of the sets scanned so far, sorted
    where = np.empty(0, dtype=np.intp)   # their rows of ``sets``
    for lo, hi in _blocks(len(sets), len(anchors)):
        keys = np.concatenate([keys, _array_keys(set_arrays(rows, sets[lo:hi]), weights)])
        where = np.concatenate([where, np.arange(lo, hi)])
        perm = np.argsort(keys, kind="stable")
        # one at a time, so that the old keys are freed before the new rows
        keys = keys[perm]
        where = where[perm]
        tied = keys[1:] == keys[:-1]
        if tied.any() and (witness := _first_collision(rows, sets, tied, where)):
            return CheckVerdict(False, witness)
    return CheckVerdict(True)


def _first_collision(rows, sets, tied, where):
    """The first collision among the sets at rows ``where`` of ``sets``,
    or None.  ``where`` is in key order, and ``tied[i]`` says whether
    entries i and i + 1 share a key.  A run of equal keys that holds no
    set of the last block holds distinct arrays, or an earlier block
    would have returned, so it adds no collision."""
    # the sets that share their key with another
    picked = np.zeros(len(where), dtype=bool)
    picked[:-1] = tied
    picked[1:] |= tied
    positions = np.sort(where[picked])
    arrays = set_arrays(rows, sets[positions])
    # equal arrays end up adjacent, each run in ascending position, so the
    # earliest later set is a run's second member and follows its partner
    order = np.lexsort(arrays.T)
    ranked = arrays[order]
    same = np.flatnonzero((ranked[1:] == ranked[:-1]).all(axis=1))
    if not len(same):
        return None
    t = same[np.argmin(order[same + 1])]
    return ArrayCollision(_members(sets[positions[order[t]]]),
                          _members(sets[positions[order[t + 1]]]), tuple(ranked[t].tolist()))


def _members(row):
    """The set of a row of ``size_colex_array``, without its padding."""
    return tuple(np.unique(row).tolist())


# ---------------------------------------------------------------------------
# l-solid


def _solid_condition_scan(dm, anchors, bound):
    """First (x, Y) with |Y| <= bound, x not in Y, and no anchor strictly
    closer to x than to Y; Y scanned size-then-colex, x ascending.

    For a block of Y sets the dominated vertices come out as bitsets:
    x is dominated by Y iff d(x, s) >= d(s, Y) at every anchor s, so the
    bitset is the AND over anchors of the precomputed {x : d(x, s) >= t}
    at t = d(s, Y).  An anchor s is never dominated by a Y avoiding it,
    since d(s, s) = 0 < d(s, Y); the members of Y are cleared (a padded
    row's smallest member more than once, which does nothing).
    """
    n = dm.n
    rows = _anchor_rows(dm, anchors)
    width = (n + 63) // 64
    # at_least[s, t]: the words of {x : d(x, s) >= t}, bit x % 64 of word x // 64
    bits = np.zeros((len(anchors), int(rows.max()) + 1, 64 * width), dtype=bool)
    np.greater_equal(rows.T[:, None, :], np.arange(bits.shape[1])[:, None], out=bits[..., :n])
    at_least = np.packbits(bits, axis=-1, bitorder="little").view("<u8")
    columns = np.arange(len(anchors))
    bit = np.uint64(1) << (np.arange(n) % 64).astype(np.uint64)
    ys = size_colex_array(n, bound)
    for lo, hi in _blocks(len(ys), len(anchors) * width):
        block = ys[lo:hi]
        dominated = np.bitwise_and.reduce(at_least[columns, set_arrays(rows, block)], axis=1)
        for member in block.T:
            dominated[np.arange(len(block)), member // 64] &= ~bit[member]
        hit = np.flatnonzero(dominated.any(axis=1))
        if len(hit):
            y = hit[0]
            x = np.argmax(np.unpackbits(dominated[y].view(np.uint8), bitorder="little"))
            return CheckVerdict(False, DominatedVertex(int(x), _members(block[y])))
    return CheckVerdict(True)


def is_l_solid(dm, anchors, order):
    """Check whether ``anchors`` is an order-solid-resolving set.

    Scans the equivalent strict-domination condition: some anchor must be
    strictly closer to each vertex x than to each set Y avoiding x with
    |Y| <= order.  Anchors themselves can never violate it (they are at
    distance zero from themselves), so they are skipped.
    """
    n = dm.n
    anchors = _as_vertex_set(anchors, n)
    Mode.solid(order).validate_for(n)
    return _solid_condition_scan(dm, anchors, order)


def is_l_solid_oracle(dm, anchors, order, *, cap=DEFAULT_ORACLE_CAP):
    """Literal-definition oracle: compares D_S(X) against D_S(Y) for every
    nonempty X with |X| <= order and every nonempty Y.

    Exponential in the vertex count; guarded by ``cap``.  Pass a larger cap
    to override explicitly.
    """
    n = dm.n
    anchors = _as_vertex_set(anchors, n)
    Mode.solid(order).validate_for(n)
    if n > cap:
        raise OracleCapError(
            f"oracle needs 2^{n} subsets; raise cap={cap} explicitly to allow"
        )
    rows = [tuple(row) for row in _anchor_rows(dm, anchors).tolist()]
    arrays = [None] * (1 << n)
    for m in range(1, 1 << n):
        low = m & -m
        prev = m ^ low
        base = rows[low.bit_length() - 1]
        arrays[m] = base if prev == 0 else tuple(map(min, arrays[prev], base))
    # stable over an ascending range: by size, then numerically (colex)
    enumeration = sorted(range(1, 1 << n), key=int.bit_count)
    first_seen = {}
    for m in enumeration:
        arr = arrays[m]
        prior = first_seen.get(arr)
        if prior is None:
            first_seen[arr] = m
            continue
        if prior.bit_count() <= order:
            first = tuple(i for i in range(n) if prior >> i & 1)
            second = tuple(i for i in range(n) if m >> i & 1)
            return CheckVerdict(False, ArrayCollision(first, second, arr))
    return CheckVerdict(True)


def necessary_resolving_condition(dm, anchors, order):
    """Necessary condition for an {order}-resolving set (order >= 2): the
    strict-domination scan at order-1.  Holding does not certify the set;
    failing certifies it is not {order}-resolving."""
    if not isinstance(order, int) or order < 2:
        raise ModeError(f"the necessary condition needs order >= 2, got {order!r}")
    n = dm.n
    anchors = _as_vertex_set(anchors, n)
    Mode.resolving(order).validate_for(n)
    return _solid_condition_scan(dm, anchors, order - 1)


# ---------------------------------------------------------------------------
# doubly resolving


def is_doubly_resolving(dm, anchors):
    """Check that every vertex pair gets a non-constant difference vector."""
    n = dm.n
    anchors = _as_vertex_set(anchors, n)
    if len(anchors) < 2:
        raise ModeError("doubly-resolving needs at least two anchors")
    sub = dm.dist[:, list(anchors)].astype(np.int64)
    for u in range(n):
        diffs = sub[u] - sub[u + 1:]
        constant = (diffs == diffs[:, :1]).all(axis=1)
        if constant.any():
            v = u + 1 + int(np.argmax(constant))
            return CheckVerdict(False, UnresolvedPair(u, v, int(sub[u, 0] - sub[v, 0])))
    return CheckVerdict(True)


# ---------------------------------------------------------------------------
# forced vertices


def _forced_bound(order, kind):
    if kind == "solid":
        return order
    if kind == "resolving":
        return order - 1
    raise ModeError(f"forced-vertex kind must be 'resolving' or 'solid', got {kind!r}")


def forced_vertices(g, order, kind):
    """Vertices that belong to every set of the given kind and order.

    As in ``forced_vertices_oracle``, v is forced iff V - {v} fails, iff
    {v} is a separator mask of the search.  For both kinds that is an
    l-solid mask, l = order (solid) or order - 1 (resolving): a resolving
    pair whose arrays differ only at v is Y and Y + {v}, an l-solid pair.
    The mask of x = v and Y is {v} iff every vertex but v is at least as
    close to Y as to v, iff every neighbour of v is in N[Y]; so v is forced
    iff at most l closed neighbourhoods other than N[v] cover N(v).
    For {1}-resolving there are no forced vertices.
    """
    mode = Mode(kind, order)
    g.require_connected()
    bound = _forced_bound(order, kind)
    mode.validate_for(g.n)
    if bound == 0:
        return ()
    closed = [sum(1 << u for u in (w, *g.adjacency[w])) for w in range(g.n)]
    return tuple(v for v in range(g.n)
                 if _covers(closed, closed[v] ^ 1 << v, ~(1 << v), bound))


def _covers(closed, need, allowed, r):
    """Whether the closed neighbourhoods N[u] of at most r vertices u of the
    bitset ``allowed`` cover the bitset ``need``.  Branches on the vertices
    whose neighbourhoods hold the lowest vertex of need, each branch
    forbidding its own to the later ones."""
    if need & allowed == need and need.bit_count() <= r:
        return True
    branches = closed[(need & -need).bit_length() - 1] & allowed if r else 0
    while branches:
        u = branches & -branches
        branches ^= u
        allowed ^= u
        if _covers(closed, need & ~closed[u.bit_length() - 1], allowed, r - 1):
            return True
    return False


def forced_vertices_oracle(g, order, kind):
    """Deletion oracle: v is forced iff V - {v} fails the fast checker.

    Sound because the checks are superset-monotone: if V - {v} fails, so
    does every set avoiding v; if it passes, a passing set without v exists.
    """
    if g.n == 1:
        return ()
    dm = all_pairs_distances(g)
    bound = _forced_bound(order, kind)
    if bound == 0:
        return ()
    forced = []
    for v in range(g.n):
        rest = tuple(u for u in range(g.n) if u != v)
        if kind == "solid":
            verdict = is_l_solid(dm, rest, order)
        else:
            verdict = is_l_resolving(dm, rest, order)
        if not verdict.holds:
            forced.append(v)
    return tuple(forced)


# ---------------------------------------------------------------------------
# dispatch and witness re-verification


def check_mode(dm, anchors, mode):
    """Run the checker matching ``mode`` and return its verdict."""
    mode.validate_for(dm.n)
    if mode.kind == "resolving":
        return is_l_resolving(dm, anchors, mode.order)
    if mode.kind == "solid":
        return is_l_solid(dm, anchors, mode.order)
    return is_doubly_resolving(dm, anchors)


def verify_witness(dm, anchors, witness):
    """Recompute a witness from the distance matrix; True iff it is genuine."""
    anchors = _as_vertex_set(anchors, dm.n)
    if isinstance(witness, ArrayCollision):
        if witness.first == witness.second:
            return False
        a1 = distance_array(dm, anchors, witness.first)
        a2 = distance_array(dm, anchors, witness.second)
        return a1 == a2 == witness.array
    if isinstance(witness, DominatedVertex):
        x, y = witness.vertex, witness.dominating
        if x in y:
            return False
        ax = distance_array(dm, anchors, (x,))
        ay = distance_array(dm, anchors, y)
        return all(a >= b for a, b in zip(ax, ay))
    if isinstance(witness, UnresolvedPair):
        (u,), (v,) = (_as_vertex_set((w,), dm.n, what="witness pair") for w in (witness.u, witness.v))
        if u == v:
            return False
        diffs = {dm[u, s] - dm[v, s] for s in anchors}
        return diffs == {witness.difference}
    raise TypeError(f"not a witness: {witness!r}")
