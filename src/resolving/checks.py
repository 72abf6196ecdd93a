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
"""

from __future__ import annotations

import dataclasses
import operator
from functools import reduce

import numpy as np

from .errors import ModeError, OracleCapError
from .subsets import colex_combinations

DEFAULT_ORACLE_CAP = 12


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
        else:
            if not isinstance(self.order, int) or self.order < 1:
                raise ModeError(f"order must be a positive integer, got {self.order!r}")

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


def _as_vertex(v, what):
    """``v`` as a vertex index: any integer type (numpy ones too) except bool."""
    if isinstance(v, (bool, np.bool_)):
        raise ModeError(f"{what} has a non-integer vertex: {v!r}")
    try:
        return operator.index(v)
    except TypeError:
        raise ModeError(f"{what} has a non-integer vertex: {v!r}") from None


def _as_vertex_set(s, n, what="anchor set"):
    items = [_as_vertex(v, what) for v in s]
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
    """Per-vertex tuples of distances to the anchors."""
    sub = dm.dist[list(anchors)]
    return [tuple(int(x) for x in sub[:, v]) for v in range(dm.n)]


def _min_tuple(rows, subset):
    k = len(subset)
    if k == 1:
        return rows[subset[0]]
    if k == 2:
        return tuple(map(min, rows[subset[0]], rows[subset[1]]))
    return tuple(reduce(lambda a, b: tuple(map(min, a, b)), (rows[v] for v in subset)))


# ---------------------------------------------------------------------------
# {l}-resolving


def is_l_resolving(dm, anchors, order):
    """Check whether ``anchors`` is an {order}-resolving set.

    Scans every nonempty set of size <= order in size-then-colex order and
    reports the first one whose distance array equals an earlier set's.
    Only the sets are kept, keyed by the hash of their arrays with linear
    probing: a set goes to the first free key from its hash upwards, and
    the sets on the way have their arrays recomputed and compared.  Keys
    are never freed, so an earlier set with an equal array lies on that
    way, and the check is exact even when distinct arrays share a hash.
    No two kept sets share an array, so the witness is unique.
    """
    n = dm.n
    anchors = _as_vertex_set(anchors, n)
    Mode.resolving(order).validate_for(n)
    rows = _anchor_rows(dm, anchors)
    seen = {}
    for k in range(1, order + 1):
        for subset in colex_combinations(n, k):
            arr = _min_tuple(rows, subset)
            key = hash(arr)
            while (earlier := seen.get(key)) is not None:
                if _min_tuple(rows, earlier) == arr:
                    return CheckVerdict(False, ArrayCollision(earlier, subset, arr))
                key += 1
            seen[key] = subset
    return CheckVerdict(True)


# ---------------------------------------------------------------------------
# l-solid


def _solid_condition_scan(dm, anchors, bound):
    """First (x, Y) with |Y| <= bound, x not in Y, and no anchor strictly
    closer to x than to Y; Y scanned size-then-colex, x ascending."""
    n = dm.n
    sub = dm.dist[:, list(anchors)]
    anchor_arr = np.fromiter(anchors, dtype=np.int64)
    for size in range(1, bound + 1):
        for y in colex_combinations(n, size):
            dmin = sub[list(y)].min(axis=0) if size > 1 else sub[y[0]]
            dominated = (sub >= dmin).all(axis=1)
            dominated[list(y)] = False
            dominated[anchor_arr] = False
            if dominated.any():
                x = int(np.argmax(dominated))
                return CheckVerdict(False, DominatedVertex(x, y))
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
    rows = _anchor_rows(dm, anchors)
    arrays = [None] * (1 << n)
    for m in range(1, 1 << n):
        low = m & -m
        prev = m ^ low
        base = rows[low.bit_length() - 1]
        arrays[m] = base if prev == 0 else tuple(map(min, arrays[prev], base))
    enumeration = sorted(range(1, 1 << n), key=lambda m: (m.bit_count(), m))
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

    A vertex v is forced iff some set U avoiding v with |U| <= order (solid)
    or |U| <= order-1 (resolving) has N(v) inside N[U]; any such U can be
    shrunk into N[N(v)] - {v}, so only that neighbourhood is searched.
    For {1}-resolving there are no forced vertices.
    """
    if not isinstance(order, int) or order < 1:
        raise ModeError(f"order must be a positive integer, got {order!r}")
    g.require_connected()
    bound = _forced_bound(order, kind)
    Mode(kind, order).validate_for(g.n)
    if bound == 0:
        return ()
    closed = [1 << u for u in range(g.n)]
    for u in range(g.n):
        for w in g.adjacency[u]:
            closed[u] |= 1 << w
    forced = []
    for v in range(g.n):
        need = 0
        for w in g.adjacency[v]:
            need |= 1 << w
        if need == 0:
            continue
        cand = set()
        for w in g.adjacency[v]:
            cand.add(w)
            cand.update(g.adjacency[w])
        cand.discard(v)
        cand = sorted(cand)
        masks = [closed[u] for u in cand]
        found = False
        for size in range(1, min(bound, len(cand)) + 1):
            for combo in colex_combinations(len(cand), size):
                cover = 0
                for j in combo:
                    cover |= masks[j]
                if need & ~cover == 0:
                    found = True
                    break
            if found:
                break
        if found:
            forced.append(v)
    return tuple(forced)


def forced_vertices_oracle(g, order, kind, dm=None):
    """Deletion oracle: v is forced iff V - {v} fails the fast checker.

    Sound because the checks are superset-monotone: if V - {v} fails, so
    does every set avoiding v; if it passes, a passing set without v exists.
    """
    from .graphs import all_pairs_distances

    if g.n == 1:
        return ()
    if dm is None:
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
        diffs = {dm[witness.u, s] - dm[witness.v, s] for s in anchors}
        return diffs == {witness.difference}
    raise TypeError(f"not a witness: {witness!r}")
