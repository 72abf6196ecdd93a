"""Immutable simple graphs, BFS distance matrices, and standard families."""

from __future__ import annotations

import dataclasses
import functools
import operator
from collections import deque

import numpy as np

from .errors import DisconnectedGraphError, GraphError


@dataclasses.dataclass(frozen=True)
class Graph:
    """A finite simple undirected graph on vertices ``0..n-1``.

    Instances are immutable.  Adjacency lists are sorted tuples.  Optional
    ``labels`` give vertices display names (the index is used otherwise).
    ``connected`` is computed at build time; analysis entry points refuse
    disconnected graphs, construction merely flags them.  The distance
    matrix is computed on first use and kept with the graph object (see
    :func:`all_pairs_distances`).
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...] | None = None
    connected: bool = True

    def neighbors(self, v):
        return self.adjacency[v]

    def degree(self, v):
        return len(self.adjacency[v])

    @property
    def edge_count(self):
        return sum(len(a) for a in self.adjacency) // 2

    def edges(self):
        """Yield edges as (u, v) with u < v, in lexicographic order."""
        for u in range(self.n):
            for v in self.adjacency[u]:
                if u < v:
                    yield (u, v)

    def label(self, v):
        if self.labels is not None:
            return self.labels[v]
        return str(v)

    def vertex_by_label(self, token):
        """Index of the vertex labelled ``token``, or None."""
        if self.labels is None:
            return None
        try:
            return self.labels.index(token)
        except ValueError:
            return None

    def require_connected(self):
        if not self.connected:
            reached = _bfs_reach(self.adjacency, 0)
            missing = next(v for v in range(self.n) if v not in reached)
            raise DisconnectedGraphError(0, missing)

    @functools.cached_property
    def _distances(self):
        return _bfs_distances(self)


def _bfs_reach(adjacency, source):
    seen = {source}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in adjacency[u]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def _plain_int(x):
    """``x`` as a plain int if it is of an integer type (numpy ones too)
    other than bool, else None: the one integer check for every vertex,
    count and order given from outside."""
    if isinstance(x, (bool, np.bool_)) or not hasattr(type(x), "__index__"):
        return None
    return operator.index(x)


def _count(x, least, rule):
    """``x`` as a plain int if it is an integer of at least ``least``, else
    a GraphError stating ``rule``: the check for every size given from
    outside."""
    v = _plain_int(x)
    if v is None or v < least:
        raise GraphError(f"{rule}, got {x!r}")
    return v


def _snark_order(n):
    """``n`` as a plain int if J_n exists (n odd, n >= 5), else GraphError."""
    v = _plain_int(n)
    if v is None or v < 5 or v % 2 == 0:
        raise GraphError(f"flower snark needs an odd integer n >= 5, got {n!r}")
    return v


_SNARK_ROLES = ("a", "b", "c", "d")


def _snark_index(role, i, n):
    """Vertex ``role`` of star i of J_n, stars 1-based and wrapping mod n:
    the layout of J_n, one block of n vertices per role.  Unchecked."""
    return _SNARK_ROLES.index(role) * n + (i - 1) % n


def _snark_coords(v, n):
    """(role, star) of vertex v of J_n, the inverse of :func:`_snark_index`; unchecked."""
    block, i = divmod(v, n)
    return _SNARK_ROLES[block], i + 1


def _endpoint(x, edge):
    v = _plain_int(x)
    if v is None:
        raise GraphError(f"edge {edge!r} has non-integer endpoints")
    return v


def build_graph(n, edges, labels=None):
    """Validate and build an immutable graph.

    The vertex count and the endpoints may be of any integer type but bool
    and are stored as ints.
    Rejects self-loops, duplicate edges, and out-of-range endpoints.  A
    disconnected graph is returned with ``connected=False``; analysis
    operations will refuse it.
    """
    n = _count(n, 1, "vertex count must be a positive integer")
    if labels is not None:
        labels = tuple(str(x) for x in labels)
        if len(labels) != n:
            raise GraphError(f"expected {n} labels, got {len(labels)}")
        if len(set(labels)) != n:
            raise GraphError("labels must be distinct")
    adj = [set() for _ in range(n)]
    seen = set()
    for e in edges:
        try:
            u, v = e
        except (TypeError, ValueError):
            raise GraphError(f"edge {e!r} is not a pair") from None
        u, v = _endpoint(u, e), _endpoint(v, e)
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge {e!r} is out of range for n={n}")
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise GraphError(f"duplicate edge {key}")
        seen.add(key)
        adj[u].add(v)
        adj[v].add(u)
    adjacency = tuple(tuple(sorted(a)) for a in adj)
    connected = len(_bfs_reach(adjacency, 0)) == n
    return Graph(n=n, adjacency=adjacency, labels=labels, connected=connected)


@dataclasses.dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """All-pairs shortest-path distances of a connected graph, and the
    invariants computed from them, each kept with the matrix once computed
    (see :meth:`_invariant`)."""

    dist: np.ndarray
    _invariants: dict = dataclasses.field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        self.dist.setflags(write=False)

    @property
    def n(self):
        return self.dist.shape[0]

    def __getitem__(self, uv):
        u, v = uv
        return int(self.dist[u, v])

    def row(self, v):
        """Distances from every vertex to ``v`` (a read-only numpy row)."""
        return self.dist[:, v]

    def _invariant(self, compute):
        """``compute(self)``, computed on the first call with that function
        and kept with this matrix for its lifetime.  Only for what depends
        on the graph alone (such as its automorphism group): per-call
        inputs like masks, forced vertices or answers do not belong here."""
        try:
            return self._invariants[compute]
        except KeyError:
            value = self._invariants[compute] = compute(self)
            return value


def all_pairs_distances(g):
    """The distance matrix of ``g``, computed by BFS on the first call for
    that graph object and kept with it for its lifetime, so every later
    call returns the same matrix (an equal graph built anew computes its
    own).  Raises on a disconnected graph, on every call."""
    return g._distances


def _bfs_distances(g):
    """BFS from every vertex, level by level over Python lists; one int32
    matrix is built at the end.  Raises on a disconnected graph."""
    g.require_connected()
    n = g.n
    adjacency = g.adjacency
    out = []
    for s in range(n):
        row = [-1] * n
        row[s] = 0
        frontier = [s]
        d = 0
        while frontier:
            d += 1
            reached = []
            for u in frontier:
                for w in adjacency[u]:
                    if row[w] < 0:
                        row[w] = d
                        reached.append(w)
            frontier = reached
        out.append(row)
    return DistanceMatrix(np.array(out, dtype=np.int32))


# ---------------------------------------------------------------------------
# standard families


def path_graph(n):
    n = _count(n, 1, "path needs a positive integer vertex count")
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    n = _count(n, 3, "cycle needs an integer vertex count >= 3")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    n = _count(n, 1, "complete graph needs a positive integer vertex count")
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(leaves):
    """Star with the given number of leaves; the centre is vertex 0."""
    leaves = _count(leaves, 1, "star needs a positive integer leaf count")
    return build_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def tree_from_parents(parents):
    """Tree from a parent array: vertex i+1 attaches to parents[i] <= i."""
    parents = list(parents)
    n = len(parents) + 1
    edges = []
    for i, p in enumerate(parents):
        child = i + 1
        if _plain_int(p) is None or not 0 <= p <= i:
            raise GraphError(
                f"parent of vertex {child} must be an earlier vertex, got {p!r}"
            )
        edges.append((p, child))
    return build_graph(n, edges)


def generate_family(family, **params):
    """Dispatch on a family name: path, cycle, complete, star, tree."""
    builders = {
        "path": lambda: path_graph(params["n"]),
        "cycle": lambda: cycle_graph(params["n"]),
        "complete": lambda: complete_graph(params["n"]),
        "star": lambda: star_graph(params.get("leaves", params.get("n"))),
        "tree": lambda: tree_from_parents(params["parents"]),
    }
    if family not in builders:
        raise GraphError(f"unknown family {family!r}")
    try:
        return builders[family]()
    except KeyError as exc:
        raise GraphError(f"family {family!r} is missing parameter {exc}") from None


# ---------------------------------------------------------------------------
# cartesian product and the grid (rook) graph


@dataclasses.dataclass(frozen=True)
class ProductCoord:
    """Coordinates of a product vertex: factor indices (g, h)."""

    g: int
    h: int


def product_flat(gi, hi, h_size):
    return gi * h_size + hi

def product_coord(flat, h_size):
    return ProductCoord(flat // h_size, flat % h_size)


def cartesian_product(g, h):
    """Cartesian product: (a,v)~(b,u) iff a=b and v~u, or a~b and v=u.

    Vertex (gi, hi) gets flat index gi*h.n + hi and label "(gl,hl)".
    """
    n = g.n * h.n
    edges = []
    for gi in range(g.n):
        base = gi * h.n
        for (u, v) in h.edges():
            edges.append((base + u, base + v))
    for (a, b) in g.edges():
        for hi in range(h.n):
            edges.append((a * h.n + hi, b * h.n + hi))
    labels = tuple(
        f"({g.label(gi)},{h.label(hi)})" for gi in range(g.n) for hi in range(h.n)
    )
    return build_graph(n, edges, labels=labels)


def rook_graph(m, n):
    """The grid K_m x K_n: columns from the m-clique, rows from the n-clique.

    Two cells are adjacent iff they share a column or a row; all other pairs
    are at distance two.  Flat index of (row, col) is col*n + row.
    """
    m, n = (_count(x, 1, "rook grid needs positive integer dimensions") for x in (m, n))
    return cartesian_product(complete_graph(m), complete_graph(n))


def rook_flat(row, col, n):
    return col * n + row

def rook_cell(flat, n):
    return (flat % n, flat // n)


# ---------------------------------------------------------------------------
# flower snark


def flower_snark(n):
    """The flower snark J_n for odd n >= 5.

    Vertices are laid out in four blocks of n: a1..an (outer cycle),
    b1..bn (star centres), c1..cn and d1..dn (one 2n-cycle
    c1..cn d1..dn c1). Star i is {a_i, b_i, c_i, d_i} with b_i adjacent
    to the other three. The graph is cubic with girth at least five.
    """
    n = _snark_order(n)
    v = lambda role, i: _snark_index(role, i, n)
    edges = []
    for i in range(1, n + 1):
        edges += [(v("b", i), v(leaf, i)) for leaf in "acd"]
        edges.append((v("a", i), v("a", i + 1)))
    for i in range(1, n):
        edges += [(v("c", i), v("c", i + 1)), (v("d", i), v("d", i + 1))]
    edges += [(v("c", n), v("d", 1)), (v("d", n), v("c", 1))]
    labels = ["{}{}".format(*_snark_coords(u, n)) for u in range(4 * n)]
    return build_graph(4 * n, edges, labels=labels)


# ---------------------------------------------------------------------------
# the nine-vertex worked example


_DEMO_EDGES = (
    (0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 3),
    (3, 6), (4, 5), (4, 7), (5, 6), (6, 8), (7, 8),
)

# (anchor set, target set, expected distance array) triples that the
# builder re-derives; they double as regression anchors for the checkers.
_DEMO_ARRAYS = (
    ((1, 2, 6), (5,), (2, 3, 1)),
    ((1, 2, 6), (7, 8), (2, 3, 1)),
    ((0, 1, 2, 3, 7, 8), (5,), (3, 2, 3, 2, 2, 2)),
    ((0, 1, 2, 3, 7, 8), (7, 8), (3, 2, 3, 2, 0, 0)),
    ((0, 1, 2, 6, 7), (5,), (3, 2, 3, 1, 2)),
    ((0, 1, 2, 6, 7), (7, 8), (3, 2, 3, 1, 0)),
    ((0, 1, 2, 6, 7), (5, 7), (3, 2, 3, 1, 0)),
    ((0, 1, 2, 3, 7, 8), (4, 6), (2, 1, 2, 1, 1, 1)),
    ((0, 1, 2, 3, 7, 8), (4, 5, 6), (2, 1, 2, 1, 1, 1)),
    ((0, 1, 2, 3, 5, 7, 8), (4, 6), (2, 1, 2, 1, 1, 1, 1)),
    ((0, 1, 2, 3, 5, 7, 8), (4, 5, 6), (2, 1, 2, 1, 0, 1, 1)),
)


def demo_graph():
    """The nine-vertex worked example used throughout docs and tests.

    The builder recomputes the distance arrays its anchor sets are known
    for and refuses to return a graph that does not reproduce them.
    """
    g = build_graph(9, _DEMO_EDGES, labels=[f"v{i+1}" for i in range(9)])
    dm = all_pairs_distances(g)
    for anchors, target, expected in _DEMO_ARRAYS:
        got = tuple(
            min(dm[s, t] for t in target) for s in anchors
        )
        if got != expected:
            raise GraphError(
                f"demo graph failed self-check: D_{anchors}({target}) = {got}, "
                f"expected {expected}"
            )
    return g
