"""Flower snark toolkit.

J_n (odd n >= 5) has 4n vertices grouped into n *stars* T_i = {a_i, b_i,
c_i, d_i}: b_i is the hub of star i, the a_i form an n-cycle, and the c/d
leaves form a single 2n-cycle c_1..c_n d_1..d_n.  Everything here is
1-based in the star index with wraparound, so b_0 means b_n.

The module holds vertex naming by role and star, the explicit vertex sets
whose minimality the search module certifies, the two star lemmas those
certificates lean on, a 3-element set broken by one misprinted index with
its correction, the gap statistics that rule out 2-solid sets, the
size-reduction map J_n -> J_{n-2} with its distance relations, the star
distance, and the suite that runs every check.  Coordinates are checked
where they enter; inside, the layout of J_n is plain arithmetic.
"""

from __future__ import annotations

import dataclasses
import time
from functools import lru_cache

import numpy as np

from . import checks
from .checks import CheckVerdict, Mode, distance_array
from .errors import GraphError
from .graphs import (_SNARK_ROLES, _plain_int, _snark_coords, _snark_index, _snark_order,
                     all_pairs_distances, flower_snark)
from .search import SearchConfig, metric_dimension

__all__ = [
    "snark_vertex", "snark_label", "star_of", "role_of", "snark_context",
    "RECIPE_KINDS", "recipe_set", "recipe_check_mode", "verify_recipe",
    "check_erroneous_set", "verify_flank_table", "verify_triple_distinguishers",
    "gap_statistics", "reduction_map", "admissible_stars",
    "admissible_vertices", "reduction_distance_check", "star_distance",
    "snark_suite", "ErroneousSetReport", "GapReport", "ReductionMap",
    "ReductionReport", "ReductionViolation", "TableMismatch",
    "DistinguisherMismatch",
]


def _vertex_of(x, n):
    """``x`` as an int, checked to be a vertex of J_n."""
    v = _plain_int(x)
    if v is None or not 0 <= v < 4 * n:
        raise GraphError(f"vertex {x!r} is not in J_{n}, whose vertices are 0..{4 * n - 1}")
    return v


def _star_index(i):
    """``i`` as a plain int star index (any integer; stars wrap mod n)."""
    star = _plain_int(i)
    if star is None:
        raise GraphError(f"star index must be an integer, got {i!r}")
    return star


def snark_vertex(role, i, n):
    """Flat index of role in {a,b,c,d} at star i (1-based, wraps mod n)."""
    n = _snark_order(n)
    if role not in _SNARK_ROLES:
        raise GraphError(f"role must be one of a, b, c, d, got {role!r}")
    return _snark_index(role, _star_index(i), n)


def _checked_coords(v, n):
    """(role, star) of vertex v of J_n, with n and v checked."""
    n = _snark_order(n)
    return _snark_coords(_vertex_of(v, n), n)


def star_of(v, n):
    """Star (1..n) of vertex v of J_n, for 0 <= v < 4n only."""
    return _checked_coords(v, n)[1]


def role_of(v, n):
    """Role of vertex v of J_n, for 0 <= v < 4n only."""
    return _checked_coords(v, n)[0]


def snark_label(v, n):
    return "{}{}".format(*_checked_coords(v, n))


@lru_cache(maxsize=32)
def snark_context(n):
    """Cached (graph, distance matrix) pair for J_n."""
    g = flower_snark(n)
    return g, all_pairs_distances(g)


# ---------------------------------------------------------------------------
# explicit set recipes

# each recipe: the mode it is built to pass, and its members in J_n as
# (role, star) pairs, with k = (n - 1) // 2
_RECIPES = {
    "l3": (Mode.resolving(3), lambda n, k:
           [(role, i) for role in "acd" for i in range(1, n + 1)]),
    "solid2": (Mode.solid(2), lambda n, k:
               [("a", 1), ("c", 1), ("d", 1),
                ("a", k + 1), ("a", k + 2), ("c", k + 2), ("d", k + 2)]
               + [("b", i) for i in range(1, n + 1) if i not in (1, k + 2)]),
    "l2": (Mode.resolving(2), lambda n, k:
           [("a", 1), ("c", 1), ("d", 1), ("a", 2),
            ("a", k + 1), ("a", k + 2), ("c", k + 2), ("d", k + 2)]),
    "solid1": (Mode.solid(1), lambda n, k:
               [("a", 1), ("a", k + 2), ("c", 1), ("d", 1),
                ("c", k + 1), ("d", k + 1)]),
    "dim1_corrected": (Mode.resolving(1), lambda n, k:
                       [("c", 1), ("d", 1), ("d", k + 1)]),
    "dim1_erroneous": (Mode.resolving(1), lambda n, k:
                       [("c", 1), ("d", 1), ("d", k)]),
}

RECIPE_KINDS = tuple(_RECIPES)


def _recipe(kind):
    """(mode, member builder) of a recipe kind, or GraphError."""
    if kind not in RECIPE_KINDS:
        raise GraphError(f"unknown recipe kind {kind!r}")
    return _RECIPES[kind]


def recipe_check_mode(kind):
    """Mode the recipe is meant to satisfy (the erroneous one fails it)."""
    return _recipe(kind)[0]


def recipe_set(kind, n):
    """The explicit vertex set of the given kind for J_n, as flat indices.

    Sizes: l3 -> 3n, solid2 -> n+5, l2 -> 8 (needs n >= 7), solid1 -> 6,
    dim1_corrected and dim1_erroneous -> 3.
    """
    n = _snark_order(n)
    members = _recipe(kind)[1]
    if kind == "l2" and n < 7:
        raise GraphError("the 8-element recipe needs n >= 7")
    return tuple(sorted(_snark_index(role, i, n) for role, i in members(n, (n - 1) // 2)))


def verify_recipe(kind, n):
    _, dm = snark_context(n)
    return checks.check_mode(dm, recipe_set(kind, n), recipe_check_mode(kind))


# ---------------------------------------------------------------------------
# the 3-element set with a misprinted index


def _misprint_collisions(n):
    """The two pairs of J_n that {c1, d1, d_k} cannot tell apart, each with
    the distance array both share: (a1, b_n) and (a_k, b_{k+1})."""
    k = (n - 1) // 2
    return ((_snark_index("a", 1, n), _snark_index("b", n, n), (2, 2, k + 1)),
            (_snark_index("a", k, n), _snark_index("b", k + 1, n), (k + 1, k + 1, 2)))


@dataclasses.dataclass(frozen=True)
class ErroneousSetReport:
    """The two collisions that break {c1, d1, d_k} and the fixed set."""

    n: int
    erroneous: tuple
    collisions: tuple  # ((vertex, vertex, shared array), ...)
    corrected: tuple
    corrected_verdict: CheckVerdict

    @property
    def holds(self):
        """True when the broken set fails exactly as documented and the
        corrected set resolves."""
        return self.collisions == _misprint_collisions(self.n) and bool(self.corrected_verdict)


def check_erroneous_set(n):
    n = _snark_order(n)
    _, dm = snark_context(n)
    bad = recipe_set("dim1_erroneous", n)
    collisions = []
    for u, w, _ in _misprint_collisions(n):
        arr_u = distance_array(dm, bad, (u,))
        arr_w = distance_array(dm, bad, (w,))
        if arr_u == arr_w:
            collisions.append((u, w, arr_u))
    good = recipe_set("dim1_corrected", n)
    verdict = checks.is_l_resolving(dm, good, 1)
    return ErroneousSetReport(n, bad, tuple(collisions), good, verdict)


# ---------------------------------------------------------------------------
# star lemmas: the flank table and the three-vs-three distinguishers


@dataclasses.dataclass(frozen=True)
class TableMismatch:
    row: str          # role within star i
    column: str       # one of B, X, Y, Z
    expected: int
    got: int


# rows b,a,c,d; columns B, X, Y, Z
_FLANK_TABLE = {
    "b": (3, 1, 1, 1),
    "a": (2, 0, 2, 2),
    "c": (2, 2, 0, 2),
    "d": (2, 2, 2, 0),
}


def _flank_sets(n, i):
    base = (_snark_index("b", i - 1, n), _snark_index("b", i + 1, n))
    return {
        "B": base,
        "X": base + (_snark_index("a", i, n),),
        "Y": base + (_snark_index("c", i, n),),
        "Z": base + (_snark_index("d", i, n),),
    }


def _flank_columns(n, i):
    """d(s, X) for every vertex s, one column per flank set X of star i."""
    _, dm = snark_context(n)
    return {name: dm.dist[:, list(members)].min(axis=1)
            for name, members in _flank_sets(n, i).items()}


def verify_flank_table(n, i):
    """Distances from star i to B = {b_{i-1}, b_{i+1}} and its one-leaf
    extensions X, Y, Z.

    Confirms the fixed 4x4 value table on the star itself and that every
    vertex outside the star sees all four sets at the same distance; the
    latter is why no anchor outside star i can tell X, Y and Z apart.
    """
    n, i = _snark_order(n), _star_index(i)
    cols = _flank_columns(n, i)
    star = {role: _snark_index(role, i, n) for role in _SNARK_ROLES}
    for role, expected_row in _FLANK_TABLE.items():
        s = star[role]
        for (name, col), expected in zip(cols.items(), expected_row):
            if col[s] != expected:
                return CheckVerdict(False, TableMismatch(role, name, expected, int(col[s])))
    table = np.column_stack(list(cols.values()))
    apart = (table != table[:, :1]).any(axis=1)
    apart[list(star.values())] = False
    if apart.any():
        s = int(apart.argmax())
        vals = {name: int(col[s]) for name, col in cols.items()}
        return CheckVerdict(False, ("outside-star", s, vals))
    return CheckVerdict(True)


@dataclasses.dataclass(frozen=True)
class DistinguisherMismatch:
    pair: str  # XY, XZ or YZ
    expected: tuple
    got: tuple


def verify_triple_distinguishers(n, i):
    """For the three-element sets X, Y, Z built on star i, the vertices
    whose distance to one set differs from the other are exactly the two
    involved leaves: XY -> {a_i, c_i}, XZ -> {a_i, d_i}, YZ -> {c_i, d_i}."""
    n, i = _snark_order(n), _star_index(i)
    cols = _flank_columns(n, i)
    leaf = {role: _snark_index(role, i, n) for role in "acd"}
    for pair, (x, y) in (("XY", "ac"), ("XZ", "ad"), ("YZ", "cd")):
        want = (leaf[x], leaf[y])
        got = tuple(np.flatnonzero(cols[pair[0]] != cols[pair[1]]).tolist())
        if got != tuple(sorted(want)):
            return CheckVerdict(False, DistinguisherMismatch(pair, want, got))
    return CheckVerdict(True)


# ---------------------------------------------------------------------------
# gap statistics along the two cycles


@dataclasses.dataclass(frozen=True)
class GapReport:
    """Longest cyclic runs avoided by S on the a-cycle and the 2n-cycle.

    A 2-solid set can miss at most k-1 consecutive a-vertices and at most
    k consecutive vertices of the big cycle; a report with either flag
    False certifies the set is not 2-solid.
    """

    a_gap: int
    cycle_gap: int
    a_bound: int
    cycle_bound: int

    @property
    def a_ok(self):
        return self.a_gap <= self.a_bound

    @property
    def cycle_ok(self):
        return self.cycle_gap <= self.cycle_bound

    @property
    def certifies_not_2_solid(self):
        return not (self.a_ok and self.cycle_ok)


def _max_cyclic_gap(present, length):
    """Longest run of consecutive positions absent from ``present``, on a
    cycle of ``length`` positions numbered from any start."""
    hits = sorted(present)
    if not hits:
        return length
    best = 0
    for prev, cur in zip(hits, hits[1:]):
        best = max(best, cur - prev - 1)
    best = max(best, hits[0] + length - hits[-1] - 1)
    return best


def gap_statistics(s, n):
    n = _snark_order(n)
    k = (n - 1) // 2
    coords = [_snark_coords(_vertex_of(x, n), n) for x in s]
    # c_i sits at position i of the 2n-cycle c1..cn d1..dn, d_i at n + i
    cycle_hits = [i + n * (role == "d") for role, i in coords if role in "cd"]
    return GapReport(
        a_gap=_max_cyclic_gap([i for role, i in coords if role == "a"], n),
        cycle_gap=_max_cyclic_gap(cycle_hits, 2 * n),
        a_bound=k - 1,
        cycle_bound=k,
    )


# ---------------------------------------------------------------------------
# the J_n -> J_{n-2} reduction


@dataclasses.dataclass(frozen=True)
class ReductionMap:
    """Role-preserving surjection from J_n onto J_m, m = n-2.

    Star n folds onto star 1 and star k+1 onto star k (= l+1 in the target
    indexing, l = k-1), so exactly those two target stars have doubled
    preimages; every other vertex lifts uniquely.
    """

    n: int
    m: int
    k: int
    l: int
    image: tuple
    preimages: tuple

    def __call__(self, v):
        return self.image[v]


def _fold_order(n):
    """``n`` as a plain int if J_n folds onto J_{n-2} (odd n >= 7), else GraphError."""
    n = _snark_order(n)
    if n < 7:
        raise GraphError("reduction needs n >= 7")
    return n


def reduction_map(n):
    n = _fold_order(n)
    k = (n - 1) // 2
    m, l = n - 2, k - 1
    image = []
    preimages = [[] for _ in range(4 * m)]
    for v in range(4 * n):
        role, i = _snark_coords(v, n)
        if i == n:
            j = 1
        elif i <= k:
            j = i
        else:
            j = i - 1
        w = _snark_index(role, j, m)
        image.append(w)
        preimages[w].append(v)
    return ReductionMap(n, m, k, l, tuple(image),
                        tuple(tuple(sorted(p)) for p in preimages))


def admissible_stars(n):
    """Stars of J_n far enough from both fold points for the distance
    relations of the reduction to apply."""
    n = _fold_order(n)
    k = (n - 1) // 2
    forbidden = {1, 2, k - 1, k, k + 1, k + 2, n - 1, n}
    return tuple(i for i in range(1, n + 1) if i not in forbidden)


def admissible_vertices(n):
    stars = set(admissible_stars(n))
    return tuple(v for v in range(4 * n) if _snark_coords(v, n)[1] in stars)


@dataclasses.dataclass(frozen=True)
class ReductionViolation:
    source: int     # s in J_n
    target: int     # v in J_m
    preimage: int   # v' in J_n
    expected: int
    got: int


@dataclasses.dataclass(frozen=True)
class ReductionReport:
    status: str  # ok | violation | no-admissible
    checked: int
    witness: ReductionViolation | None = None

    @property
    def holds(self):
        return self.status != "violation"

    def __bool__(self):
        return self.holds


def _fold_counterparts(role, star, n, k):
    """The J_n vertices a fold-star target ``role`` of ``star`` (1 or l+1)
    of J_{n-2} stands for, as (low, high) by source star.

    For star l+1 and for a/b vertices of star 1 these are the two label
    preimages.  For c/d vertices of star 1 the high-star counterpart has
    the *opposite* role: the big cycle crosses from the c side to the d
    side between stars n and 1, so along it c_1 continues to d_n and d_1
    to c_n.  Pairing by label there would put the counterparts on
    different branches of the cycle and the distance relations would not
    hold.
    """
    if star == 1:
        high_role = {"c": "d", "d": "c"}.get(role, role)
        return _snark_index(role, 1, n), _snark_index(high_role, n, n)
    return _snark_index(role, k, n), _snark_index(role, k + 1, n)


def reduction_distance_check(n, s):
    """Verify the fold's distance relations against both distance matrices.

    For s in an admissible star with image r, and any target vertex v with
    counterpart v' in J_n: distances are equal when r and v sit on the same
    side of the two fold points, shrink by exactly one across sides, and
    for v in a fold star the two counterparts (see
    :func:`_fold_counterparts`) sit at consecutive distances with the
    near-side one matching d(r, v).  Vertices of S inside the eight-star
    band around the folds are rejected up front.
    """
    alpha = reduction_map(n)
    m, k, l = alpha.m, alpha.k, alpha.l
    band = admissible_stars(n)
    allowed = set(band)
    members = tuple(sorted({_vertex_of(x, n) for x in s}))
    for v in members:
        role, i = _snark_coords(v, n)
        if i not in allowed:
            raise GraphError(f"vertex {role}{i} lies in forbidden star {i}")
    if not members:
        status = "no-admissible" if not band else "ok"
        return ReductionReport(status, 0)

    _, dm_n = snark_context(n)
    _, dm_m = snark_context(m)

    def side(star):  # I = stars 2..l, J = stars l+2..m of the target
        return "I" if 2 <= star <= l else "J"

    checked = 0

    def fail(src, tgt, pre, want, got):
        return ReductionReport(
            "violation", checked, ReductionViolation(src, tgt, pre, want, got)
        )

    for src in members:
        r = alpha(src)
        r_side = side(_snark_coords(r, m)[1])
        from_src = dm_n.dist[src].tolist()
        for v, got in enumerate(dm_m.dist[r].tolist()):
            role, star_v = _snark_coords(v, m)
            if star_v in (1, l + 1):
                low, high = _fold_counterparts(role, star_v, n, k)
                near, far = (low, high) if r_side == "I" else (high, low)
                checked += 2
                if got != from_src[near]:
                    return fail(src, v, near, from_src[near], got)
                if from_src[far] != from_src[near] + 1:
                    return fail(src, v, far, from_src[near] + 1, from_src[far])
            else:
                (pre_v,) = alpha.preimages[v]
                want = from_src[pre_v]
                if side(star_v) != r_side:
                    want -= 1
                checked += 1
                if got != want:
                    return fail(src, v, pre_v, want, got)
    return ReductionReport("ok", checked)


# ---------------------------------------------------------------------------
# star distance


def star_distance(u, v, n):
    """Minimum number of star boundaries any shortest u-v walk crosses.

    Equivalently one less than the fewest distinct stars a shortest path
    can meet, so d(u,v) = star_distance + steps spent inside the end stars.
    Computed by a shortest-path-DAG sweep that charges 1 per edge joining
    different stars.
    """
    g, dm = snark_context(n)
    u, v = _vertex_of(u, n), _vertex_of(v, n)
    total = dm[u, v]
    on_dag = [w for w in range(4 * n) if dm[u, w] + dm[w, v] == total]
    on_dag.sort(key=lambda w: dm[u, w])
    crossings = {u: 0}
    for w in on_dag:
        if w == u:
            continue
        best = None
        for p in g.neighbors(w):
            if p in crossings and dm[u, p] + 1 == dm[u, w]:
                cand = crossings[p] + (_snark_coords(p, n)[1] != _snark_coords(w, n)[1])
                if best is None or cand < best:
                    best = cand
        crossings[w] = best
    return crossings[v]


# ---------------------------------------------------------------------------
# batch suite


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, (time.perf_counter() - t0) * 1000.0


def _witness_text(w):
    return None if w is None else repr(w)


def _first_failure(verifier, n):
    """(star, witness) of the first star of J_n that ``verifier`` rejects, or None."""
    for i in range(1, n + 1):
        verdict = verifier(n, i)
        if not verdict.holds:
            return i, verdict.witness
    return None


def snark_suite(ns, *, long=False, budget_s=600.0):
    """Run every verifier for each n and return one record per (n, check).

    Records are dicts {n, check_name, holds, witness, millis}.  The
    reduction's distance relations are checked from every admissible
    vertex (there are none at n = 7).  With ``long=True`` exact dimension
    searches are added (1-solid and {2}-resolving), each under its own
    time budget; a budget overrun shows up
    as holds=False with the reached lower bound in the witness field.
    """
    records = []

    def add(n, name, holds, witness, millis):
        records.append({
            "n": n, "check_name": name, "holds": bool(holds),
            "witness": witness, "millis": millis,
        })

    for n in ns:
        n = _snark_order(n)
        for kind in RECIPE_KINDS:
            if kind == "dim1_erroneous":
                continue
            if kind == "l2" and n < 7:
                continue
            verdict, ms = _timed(lambda k=kind: verify_recipe(k, n))
            add(n, f"recipe-{kind.replace('_', '-')}", verdict.holds,
                _witness_text(verdict.witness), ms)

        report, ms = _timed(lambda: check_erroneous_set(n))
        add(n, "erroneous-set", report.holds,
            None if report.holds else _witness_text(report.collisions), ms)

        for name, verifier in (("flank-table", verify_flank_table),
                               ("triple-distinguishers", verify_triple_distinguishers)):
            bad, ms = _timed(lambda: _first_failure(verifier, n))
            add(n, name, bad is None, _witness_text(bad), ms)

        report, ms = _timed(lambda: gap_statistics(recipe_set("solid2", n), n))
        bad = report.certifies_not_2_solid
        add(n, "gap-statistics", not bad, _witness_text(report) if bad else None, ms)

        if n >= 7:
            report, ms = _timed(lambda: reduction_distance_check(n, admissible_vertices(n)))
            add(n, "reduction-distances", report.holds,
                report.status if report.status != "ok" else None, ms)

        if long:
            g, _ = snark_context(n)
            targets = (("dimension-solid-1", Mode.solid(1), 6),
                       ("dimension-resolving-2", Mode.resolving(2), 8 if n >= 7 else 7))
            for name, mode, want in targets:
                result, ms = _timed(
                    lambda: metric_dimension(g, SearchConfig(mode=mode, budget_s=budget_s)))
                if result.exact:
                    add(n, name, result.value == want,
                        None if result.value == want else f"found {result.value}", ms)
                else:
                    add(n, name, False, result.describe(), ms)
    return records
