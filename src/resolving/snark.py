"""Flower snark toolkit.

J_n (odd n >= 5) has 4n vertices grouped into n *stars* T_i = {a_i, b_i,
c_i, d_i}: b_i is the hub of star i, the a_i form an n-cycle, and the c/d
leaves form a single 2n-cycle c_1..c_n d_1..d_n.  Everything here is
1-based in the star index with wraparound, so b_0 means b_n.

The module builds the explicit vertex sets whose minimality the search
module certifies, verifies the two star lemmas those certificates lean on,
rebuilds a 3-element set broken by one misprinted index alongside its
correction, and checks
the distance relations of the size-reduction map J_n -> J_{n-2}.
"""

from __future__ import annotations

import dataclasses
import time
from functools import lru_cache

import numpy as np

from . import checks
from .checks import CheckVerdict, Mode, distance_array
from .errors import GraphError
from .graphs import _plain_int, _snark_order, all_pairs_distances, flower_snark
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

_ROLES = ("a", "b", "c", "d")


def _snark_vertices(vertices, n):
    """``vertices`` as ints, each checked to be a vertex of J_n."""
    out = []
    for x in vertices:
        v = _plain_int(x)
        if v is None or not 0 <= v < 4 * n:
            raise GraphError(f"vertex {x!r} is not in J_{n}, whose vertices are 0..{4 * n - 1}")
        out.append(v)
    return tuple(out)


def _star_index(i):
    """``i`` as a plain int star index (any integer; stars wrap mod n)."""
    star = _plain_int(i)
    if star is None:
        raise GraphError(f"star index must be an integer, got {i!r}")
    return star


def snark_vertex(role, i, n):
    """Flat index of role in {a,b,c,d} at star i (1-based, wraps mod n)."""
    n = _snark_order(n)
    if role not in _ROLES:
        raise GraphError(f"role must be one of a, b, c, d, got {role!r}")
    return _ROLES.index(role) * n + (_star_index(i) - 1) % n


def star_of(v, n):
    return v % n + 1


def role_of(v, n):
    """Role of vertex v of J_n, for 0 <= v < 4n only."""
    (v,) = _snark_vertices((v,), _snark_order(n))
    return _ROLES[v // n]


def snark_label(v, n):
    return f"{role_of(v, n)}{star_of(v, n)}"


@lru_cache(maxsize=32)
def snark_context(n):
    """Cached (graph, distance matrix) pair for J_n."""
    g = flower_snark(n)
    return g, all_pairs_distances(g)


# ---------------------------------------------------------------------------
# explicit set recipes

RECIPE_KINDS = ("l3", "solid2", "l2", "solid1", "dim1_corrected", "dim1_erroneous")

# what each recipe is built to pass
_RECIPE_MODES = {
    "l3": ("resolving", 3),
    "solid2": ("solid", 2),
    "l2": ("resolving", 2),
    "solid1": ("solid", 1),
    "dim1_corrected": ("resolving", 1),
    "dim1_erroneous": ("resolving", 1),
}


def recipe_check_mode(kind):
    """Mode the recipe is meant to satisfy (the erroneous one fails it)."""
    kind_name, order = _RECIPE_MODES[kind]
    return Mode(kind_name, order)


def recipe_set(kind, n):
    """The explicit vertex set of the given kind for J_n, as flat indices.

    Sizes: l3 -> 3n, solid2 -> n+5, l2 -> 8 (needs n >= 7), solid1 -> 6,
    dim1_corrected and dim1_erroneous -> 3.
    """
    n = _snark_order(n)
    if kind not in RECIPE_KINDS:
        raise GraphError(f"unknown recipe kind {kind!r}")
    if kind == "l2" and n < 7:
        raise GraphError("the 8-element recipe needs n >= 7")
    k = (n - 1) // 2
    v = lambda role, i: snark_vertex(role, i, n)
    if kind == "l3":
        out = [v(r, i) for r in "acd" for i in range(1, n + 1)]
    elif kind == "solid2":
        out = [v("a", 1), v("c", 1), v("d", 1),
               v("a", k + 1), v("a", k + 2), v("c", k + 2), v("d", k + 2)]
        out += [v("b", i) for i in range(1, n + 1) if i not in (1, k + 2)]
    elif kind == "l2":
        out = [v("a", 1), v("c", 1), v("d", 1), v("a", 2),
               v("a", k + 1), v("a", k + 2), v("c", k + 2), v("d", k + 2)]
    elif kind == "solid1":
        out = [v("a", 1), v("a", k + 2), v("c", 1), v("d", 1),
               v("c", k + 1), v("d", k + 1)]
    elif kind == "dim1_corrected":
        out = [v("c", 1), v("d", 1), v("d", k + 1)]
    else:  # dim1_erroneous
        out = [v("c", 1), v("d", 1), v("d", k)]
    return tuple(sorted(out))


def verify_recipe(kind, n):
    _, dm = snark_context(n)
    return checks.check_mode(dm, recipe_set(kind, n), recipe_check_mode(kind))


# ---------------------------------------------------------------------------
# the 3-element set with a misprinted index


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
        k = (self.n - 1) // 2
        want = (
            (snark_vertex("a", 1, self.n), snark_vertex("b", self.n, self.n),
             (2, 2, k + 1)),
            (snark_vertex("a", k, self.n), snark_vertex("b", k + 1, self.n),
             (k + 1, k + 1, 2)),
        )
        return self.collisions == want and bool(self.corrected_verdict)


def check_erroneous_set(n):
    n = _snark_order(n)
    k = (n - 1) // 2
    _, dm = snark_context(n)
    bad = recipe_set("dim1_erroneous", n)
    collisions = []
    for u, w in ((snark_vertex("a", 1, n), snark_vertex("b", n, n)),
                 (snark_vertex("a", k, n), snark_vertex("b", k + 1, n))):
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
    b_prev = snark_vertex("b", i - 1, n)
    b_next = snark_vertex("b", i + 1, n)
    base = (b_prev, b_next)
    return {
        "B": base,
        "X": base + (snark_vertex("a", i, n),),
        "Y": base + (snark_vertex("c", i, n),),
        "Z": base + (snark_vertex("d", i, n),),
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
    star = {role: snark_vertex(role, i, n) for role in _ROLES}
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
    expected = {
        "XY": (snark_vertex("a", i, n), snark_vertex("c", i, n)),
        "XZ": (snark_vertex("a", i, n), snark_vertex("d", i, n)),
        "YZ": (snark_vertex("c", i, n), snark_vertex("d", i, n)),
    }
    for pair, want in expected.items():
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
    """Longest run of consecutive positions 0..length-1 absent from present."""
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
    members = set(_snark_vertices(s, n))
    a_hits = [v for v in members if 0 <= v < n]
    cycle_hits = [v - 2 * n for v in members if 2 * n <= v < 4 * n]
    return GapReport(
        a_gap=_max_cyclic_gap(a_hits, n),
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


def reduction_map(n):
    n = _snark_order(n)
    if n < 7:
        raise GraphError("reduction needs n >= 7")
    k = (n - 1) // 2
    m, l = n - 2, k - 1
    image = []
    preimages = [[] for _ in range(4 * m)]
    for v in range(4 * n):
        role, i = role_of(v, n), star_of(v, n)
        if i == n:
            j = 1
        elif i <= k:
            j = i
        else:
            j = i - 1
        w = snark_vertex(role, j, m)
        image.append(w)
        preimages[w].append(v)
    return ReductionMap(n, m, k, l, tuple(image),
                        tuple(tuple(sorted(p)) for p in preimages))


def _forbidden_stars(n):
    k = (n - 1) // 2
    return {1, 2, k - 1, k, k + 1, k + 2, n - 1, n}


def admissible_stars(n):
    """Stars of J_n far enough from both fold points for the distance
    relations of the reduction to apply."""
    n = _snark_order(n)
    if n < 7:
        raise GraphError("reduction needs n >= 7")
    return tuple(i for i in range(1, n + 1) if i not in _forbidden_stars(n))


def admissible_vertices(n):
    stars = set(admissible_stars(n))
    return tuple(v for v in range(4 * n) if star_of(v, n) in stars)


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


def _fold_counterparts(v, n, m, k):
    """The J_n vertices a fold-star target v stands for, as (low, high) by
    source star.

    For star l+1 and for a/b vertices of star 1 these are the two label
    preimages.  For c/d vertices of star 1 the high-star counterpart has
    the *opposite* role: the big cycle crosses from the c side to the d
    side between stars n and 1, so along it c_1 continues to d_n and d_1
    to c_n.  Pairing by label there would put the counterparts on
    different branches of the cycle and the distance relations would not
    hold.
    """
    role = role_of(v, m)
    if star_of(v, m) == 1:
        high_role = {"c": "d", "d": "c"}.get(role, role)
        return snark_vertex(role, 1, n), snark_vertex(high_role, n, n)
    return snark_vertex(role, k, n), snark_vertex(role, k + 1, n)


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
    members = tuple(sorted(set(_snark_vertices(s, n))))
    for v in members:
        if star_of(v, n) not in allowed:
            raise GraphError(
                f"vertex {snark_label(v, n)} lies in forbidden star {star_of(v, n)}"
            )
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
        r_side = side(star_of(r, m))
        for v in range(4 * m):
            star_v = star_of(v, m)
            got = dm_m[r, v]
            if star_v in (1, l + 1):
                low, high = _fold_counterparts(v, n, m, k)
                near, far = (low, high) if r_side == "I" else (high, low)
                checked += 2
                if got != dm_n[src, near]:
                    return fail(src, v, near, dm_n[src, near], got)
                if dm_n[src, far] != dm_n[src, near] + 1:
                    return fail(src, v, far, dm_n[src, near] + 1, dm_n[src, far])
            else:
                (pre_v,) = alpha.preimages[v]
                want = dm_n[src, pre_v]
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
    u, v = _snark_vertices((u, v), n)
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
                cand = crossings[p] + (star_of(p, n) != star_of(w, n))
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


def snark_suite(ns, *, long=False, budget_s=600.0):
    """Run every verifier for each n and return one record per (n, check).

    Records are dicts {n, check_name, holds, witness, millis}.  The
    reduction's distance relations are checked from every admissible
    vertex (there are none at n = 7).  With ``long=True`` exact dimension
    searches are added (1-solid and, for n >= 7, the order-2 set
    searches), each under its own time budget; a budget overrun shows up
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
            t0 = time.perf_counter()
            bad = None
            for i in range(1, n + 1):
                verdict = verifier(n, i)
                if not verdict.holds:
                    bad = (i, verdict.witness)
                    break
            add(n, name, bad is None, _witness_text(bad),
                (time.perf_counter() - t0) * 1000.0)

        report, ms = _timed(lambda: gap_statistics(recipe_set("solid2", n), n))
        add(n, "gap-statistics", report.a_ok and report.cycle_ok,
            None if (report.a_ok and report.cycle_ok) else _witness_text(report), ms)

        if n >= 7:
            report, ms = _timed(lambda: reduction_distance_check(n, admissible_vertices(n)))
            add(n, "reduction-distances", report.holds,
                report.status if report.status != "ok" else None, ms)

        if long:
            g, _ = snark_context(n)
            targets = [("dimension-solid-1", Mode.solid(1), 6)]
            if n >= 7:
                targets.append(("dimension-resolving-2", Mode.resolving(2), 8))
            elif n == 5:
                targets.append(("dimension-resolving-2", Mode.resolving(2), 7))
            for name, mode, want in targets:
                t0 = time.perf_counter()
                result = metric_dimension(g, SearchConfig(mode=mode, budget_s=budget_s))
                ms = (time.perf_counter() - t0) * 1000.0
                if result.exact:
                    add(n, name, result.value == want,
                        None if result.value == want else f"found {result.value}", ms)
                else:
                    add(n, name, False, result.describe(), ms)
    return records
