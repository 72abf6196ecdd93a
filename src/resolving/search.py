"""Exhaustive minimum-cardinality search for resolving-type sets.

The search reformulates each mode check exactly as a hitting problem: a
candidate set passes iff it intersects every "separator" mask.

* {l}-resolving: for every pair of distinct nonempty sets X, Y of size <= l,
  the mask of vertices whose distances to X and Y differ (never empty, since
  any vertex in the symmetric difference separates).  For l >= 2 the
  (l-1)-solid masks are added: every {l}-resolving set is (l-1)-solid, so
  they reject no passing set, and many resolving masks contain one of them.
* l-solid: for every vertex x and set Y avoiding x with |Y| <= l, the mask
  of vertices strictly closer to x than to Y (x itself is always in it).
* doubly resolving: for every vertex pair (u, v) and every value c taken by
  d(., u) - d(., v), the complement of that level set; hitting all of them
  says the difference vector is not constant on the candidate set.

The masks are built in numpy blocks as rows of uint64 words and reduced to
their minimal antichain: a set hits every mask iff it hits every mask that
contains no other one.  Forced vertices are members of every passing set,
so they are always included and the masks they hit are dropped.

Candidate sets are searched cardinality-ascending; within a cardinality,
in colexicographic order over the non-forced vertices, by a depth-first
branch-and-bound that picks the largest element first.  The first passing
set in that order is returned and re-verified with the public checker.
Exhausting a cardinality certifies the dimension exceeds it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from math import comb

import numpy as np

from .checks import Mode, check_mode, forced_vertices
from .graphs import all_pairs_distances
from .subsets import colex_combinations, colex_rank

PROVENANCE_FORCED = "forced-count"
PROVENANCE_RULE = "l-plus-1-rule"
PROVENANCE_TRIVIAL = "trivial"
PROVENANCE_EXHAUSTED = "exhausted-cardinality"

# search nodes between two progress calls (and deadline checks)
PROGRESS_NODES = 4096
# bool cells compared per numpy block when building or reducing masks
_BLOCK_CELLS = 1 << 22
# set bits of each byte value (np.bitwise_count needs numpy 2)
_BYTE_BITS = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


@dataclasses.dataclass
class SearchConfig:
    mode: Mode
    budget_s: float = 60.0
    # accepted for compatibility and ignored: the search is single-process
    workers: int = 1
    k_max: int | None = None
    # progress(k, step, nodes): called at the start of each cardinality k
    # (step 0) and every PROGRESS_NODES search nodes; k and the running
    # node count never decrease
    progress: object | None = None


@dataclasses.dataclass
class SearchStats:
    # sets a size-then-colex scan tests: all of each exhausted cardinality,
    # then those up to and including the returned basis
    subsets_checked: int = 0
    wall_ms: float = 0.0
    exhausted_through: int = 0
    # distinct separator masks that no forced vertex hits, and how many of
    # them are minimal (the ones searched)
    mask_count: int = 0
    masks_kept: int = 0
    nodes: int = 0
    # milliseconds per phase: masks, reduce, search, verify
    phase_ms: dict = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class DimensionResult:
    mode: Mode
    value: int | None
    basis: tuple[int, ...] | None
    lower_bound: int
    lower_bound_source: str
    stats: SearchStats

    @property
    def exact(self):
        return self.value is not None

    def describe(self):
        if self.value is not None:
            return str(self.value)
        return f"unknown >= {self.lower_bound}"


@dataclasses.dataclass
class CertificateReport:
    certified: bool
    status: str  # confirmed-minimum | not-passing | smaller-set-exists | inconclusive
    smaller_set: tuple[int, ...] | None = None
    lower_bound: int = 1

    def __bool__(self):
        return self.certified


class _OutOfBudget(Exception):
    pass


def _check_deadline(deadline):
    if deadline is not None and time.monotonic() > deadline:
        raise _OutOfBudget


@contextlib.contextmanager
def _phase(stats, name):
    t0 = time.perf_counter()
    try:
        yield
    finally:
        stats.phase_ms[name] = (time.perf_counter() - t0) * 1000.0


# ---------------------------------------------------------------------------
# separator masks: blocks of rows of uint64 words, bit v % 64 of word
# v // 64 standing for vertex v


def _compare(op, a, b):
    """``op(a, b, out=...)`` over broadcast rows of one cell per vertex,
    packed into a 2-d array of rows of words."""
    shape = np.broadcast_shapes(a.shape, b.shape)
    n = shape[-1]
    bits = np.empty(shape[:-1] + ((n + 63) // 64 * 64,), dtype=bool)
    bits[..., n:] = False
    op(a, b, out=bits[..., :n])
    words = np.packbits(bits, axis=None, bitorder="little").view("<u8")
    return words.reshape(-1, bits.shape[-1] // 64)


def _word_row(vertices, n):
    """One row of words with the bits of ``vertices`` set."""
    bits = np.zeros((n + 63) // 64 * 64, dtype=bool)
    bits[list(vertices)] = True
    return np.packbits(bits, bitorder="little").view("<u8")


def _set_rows(dist, order):
    """d(., X) for every nonempty X with |X| <= order, one row per X."""
    n = len(dist)
    rows = [dist]
    for k in range(2, order + 1):
        combos = np.array(list(colex_combinations(n, k)), dtype=np.intp)
        row = dist[combos[:, 0]]
        for c in range(1, k):
            np.minimum(row, dist[combos[:, c]], out=row)
        rows.append(row)
    return np.concatenate(rows)


def _row_blocks(count, cells_per_row):
    step = max(1, _BLOCK_CELLS // max(1, cells_per_row))
    return ((lo, min(lo + step, count)) for lo in range(0, count, step))


def _resolving_blocks(dist, order):
    rows = _set_rows(dist, order)
    s = len(rows)
    for lo, hi in _row_blocks(s, s * len(dist)):
        later = np.arange(lo + 1, s)[None, :] > np.arange(lo, hi)[:, None]
        words = _compare(np.not_equal, rows[lo:hi, None, :], rows[None, lo + 1:, :])
        yield words[later.reshape(-1)]


def _solid_blocks(dist, order):
    # the row of x in dist is d(., x); pairs with x in Y give empty masks
    targets = _set_rows(dist, order)
    n = len(dist)
    for lo, hi in _row_blocks(n, len(targets) * n):
        yield _compare(np.less, dist[lo:hi, None, :], targets[None, :, :])


def _doubly_blocks(dist):
    n = len(dist)
    top = int(dist.max())
    levels = np.arange(-top, top + 1, dtype=dist.dtype)[None, :, None]
    everyone = _word_row(range(n), n)
    for u in range(n - 1):
        words = _compare(np.not_equal, (dist[u] - dist[u + 1:])[:, None, :], levels)
        # levels the difference never takes give all-vertex masks
        yield words[(words != everyone).any(axis=1)]


def _mode_blocks(dist, mode):
    if mode.kind == "resolving":
        yield from _resolving_blocks(dist, mode.order)
        if mode.order >= 2:
            yield from _solid_blocks(dist, mode.order - 1)
    elif mode.kind == "solid":
        yield from _solid_blocks(dist, mode.order)
    else:
        yield from _doubly_blocks(dist)


def _unique_rows(words):
    """Distinct rows, sorted (np.unique is several times slower here)."""
    if words.shape[1] == 1:
        words = np.sort(words, axis=0)
    else:
        words = words[np.lexsort(words.T[::-1])]
    fresh = np.ones(len(words), dtype=bool)
    fresh[1:] = (words[1:] != words[:-1]).any(axis=1)
    return words[fresh]


def _mode_masks(dm, mode, avoid=(), deadline=None):
    """Distinct nonempty separator masks of ``mode`` that contain no vertex
    of ``avoid``, as rows of words.  The deadline is checked between
    blocks."""
    n = dm.n
    dist = dm.dist.astype(np.int16 if n < 1 << 15 else np.int32)
    avoid_row = _word_row(avoid, n)
    parts = []
    for block in _mode_blocks(dist, mode):
        live = block.any(axis=1) & ~(block & avoid_row).any(axis=1)
        parts.append(_unique_rows(block[live]))
        if len(parts) >= 32:
            parts = [_unique_rows(np.concatenate(parts))]
        _check_deadline(deadline)
    if not parts:
        return np.zeros((0, (n + 63) // 64), dtype="<u8")
    return _unique_rows(np.concatenate(parts))


def _contains_some(masks, sub):
    """Which rows of ``masks`` contain some row of ``sub``."""
    if masks.shape[1] == 1:
        return ((masks & sub.T) == sub.T).any(axis=1)
    return ((masks[:, None] & sub) == sub).all(axis=2).any(axis=1)


def _minimal_masks(masks, deadline=None):
    """The masks (distinct rows of words) that contain no other one, fewest
    bits first."""
    sizes = _BYTE_BITS[masks.view(np.uint8)].sum(axis=1, dtype=np.int64)
    order = np.argsort(sizes, kind="stable")
    masks, sizes = masks[order], sizes[order]
    kept = masks[:0]
    # masks of one size cannot contain one another, so each size is tested
    # against the smaller kept masks only: the smallest first, as they
    # discard the most, in slices growing fourfold
    for level in np.split(masks, np.flatnonzero(np.diff(sizes)) + 1):
        lo, step = 0, 16
        while lo < len(kept) and len(level):
            level = level[~_contains_some(level, kept[lo:lo + step])]
            lo += step
            step = max(16, min(4 * step, _BLOCK_CELLS // max(1, len(level))))
        kept = np.concatenate([kept, level])
        _check_deadline(deadline)
    return kept


def _bitsets(masks, free):
    """The masks reindexed onto the positions in ``free`` and numbered by
    their lowest position: ``cover[j]`` is the Python-int bitset of the
    masks that contain position j, ``members[i]`` the ascending positions
    of mask i, and ``lowest[i]`` the first of them."""
    member = np.unpackbits(masks.view(np.uint8), axis=1, bitorder="little")[:, free]
    if member.size:
        member = member[np.argsort(member.argmax(axis=1), kind="stable")]
    member = member.astype(bool)
    members = [np.flatnonzero(row).tolist() for row in member]
    cover = [int.from_bytes(np.packbits(column, bitorder="little").tobytes(), "little")
             for column in member.T]
    return cover, [m[0] for m in members], members


# ---------------------------------------------------------------------------
# branch-and-bound over one cardinality


def _colex_first_cover(cover, lowest, members, r, tick):
    """First r-subset of range(len(cover)) in colex order whose covers
    together hold every mask, as an ascending list, and the nodes visited.

    Trying the largest element t in ascending order, then recursing below
    t, visits the r-subsets in colex order.  A node with r elements still
    to choose below ``limit`` and the masks ``unhit`` left is pruned when

    * the unhit mask with the largest lowest position (the last one, as
      masks are numbered by lowest position) has no position below
      ``limit``, or
    * the r largest counts of unhit masks that one position below
      ``limit`` hits sum to less than the unhit masks; the same bound on
      the prefix below t discards a child t before it is visited.

    The last unhit mask also starts the loop over t (t must be at least
    its lowest position, or the child prunes at once) and gives the only
    candidates when one element is left.  ``tick(nodes)`` runs every
    PROGRESS_NODES nodes.
    """
    complement = [((1 << len(lowest)) - 1) ^ c for c in cover]
    nodes = 0

    def below(unhit, limit, r):
        nonlocal nodes
        nodes += 1
        if not nodes % PROGRESS_NODES:
            tick(nodes)
        if not unhit:
            return list(range(r))
        last = unhit.bit_length() - 1
        if r == 0 or lowest[last] >= limit:
            return None
        if r == 1:
            for s in members[last]:
                if s >= limit:
                    break
                if not unhit & complement[s]:
                    return [s]
            return None
        need = unhit.bit_count()
        hits = [(c & unhit).bit_count() for c in cover[:limit]]
        if sum(sorted(hits, reverse=True)[:r]) < need:
            return None
        first = max(r - 1, lowest[last])
        # the r - 1 largest counts below t, smallest first, and their sum
        best = sorted(sorted(hits[:first], reverse=True)[:r - 1])
        total = sum(best)
        for t in range(first, limit):
            if t > first and hits[t - 1] > best[0]:
                total += hits[t - 1] - best[0]
                best[0] = hits[t - 1]
                best.sort()
            if hits[t] + total < need:
                continue
            rest = unhit & complement[t]
            if rest and lowest[rest.bit_length() - 1] >= t:
                continue
            found = below(rest, t, r - 1)
            if found is not None:
                found.append(t)
                return found
        return None

    return below((1 << len(lowest)) - 1, len(cover), r), nodes


# ---------------------------------------------------------------------------
# public API


def dimension_lower_bounds(g, mode, forced=None):
    """Certified lower bounds as (provenance, bound) pairs."""
    mode.validate_for(g.n)
    if forced is None:
        forced = () if mode.kind == "doubly" else forced_vertices(g, mode.order, mode.kind)
    bounds = [(PROVENANCE_FORCED, len(forced))]
    if mode.kind == "solid":
        bounds.append((PROVENANCE_RULE, mode.order + 1))
    elif mode.kind == "resolving":
        bounds.append((PROVENANCE_TRIVIAL, 1))
    else:
        bounds.append((PROVENANCE_TRIVIAL, 2))
    return bounds


def metric_dimension(g, config):
    """Smallest passing cardinality for the configured mode, with basis.

    Returns an exact value when the search completes; on budget exhaustion,
    returns value None with the best certified lower bound.
    """
    t0 = time.monotonic()
    mode = config.mode
    mode.validate_for(g.n)
    dm = all_pairs_distances(g)
    n = g.n
    forced = () if mode.kind == "doubly" else forced_vertices(g, mode.order, mode.kind)
    bounds = dimension_lower_bounds(g, mode, forced=forced)
    lb_source, lb = max(bounds, key=lambda b: (b[1], b[0] == PROVENANCE_FORCED))
    free = [v for v in range(n) if v not in forced]
    stats = SearchStats()
    deadline = None if config.budget_s is None else t0 + config.budget_s
    k_hi = min(n, config.k_max if config.k_max is not None else n)

    def _result(value, basis):
        stats.wall_ms = (time.monotonic() - t0) * 1000.0
        return DimensionResult(mode, value, basis, lb, lb_source, stats)

    def tick(nodes):
        nonlocal step
        if config.progress is not None:
            config.progress(k, step, stats.nodes + nodes)
        step += 1
        _check_deadline(deadline)

    try:
        with _phase(stats, "masks"):
            masks = _mode_masks(dm, mode, avoid=forced, deadline=deadline)
        stats.mask_count = len(masks)
        with _phase(stats, "reduce"):
            masks = _minimal_masks(masks, deadline)
            cover, lowest, members = _bitsets(masks, free)
        stats.masks_kept = len(masks)
        with _phase(stats, "search"):
            for k in range(lb, k_hi + 1):
                step = 0
                tick(0)
                hit, nodes = _colex_first_cover(cover, lowest, members, k - len(forced), tick)
                stats.nodes += nodes
                if hit is not None:
                    stats.subsets_checked += colex_rank(hit) + 1
                    break
                stats.subsets_checked += comb(len(free), k - len(forced))
                stats.exhausted_through = k
                lb, lb_source = k + 1, PROVENANCE_EXHAUSTED
            else:
                return _result(None, None)
    except _OutOfBudget:
        return _result(None, None)
    with _phase(stats, "verify"):
        basis = tuple(sorted(forced + tuple(free[j] for j in hit)))
        verdict = check_mode(dm, basis, mode)
    if not verdict.holds:
        raise RuntimeError(
            f"separator masks accepted {basis} but the checker rejects it; "
            f"witness: {verdict.witness}"
        )
    return _result(k, basis)


def verify_basis_certificate(g, mode, anchors, *, budget_s=60.0):
    """Certify that ``anchors`` passes its mode check and no smaller set does.

    Never returns a false positive: on budget exhaustion the status is
    ``inconclusive`` and ``certified`` stays False.
    """
    dm = all_pairs_distances(g)
    anchors = tuple(anchors)
    verdict = check_mode(dm, anchors, mode)
    if not verdict.holds:
        return CertificateReport(False, "not-passing")
    k = len(anchors)
    config = SearchConfig(mode=mode, budget_s=budget_s, k_max=k - 1)
    result = metric_dimension(g, config)
    if result.value is not None:
        return CertificateReport(
            False, "smaller-set-exists", smaller_set=result.basis,
            lower_bound=result.value,
        )
    if result.lower_bound >= k:
        return CertificateReport(True, "confirmed-minimum", lower_bound=k)
    return CertificateReport(False, "inconclusive", lower_bound=result.lower_bound)
