"""Exhaustive minimum-cardinality search for resolving-type sets.

The search reformulates each mode check exactly as a hitting problem: a
candidate set passes iff it intersects every "separator" mask.

* {l}-resolving: for every pair of distinct nonempty sets X, Y of size <= l,
  the mask of vertices whose distances to X and Y differ (never empty, since
  any vertex in the symmetric difference separates).  These include the
  (l-1)-solid masks: for x not in Y, d(v, Y + x) = min(d(v, x), d(v, Y))
  differs from d(v, Y) exactly where d(v, x) < d(v, Y), so the mask of (x, Y)
  below is that of the pair (Y, Y + x).
* l-solid: for every vertex x and set Y avoiding x with |Y| <= l, the mask
  of vertices strictly closer to x than to Y (x itself is always in it).
* doubly resolving: for every vertex pair (u, v) and every value c taken by
  d(., u) - d(., v), the complement of that level set; hitting all of them
  says the difference vector is not constant on the candidate set.  With
  top the diameter, it is where the shifted rows d(., u) + top and
  d(., v) + top + c differ.

The masks are bitsets kept word-major, one numpy row per word, as they
are built and reduced, in the smallest unsigned type that holds n bits
when one word holds a mask (n <= 64), else uint64.  ``_Separators`` is
the one place that knows each family: its rows (bit slices of the
distances, one bitset per bit), how they are paired, and how many masks
that builds.  The {l}-resolving and doubly masks are where two rows
differ, each row group compared with the half of the groups after it,
cyclically; the l-solid masks are a bit-serial less-than.  Each block,
of about 2^18 words, is XORed and ORed in place into one set of buffers
that the build allocates once, sorted (one word: in place), and its
distinct masks copied into a part of its own before the next overwrites
it; the parts are merged one range of first words at a time.  The
forced vertices, which every passing set contains, are those of the
single-vertex masks (resolving and solid modes), known beforehand from
``checks.forced_vertices``.  The reduction drops the masks they are in,
counts the rest and reduces them to their minimal antichain: a set hits
every mask iff it hits every mask that holds no other.  The rows are
sorted by size and reduced a level at a time: the smallest left are
kept, and each larger one that contains one of them dropped.

A family of at least _ORBIT_MASKS one-word masks ({l}-resolving or
doubly) whose automorphism group is enumerated (see below) is built and
reduced on one representative per orbit, and the whole family is never
built.  An automorphism maps the masks of a pair of row groups onto
those of the pair of their images, so the pairs whose first row group
(the set X for {l}-resolving, the vertex u for doubly) comes first in
its orbit, each against every group, build a mask of every orbit of the
family, about a 1/|G| share of it.  Their distinct masks are reduced a level at a time
as above, but each level keeps the distinct images of its
representatives left (one float64 product of their bit matrix with
2^g(v)), and those drop the larger representatives that contain one.
The kept images, by size and then value, are the masks the plain
reduction keeps, in its order.  ``mask_count`` then counts the
representatives' distinct masks, which depend on the labelling.
Smaller families stay plain (J5 {2}-resolving and every family of the
``cli`` dims among them): on the smallest, setting up the images costs
more than the orbits save.

A greedy cover of the kept masks (repeatedly the vertex in the most
unhit masks, then dropping the picks the others cover) plus the forced
vertices caps the value: every cardinality from that cap up passes, since
hitting every mask is kept by adding vertices.  Below the cap, a few
cardinalities are decided by galloping (Bentley and Yao 1976): from the
starting bound b, the next decided is min(cap - 1, k_max, 2 lb - b) for
the current bound lb.  A failed decision exhausts every cardinality up to
it and raises the bound past it; a passing one lowers the cap to it; a
bound past k_max ends the search without a value.  Each decision is one
recursion over the non-forced vertices, branching on the members of an
unhit mask; with one position left, only members of both the last and
the first unhit mask are tried, since a lone position must hit every
unhit mask.  The recursion runs on one family, whose positions
are the vertices sorted by descending mask degree (how many kept masks
contain the vertex; ties in vertex order), so the vertices that hit the
most masks are tried first and the labels only break ties.  Its answer
does not depend on the order of the positions.  Once the bound meets the
cap, the value, the same recursion on the same family, allowed only the
positions of the vertices before each candidate, reads off the first
passing set of that size in colexicographic order of the vertices
without deciding it again, and the set is re-verified with the public
checker; the labels order that read-off, and the set it finds is the one
an ascending search in vertex order finds.

The masks are defined from distances alone, so every automorphism of the
graph maps the forced vertices onto themselves and the kept masks onto
the kept masks.  Every search first reads the group off the distance
matrix, before the masks are built: an automorphism is fixed by the
images of a resolving base, so the candidate images of a greedy base are
extended level by level and every map they give is checked against the
edges (or, past a fixed number of candidates, the search goes on without
it).  The group depends on the graph alone, so it is read once per
distance matrix and kept with it (``DistanceMatrix._invariant``), as the
matrix is kept with its graph object: later searches on that graph, in
any mode, read neither again, while the masks, forced vertices and
answers are computed per call.  The same recursion then makes each
decision by orbital branching: it is handed the automorphisms that fix
the positions taken so far, and when the branch on a position fails, so
do the branches on every position they map it to, which are dropped.
Where none is left it branches as without the group, so a decision that
places fewer than two positions, and the read-off, take the nodes they
take without it.  The answer is unchanged; only the nodes it takes are
fewer.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from functools import reduce
from itertools import accumulate
from math import comb, isnan, prod
from operator import or_

import numpy as np

from .checks import Mode, check_mode, forced_vertices, set_arrays
from .graphs import all_pairs_distances
from .subsets import colex_rank, size_colex_array

PROVENANCE_FORCED = "forced-count"
PROVENANCE_RULE = "l-plus-1-rule"
PROVENANCE_TRIVIAL = "trivial"
PROVENANCE_EXHAUSTED = "exhausted-cardinality"

# search nodes between two progress calls (and deadline checks)
PROGRESS_NODES = 4096
# mask words per numpy block when building masks, and when reducing them
_BLOCK_WORDS = 1 << 18
# candidate image tuples of a base beyond which the group is not enumerated
_MAX_IMAGES = 1024
# masks built, below which a family is built and reduced whole rather
# than on one representative per orbit
_ORBIT_MASKS = 1 << 15


@dataclasses.dataclass
class SearchConfig:
    mode: Mode
    budget_s: float = 60.0
    # accepted for compatibility and ignored: the search is single-process
    workers: int = 1
    k_max: int | None = None
    # progress(k, step, nodes): called at the start of each decision and
    # of the read-off (step 0), and every PROGRESS_NODES search nodes; k is
    # the cardinality being decided or read off, and may fall after a
    # passing decision; the running node count never decreases
    progress: object | None = None


@dataclasses.dataclass
class SearchStats:
    # sets a size-then-colex scan tests: all of each exhausted cardinality
    # (every one below the bound, decided or not), then those up to and
    # including the returned basis
    subsets_checked: int = 0
    wall_ms: float = 0.0
    # the largest exhausted cardinality, 0 if none: one below the bound
    # once a decision has failed
    exhausted_through: int = 0
    # the distinct separator masks that enter the reduction and avoid
    # every forced vertex (on the orbit path the representatives' masks,
    # so the count depends on the labelling, as nodes does; elsewhere the
    # whole distinct family), and how many masks of the family are minimal
    # (the ones searched), both read off in "reduce"
    mask_count: int = 0
    masks_kept: int = 0
    # calls of the decision recursion on the degree-ordered family: the
    # decisions and the read-off, up to the budget check that cuts one
    nodes: int = 0
    # the cardinalities whose decision completed, in order (the read-off
    # at the value is not a decision): galloping up from the lower bound,
    # each below the smallest cardinality known to pass
    decided: tuple = ()
    # milliseconds per phase, in order: group (the automorphisms, read
    # first, once per distance matrix), masks (the separator build and its
    # dedup up to the sorted merged rows, on the orbit path those of the
    # representatives), reduce (masks no forced vertex is in, minimal
    # masks, family, greedy cap), search (decisions and read-off), verify
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
        ms = (time.perf_counter() - t0) * 1000.0
        stats.phase_ms[name] = stats.phase_ms.get(name, 0.0) + ms


# ---------------------------------------------------------------------------
# separator masks: bit v % 64 of word v // 64 stands for vertex v.  A family
# of N masks over W words is an (N, W) array held word-major (its transpose
# is C-contiguous), so every reduction runs across the few words,
# elementwise over rows of N.  A family over n <= 64 vertices (one word) is
# built and kept in the narrowest unsigned type that holds n bits (uint8,
# 16, 32 or 64, little-endian), which the later steps read through uint8
# views or np.bitwise_count.  The blocks of one build are views of one set
# of three buffers of mask words, each overwritten by the next block.


def _slices(rows):
    """Bit slices of nonnegative ``rows``, top bit first: with depth =
    ``rows.max().bit_length()`` (or 1), entry [b, w, i] is word w (of
    ``_word_type(n)``) of the bitset {v : bit depth - 1 - b of rows[i, v]
    is 1}."""
    s, n = rows.shape
    word = _word_type(n)
    # at least one slice for _differ to start from; all-zero rows (n = 1)
    # leave it zero
    depth = max(1, int(rows.max()).bit_length())
    bits = np.zeros((depth, s, -(-n // (8 * word.itemsize)) * 8 * word.itemsize), dtype=bool)
    for b in range(depth):
        np.not_equal(rows & (1 << (depth - 1 - b)), 0, out=bits[b, :, :n])
    words = np.packbits(bits, axis=-1, bitorder="little").view(word)
    return np.ascontiguousarray(words.transpose(0, 2, 1))


def _views(bufs, shape):
    size = prod(shape)
    return [buf[:size].reshape(shape) for buf in bufs]


def _differ(x, y, bufs):
    """Words of {v : two rows differ}, from bit slices ``x`` and ``y`` of
    shape (depth, words, ...) broadcast against each other, XORed and ORed
    into views of ``bufs``: one row of words per broadcast pair, the pairs
    in C order."""
    acc, step, _ = _views(bufs, np.broadcast_shapes(x.shape, y.shape)[1:])
    np.bitwise_xor(x[0], y[0], out=acc)
    for b in range(1, len(x)):
        acc |= np.bitwise_xor(x[b], y[b], out=step)
    return acc.reshape(len(acc), -1).T


def _pairs(rows, count, first, stride, cuts, bufs, firsts=None):
    """Blocks of the masks where row ``first`` of group i differs from each
    row of the ``count // 2`` groups after it, cyclically, the rows (bit
    slices, of shape (depth, width, count * stride)) taken ``stride`` to a
    group, and the groups lo .. hi - 1 of each (lo, hi) in ``cuts`` to a
    block.  This meets every pair of groups once (those count / 2 apart
    twice).  With ``firsts``, an array of groups, row ``first`` of each
    group firsts[i] differs from every row instead, the groups firsts[lo]
    .. firsts[hi - 1] to a block: the pairs of a group with itself give
    the empty mask (doubly: a shift of its own row, an all-vertex mask)."""
    if firsts is not None:
        for lo, hi in cuts:
            yield _differ(rows[:, :, firsts[lo:hi] * stride + first, None], rows[:, :, None, :],
                          bufs)
        return
    after = count // 2 * stride
    # entry [.., i, :] of shifted is the rows of groups i + 1 .. i + count // 2
    shifted = np.lib.stride_tricks.sliding_window_view(
        np.concatenate([rows, rows], axis=2), after, axis=2)[:, :, stride::stride]
    for lo, hi in cuts:
        yield _differ(rows[:, :, lo * stride + first:hi * stride:stride, None], shifted[:, :, lo:hi],
                      bufs)


def _solid_blocks(targets, cuts, bufs):
    # {v : d(v, x) < d(v, Y)} by a bit-serial compare, top bit first, for
    # the vertices x of each cut; the first n sets are the singletons, so
    # the row of x is d(., x), and pairs with x in Y give empty masks
    depth, width, t = targets.shape
    for lo, hi in cuts:
        less, step, same = _views(bufs, (width, hi - lo, t))
        less.fill(0)
        np.invert(less, out=same)
        # ~x and ~y are small; one scratch block serves every slice
        for b, (x, y) in enumerate(zip(targets[:, :, lo:hi, None], targets[:, :, None, :]), 1):
            np.bitwise_and(~x, y, out=step)
            step &= same
            less |= step
            if b < depth:
                same &= np.bitwise_xor(x, ~y, out=step)
        yield less.reshape(width, -1).T


class _Separators:
    """The separator masks of ``mode`` on the distance matrix ``dm``,
    before any is built: the rows they compare, how those are paired, and
    how many masks that builds before any drop (``raw``), which picks the
    orbit path (``orbital``).  The blocks are of about _BLOCK_WORDS mask
    words.

    * {l}-resolving: the rows are D(X) for the s sets X of size <= l, each
      paired with the s // 2 after it (``_pairs``, stride 1).
    * l-solid: each vertex x against the same s rows (``_solid_blocks``).
    * doubly: the rows are d(., v) + j, 0 <= j < span = 2 top + 1, a group
      of span rows per vertex, and the mask of (u, v, c) is where rows
      (u, top) and (v, top + c) differ.  Swapping u and v negates c, so row
      (u, top) is paired with the rows of the n // 2 vertices after u
      (``_pairs``, stride span).  The all-vertex masks (levels the
      difference never takes) are built too, and dropped from each block.

    A row group stands for a vertex set, ``sets[i]`` (a row of vertices,
    as ``size_colex_array`` pads it): X for {l}-resolving, {v} for
    doubly.  An automorphism maps the masks of a pair of groups onto those
    of the pair of their images, so the pairs whose first group comes
    first in its orbit (``firsts``), each against every group, give a mask
    of every orbit of the family's masks."""

    def __init__(self, dm, mode):
        n = self.n = dm.n
        self.kind = mode.kind
        dist = dm.dist.astype(np.int16 if n < 1 << 15 else np.int32)
        if mode.kind == "doubly":
            top = int(dist.max())
            span = 2 * top + 1
            self.rows = _slices((dist[:, None, :] + np.arange(span, dtype=dist.dtype)[:, None])
                                .reshape(-1, n))
            self.count, self.first, self.stride = n, top, span
            self.sets = np.arange(n)[:, None]
        else:
            self.sets = size_colex_array(n, mode.order)
            self.rows = _slices(set_arrays(dist, self.sets))
            self.count, self.first, self.stride = self.rows.shape[2], 0, 1
        # the groups that blocks are cut by (for solid the vertices x), and
        # the masks of each
        self.groups, self.per_group = ((n, self.count) if mode.kind == "solid"
                                       else (self.count, self.count // 2 * self.stride))
        self.raw = self.groups * self.per_group
        # one word holds a mask, and there are enough of them for the
        # representatives to pay for their orbits (see _ORBIT_MASKS)
        self.orbital = mode.kind != "solid" and n <= 64 and self.raw >= _ORBIT_MASKS

    def blocks(self, firsts=None):
        """The blocks (rows of words), each a view of one set of buffers,
        valid until the next block is built.  With ``firsts`` (groups,
        ascending), only the pairs whose first group is one of them are
        built, each against every group."""
        rows, count, stride = self.rows, self.count, self.stride
        groups, per_group = self.groups, self.per_group
        if firsts is not None:
            groups, per_group = len(firsts), count * stride
        group_words = max(1, per_group * rows.shape[1])
        step = max(1, _BLOCK_WORDS // group_words)
        cuts = [(lo, min(lo + step, groups)) for lo in range(0, groups, step)]
        bufs = np.empty((3, min(step, groups) * group_words), dtype=rows.dtype)
        if self.kind == "solid":
            return _solid_blocks(rows, cuts, bufs)
        blocks = _pairs(rows, count, self.first, stride, cuts, bufs, firsts)
        if self.kind == "doubly":
            blocks = (np.compress(np.bitwise_count(words).sum(axis=1) < self.n, words.T, axis=1).T
                      for words in blocks)
        return blocks

    def masks(self, deadline=None, firsts=None):
        """The distinct nonempty masks of the blocks (``firsts`` as in
        ``blocks``), as rows of words sorted by their first word, then the
        next: each block is deduplicated into a part of its own and the
        parts merged (a lone part is not sorted again).  The deadline is
        checked after each block and each merged range, so no merge starts
        once it has passed."""
        n = self.n
        parts = []
        for block in self.blocks(firsts):
            parts.append(_unique_columns(block.T))
            _check_deadline(deadline)
            if len(parts) >= 32:
                parts = [_merge(parts, deadline)]
        if len(parts) > 1:
            parts = [_merge(parts, deadline)]
        return parts[0].T if parts else np.zeros((0, (n + 63) // 64), dtype=_word_type(n))

    def firsts(self, images):
        """The groups that come first in their orbit, ascending, where
        ``images`` maps one-word masks to their images (``_image_map``).
        In the order of the groups, sets of one size are in colex order,
        which is the order of their masks, and an automorphism keeps the
        size: a group is first iff its set's mask is the least of its
        images."""
        one = np.ones(1, dtype=self.rows.dtype)
        keys = np.bitwise_or.reduce(one << self.sets.astype(self.rows.dtype), axis=1)
        return np.flatnonzero(keys == images(keys[None]).min(axis=1))


def _unique_columns(cols):
    """Distinct nonzero columns of word-major masks, sorted by their first
    word, then the next (np.unique is several times slower here, and
    boolean indexing than np.compress).  One word is sorted in place: the
    callers pass a block buffer or a concatenation of their own."""
    if len(cols) == 1:
        cols.sort(axis=1)
    else:
        cols = np.take(cols, np.lexsort(cols[::-1]), axis=1)
    # a zero column sorts first
    fresh = np.empty(cols.shape[1], dtype=bool)
    fresh[:1] = cols[:, :1].any()
    fresh[1:] = (cols[:, 1:] != cols[:, :-1]).any(axis=0)
    return np.compress(fresh, cols, axis=1)


def _word_type(n):
    """The little-endian unsigned type of one mask word over n vertices:
    the narrowest that holds n bits when one word does, else uint64."""
    return np.dtype(np.min_scalar_type((1 << n) - 1) if n <= 64 else np.uint64).newbyteorder("<")


def _merge(parts, deadline=None):
    """The distinct columns of sorted word-major ``parts``, sorted as
    ``_unique_columns`` sorts them.  The parts are cut at the same
    first-word values into ranges of about _BLOCK_WORDS words; a range
    holds every column whose first word falls in it, so each range is
    deduplicated on its own, and the deadline is checked between ranges."""
    # every `every`-th first word of each part; of those, sorted and
    # distinct, every len(parts)-th cuts the ranges
    every = max(1, _BLOCK_WORDS // len(parts[0]) // len(parts))
    cuts = np.unique(np.concatenate([part[0, every::every] for part in parts]))[::len(parts)]
    bounds = [[0, *np.searchsorted(part[0], cuts).tolist(), part.shape[1]] for part in parts]
    # the ranges are written into one buffer with room for every column;
    # its pages past the distinct ones are never written, so they take no
    # memory (ranges kept apart and joined at the end took J11
    # {3}-resolving from a 1.14 to a 1.24 GB peak)
    merged = np.empty((len(parts[0]), sum(part.shape[1] for part in parts)), dtype=parts[0].dtype)
    filled = 0
    for j in range(len(cuts) + 1):
        cols = _unique_columns(np.concatenate(
            [part[:, at[j]:at[j + 1]] for part, at in zip(parts, bounds)], axis=1))
        merged[:, filled:filled + cols.shape[1]] = cols
        filled += cols.shape[1]
        _check_deadline(deadline)
    return merged[:, :filled]


def _image_map(autos, word):
    """The images of one-word masks of type ``word`` under the
    automorphisms ``autos`` (rows of vertex images, the identity among
    them), as a function of a (1, k) array of masks that returns a (k, g)
    array: entry [i, j] is the mask of the images under row j of the
    vertices in mask i.  It is the product of the masks' bit matrix with
    2^autos[j, v] in float64, exact while its sums stay below 2^53: over
    more than 52 vertices, the images below bit 32 and those from bit 32
    on are two products."""
    n = autos.shape[1]
    to = autos.T
    low = np.ldexp(1.0, to)
    high = None
    if n > 52:
        low, high = np.where(to < 32, low, 0.0), np.where(to < 32, 0.0, np.ldexp(1.0, to - 32))

    def images(masks):
        raw = np.ascontiguousarray(masks[0]).view(np.uint8).reshape(masks.shape[1], -1)
        bits = np.unpackbits(raw, axis=1, count=n, bitorder="little")
        out = (bits @ low).astype(word)
        if high is not None:
            out |= (bits @ high).astype(word) << word.type(32)
        return out

    return images


def _minimal(cols, sizes, expand, deadline=None):
    """The masks of the word-major ``cols`` (sorted by ``sizes``) that
    contain no other one, a level at a time: the smallest masks left
    contain no other, ``expand`` gives the kept masks of their size from
    them (rows of words of one size), and every larger mask left that
    contains one of those is dropped, a chunk of them at a time, the
    deadline checked per chunk.  The survivors are copied only once an
    eighth of them has been dropped since the last copy, or at the end of
    the level."""
    kept = [cols[:, :0]]
    while sizes.size:
        cut = np.searchsorted(sizes, sizes[0], side="right")
        # a copy, so that no level holds on to the array it was cut from
        level, cols, sizes = expand(cols[:, :cut].copy()), cols[:, cut:], sizes[cut:]
        kept.append(level)
        lo, dead = 0, None
        while lo < level.shape[1] and sizes.size:
            step = max(1, _BLOCK_WORDS // cols.size)
            # word by word, in one statement: a chunk-sized array kept into
            # the next chunk made each chunk fault in fresh pages (J7: 1.6x)
            sub = level[:, lo:lo + step, None]
            inside = ((words & part) == part for words, part in zip(cols, sub))
            hit = reduce(np.logical_and, inside).any(axis=0)
            dead = hit if dead is None else np.logical_or(dead, hit, out=dead)
            lo += step
            at = np.flatnonzero(~dead)
            if lo >= level.shape[1] or 8 * len(at) <= 7 * len(dead):
                cols, sizes, dead = np.take(cols, at, axis=1), sizes[at], None
            del at
            _check_deadline(deadline)
    return np.concatenate(kept, axis=1).T


def _kept_masks(masks, forced, deadline=None, images=None):
    """One pass from the distinct masks of ``_Separators.masks`` to the
    family searched: the masks that a vertex of ``forced`` is in are
    dropped.  Returns the number of masks left, and the masks of the
    family that contain no other one (as rows of words), fewest bits
    first, in input order (ascending, for one word) within a size.  The
    masks left are sorted by size and reduced by ``_minimal``, each level
    keeping its own masks.

    With ``images`` (``_image_map``), ``masks`` are the distinct masks of
    the pairs of ``_Separators.firsts`` (one word each, a mask of every
    orbit of the family), and each level keeps the distinct images of its
    masks, ascending.  Those are the kept masks of that size: every
    automorphism maps the forced vertices, and so the masks left and the
    kept ones, onto themselves, so a kept mask has an image among the
    representatives, and that image contains no smaller kept mask."""
    cols = masks.T
    if forced:
        bits = np.zeros(8 * cols.dtype.itemsize * len(cols), dtype=bool)
        bits[list(forced)] = True
        row = np.packbits(bits, bitorder="little").view(cols.dtype)[:, None]
        # np.take, since cols[:, at] returns the words column-major (strided)
        cols = np.take(cols, np.flatnonzero(((cols & row) == 0).all(axis=0)), axis=1)
    # in the smallest unsigned type that holds 64 * W: a radix argsort
    sizes = np.bitwise_count(cols).sum(axis=0, dtype=np.min_scalar_type(64 * len(cols)))
    order = np.argsort(sizes, kind="stable")
    cols, sizes = np.take(cols, order, axis=1), sizes[order]
    # the intp indices are about as long as the family: none is kept
    # into the levels or the next chunk
    del order
    if images is None:
        return cols.shape[1], _minimal(cols, sizes, lambda level: level, deadline)
    return cols.shape[1], _minimal(
        cols, sizes, lambda level: _unique_columns(images(level).reshape(1, -1)), deadline)


def _row_ints(bits):
    """Each row of a 2-d 0/1 array as a Python-int bitset, built from its
    64-bit words top word first (int.from_bytes per row is several times
    slower)."""
    rows, width = bits.shape
    raw = np.zeros((rows, -(-width // 64) * 8), dtype=np.uint8)
    raw[:, :-(-width // 8)] = np.packbits(bits, axis=1, bitorder="little")
    words = raw.view("<u8").T
    if not len(words):
        return [0] * rows
    ints = words[-1].tolist()
    for word in words[-2::-1]:
        ints = [i << 64 | w for i, w in zip(ints, word.tolist())]
    return ints


def _member_matrix(masks, free):
    """0/1 array of the masks (rows of words) over the vertices in
    ``free``: entry [i, j] says whether mask i contains vertex free[j]."""
    raw = np.ascontiguousarray(masks).view(np.uint8)
    return np.unpackbits(raw, axis=1, bitorder="little")[:, free]


def _family(member):
    """The masks of a member matrix numbered by their lowest position:
    ``cover[j]`` is the Python-int bitset of the masks that contain
    position j, and ``members[i]`` the int bitset of the positions in
    mask i."""
    first = member.argmax(axis=1) if member.size else np.zeros(len(member), dtype=np.intp)
    member = member[np.argsort(first, kind="stable")]
    return _row_ints(member.T), _row_ints(member)


# ---------------------------------------------------------------------------
# automorphisms, read off a resolving base


def _automorphisms(dm):
    """Every automorphism of the connected graph with distance matrix
    ``dm``, as the rows of an int array (entry [g, v] is the image of v),
    or None when the images of the base below take more than _MAX_IMAGES
    candidate tuples at some level.  ``metric_dimension`` reads it through
    ``dm._invariant``, so once per distance matrix.

    An automorphism is fixed by the images of a resolving set (Boutin
    2009).  The base is chosen greedily: each step adds the vertex whose
    distance column splits the current classes of distance codes most,
    until the codes are distinct.  Candidate image tuples grow a level at
    a time, over the vertices with the same sorted distance row as the
    base vertex and the same distances to the earlier images.  A tuple
    maps each vertex to the one whose codes to the images match its codes
    to the base, and the map is kept only if it sends every edge to an
    edge."""
    n = dm.n
    dist = dm.dist.astype(np.intp)
    span = int(dist.max()) + 1
    # code[v]: v's class of distance codes to the base so far.  A step
    # numbers the keys code * span + d that occur; as a table, entry [c, d]
    # is the class after the step of class c at distance d from the new
    # base vertex, or -1 where no vertex has that code (the last row, which
    # class -1 reads, too)
    code, classes = np.zeros(n, dtype=np.intp), 1
    base, steps = [], []
    while classes < n:
        keys = code[:, None] * span + dist
        # seen[b, key]: the key occurs if b joins the base
        seen = np.zeros((n, classes * span), dtype=bool)
        seen[np.arange(n), keys] = True
        b = int(np.argmax(seen.sum(axis=1)))
        step = np.full((classes + 1) * span, -1, dtype=np.intp)
        step[:-span] = np.where(seen[b], np.cumsum(seen[b]) - 1, -1)
        base.append(b)
        steps.append(step.reshape(classes + 1, span))
        code, classes = step[keys[:, b]], int(seen[b].sum())
    rows = np.sort(dist, axis=1)
    images = np.zeros((1, 0), dtype=np.intp)
    for i, b in enumerate(base):
        candidates = np.flatnonzero((rows == rows[b]).all(axis=1))
        fits = (dist[images[:, :, None], candidates] == dist[base[:i], b][:, None]).all(axis=1)
        tuples, picks = np.nonzero(fits)
        if len(tuples) > _MAX_IMAGES:
            return None
        images = np.column_stack([images[tuples], candidates[picks]])
    # each tuple's classes of codes to its images; a vertex matches the
    # vertex of the base's class of the same number
    matched = np.zeros((len(images), n), dtype=np.intp)
    for i, step in enumerate(steps):
        matched = step[matched, dist[images[:, i]]]
    bijective = (np.sort(matched, axis=1) == np.arange(n)).all(axis=1)
    autos = np.argsort(matched[bijective], axis=1)[:, code]
    u, v = np.nonzero(np.triu(dist == 1))
    return autos[(dist[autos[:, u], autos[:, v]] == 1).all(axis=1)]


class _Orbits(dict):
    """The automorphisms ``autos`` (rows of vertex images, or None for
    none) acting on the family positions, where vertex ``free[j]`` sits at
    position ``place[j]``.  ``group`` is the bitset of the rows that move
    some position.  Item (h, low), for a bitset h of those rows and the
    bit ``low`` of position p, is made on first use: the bitset of p's
    orbit under h and the identity, and the bitset of the rows of h that
    fix p."""

    def __init__(self, autos, free, place):
        super().__init__()
        rows = np.zeros((0, len(free)), dtype=np.intp)
        if autos is not None:
            at = np.full(autos.shape[1], -1)
            at[free] = place
            rows = np.empty((len(autos), len(free)), dtype=np.intp)
            rows[:, place] = at[autos[:, free]]
        # the identity, and an automorphism that moves only forced vertices,
        # fix every position
        self.rows = rows[(rows != np.arange(len(free))).any(axis=1)]
        self.group = (1 << len(self.rows)) - 1
        # images[p][bit of q]: the bitset of the rows that map p to q
        self.images = {}

    def __missing__(self, key):
        h, low = key
        p = low.bit_length() - 1
        if p not in self.images:
            by_image = self.images[p] = {}
            for g, q in enumerate(self.rows[:, p].tolist()):
                by_image[1 << q] = by_image.get(1 << q, 0) | 1 << g
        orbit, fixing = low, 0
        for bit, by in self.images[p].items():
            if h & by:
                orbit |= bit
                if bit == low:
                    fixing = h & by
        self[key] = orbit, fixing
        return orbit, fixing


# ---------------------------------------------------------------------------
# the greedy cap, and the exhaustive decision and read-off over one family


def _greedy_cover(cover, count):
    """Positions whose covers together hold all ``count`` masks: each step
    takes the position in the most unhit masks, ties to the lowest; then,
    last pick first, a pick that the other picks already cover is dropped."""
    full = unhit = (1 << count) - 1
    picks = []
    while unhit:
        counts = [(c & unhit).bit_count() for c in cover]
        p = counts.index(max(counts))
        picks.append(p)
        unhit &= ~cover[p]
    for p in picks[::-1]:
        if reduce(or_, (cover[q] for q in picks if q != p), 0) == full:
            picks.remove(p)
    return picks


def _cover_search(cover, members, place, tick, orbits):
    """The decision and the read-off over one family of masks, where
    vertex v of range(len(place)) sits at position ``place[v]``.  Returns
    ``decide(r)``, whether some r positions hit every mask, and
    ``read_off(r)``, the first r-subset of the vertices in colex order that
    does (an ascending list), which must exist.  Each returns its answer
    and the running number of decision calls of both.

    ``hits(unhit, allowed, r, h)`` decides whether at most r positions of
    the bitset ``allowed`` hit every unhit mask: exactly r where it is
    called, as ``allowed`` then holds r and a set can be padded.  It
    branches on the allowed members of the last unhit mask (the one with
    the largest lowest position), lowest first, each branch forbidding its
    member to the later ones, so no set is visited twice.  At r == 1 the
    branches are cut to the members of the first unhit mask as well: a
    lone position must hit every unhit mask, so it lies in both; the leaf
    loop shrinks and the calls stay the same.  Above r == 1, h is the
    bitset of the rows of ``orbits`` (an ``_Orbits`` of permutations of
    the positions that map the family onto itself, with no rows when the
    group is not enumerated) that fix every position taken so far: all of
    them at the root of a decision, none in the read-off.  The subproblem
    is invariant under h, so when the branch on p fails, every branch on
    p's h-orbit fails too, and the whole orbit leaves ``allowed``; the
    branch on p hands on the rows of h that fix p (orbital branching,
    Ostrowski et al. 2011).  ``tick(nodes)`` runs every PROGRESS_NODES
    calls, with the running count.  The answer depends neither on the
    positions nor on h, but the work does.

    The read-off takes the colex-first set largest vertex first: the
    smallest t such that r - 1 vertices before t hit the masks t leaves
    unhit.  The scan for t starts where the vertices up to t first reach
    every unhit mask.
    """
    n = len(place)
    full = (1 << len(members)) - 1
    complement = [full ^ c for c in cover]
    # below[t]: the positions of the vertices before t; reach[t]: the masks
    # that some vertex up to t is in
    below = list(accumulate((1 << p for p in place), or_, initial=0))
    reach = list(accumulate((cover[p] for p in place), or_))
    nodes = 0

    def hits(unhit, allowed, r, h=0):
        nonlocal nodes
        nodes += 1
        if not nodes % PROGRESS_NODES:
            tick(nodes)
        if not unhit:
            return True
        if r == 0:
            return False
        branches = members[unhit.bit_length() - 1] & allowed
        if r == 1:
            # a lone position hits every unhit mask, the first one too
            branches &= members[(unhit & -unhit).bit_length() - 1]
            while branches:
                low = branches & -branches
                branches ^= low
                if not unhit & complement[low.bit_length() - 1]:
                    return True
            return False
        while branches:
            low = branches & -branches
            branches ^= low
            allowed ^= low
            rest = unhit & complement[low.bit_length() - 1]
            if not h:
                if hits(rest, allowed, r - 1, 0):
                    return True
            else:
                orbit, fixing = orbits[h, low]
                if hits(rest, allowed, r - 1, fixing):
                    return True
                allowed &= ~orbit
                branches &= ~orbit
        return False

    def decide(r):
        return hits(full, (1 << n) - 1, r, orbits.group), nodes

    def read_off(r):
        unhit, top, found = full, n, []
        while r:
            start = next((t for t in range(r - 1, top) if not unhit & ~reach[t]), top)
            for t in range(start, top):
                rest = unhit & complement[place[t]]
                if hits(rest, below[t], r - 1):
                    break
            else:
                raise RuntimeError(f"no element completes a cover the search found ({r} left)")
            found.append(t)
            unhit, top, r = rest, t, r - 1
        return found[::-1], nodes

    return decide, read_off


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
    returns value None with the best certified lower bound.  A NaN budget
    raises ValueError.
    """
    t0 = time.monotonic()
    mode = config.mode
    mode.validate_for(g.n)
    if config.budget_s is not None and isnan(config.budget_s):
        # no clock reading exceeds t0 + nan, so it would never run out
        raise ValueError("budget must be a number of seconds, not NaN")
    dm = all_pairs_distances(g)
    n = g.n
    forced = () if mode.kind == "doubly" else forced_vertices(g, mode.order, mode.kind)
    free = [v for v in range(n) if v not in forced]
    lb_source, lb = max(dimension_lower_bounds(g, mode, forced=forced),
                        key=lambda b: (b[1], b[0] == PROVENANCE_FORCED))
    stats = SearchStats()
    deadline = None if config.budget_s is None else t0 + config.budget_s
    k_hi = min(n, config.k_max if config.k_max is not None else n)

    def _result(value, basis):
        stats.wall_ms = (time.monotonic() - t0) * 1000.0
        return DimensionResult(mode, value, basis, lb, lb_source, stats)

    def tick(nodes):
        nonlocal step
        stats.nodes = nodes
        if config.progress is not None:
            config.progress(k, step, nodes)
        step += 1
        _check_deadline(deadline)

    try:
        with _phase(stats, "group"):
            autos = dm._invariant(_automorphisms)
        with _phase(stats, "masks"):
            separators = _Separators(dm, mode)
            images = firsts = None
            if separators.orbital and autos is not None:
                images = _image_map(autos, separators.rows.dtype)
                firsts = separators.firsts(images)
            masks = separators.masks(deadline, firsts)
        with _phase(stats, "reduce"):
            stats.mask_count, masks = _kept_masks(masks, forced, deadline, images)
            member = _member_matrix(masks, free)
            # the positions by descending mask degree, ties in vertex order
            by_degree = np.argsort(-member.sum(axis=0, dtype=np.int64), kind="stable")
            cover, members = _family(member[:, by_degree])
            place = np.argsort(by_degree).tolist()
            # every cardinality from hi up passes: the forced vertices and a
            # greedy cover, padded
            hi = max(lb, len(forced) + len(_greedy_cover(cover, len(members))))
        stats.masks_kept = len(masks)
        with _phase(stats, "search"):
            decide, read_off = _cover_search(cover, members, place, tick,
                                             _Orbits(autos, free, place))
            # galloping: the gap above the starting bound doubles with each
            # failed decision, and a passing one lowers hi
            start = lb
            while lb < hi and lb <= k_hi:
                k, step = min(hi - 1, k_hi, 2 * lb - start), 0
                tick(stats.nodes)
                passes, stats.nodes = decide(k - len(forced))
                stats.decided += (k,)
                if passes:
                    hi = k
                    continue
                # a failed decision exhausts every cardinality up to k
                stats.subsets_checked += sum(comb(len(free), j - len(forced))
                                             for j in range(lb, k + 1))
                stats.exhausted_through = k
                lb, lb_source = k + 1, PROVENANCE_EXHAUSTED
            if lb > k_hi:
                return _result(None, None)
            k, step = hi, 0
            tick(stats.nodes)
            hit, stats.nodes = read_off(k - len(forced))
            stats.subsets_checked += colex_rank(hit) + 1
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

    The search runs with ``k_max`` one below the anchors, so every
    cardinality it decides is smaller: a passing decision lowers its cap,
    and the colex-first set there is returned as ``smaller-set-exists``;
    otherwise each failed decision exhausts the cardinalities up to it,
    and the anchors are confirmed once every one below them is exhausted.
    Never returns a false positive: on budget exhaustion the status is
    ``inconclusive``, ``certified`` stays False, and the bound is one
    above the largest cardinality exhausted.
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
