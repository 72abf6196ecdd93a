"""Vertex sets on the K_m x K_n grid and their block-design bridge.

Cells are (row, col) with rows 0..n-1 from the K_n factor and columns
0..m-1 from the K_m factor; the flat vertex index of (row, col) in
``rook_graph(m, n)`` is col*n + row.

A *quadruple* is the four-cell rectangle spanned by two rows and two
columns.  For a set S on the grid with m >= n >= 6, S is {2}-resolving iff
every row and every column holds at least two cells of S and every
quadruple meets S (the forward direction also needs the degenerate
alternative of containing a whole closed non-neighbourhood, reported here
as the Type-1 condition).

The complement structure of such a set is a block system: block j lists
the rows *missing* from column j.  Quadruple coverage is exactly the
requirement that two blocks share at most one point.  A set's blocks and
its row and column counts are read off one column view,
``RookSet.column_row_masks``.  Design files are read with the line reader
of ``io``.
"""

from __future__ import annotations

import dataclasses
from math import comb

from .checks import CheckVerdict
from .errors import DesignParseError, GraphError
from .graphs import _count, _plain_int, rook_cell, rook_flat
from .io import _int_lines

__all__ = [
    "RookSet", "Design", "quadruple_coverage", "classify_conditions",
    "sufficiency_check", "rook_lower_bound", "design_to_set", "set_to_design",
    "validate_design", "parse_design", "write_design", "fano_plane_design",
    "ten_point_design", "RookClassification", "EmptyQuadruple",
    "DesignViolation", "SufficiencyReport",
]


@dataclasses.dataclass(frozen=True)
class RookSet:
    """A set of cells on the m-column, n-row grid."""

    m: int
    n: int
    cells: frozenset

    def __post_init__(self):
        rule = "grid dimensions must be positive integers"
        object.__setattr__(self, "m", _count(self.m, 1, rule))
        object.__setattr__(self, "n", _count(self.n, 1, rule))
        cells = {cell: tuple(map(_plain_int, cell)) for cell in self.cells}
        for cell, (r, c) in cells.items():
            if None in (r, c) or not (0 <= r < self.n and 0 <= c < self.m):
                raise GraphError(f"cell {cell} is not an integer cell of the {self.n}x{self.m} grid")
        object.__setattr__(self, "cells", frozenset(cells.values()))

    @classmethod
    def from_cells(cls, m, n, cells):
        return cls(m, n, frozenset((r, c) for r, c in cells))

    @classmethod
    def from_vertices(cls, m, n, vertices):
        vertices = tuple(vertices)
        if None in map(_plain_int, vertices):
            raise GraphError(f"grid vertices must be integers, got {vertices}")
        return cls(m, n, frozenset(rook_cell(v, n) for v in vertices))

    def vertices(self):
        """Ascending flat vertex indices in rook_graph(m, n)."""
        return tuple(sorted(rook_flat(r, c, self.n) for (r, c) in self.cells))

    def column_row_masks(self):
        """Per-column bitmask of the rows present in the set."""
        masks = [0] * self.m
        for (r, c) in self.cells:
            masks[c] |= 1 << r
        return masks

    def row_counts(self):
        return _counts(self.column_row_masks(), self.n)[0]

    def col_counts(self):
        return [mask.bit_count() for mask in self.column_row_masks()]

    def transpose(self):
        return RookSet(self.n, self.m, frozenset((c, r) for (r, c) in self.cells))

    def __len__(self):
        return len(self.cells)


@dataclasses.dataclass(frozen=True)
class EmptyQuadruple:
    """Two rows x two columns none of whose four cells is in the set."""

    rows: tuple[int, int]
    cols: tuple[int, int]


def _counts(masks, n):
    """The row counts and the column counts of a set of an n-row grid,
    from its ``column_row_masks``."""
    rows = [sum(mask >> r & 1 for mask in masks) for r in range(n)]
    return rows, [mask.bit_count() for mask in masks]


def quadruple_coverage(rs):
    """Check that every quadruple contains a set member.

    One bitmask intersection per column pair; the witness is the first
    uncovered quadruple in (column pair, lowest rows) order.
    """
    return _coverage(rs.column_row_masks(), rs.n)


def _coverage(masks, n):
    """``quadruple_coverage`` of the set with ``column_row_masks`` masks
    on an n-row grid."""
    full = (1 << n) - 1
    for a in range(len(masks)):
        missing_a = ~masks[a] & full
        if not missing_a:
            continue
        for b in range(a + 1, len(masks)):
            both = missing_a & ~masks[b] & full
            if both.bit_count() >= 2:
                r1 = (both & -both).bit_length() - 1
                both ^= both & -both
                r2 = (both & -both).bit_length() - 1
                return CheckVerdict(
                    False, EmptyQuadruple(rows=(r1, r2), cols=(a, b))
                )
    return CheckVerdict(True)


@dataclasses.dataclass(frozen=True)
class RookClassification:
    """Which of the two necessary conditions for a {2}-resolving set hold."""

    type1: bool
    type1_cell: tuple[int, int] | None
    rows_ok: bool
    cols_ok: bool
    coverage: object
    type2: bool

    @property
    def neither(self):
        return not (self.type1 or self.type2)


def classify_conditions(rs):
    """Type 1: S contains a whole closed non-neighbourhood {v} + (V - N(v)).
    Type 2: every row and column has >= 2 members and quadruples are covered.
    A set satisfying neither is certified not {2}-resolving."""
    masks = rs.column_row_masks()
    rows, cols = _counts(masks, rs.n)
    # V - N[(r, c)] is the (n-1)(m-1) cells off row r and column c; S holds
    # all of them iff that many of its members lie off both
    off = (rs.n - 1) * (rs.m - 1)
    type1_cell = min((cell for cell in rs.cells
                      if len(rs) - rows[cell[0]] - cols[cell[1]] + 1 == off), default=None)
    rows_ok = all(x >= 2 for x in rows)
    cols_ok = all(x >= 2 for x in cols)
    coverage = _coverage(masks, rs.n)
    return RookClassification(
        type1=type1_cell is not None,
        type1_cell=type1_cell,
        rows_ok=rows_ok,
        cols_ok=cols_ok,
        coverage=coverage,
        type2=rows_ok and cols_ok and coverage.holds,
    )


@dataclasses.dataclass(frozen=True)
class SufficiencyReport:
    holds: bool
    witness: object | None
    transposed: bool
    reason: str

    def __bool__(self):
        return self.holds


def sufficiency_check(rs):
    """Certify a set as {2}-resolving on grids with both sides >= 6.

    Sufficient condition: every row and column holds two members and every
    quadruple is covered.  When n > m the grid is transposed first (the two
    orientations give isomorphic graphs); the report records that.
    """
    transposed = False
    if rs.n > rs.m:
        rs = rs.transpose()
        transposed = True
    if rs.n < 6:
        raise GraphError(
            f"sufficiency condition needs both grid sides >= 6, got {rs.m}x{rs.n}"
        )
    masks = rs.column_row_masks()
    rows, cols = _counts(masks, rs.n)
    for kind, name, counts in (("row", "row", rows), ("col", "column", cols)):
        for i, cnt in enumerate(counts):
            if cnt < 2:
                return SufficiencyReport(False, (kind, i, cnt), transposed,
                                         f"{name} {i} holds {cnt} member(s), needs 2")
    coverage = _coverage(masks, rs.n)
    if not coverage.holds:
        return SufficiencyReport(False, coverage.witness, transposed,
                                 "uncovered quadruple")
    return SufficiencyReport(True, None, transposed, "rows, columns and quadruples covered")


def rook_lower_bound(m, n):
    """Smallest size any {2}-resolving set of the K_m x K_n grid can have.

    With s = q*m + r (0 <= r < m) members spread as evenly as possible over
    the m columns, the blocks of missing rows pack pairwise-disjoint row
    pairs, so r*C(n-q-1,2) + (m-r)*C(n-q,2) <= C(n,2) must hold; the left
    side only shrinks as s grows, and the first s satisfying it is returned.
    The two orientations give isomorphic graphs, so m >= n is normalized.
    """
    n, m = sorted(_count(side, 2, "lower bound needs integer grid sides >= 2")
                  for side in (m, n))
    target = comb(n, 2)
    for s in range(m * n + 1):
        q, r = divmod(s, m)
        lhs = r * comb(max(n - q - 1, 0), 2) + (m - r) * comb(max(n - q, 0), 2)
        if lhs <= target:
            return s
    raise AssertionError("unreachable: s = m*n always satisfies the inequality")


# ---------------------------------------------------------------------------
# block-design bridge


@dataclasses.dataclass(frozen=True)
class Design:
    """m blocks over points 0..n_points-1; block j mirrors grid column j."""

    n_points: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "n_points", _count(self.n_points, 1,
                                                    "designs need a positive integer point count"))
        # read once: the blocks may come as an iterator
        given = tuple(self.blocks)
        blocks = tuple(tuple(map(_plain_int, block)) for block in given)
        if not blocks:
            raise GraphError("designs need at least one block")
        for j, (block, points) in enumerate(zip(given, blocks)):
            if None in points or list(points) != sorted(set(points)):
                raise GraphError(f"block {j} has non-integer, repeated or unsorted points: {block}")
            for p in points:
                if not (0 <= p < self.n_points):
                    raise GraphError(f"block {j} point {p} out of range")
        object.__setattr__(self, "blocks", blocks)

    @classmethod
    def from_blocks(cls, n_points, blocks):
        return cls(n_points, tuple(tuple(sorted(set(b))) for b in blocks))

    @property
    def m(self):
        return len(self.blocks)


@dataclasses.dataclass(frozen=True)
class DesignViolation:
    rule: str  # block-size | point-degree | pair-multiplicity
    detail: tuple


def validate_design(design):
    """The three conditions matching a generic {2}-resolving complement:
    (i) every block has at most n-2 points, (ii) every point lies in at
    most m-2 blocks, (iii) two distinct points share at most one block."""
    n, m = design.n_points, design.m
    for j, block in enumerate(design.blocks):
        if len(block) > n - 2:
            return CheckVerdict(
                False, DesignViolation("block-size", (j, len(block), n - 2))
            )
    degree = [0] * n
    for block in design.blocks:
        for p in block:
            degree[p] += 1
    for p, deg in enumerate(degree):
        if deg > m - 2:
            return CheckVerdict(
                False, DesignViolation("point-degree", (p, deg, m - 2))
            )
    pair_seen = {}
    for j, block in enumerate(design.blocks):
        for i, p in enumerate(block):
            for q in block[i + 1:]:
                key = (p, q)
                if key in pair_seen:
                    return CheckVerdict(
                        False,
                        DesignViolation("pair-multiplicity", (p, q, pair_seen[key], j)),
                    )
                pair_seen[key] = j
    return CheckVerdict(True)


def design_to_set(design):
    """Grid set whose column j misses exactly the points of block j."""
    n = design.n_points
    return RookSet(design.m, n, frozenset(
        (r, j) for j, block in enumerate(design.blocks)
        for r in set(range(n)).difference(block)))


def set_to_design(rs):
    """Inverse of :func:`design_to_set`: block j = rows missing in column j."""
    return Design(rs.n, tuple(tuple(r for r in range(rs.n) if not mask >> r & 1)
                              for mask in rs.column_row_masks()))


# ---------------------------------------------------------------------------
# design file format: header "n m", then m block lines of point indices
# (a blank line is an empty block); '#' starts a comment line


def parse_design(text):
    n = m = None
    blocks = []
    for line_no, points in _int_lines(text, DesignParseError):
        if n is None:
            if not points:
                continue
            if len(points) != 2:
                raise DesignParseError(line_no, "expected header 'n m'")
            n, m = points
            if n < 1 or m < 1:
                raise DesignParseError(line_no, f"header must be positive, got {n} {m}")
            continue
        if len(blocks) == m:
            if points:
                raise DesignParseError(line_no, "extra content after the last block")
            continue
        if len(set(points)) != len(points):
            raise DesignParseError(line_no, f"repeated point in block: {points}")
        for p in points:
            if not (0 <= p < n):
                raise DesignParseError(line_no, f"point {p} out of range 0..{n-1}")
        blocks.append(tuple(sorted(points)))
    if n is None:
        raise DesignParseError(1, "empty input: no header line")
    if len(blocks) != m:
        raise DesignParseError(
            len(text.splitlines()) + 1, f"expected {m} blocks, found {len(blocks)}"
        )
    return Design(n, tuple(blocks))


def write_design(design):
    lines = [f"{design.n_points} {design.m}"]
    lines.extend(" ".join(str(p) for p in block) for block in design.blocks)
    return "\n".join(lines) + "\n"


def fano_plane_design():
    """The seven three-point blocks of the Fano plane (points 0..6)."""
    blocks = (
        (0, 1, 3), (0, 2, 6), (0, 4, 5), (1, 2, 4),
        (1, 5, 6), (2, 3, 5), (3, 4, 6),
    )
    return Design(7, blocks)


def ten_point_design():
    """A 10-point, 12-block system with pairwise intersections <= 1; its
    complement set meets the 12x10 grid lower bound exactly."""
    blocks = (
        (0, 1, 2, 3), (0, 4, 5, 6), (0, 7, 8, 9),
        (1, 4, 7), (1, 5, 8), (1, 6, 9),
        (2, 4, 9), (2, 5, 7), (2, 6, 8),
        (3, 4, 8), (3, 5, 9), (3, 6, 7),
    )
    return Design(10, blocks)
