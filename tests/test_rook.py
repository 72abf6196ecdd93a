import itertools

import numpy as np
import pytest

from resolving import (
    Design,
    GraphError,
    DesignParseError,
    Mode,
    RookSet,
    SearchConfig,
    all_pairs_distances,
    classify_conditions,
    design_to_set,
    fano_plane_design,
    forced_vertices,
    is_l_resolving,
    metric_dimension,
    parse_design,
    quadruple_coverage,
    rook_graph,
    rook_lower_bound,
    set_to_design,
    sufficiency_check,
    ten_point_design,
    validate_design,
    write_design,
)
from resolving.rook import DesignViolation, EmptyQuadruple


def fano_set():
    return design_to_set(fano_plane_design())


# ---------------------------------------------------------------------------
# RookSet plumbing


def test_rookset_validation_and_counts():
    rs = RookSet.from_cells(3, 4, [(0, 0), (1, 2), (3, 1)])
    assert len(rs) == 3
    assert rs.row_counts() == [1, 1, 0, 1]
    assert rs.col_counts() == [1, 1, 1]
    with pytest.raises(GraphError):
        RookSet.from_cells(3, 4, [(4, 0)])
    with pytest.raises(GraphError):
        RookSet.from_cells(0, 4, [])


@pytest.mark.parametrize("bad", [1.9, 2.0, True, np.bool_(True), "1"])
def test_rookset_and_design_reject_non_integers(bad):
    # 1.9 must not become row 1, nor True row 1
    for cell in ((bad, 0), (0, bad)):
        with pytest.raises(GraphError, match="not an integer cell"):
            RookSet.from_cells(6, 6, [cell])
    with pytest.raises(GraphError, match="must be integers"):
        RookSet.from_vertices(6, 6, [3, bad])
    with pytest.raises(GraphError, match="non-integer"):
        Design(5, ((bad, 3),))


def test_rookset_and_design_store_numpy_integers_as_ints():
    rs = RookSet.from_cells(3, 4, [(np.int64(1), np.int32(2))])
    assert rs == RookSet.from_cells(3, 4, [(1, 2)])
    assert all(type(x) is int for cell in rs.cells for x in cell)
    assert RookSet.from_vertices(3, 4, [np.int64(9)]) == rs
    design = Design(5, ((np.int64(0), np.uint8(3)),))
    assert design == Design(5, ((0, 3),))
    assert all(type(p) is int for p in design.blocks[0])


def test_rookset_vertex_round_trip():
    rs = fano_set()
    verts = rs.vertices()
    assert len(verts) == 28
    assert list(verts) == sorted(verts)
    back = RookSet.from_vertices(rs.m, rs.n, verts)
    assert back == rs


def test_rookset_transpose_involution():
    rs = fano_set()
    assert rs.transpose().transpose() == rs
    assert rs.transpose().row_counts() == rs.col_counts()


# ---------------------------------------------------------------------------
# quadruple coverage


def test_quadruple_coverage_examples():
    assert quadruple_coverage(fano_set()).holds
    empty = RookSet.from_cells(2, 2, [])
    verdict = quadruple_coverage(empty)
    assert not verdict.holds
    assert verdict.witness == EmptyQuadruple(rows=(0, 1), cols=(0, 1))
    everything = RookSet.from_cells(3, 3, itertools.product(range(3), range(3)))
    assert quadruple_coverage(everything).holds


def test_quadruple_witness_is_uncovered():
    rs = RookSet.from_cells(4, 4, [(0, 0), (1, 1), (2, 2), (3, 3)])
    verdict = quadruple_coverage(rs)
    assert not verdict.holds
    (r1, r2), (a, b) = verdict.witness.rows, verdict.witness.cols
    assert not ({(r1, a), (r1, b), (r2, a), (r2, b)} & rs.cells)


# ---------------------------------------------------------------------------
# condition classifier


def test_classify_fano_type2():
    cls = classify_conditions(fano_set())
    assert cls.type2 and not cls.type1
    assert cls.rows_ok and cls.cols_ok and cls.coverage.holds
    assert not cls.neither


def test_classify_type1_construction():
    cells = {(0, 0), (0, 1)}
    cells.update((r, c) for r in range(1, 4) for c in range(1, 4))
    cls = classify_conditions(RookSet.from_cells(4, 4, cells))
    assert cls.type1
    assert cls.type1_cell == (0, 0)
    assert not cls.type2  # column 0 holds a single member


def test_classify_neither_certifies_failure():
    cells = [(r, c) for r in range(6) for c in range(1, 6)]
    rs = RookSet.from_cells(6, 6, cells)
    cls = classify_conditions(rs)
    assert cls.neither
    dm = all_pairs_distances(rook_graph(6, 6))
    assert not is_l_resolving(dm, rs.vertices(), 2).holds


# ---------------------------------------------------------------------------
# sufficiency


def test_sufficiency_fano_and_generic_agree():
    report = sufficiency_check(fano_set())
    assert report.holds and not report.transposed
    dm = all_pairs_distances(rook_graph(7, 7))
    assert is_l_resolving(dm, fano_set().vertices(), 2).holds


def test_sufficiency_fails_on_thin_row():
    rs = fano_set()
    row0 = sorted(cell for cell in rs.cells if cell[0] == 0)
    cells = set(rs.cells) - set(row0[1:])
    report = sufficiency_check(RookSet.from_cells(7, 7, cells))
    assert not report.holds
    assert report.witness[0:2] == ("row", 0)


def test_sufficiency_ten_point_design():
    rs = design_to_set(ten_point_design())
    assert (rs.m, rs.n, len(rs)) == (12, 10, 81)
    report = sufficiency_check(rs)
    assert report.holds and not report.transposed


def test_sufficiency_transposes_tall_grids():
    rs = design_to_set(ten_point_design()).transpose()
    assert (rs.m, rs.n) == (10, 12)
    report = sufficiency_check(rs)
    assert report.holds and report.transposed


def test_sufficiency_rejects_small_grids():
    rs = RookSet.from_cells(5, 5, [(r, c) for r in range(5) for c in range(5)])
    with pytest.raises(GraphError):
        sufficiency_check(rs)


# ---------------------------------------------------------------------------
# counting lower bound


def test_rook_lower_bound_values():
    assert rook_lower_bound(7, 7) == 28
    assert rook_lower_bound(12, 10) == 81
    assert rook_lower_bound(10, 12) == 81


def test_rook_lower_bound_validation():
    with pytest.raises(GraphError):
        rook_lower_bound(5, 1)


def test_rook_lower_bound_vs_exhaustive_minimum():
    for m, n in ((2, 2), (3, 2), (3, 3)):
        g = rook_graph(m, n)
        res = metric_dimension(g, SearchConfig(mode=Mode.resolving(2)))
        assert rook_lower_bound(m, n) <= res.value


def test_rook_lower_bound_never_exceeds_verified_sets():
    assert rook_lower_bound(7, 7) <= len(fano_set())
    assert rook_lower_bound(12, 10) <= len(design_to_set(ten_point_design()))


# ---------------------------------------------------------------------------
# designs


def test_validate_fano():
    assert validate_design(fano_plane_design()).holds
    assert validate_design(ten_point_design()).holds


def test_validate_block_size_rule():
    verdict = validate_design(Design.from_blocks(4, [(0, 1, 2), (3,)]))
    assert not verdict.holds
    assert verdict.witness.rule == "block-size"


def test_validate_point_degree_rule():
    verdict = validate_design(Design.from_blocks(6, [(0,), (0,), (0,), (1,)]))
    assert not verdict.holds
    assert verdict.witness.rule == "point-degree"


def test_validate_pair_multiplicity_rule():
    verdict = validate_design(
        Design.from_blocks(8, [(0, 1), (0, 1), (2,), (3,), (4,)])
    )
    assert not verdict.holds
    assert verdict.witness.rule == "pair-multiplicity"
    assert verdict.witness.detail[:2] == (0, 1)


def test_design_set_round_trips():
    d = fano_plane_design()
    assert set_to_design(design_to_set(d)) == d
    rs = fano_set()
    assert design_to_set(set_to_design(rs)) == rs
    empty = Design.from_blocks(5, [(), (), ()])
    assert len(design_to_set(empty)) == 15


def test_design_sizes():
    assert len(fano_set()) == 49 - 21
    assert len(design_to_set(ten_point_design())) == 120 - 39


def test_design_construction_validation():
    with pytest.raises(GraphError):
        Design(5, ((0, 9),))
    with pytest.raises(GraphError):
        Design(5, ((1, 0),))
    assert Design.from_blocks(5, [(1, 0)]).blocks == ((0, 1),)
    # a design mirrors a grid of m >= 1 columns, and its file header needs m >= 1
    with pytest.raises(GraphError, match="at least one block"):
        Design(5, ())
    # blocks given as an iterator are checked too, not only converted
    with pytest.raises(GraphError, match="block 0 point 9 out of range"):
        Design(5, (b for b in [(0, 9), (3, 1, 1)]))
    with pytest.raises(GraphError, match="block 1 has non-integer, repeated or unsorted points"):
        Design(5, iter([(0, 1), (3, 1, 1)]))
    assert Design(5, (b for b in [(0, 1), (2, 4)])).blocks == ((0, 1), (2, 4))


# ---------------------------------------------------------------------------
# design files


def test_design_file_round_trip():
    for d in (fano_plane_design(), ten_point_design()):
        assert parse_design(write_design(d)) == d


def test_design_file_comments_and_empty_blocks():
    text = "# system\n3 2\n\n0 1\n# trailing comment\n"
    d = parse_design(text)
    assert d.blocks == ((), (0, 1))


def test_design_file_errors():
    with pytest.raises(DesignParseError) as err:
        parse_design("")
    assert err.value.line_no == 1
    with pytest.raises(DesignParseError):
        parse_design("3\n0 1\n")
    with pytest.raises(DesignParseError):
        parse_design("3 1\n0 1\n2\n")
    with pytest.raises(DesignParseError):
        parse_design("3 1\n0 7\n")
    with pytest.raises(DesignParseError):
        parse_design("3 1\n0 0\n")
    with pytest.raises(DesignParseError):
        parse_design("3 2\n0 1\n")


# ---------------------------------------------------------------------------
# solid sets on grids are everything


def test_small_grids_force_every_vertex():
    for m, n in ((3, 3), (3, 4), (4, 4)):
        g = rook_graph(m, n)
        assert forced_vertices(g, 2, "solid") == tuple(range(m * n))
