import math

import numpy as np
import pytest

from resolving import (
    DisconnectedGraphError,
    GraphError,
    all_pairs_distances,
    build_graph,
    cartesian_product,
    complete_graph,
    cycle_graph,
    demo_graph,
    flower_snark,
    generate_family,
    parse_edge_list,
    path_graph,
    product_coord,
    product_flat,
    rook_cell,
    rook_flat,
    rook_graph,
    star_graph,
    tree_from_parents,
    write_edge_list,
)
from resolving.rook import Design, RookSet, rook_lower_bound
from resolving.snark import recipe_set, snark_context, snark_vertex, verify_flank_table

from conftest import bfs_distances


def test_build_graph_rejects_bad_edges():
    with pytest.raises(GraphError):
        build_graph(3, [(0, 3)])
    with pytest.raises(GraphError):
        build_graph(3, [(1, 1)])
    with pytest.raises(GraphError):
        build_graph(0, [])


def test_build_graph_normalizes_and_rejects_duplicates():
    g = build_graph(3, [(1, 0), (2, 0)])
    assert g.adjacency == ((1, 2), (0,), (0,))
    assert g.edge_count == 2
    assert list(g.edges()) == [(0, 1), (0, 2)]
    with pytest.raises(GraphError):
        build_graph(3, [(0, 1), (1, 0)])


def test_build_graph_endpoint_types():
    # numpy integers are stored as plain ints; bools and floats are refused
    g = build_graph(3, [(np.int64(0), np.int64(1)), (np.uint8(2), 1)])
    assert g.adjacency == ((1,), (0, 2), (1,))
    assert all(type(v) is int for row in g.adjacency for v in row)
    assert parse_edge_list(write_edge_list(g)) == g
    for edge in ((False, True), (0, True), (np.bool_(False), 1), (0.0, 1), ("0", 1)):
        with pytest.raises(GraphError, match="non-integer endpoints"):
            build_graph(2, [edge])


def test_build_graph_vertex_count_numpy_integer():
    g = build_graph(np.int64(3), [(0, 1), (1, 2)])
    assert type(g.n) is int and g.n == 3
    assert write_edge_list(g) == "3\n0 1\n1 2\n"
    assert parse_edge_list(write_edge_list(g)) == g


@pytest.mark.parametrize("n", [True, np.bool_(True), 3.0, "3"])
def test_build_graph_vertex_count_refuses_non_integers(n):
    with pytest.raises(GraphError, match="vertex count must be a positive integer"):
        build_graph(n, [])


# every size and star index given from outside: (call on the value, a good
# value, the int read back from the call's result)
_SIZES = {
    "path": (path_graph, 3, lambda g: g.n),
    "cycle": (cycle_graph, 3, lambda g: g.n),
    "complete": (complete_graph, 3, lambda g: g.n),
    "star": (star_graph, 2, lambda g: g.n),
    "rook-m": (lambda x: rook_graph(x, 3), 2, lambda g: g.n),
    "rook-n": (lambda x: rook_graph(3, x), 2, lambda g: g.n),
    "flower-snark": (flower_snark, 5, lambda g: g.n),
    "snark-context": (snark_context, 5, lambda ctx: ctx[0].n),
    "recipe-n": (lambda x: recipe_set("l3", x), 7, max),
    "snark-vertex-n": (lambda x: snark_vertex("c", 2, x), 7, lambda v: v),
    "snark-vertex-star": (lambda x: snark_vertex("c", x, 7), 2, lambda v: v),
    "flank-table-star": (lambda x: verify_flank_table(7, x), 2, lambda verdict: int(verdict.holds)),
    "rook-lower-bound": (lambda x: rook_lower_bound(x, 7), 7, lambda bound: bound),
    "design-points": (lambda x: Design(x, ((0, 1),)), 5, lambda d: d.n_points),
    "rook-set-m": (lambda x: RookSet(x, 6, frozenset()), 6, lambda rs: rs.m),
    "rook-set-n": (lambda x: RookSet(6, x, frozenset()), 6, lambda rs: rs.n),
}


@pytest.mark.parametrize("bad", [1.5, 2.0, True, "3"])
@pytest.mark.parametrize("call", [c for c, _, _ in _SIZES.values()], ids=list(_SIZES))
def test_sizes_refuse_non_integers(call, bad):
    with pytest.raises(GraphError, match=f"got {bad!r}"):
        call(bad)


@pytest.mark.parametrize("call, good, read", _SIZES.values(), ids=list(_SIZES))
def test_sizes_store_numpy_integers_as_ints(call, good, read):
    value = read(call(np.int64(good)))
    assert type(value) is int and value == read(call(good))


def test_disconnected_is_flagged_and_refused():
    g = build_graph(4, [(0, 1), (2, 3)])
    assert not g.connected
    with pytest.raises(DisconnectedGraphError):
        g.require_connected()
    with pytest.raises(DisconnectedGraphError):
        all_pairs_distances(g)


def test_labels_round_trip():
    g = demo_graph()
    assert g.label(0) == "v1"
    assert g.vertex_by_label("v9") == 8
    assert g.vertex_by_label("nope") is None
    assert path_graph(3).vertex_by_label("v1") is None


@pytest.mark.parametrize(
    "g,n,m",
    [
        (path_graph(1), 1, 0),
        (path_graph(6), 6, 5),
        (cycle_graph(3), 3, 3),
        (cycle_graph(8), 8, 8),
        (complete_graph(5), 5, 10),
        (star_graph(4), 5, 4),
        (tree_from_parents((0, 0, 1)), 4, 3),
        (rook_graph(3, 4), 12, 30),
        (flower_snark(5), 20, 30),
    ],
)
def test_family_sizes(g, n, m):
    assert g.n == n
    assert g.edge_count == m
    assert g.connected


def test_family_validation():
    with pytest.raises(GraphError):
        path_graph(0)
    with pytest.raises(GraphError):
        cycle_graph(2)
    with pytest.raises(GraphError):
        star_graph(0)
    with pytest.raises(GraphError):
        rook_graph(0, 3)
    with pytest.raises(GraphError):
        flower_snark(6)
    with pytest.raises(GraphError):
        flower_snark(3)
    with pytest.raises(GraphError):
        tree_from_parents((1, 0))


def test_tree_from_parents_integer_types():
    # numpy integers are parents like ints; bools, floats and strings are not
    assert tree_from_parents(np.array([0, 0, 1])) == tree_from_parents((0, 0, 1))
    for bad in (True, np.bool_(False), 0.0, "0"):
        with pytest.raises(GraphError, match="must be an earlier vertex"):
            tree_from_parents((0, bad))


def test_generate_family_dispatch():
    assert generate_family("path", n=4).n == 4
    assert generate_family("star", leaves=3).n == 4
    assert generate_family("tree", parents=(0, 0, 1)).n == 4
    with pytest.raises(GraphError):
        generate_family("moebius", n=5)
    with pytest.raises(GraphError):
        generate_family("path")


def test_distances_match_bfs_on_assorted_graphs():
    for g in (path_graph(7), cycle_graph(9), complete_graph(4),
              star_graph(5), rook_graph(3, 4), flower_snark(5), demo_graph()):
        dm = all_pairs_distances(g)
        ref = bfs_distances(g)
        for u in range(g.n):
            for v in range(g.n):
                assert dm[u, v] == ref[u][v]
        assert dm.n == g.n
        assert tuple(dm.row(0)) == tuple(ref[0])


def test_demo_graph_shape():
    g = demo_graph()
    assert g.n == 9
    assert g.edge_count == 12
    assert sorted(g.labels) == sorted(f"v{i}" for i in range(1, 10))
    dm = all_pairs_distances(g)
    assert dm[4, 8] == 2  # v5 to v9
    assert dm[0, 8] == 3  # v1 to v9


def test_flower_snark_structure():
    for n in (5, 7, 9):
        g = flower_snark(n)
        assert g.n == 4 * n
        assert all(g.degree(v) == 3 for v in range(g.n))
        assert g.edge_count == 6 * n
        # b_i joins the other three members of star i
        b1 = g.vertex_by_label("b1")
        assert set(g.neighbors(b1)) == {
            g.vertex_by_label("a1"),
            g.vertex_by_label("c1"),
            g.vertex_by_label("d1"),
        }
        # the big cycle crosses between the c and d blocks at both seams
        cn = g.vertex_by_label(f"c{n}")
        d1 = g.vertex_by_label("d1")
        dn = g.vertex_by_label(f"d{n}")
        c1 = g.vertex_by_label("c1")
        assert d1 in g.neighbors(cn)
        assert c1 in g.neighbors(dn)
        # girth at least five: no triangles or squares through a1
        dm = all_pairs_distances(g)
        a1 = g.vertex_by_label("a1")
        two_away = [v for v in range(g.n) if dm[a1, v] == 2]
        for v in two_away:
            common = set(g.neighbors(a1)) & set(g.neighbors(v))
            assert len(common) == 1


def test_rook_graph_adjacency_and_cells():
    g = rook_graph(3, 4)  # 3 columns of 4 rows
    for v in range(g.n):
        r, c = rook_cell(v, 4)
        assert rook_flat(r, c, 4) == v
        assert 0 <= r < 4 and 0 <= c < 3
    # same row or same column, never both
    for u in range(g.n):
        ru, cu = rook_cell(u, 4)
        for v in g.neighbors(u):
            rv, cv = rook_cell(v, 4)
            assert (ru == rv) != (cu == cv)
    assert g.degree(0) == (4 - 1) + (3 - 1)
    dm = all_pairs_distances(g)
    assert dm[rook_flat(0, 0, 4), rook_flat(3, 2, 4)] == 2


def test_product_matches_distance_sum():
    g, h = path_graph(3), cycle_graph(4)
    p = cartesian_product(g, h)
    assert p.n == 12
    dg = all_pairs_distances(g)
    dh = all_pairs_distances(h)
    dp = all_pairs_distances(p)
    for gi in range(3):
        for hi in range(4):
            u = product_flat(gi, hi, 4)
            coord = product_coord(u, 4)
            assert (coord.g, coord.h) == (gi, hi)
            for gj in range(3):
                for hj in range(4):
                    v = product_flat(gj, hj, 4)
                    assert dp[u, v] == dg[gi, gj] + dh[hi, hj]


def test_rook_is_product_of_completes():
    r = rook_graph(3, 4)
    p = cartesian_product(complete_graph(3), complete_graph(4))
    assert r.n == p.n
    assert sorted(r.edges()) == sorted(p.edges())


def test_distance_matrix_bounds():
    dm = all_pairs_distances(path_graph(4))
    with pytest.raises(IndexError):
        dm[0, 4]
    assert math.isfinite(float(dm[0, 3]))
