import itertools
import random

import numpy as np
import pytest

from resolving import (
    ArrayCollision,
    DominatedVertex,
    Mode,
    ModeError,
    OracleCapError,
    UnresolvedPair,
    all_pairs_distances,
    check_mode,
    checks,
    complete_graph,
    cycle_graph,
    design_to_set,
    distance_array,
    flower_snark,
    forced_vertices,
    forced_vertices_oracle,
    is_doubly_resolving,
    is_l_resolving,
    is_l_solid,
    is_l_solid_oracle,
    necessary_resolving_condition,
    path_graph,
    recipe_set,
    rook_graph,
    star_graph,
    ten_point_design,
    verify_witness,
)

from conftest import (
    bfs_distances,
    oracle_first_domination,
    oracle_first_resolving_collision,
    oracle_forced,
    oracle_is_doubly,
    oracle_is_resolving,
    oracle_is_solid,
    random_anchor_set,
    random_connected_graph,
    reference_is_l_resolving,
)

R1 = (1, 2, 6)                  # v2 v3 v7
S1 = (0, 1, 2, 6, 7)            # v1 v2 v3 v7 v8
R2 = (0, 1, 2, 3, 7, 8)         # v1 v2 v3 v4 v8 v9
S2 = (0, 1, 2, 3, 5, 7, 8)      # v1 v2 v3 v4 v6 v8 v9


# ---------------------------------------------------------------------------
# Mode


def test_mode_validation():
    with pytest.raises(ModeError):
        Mode("solid", 0)
    with pytest.raises(ModeError):
        Mode("resolving", None)
    with pytest.raises(ModeError):
        Mode("doubly", 2)
    with pytest.raises(ModeError):
        Mode("weird", 1)
    for order in (True, False, 1.0):
        with pytest.raises(ModeError):
            Mode.resolving(order)
        with pytest.raises(ModeError):
            Mode.solid(order)
    with pytest.raises(ModeError):
        Mode.resolving(5).validate_for(4)
    with pytest.raises(ModeError):
        Mode.solid(4).validate_for(4)
    Mode.solid(3).validate_for(4)
    assert Mode.resolving(2).describe() == "{2}-resolving"
    assert Mode.solid(1).describe() == "1-solid-resolving"
    assert Mode.doubly().describe() == "doubly-resolving"


def test_mode_stores_numpy_orders_as_ints():
    # a numpy order would reach a JSON report as a string
    for order in (np.int64(2), np.uint8(2), np.intp(2)):
        mode = Mode.resolving(order)
        assert mode == Mode.resolving(2) and type(mode.order) is int
    assert type(Mode("solid", np.int32(1)).order) is int


def test_anchor_set_validation(demo):
    _, dm = demo
    with pytest.raises(ModeError):
        distance_array(dm, (), (0,))
    with pytest.raises(ModeError):
        distance_array(dm, (0,), ())
    with pytest.raises(ModeError):
        distance_array(dm, (0, 0), (1,))
    with pytest.raises(ModeError):
        is_l_resolving(dm, (0, 99), 1)


def test_anchor_set_rejects_non_integer_vertices(demo):
    import numpy as np

    _, dm = demo
    # 1.5 must not become vertex 1, nor True vertex 1
    with pytest.raises(ModeError, match="non-integer vertex: 1.5"):
        is_l_resolving(dm, (1.5, True), 1)
    with pytest.raises(ModeError, match="non-integer vertex: True"):
        distance_array(dm, (True, 2), (0,))
    with pytest.raises(ModeError, match="non-integer vertex: 2.0"):
        distance_array(dm, (0,), (2.0,))
    # numpy integers are vertices like ints
    assert distance_array(dm, (np.int64(0), np.int32(1)), (np.intp(5),)) == \
        distance_array(dm, (0, 1), (5,))


# ---------------------------------------------------------------------------
# distance arrays on the demo fixture


def test_distance_array_fixture_values(demo):
    _, dm = demo
    assert distance_array(dm, R1, (5,)) == (2, 3, 1)
    assert distance_array(dm, R2, (7, 8)) == (3, 2, 3, 2, 0, 0)
    assert distance_array(dm, S1, (5,)) == (3, 2, 3, 1, 2)
    assert distance_array(dm, S1, (7, 8)) == (3, 2, 3, 1, 0)
    assert distance_array(dm, S1, (5, 7)) == (3, 2, 3, 1, 0)
    assert distance_array(dm, (4,), (4,)) == (0,)


# ---------------------------------------------------------------------------
# {l}-resolving


def test_resolving_fixture_verdicts(demo):
    _, dm = demo
    assert is_l_resolving(dm, R1, 1).holds
    assert is_l_resolving(dm, R2, 2).holds
    verdict = is_l_resolving(dm, S1, 2)
    assert not verdict.holds
    # first collision in size-then-colex order
    assert verdict.witness == ArrayCollision((1, 3), (1, 5), (1, 0, 1, 1, 2))
    assert verify_witness(dm, S1, verdict.witness)
    # another valid collision verifies too, even though enumeration finds
    # an earlier one
    alternative = ArrayCollision((5, 7), (7, 8), (3, 2, 3, 1, 0))
    assert verify_witness(dm, S1, alternative)


def test_resolving_first_collision_matches_oracle(demo, monkeypatch):
    g, dm = demo
    dist = bfs_distances(g)
    for one_key in (False, True):
        if one_key:
            # every array gets the same key, so only the recomputed arrays
            # tell the sets apart
            monkeypatch.setattr(checks, "_array_keys", _one_key)
        for anchors in (R1, S1, R2, (4,), (0, 8)):
            for order in (1, 2):
                verdict = is_l_resolving(dm, anchors, order)
                expected = oracle_first_resolving_collision(dist, anchors, order)
                if expected is None:
                    assert verdict.holds
                else:
                    assert not verdict.holds
                    first, second, arr = expected
                    assert verdict.witness == ArrayCollision(first, second, arr)


def _one_key(arrays, weights):
    return np.zeros(len(arrays), dtype=np.uint64)


@pytest.mark.parametrize("first_entries", [1, 1 << 12])
def test_resolving_exact_when_every_key_clashes(monkeypatch, rng, first_entries):
    # with one key for all sets every verdict rests on comparing arrays;
    # small first blocks put a collision's two sets in different blocks
    monkeypatch.setattr(checks, "_array_keys", _one_key)
    monkeypatch.setattr(checks, "_FIRST_ENTRIES", first_entries)
    outcomes = set()
    for _ in range(60):
        g = random_connected_graph(rng, n_min=2, n_max=12)
        dm = all_pairs_distances(g)
        anchors = random_anchor_set(rng, g.n, max_size=g.n)
        order = rng.randint(1, min(3, g.n))
        verdict = is_l_resolving(dm, anchors, order)
        assert verdict == reference_is_l_resolving(dm, anchors, order)
        outcomes.add(verdict.holds)
    assert outcomes == {True, False}


def _row_sum_key(arrays, weights):
    return arrays.sum(axis=1, dtype=np.uint64)


@pytest.mark.parametrize("first_entries", [1, 1 << 12])
def test_resolving_exact_when_some_keys_clash(monkeypatch, rng, first_entries):
    # the row sum as key: distinct arrays share keys within and across
    # blocks, next to keys that no other set holds
    monkeypatch.setattr(checks, "_array_keys", _row_sum_key)
    monkeypatch.setattr(checks, "_FIRST_ENTRIES", first_entries)
    outcomes = set()
    for _ in range(60):
        g = random_connected_graph(rng, n_min=2, n_max=12)
        dm = all_pairs_distances(g)
        anchors = random_anchor_set(rng, g.n, max_size=g.n)
        order = rng.randint(1, min(3, g.n))
        verdict = is_l_resolving(dm, anchors, order)
        assert verdict == reference_is_l_resolving(dm, anchors, order)
        outcomes.add(verdict.holds)
    assert outcomes == {True, False}


def test_pinned_recipe_witnesses():
    # the witnesses of the one-tuple-per-set scans, with the middle vertex
    # of each recipe set dropped; the l3 J13 and rook 12x10 collisions pair
    # sets of two sizes, so each set must be reported without its row's
    # padding
    l3 = list(recipe_set("l3", 13))
    l3.remove(l3[len(l3) // 2])
    assert is_l_resolving(all_pairs_distances(flower_snark(13)), l3, 3).witness == \
        ArrayCollision((18, 20), (18, 20, 32), (6, 5, 4, 3, 2, 1, 2, 1, 2, 3, 4, 5, 6, 6, 5, 4,
                                                3, 2, 1, 1, 2, 3, 4, 5, 6, 6, 5, 4, 3, 2, 1, 2,
                                                1, 2, 3, 4, 5, 6))
    solid2 = list(recipe_set("solid2", 21))
    solid2.remove(solid2[len(solid2) // 2])
    dm21 = all_pairs_distances(flower_snark(21))
    assert is_l_solid(dm21, solid2, 2).witness == DominatedVertex(33, (0, 11))
    assert is_l_resolving(dm21, recipe_set("l3", 21), 3).holds
    solid2 = list(recipe_set("solid2", 31))
    solid2.remove(solid2[len(solid2) // 2])
    assert is_l_solid(all_pairs_distances(flower_snark(31)), solid2, 2).witness == \
        DominatedVertex(48, (0, 16))
    # and the ten-point design set on rook 12x10, at order 3
    design = design_to_set(ten_point_design()).vertices()
    dm = all_pairs_distances(rook_graph(12, 10))
    assert is_l_resolving(dm, design, 3).witness == \
        ArrayCollision((1, 10), (0, 1, 10), distance_array(dm, design, (1, 10)))


def test_resolving_single_vertex_graph():
    dm = all_pairs_distances(path_graph(1))
    assert is_l_resolving(dm, (0,), 1).holds


# ---------------------------------------------------------------------------
# l-solid


def test_solid_fixture_verdicts(demo):
    _, dm = demo
    assert is_l_solid(dm, S2, 2).holds
    assert is_l_solid(dm, S1, 1).holds
    verdict = is_l_solid(dm, R2, 2)
    assert not verdict.holds
    assert verdict.witness == DominatedVertex(5, (1, 3))
    assert verify_witness(dm, R2, verdict.witness)
    alternative = DominatedVertex(5, (4, 6))
    assert verify_witness(dm, R2, alternative)


def test_solid_whole_vertex_set_always_holds():
    for g in (path_graph(5), cycle_graph(6), complete_graph(4)):
        dm = all_pairs_distances(g)
        everything = tuple(range(g.n))
        for order in (1, 2, g.n - 1):
            assert is_l_solid(dm, everything, order).holds


def test_solid_two_vertex_graph_single_anchor_fails():
    dm = all_pairs_distances(complete_graph(2))
    verdict = is_l_solid(dm, (0,), 1)
    assert not verdict.holds
    assert verdict.witness == DominatedVertex(1, (0,))
    oracle = is_l_solid_oracle(dm, (0,), 1)
    assert not oracle.holds
    assert oracle.witness == ArrayCollision((0,), (0, 1), (0,))


def test_solid_oracle_fixture_verdicts(demo):
    _, dm = demo
    assert is_l_solid_oracle(dm, S2, 2).holds
    assert is_l_solid_oracle(dm, S1, 1).holds
    assert not is_l_solid_oracle(dm, R2, 2).holds


def test_solid_oracle_cap():
    g = cycle_graph(13)
    dm = all_pairs_distances(g)
    with pytest.raises(OracleCapError):
        is_l_solid_oracle(dm, (0, 1, 2), 1)
    assert is_l_solid_oracle(dm, tuple(range(13)), 1, cap=13).holds


def test_solid_first_witness_matches_oracle(demo):
    g, dm = demo
    dist = bfs_distances(g)
    for anchors in (R1, R2, (4,), (0, 8), S1):
        for order in (1, 2):
            verdict = is_l_solid(dm, anchors, order)
            expected = oracle_first_domination(dist, anchors, order)
            if expected is None:
                assert verdict.holds
            else:
                x, y = expected
                assert verdict.witness == DominatedVertex(x, y)


# ---------------------------------------------------------------------------
# necessary condition


def test_necessary_condition_not_sufficient(demo):
    _, dm = demo
    # S1 satisfies the order-2 necessary condition yet is not {2}-resolving
    assert necessary_resolving_condition(dm, S1, 2).holds
    assert not is_l_resolving(dm, S1, 2).holds
    assert necessary_resolving_condition(dm, R2, 2).holds
    assert necessary_resolving_condition(dm, tuple(range(9)), 2).holds
    with pytest.raises(ModeError):
        necessary_resolving_condition(dm, S1, 1)


@pytest.mark.parametrize("order", [np.int64(2), np.uint8(2)])
def test_necessary_condition_takes_numpy_orders(demo, order):
    _, dm = demo
    for anchors in (S1, R1):
        assert necessary_resolving_condition(dm, anchors, order) == \
            necessary_resolving_condition(dm, anchors, 2)


@pytest.mark.parametrize("order", [2.0, 2.5, True, "2"])
def test_necessary_condition_refuses_non_integer_orders(demo, order):
    _, dm = demo
    with pytest.raises(ModeError, match="integer order >= 2"):
        necessary_resolving_condition(dm, S1, order)


def test_necessary_condition_failure_certifies(demo):
    _, dm = demo
    verdict = necessary_resolving_condition(dm, R1, 2)
    assert not verdict.holds
    assert not is_l_resolving(dm, R1, 2).holds
    assert verify_witness(dm, R1, verdict.witness)


# ---------------------------------------------------------------------------
# doubly resolving


def test_doubly_fixture_verdicts(demo):
    _, dm = demo
    assert is_doubly_resolving(dm, S1).holds
    d3 = all_pairs_distances(path_graph(3))
    assert is_doubly_resolving(d3, (0, 2)).holds
    verdict = is_doubly_resolving(d3, (0, 1))
    assert not verdict.holds
    assert verdict.witness == UnresolvedPair(1, 2, -1)
    assert verify_witness(d3, (0, 1), verdict.witness)
    with pytest.raises(ModeError):
        is_doubly_resolving(d3, (0,))


def test_doubly_matches_oracle_randomized(rng):
    for _ in range(60):
        g = random_connected_graph(rng, n_min=2, n_max=8)
        dm = all_pairs_distances(g)
        dist = bfs_distances(g)
        anchors = random_anchor_set(rng, g.n)
        if len(anchors) < 2:
            continue
        assert is_doubly_resolving(dm, anchors).holds == oracle_is_doubly(dist, anchors)


# ---------------------------------------------------------------------------
# forced vertices


def test_forced_fixture_values(demo):
    g, _ = demo
    forced = forced_vertices(g, 1, "solid")
    assert 0 in forced and 2 in forced
    assert forced == forced_vertices_oracle(g, 1, "solid")


def test_forced_rook_all_vertices():
    g = rook_graph(3, 3)
    assert forced_vertices(g, 2, "solid") == tuple(range(9))


def test_forced_snark_empty_for_small_orders():
    g = flower_snark(5)
    assert forced_vertices(g, 3, "resolving") == ()
    assert forced_vertices(g, 2, "solid") == ()


def test_forced_at_orders_up_to_five():
    # v is forced once N(v) has a cover by `bound` closed neighbourhoods
    # other than N[v]: at bound 3 on a cubic graph (N(v) itself), at bound
    # 2 on a rook's graph (one vertex in v's row, one in its column)
    cases = ((flower_snark(31), 124, 3), (rook_graph(12, 10), 120, 2))
    for g, n, least in cases:
        for order in range(1, 6):
            assert forced_vertices(g, order, "solid") == (tuple(range(n)) if order >= least else ())
            expected = tuple(range(n)) if order - 1 >= least else ()
            assert forced_vertices(g, order, "resolving") == expected


def test_forced_resolving_order_one_is_empty():
    for g in (path_graph(5), complete_graph(3), demo_graph_cached()):
        assert forced_vertices(g, 1, "resolving") == ()
        assert forced_vertices_oracle(g, 1, "resolving") == ()


def demo_graph_cached():
    from resolving import demo_graph

    return demo_graph()


def test_forced_tree_leaves_rule():
    # on a tree, v is forced for 1-solid exactly when deg(v) <= 1
    for parents in ((0,), (0, 0, 1), (0, 1, 2), (0, 0, 0, 2)):
        from resolving import tree_from_parents

        g = tree_from_parents(parents)
        expected = tuple(v for v in range(g.n) if g.degree(v) <= 1)
        assert forced_vertices(g, 1, "solid") == expected


def test_forced_matches_oracle_randomized(rng):
    for _ in range(25):
        g = random_connected_graph(rng, n_min=2, n_max=8)
        dist = bfs_distances(g)
        for kind, order in (("solid", 1), ("solid", 2), ("resolving", 2)):
            if kind == "solid" and order > g.n - 1:
                continue
            fast = forced_vertices(g, order, kind)
            assert fast == forced_vertices_oracle(g, order, kind)
            assert fast == oracle_forced(dist, order, kind)


def test_forced_validation():
    g = path_graph(4)
    with pytest.raises(ModeError):
        forced_vertices(g, 0, "solid")
    with pytest.raises(ModeError):
        forced_vertices(g, 1, "weird")
    for kind in ("solid", "resolving"):
        with pytest.raises(ModeError):
            forced_vertices(g, True, kind)


# ---------------------------------------------------------------------------
# dispatch and witnesses


def test_check_mode_dispatch(demo):
    _, dm = demo
    assert check_mode(dm, R2, Mode.resolving(2)).holds
    assert not check_mode(dm, R2, Mode.solid(2)).holds
    assert check_mode(dm, S1, Mode.doubly()).holds


def test_verify_witness_rejects_fabrications(demo):
    _, dm = demo
    assert not verify_witness(dm, R2, DominatedVertex(5, (5,)))
    assert not verify_witness(dm, R2, DominatedVertex(0, (4, 6)))
    assert not verify_witness(dm, S1, ArrayCollision((5, 7), (5, 7), (3, 2, 3, 1, 0)))
    assert not verify_witness(dm, S1, ArrayCollision((5,), (7, 8), (3, 2, 3, 1, 0)))
    with pytest.raises(TypeError):
        verify_witness(dm, S1, "bogus")


def test_verify_witness_rejects_bogus_unresolved_pairs():
    # a vertex and itself differ by 0 at every anchor, but are no pair
    dm = all_pairs_distances(path_graph(4))
    assert not verify_witness(dm, (0,), UnresolvedPair(1, 1, 0))
    assert not verify_witness(dm, (0, 3), UnresolvedPair(2, 2, 0))
    assert verify_witness(dm, (0,), UnresolvedPair(1, 2, -1))
    # -1 would index vertex 3, and 7 lies past the matrix
    for u, v in ((-1, 2), (2, -1), (7, 2), (2, 4)):
        with pytest.raises(ModeError, match="out of range"):
            verify_witness(dm, (0,), UnresolvedPair(u, v, 1))


def test_checkers_match_oracles_randomized(rng):
    hits = 0
    for _ in range(80):
        g = random_connected_graph(rng, n_min=2, n_max=8)
        dm = all_pairs_distances(g)
        dist = bfs_distances(g)
        anchors = random_anchor_set(rng, g.n)
        for order in (1, 2, 3):
            if order <= g.n:
                fast = is_l_resolving(dm, anchors, order)
                assert fast.holds == oracle_is_resolving(dist, anchors, order)
                if not fast.holds:
                    hits += 1
                    assert verify_witness(dm, anchors, fast.witness)
            if order <= g.n - 1:
                fast = is_l_solid(dm, anchors, order)
                assert fast.holds == oracle_is_solid(dist, anchors, order)
                assert fast.holds == is_l_solid_oracle(dm, anchors, order).holds
                if not fast.holds:
                    hits += 1
                    assert verify_witness(dm, anchors, fast.witness)
    assert hits > 40
