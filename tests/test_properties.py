import itertools

import numpy as np
from hypothesis import given, settings, strategies as st

from resolving import (
    Design,
    Mode,
    RookSet,
    all_pairs_distances,
    build_graph,
    cartesian_product,
    check_mode,
    design_to_set,
    forced_vertices,
    forced_vertices_oracle,
    gap_statistics,
    is_doubly_resolving,
    is_l_resolving,
    is_l_solid,
    is_l_solid_oracle,
    parse_edge_list,
    product_flat,
    quadruple_coverage,
    set_to_design,
    validate_design,
    verify_witness,
    write_edge_list,
)
from resolving.search import _minimal_masks, _mode_masks, _resolving_blocks
from resolving.subsets import (
    bits_of,
    colex_combinations,
    colex_rank,
    mask_of,
)

from conftest import bfs_distances, oracle_is_solid


@st.composite
def connected_graphs(draw, n_min=2, n_max=8):
    n = draw(st.integers(n_min, n_max))
    edges = set()
    for v in range(1, n):
        edges.add((draw(st.integers(0, v - 1)), v))
    extras = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=n,
    ))
    for u, v in extras:
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return build_graph(n, sorted(edges))


@st.composite
def graph_set_order(draw, n_max=8, max_order=3):
    g = draw(connected_graphs(n_max=n_max))
    size = draw(st.integers(1, g.n))
    anchors = tuple(sorted(draw(
        st.sets(st.integers(0, g.n - 1), min_size=size, max_size=size)
    )))
    order = draw(st.integers(1, max_order))
    return g, anchors, order


common = settings(max_examples=60, deadline=None)


# ---------------------------------------------------------------------------
# checker semantics


@common
@given(graph_set_order())
def test_solid_characterization_equivalence(case):
    g, anchors, order = case
    if order > g.n - 1:
        return
    dm = all_pairs_distances(g)
    fast = is_l_solid(dm, anchors, order)
    assert fast.holds == is_l_solid_oracle(dm, anchors, order).holds
    assert fast.holds == oracle_is_solid(bfs_distances(g), anchors, order)


@common
@given(graph_set_order())
def test_implication_chain(case):
    g, anchors, order = case
    dm = all_pairs_distances(g)
    if order <= g.n - 1 and is_l_solid(dm, anchors, order).holds:
        assert is_l_resolving(dm, anchors, order).holds
    if order + 1 <= g.n and is_l_resolving(dm, anchors, order + 1).holds:
        if order <= g.n - 1:
            assert is_l_solid(dm, anchors, order).holds


@common
@given(graph_set_order())
def test_downward_monotonicity(case):
    g, anchors, order = case
    if order < 2:
        return
    dm = all_pairs_distances(g)
    if order <= g.n and is_l_resolving(dm, anchors, order).holds:
        assert is_l_resolving(dm, anchors, order - 1).holds
    if order <= g.n - 1 and is_l_solid(dm, anchors, order).holds:
        assert is_l_solid(dm, anchors, order - 1).holds


@common
@given(graph_set_order(), st.randoms())
def test_superset_monotonicity(case, rnd):
    g, anchors, order = case
    dm = all_pairs_distances(g)
    rest = [v for v in range(g.n) if v not in anchors]
    extra = tuple(v for v in rest if rnd.random() < 0.5)
    sup = tuple(sorted(anchors + extra))
    if order <= g.n and is_l_resolving(dm, anchors, order).holds:
        assert is_l_resolving(dm, sup, order).holds
    if order <= g.n - 1 and is_l_solid(dm, anchors, order).holds:
        assert is_l_solid(dm, sup, order).holds


@common
@given(graph_set_order())
def test_solid_implies_doubly(case):
    g, anchors, order = case
    if order > g.n - 1:
        return
    dm = all_pairs_distances(g)
    if is_l_solid(dm, anchors, order).holds:
        assert len(anchors) >= 2
        assert is_doubly_resolving(dm, anchors).holds


@common
@given(graph_set_order())
def test_failing_witnesses_reverify(case):
    g, anchors, order = case
    dm = all_pairs_distances(g)
    verdicts = []
    if order <= g.n:
        verdicts.append(is_l_resolving(dm, anchors, order))
    if order <= g.n - 1:
        verdicts.append(is_l_solid(dm, anchors, order))
    if len(anchors) >= 2:
        verdicts.append(is_doubly_resolving(dm, anchors))
    for verdict in verdicts:
        if not verdict.holds:
            assert verify_witness(dm, anchors, verdict.witness)


@common
@given(connected_graphs(), st.integers(1, 2), st.sampled_from(["solid", "resolving"]))
def test_forced_equals_deletion_oracle(g, order, kind):
    if kind == "solid" and order > g.n - 1:
        return
    assert forced_vertices(g, order, kind) == forced_vertices_oracle(g, order, kind)


# ---------------------------------------------------------------------------
# search masks encode the checks exactly


def _as_ints(words):
    """Rows of uint64 words -> one Python-int bitmask per row."""
    return [sum(int(w) << (64 * j) for j, w in enumerate(row)) for row in words]


def _as_words(masks, n_words):
    return np.array([[(m >> (64 * j)) & (2**64 - 1) for j in range(n_words)]
                     for m in masks], dtype=np.uint64).reshape(-1, n_words)


@common
@given(graph_set_order(n_max=7, max_order=2), st.booleans())
def test_separator_masks_equal_checkers(case, resolving_alone):
    # both the {l}-resolving masks alone and the search's set, which adds
    # the (l-1)-solid masks, encode the checks exactly
    g, anchors, order = case
    dm = all_pairs_distances(g)
    smask = mask_of(anchors)
    modes = []
    if order <= g.n:
        modes.append(Mode.resolving(order))
    if order <= g.n - 1:
        modes.append(Mode.solid(order))
    if len(anchors) >= 2:
        modes.append(Mode.doubly())
    for mode in modes:
        if resolving_alone and mode.kind == "resolving":
            words = np.concatenate(list(_resolving_blocks(dm.dist, mode.order)))
        else:
            words = _mode_masks(dm, mode)
        hits_all = all(m & smask for m in _as_ints(words))
        assert hits_all == check_mode(dm, anchors, mode).holds


@common
@given(st.integers(1, 130), st.data())
def test_minimal_masks_antichain(n, data):
    masks = data.draw(st.sets(st.integers(1, 2**n - 1), max_size=60))
    kept = _as_ints(_minimal_masks(_as_words(sorted(masks), (n + 63) // 64)))
    assert set(kept) <= masks
    # no kept mask contains another one
    for a, b in itertools.permutations(kept, 2):
        assert a & b != b
    # every input mask contains a kept one
    for m in masks:
        assert any(k & m == k for k in kept)


# ---------------------------------------------------------------------------
# serialization round trips


@common
@given(connected_graphs())
def test_edge_list_round_trip(g):
    back = parse_edge_list(write_edge_list(g))
    assert back.n == g.n
    assert back.adjacency == g.adjacency


@common
@given(st.integers(2, 5), st.integers(2, 5), st.data())
def test_design_round_trip(m, n, data):
    cells = data.draw(st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)), max_size=m * n
    ))
    rs = RookSet.from_cells(m, n, cells)
    assert design_to_set(set_to_design(rs)) == rs
    design = set_to_design(rs)
    assert set_to_design(design_to_set(design)) == design


@common
@given(st.integers(2, 5), st.integers(2, 5), st.data())
def test_pair_multiplicity_equals_quadruple_coverage(m, n, data):
    blocks = tuple(
        tuple(sorted(data.draw(
            st.sets(st.integers(0, n - 1), max_size=n), label=f"block{j}"
        )))
        for j in range(m)
    )
    design = Design(n, blocks)
    coverage = quadruple_coverage(design_to_set(design))
    shared_pair = any(
        len(set(blocks[a]) & set(blocks[b])) >= 2
        for a, b in itertools.combinations(range(m), 2)
    )
    assert coverage.holds == (not shared_pair)
    verdict = validate_design(design)
    if verdict.holds:
        assert coverage.holds


# ---------------------------------------------------------------------------
# product distances


@common
@given(connected_graphs(n_max=5), connected_graphs(n_max=5))
def test_product_distance_sum(g, h):
    p = cartesian_product(g, h)
    dg, dh, dp = (all_pairs_distances(x) for x in (g, h, p))
    for gi in range(g.n):
        for hi in range(h.n):
            u = product_flat(gi, hi, h.n)
            for gj in range(g.n):
                for hj in range(h.n):
                    v = product_flat(gj, hj, h.n)
                    assert dp[u, v] == dg[gi, gj] + dh[hi, hj]


# ---------------------------------------------------------------------------
# subset enumeration primitives


@common
@given(st.integers(1, 9), st.integers(1, 5))
def test_colex_enumeration_order(n, k):
    if k > n:
        return
    combos = list(colex_combinations(n, k))
    assert combos == sorted(itertools.combinations(range(n), k),
                            key=lambda c: c[::-1])
    for rank, combo in enumerate(combos):
        assert colex_rank(combo) == rank


@common
@given(st.integers(1, 9), st.integers(1, 9))
def test_masks_round_trip(n, k):
    if k > n:
        return
    mask = mask_of(range(k))
    assert tuple(bits_of(mask)) == tuple(range(k))
    # colex order is numeric order of the masks, which the search's
    # largest-element-first descent relies on
    masks = [mask_of(c) for c in colex_combinations(n, k)]
    assert masks[0] == mask
    assert all(a < b for a, b in zip(masks, masks[1:]))
    assert all(tuple(bits_of(m)) == c for m, c in zip(masks, colex_combinations(n, k)))


# ---------------------------------------------------------------------------
# snark gap bookkeeping


@common
@given(st.sampled_from([5, 7, 9]), st.data())
def test_gap_statistics_matches_direct_scan(n, data):
    members = tuple(sorted(data.draw(
        st.sets(st.integers(0, 4 * n - 1), max_size=4 * n)
    )))
    rep = gap_statistics(members, n)

    def longest_missing_run(hits, length):
        best = 0
        for start in range(length):
            run = 0
            while run < length and (start + run) % length not in hits:
                run += 1
            best = max(best, run)
        return best

    a_hits = {v for v in members if v < n}
    cyc_hits = {v - 2 * n for v in members if 2 * n <= v}
    assert rep.a_gap == longest_missing_run(a_hits, n)
    assert rep.cycle_gap == longest_missing_run(cyc_hits, 2 * n)
