import itertools
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from resolving import (
    Design,
    Mode,
    ModeError,
    RookSet,
    SearchConfig,
    all_pairs_distances,
    build_graph,
    cartesian_product,
    check_mode,
    classify_conditions,
    cycle_graph,
    design_to_set,
    flower_snark,
    forced_vertices,
    forced_vertices_oracle,
    gap_statistics,
    is_doubly_resolving,
    is_l_resolving,
    is_l_solid,
    is_l_solid_oracle,
    metric_dimension,
    parse_design,
    parse_edge_list,
    path_graph,
    product_flat,
    quadruple_coverage,
    set_to_design,
    sufficiency_check,
    validate_design,
    verify_witness,
    write_design,
    write_edge_list,
)
from resolving import search
from resolving.search import (
    _Orbits,
    _OutOfBudget,
    _automorphisms,
    _cover_search,
    _kept_masks,
    _row_ints,
)
from resolving.subsets import colex_rank, size_colex_array

from conftest import (
    bfs_distances,
    colex_first_cover,
    mode_masks,
    oracle_automorphisms,
    oracle_first_basis,
    oracle_is_solid,
    reference_colex_first_cover,
    reference_family,
    reference_is_l_resolving,
    reference_solid_scan,
    size_colex_subsets,
)


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


@settings(max_examples=150, deadline=None)
@given(graph_set_order(n_max=12))
def test_block_scans_match_reference_scans(case):
    # same verdict and same witness as the one-set-at-a-time scans; repr
    # also tells numpy integers from Python ones
    g, anchors, order = case
    dm = all_pairs_distances(g)
    if order <= g.n:
        assert repr(is_l_resolving(dm, anchors, order)) == \
            repr(reference_is_l_resolving(dm, anchors, order))
    if order <= g.n - 1:
        assert repr(is_l_solid(dm, anchors, order)) == \
            repr(reference_solid_scan(dm, anchors, order))


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
@given(connected_graphs(), st.integers(1, 4), st.sampled_from(["solid", "resolving"]))
def test_forced_equals_deletion_oracle(g, order, kind):
    if order > g.n - (kind == "solid"):
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
@given(connected_graphs(n_max=9), st.sampled_from([
    Mode.resolving(1), Mode.resolving(2), Mode.resolving(3),
    Mode.solid(1), Mode.solid(2),
]))
def test_singleton_masks_are_forced_vertices(g, mode):
    try:
        mode.validate_for(g.n)
    except ModeError:
        return
    forced = forced_vertices_oracle(g, mode.order, mode.kind)
    masks = _as_ints(mode_masks(all_pairs_distances(g), mode))
    assert sorted(m.bit_length() - 1 for m in masks if m.bit_count() == 1) == list(forced)
    avoiding = [m for m in masks if not any(m >> v & 1 for v in forced)]
    stats = metric_dimension(g, SearchConfig(mode=mode, budget_s=None)).stats
    assert stats.mask_count == len(avoiding)


@common
@given(graph_set_order(n_max=7, max_order=2))
def test_separator_masks_equal_checkers(case):
    g, anchors, order = case
    dm = all_pairs_distances(g)
    smask = sum(1 << v for v in anchors)
    modes = []
    if order <= g.n:
        modes.append(Mode.resolving(order))
    if order <= g.n - 1:
        modes.append(Mode.solid(order))
    if len(anchors) >= 2:
        modes.append(Mode.doubly())
    for mode in modes:
        hits_all = all(m & smask for m in _as_ints(mode_masks(dm, mode)))
        assert hits_all == check_mode(dm, anchors, mode).holds


def _pairwise_masks(dist, mode):
    """The distinct nonempty separator masks of ``mode``, built pair by pair
    from the definitions in the search module's docstring."""
    vertices = range(len(dist))

    def mask(members):
        return sum(1 << v for v in members)

    def sets(order):
        return [c for k in range(1, order + 1) for c in itertools.combinations(vertices, k)]

    def to(anchors):
        return [min(dist[v][a] for a in anchors) for v in vertices]

    def solid(order):
        return {mask(v for v in vertices if dist[v][x] < to_y[v])
                for ys in sets(order) for to_y in [to(ys)]
                for x in vertices if x not in ys}

    if mode.kind == "resolving":
        rows = [to(xs) for xs in sets(mode.order)]
        out = {mask(v for v in vertices if a[v] != b[v])
               for a, b in itertools.combinations(rows, 2)}
    elif mode.kind == "solid":
        out = solid(mode.order)
    else:
        out = set()
        for u, w in itertools.combinations(vertices, 2):
            diff = [dist[v][u] - dist[v][w] for v in vertices]
            out |= {mask(v for v in vertices if diff[v] != c) for c in set(diff)}
    return out - {0}


def _assert_exact_family(g, mode):
    dm = all_pairs_distances(g)
    words = mode_masks(dm, mode)
    # distinct, sorted by the first word, then the next
    rows = [tuple(row) for row in words.tolist()]
    assert rows == sorted(set(rows))
    assert set(_as_ints(words)) == _pairwise_masks(dm.dist.tolist(), mode)


@common
@given(connected_graphs(), st.sampled_from([
    Mode.resolving(1), Mode.resolving(2), Mode.resolving(3),
    Mode.solid(1), Mode.solid(2), Mode.doubly(),
]))
def test_mode_masks_equal_pairwise_family(g, mode):
    try:
        mode.validate_for(g.n)
    except ModeError:
        return
    _assert_exact_family(g, mode)


@common
@given(connected_graphs(), st.sampled_from([2, 3]))
def test_sub_solid_masks_are_resolving_masks(g, order):
    # for x not in Y the (l-1)-solid mask of (x, Y) is the {l}-resolving
    # mask of (Y, Y + x), so the search needs no separate pass for them
    try:
        Mode.resolving(order).validate_for(g.n)
    except ModeError:
        return
    dist = all_pairs_distances(g).dist.tolist()
    assert _pairwise_masks(dist, Mode.solid(order - 1)) <= \
        _pairwise_masks(dist, Mode.resolving(order))


@pytest.mark.parametrize("g, mode", [
    # 68 vertices: two words per mask
    (flower_snark(17), Mode.solid(1)),
    (flower_snark(17), Mode.doubly()),
    # diameter 69: seven bit slices over two words
    (path_graph(70), Mode.resolving(1)),
    (path_graph(70), Mode.solid(1)),
], ids=["J17-solid1", "J17-doubly", "P70-resolving1", "P70-solid1"])
def test_mode_masks_equal_pairwise_family_multiword(g, mode):
    _assert_exact_family(g, mode)


@pytest.mark.parametrize("mode", [Mode.resolving(2), Mode.solid(2), Mode.doubly()],
                         ids=["resolving2", "solid2", "doubly"])
def test_mode_masks_equal_pairwise_family_small_blocks(mode, monkeypatch):
    # a few rows per block: doubly pairs each vertex with the rows from its
    # block's first vertex on, so pairs across blocks are met from one side
    # only; more than 32 blocks also merges the parts mid-build
    monkeypatch.setattr(search, "_BLOCK_WORDS", 512)
    _assert_exact_family(flower_snark(5), mode)


# bytes in the narrowest word that holds n bits, at each boundary
_WORD_BYTES = {8: 1, 9: 2, 16: 2, 17: 4, 32: 4, 33: 8, 64: 8, 65: 8}


@pytest.mark.parametrize("mode", [Mode.resolving(2), Mode.solid(1), Mode.doubly()],
                         ids=["resolving2", "solid1", "doubly"])
@pytest.mark.parametrize("g", [path_graph(n) for n in _WORD_BYTES]
                         + [cycle_graph(n) for n in _WORD_BYTES if n <= 33],
                         ids=[f"P{n}" for n in _WORD_BYTES]
                         + [f"C{n}" for n in _WORD_BYTES if n <= 33])
def test_mode_masks_narrow_words(g, mode, monkeypatch):
    dm = all_pairs_distances(g)
    words = mode_masks(dm, mode)
    assert words.dtype == np.dtype(f"<u{_WORD_BYTES[g.n]}")
    assert metric_dimension(g, SearchConfig(mode=mode, budget_s=None)).basis \
        == oracle_first_basis(g, mode)
    # the same masks in the same order as a build in uint64 words
    monkeypatch.setattr(search, "_word_type", lambda n: np.dtype("<u8"))
    wide = mode_masks(dm, mode)
    assert wide.dtype == np.uint64
    assert _as_ints(words) == _as_ints(wide)


@common
@given(st.integers(1, 130), st.data())
def test_minimal_masks_antichain(n, data):
    masks = data.draw(st.sets(st.integers(1, 2**n - 1), max_size=60))
    kept = _as_ints(_kept_masks(_as_words(sorted(masks), (n + 63) // 64), ())[1])
    assert set(kept) <= masks
    # no kept mask contains another one
    for a, b in itertools.permutations(kept, 2):
        assert a & b != b
    # every input mask contains a kept one
    for m in masks:
        assert any(k & m == k for k in kept)


@common
@given(st.integers(1, 130), st.data())
def test_minimal_masks_fewest_bits_first(n, data):
    masks = data.draw(st.lists(st.integers(1, 2**n - 1), unique=True, max_size=60))
    kept = _as_ints(_kept_masks(_as_words(masks, (n + 63) // 64), ())[1])
    # the masks that contain no other one, by popcount, in input order
    # within a popcount
    minimal = [m for m in masks if not any(k != m and k & m == k for k in masks)]
    assert kept == sorted(minimal, key=int.bit_count)


def test_minimal_masks_checks_the_deadline():
    words = _as_words([0b001, 0b110, 0b111], 1)
    with pytest.raises(_OutOfBudget):
        _kept_masks(words, (), deadline=time.monotonic() - 1.0)


@common
@given(st.integers(0, 8), st.integers(0, 200), st.data())
def test_row_ints_reads_each_row_as_a_bitset(rows, width, data):
    bits = np.array(data.draw(st.lists(
        st.lists(st.integers(0, 1), min_size=width, max_size=width),
        min_size=rows, max_size=rows)), dtype=np.uint8).reshape(rows, width)
    assert _row_ints(bits) == [sum(int(b) << j for j, b in enumerate(row)) for row in bits]
    assert _row_ints(bits.T) == [sum(int(b) << i for i, b in enumerate(col)) for col in bits.T]


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 11), st.data())
def test_colex_first_cover_matches_brute_force(n, data):
    # masks over the free vertices of a graph with up to 3 forced ones,
    # not an antichain in general; r runs past the value, so infeasible
    # cardinalities are drawn too.  The family's positions are the free
    # vertices in a drawn order, and the set is read off in vertex order
    free = sorted(data.draw(st.sets(st.integers(0, n + 2), min_size=n, max_size=n)))
    positions = data.draw(st.lists(
        st.sets(st.integers(0, n - 1), min_size=1), max_size=12))
    r = data.draw(st.integers(0, n))
    order = data.draw(st.permutations(range(n)))
    words = _as_words([sum(1 << free[p] for p in ps) for ps in positions], 1)
    cover, _, members = reference_family(words, [free[p] for p in order])
    place = np.argsort(order).tolist()
    got, nodes = colex_first_cover(cover, members, place, r)
    want = next((list(c) for c in size_colex_subsets(n, r, r)
                 if all(ps & set(c) for ps in positions)), None)
    assert got == want
    assert nodes >= 1


@settings(max_examples=150, deadline=None)
@given(connected_graphs(n_min=1, n_max=7))
def test_automorphisms_equal_brute_force(g):
    # a base's images fix an automorphism; the edge check drops the maps
    # that match distance codes but are not automorphisms
    autos = _automorphisms(all_pairs_distances(g))
    want = oracle_automorphisms(g)
    if autos is None:
        # over 1024 candidate images of the base: on at most 7 vertices,
        # only a group that large has them
        assert len(want) > 1024
    else:
        assert sorted(map(tuple, autos.tolist())) == want


@st.composite
def cover_families(draw):
    """Positions 0..n-1 and int-bitset masks over them, in about half the
    draws in two groups on either side of a cut, so that the first and the
    last mask are disjoint."""
    n = draw(st.integers(1, 12))
    cut = draw(st.integers(1, n))
    spans = [(0, cut), (cut, n)] if cut < n and draw(st.booleans()) else [(0, n)]
    masks = [m << lo for lo, hi in spans for m in draw(st.lists(
        st.integers(1, 2 ** (hi - lo) - 1), min_size=1, max_size=10))]
    return n, masks, len(spans) == 2


@settings(max_examples=400, deadline=None)
@given(cover_families())
def test_colex_first_cover_matches_reference_kernel(case):
    # the leaf prune drops only branches that cannot hit the first unhit
    # mask: at every cardinality, r = 1 included, the same set (or None)
    # and the same number of hits calls on positions in vertex order
    n, masks, split = case
    cover, lowest, members = reference_family(_as_words(masks, 1), list(range(n)))
    if split:
        assert not members[0] & members[-1]
    place = list(range(n))
    for r in range(n + 1):
        got = colex_first_cover(cover, members, place, r)
        assert got == reference_colex_first_cover(cover, lowest, members, r)
        if got[0] is not None:
            # the read-off needs no decision before it
            _, read_off = _cover_search(cover, members, place, lambda nodes: None,
                                        _Orbits(None, place, place))
            assert read_off(r)[0] == got[0]


@settings(max_examples=400, deadline=None)
@given(cover_families(), st.data())
def test_decision_ignores_position_order(case, data):
    # whether r positions cover every mask is a property of the family,
    # and the read-off follows the vertices: on any reordering of the
    # positions, the set found at every cardinality (or None) is the one
    # the reference kernel finds in vertex order
    n, masks, _ = case
    words = _as_words(masks, 1)
    cover, lowest, members = reference_family(words, list(range(n)))
    perm = data.draw(st.permutations(range(n)))
    shuffled, _, shuffled_members = reference_family(words, perm)
    place = np.argsort(perm).tolist()
    for r in range(n + 1):
        got, nodes = colex_first_cover(shuffled, shuffled_members, place, r)
        assert got == reference_colex_first_cover(cover, lowest, members, r)[0]
        assert nodes >= 1


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


@st.composite
def designs(draw, n_max=7, m_max=7):
    n = draw(st.integers(1, n_max))
    return Design(n, tuple(
        tuple(sorted(draw(st.sets(st.integers(0, n - 1), max_size=n))))
        for _ in range(draw(st.integers(1, m_max)))
    ))


@common
@given(designs())
@example(Design(3, ((0, 1), ())))
@example(Design(3, ((), (2,), ())))
def test_design_text_round_trip(design):
    # an empty block is a blank line, the last one included
    assert parse_design(write_design(design)) == design


@common
@given(designs())
def test_design_rules_are_the_type2_conditions(design):
    # rules (i)-(iii) read on the design are the column, row and quadruple
    # conditions read on its grid set
    assert validate_design(design).holds == classify_conditions(design_to_set(design)).type2


@common
@given(st.integers(6, 9), st.integers(6, 9),
       st.sampled_from([0.5, 0.8, 0.9, 0.95, 1.0]), st.randoms(use_true_random=False))
def test_sufficiency_is_type2_on_large_grids(m, n, density, rng):
    rs = RookSet(m, n, frozenset(
        (r, c) for r in range(n) for c in range(m) if rng.random() < density
    ))
    for s in (rs, rs.transpose()):
        assert sufficiency_check(s).holds == classify_conditions(s).type2


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
# rook conditions


def _type1_scan(rs):
    """The first member (r, c) in (row, col) order whose off-row, off-column
    cells are all in the set, found cell by cell."""
    for r in range(rs.n):
        for c in range(rs.m):
            if (r, c) in rs.cells and all((rr, cc) in rs.cells
                                          for rr in range(rs.n) if rr != r
                                          for cc in range(rs.m) if cc != c):
                return (r, c)
    return None


@common
@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_type1_cell_by_counting_matches_the_scan(m, n, data):
    grid = [(r, c) for r in range(n) for c in range(m)]
    # near-full grids hold Type 1 cells; arbitrary ones mostly do not
    most = data.draw(st.sampled_from([2, len(grid)]))
    missing = data.draw(st.sets(st.sampled_from(grid), max_size=most))
    rs = RookSet.from_cells(m, n, set(grid) - missing)
    assert classify_conditions(rs).type1_cell == _type1_scan(rs)


# ---------------------------------------------------------------------------
# subset enumeration primitives


@common
@given(st.integers(1, 9), st.integers(1, 5))
def test_colex_enumeration_order(n, k):
    if k > n:
        return
    combos = list(size_colex_subsets(n, k, k))
    for rank, combo in enumerate(combos):
        assert colex_rank(combo) == rank
    # colex order is numeric order of the masks, which the search's
    # largest-element-first descent relies on
    masks = [sum(1 << v for v in c) for c in combos]
    assert all(a < b for a, b in zip(masks, masks[1:]))


@common
@given(st.integers(0, 10), st.integers(0, 6))
def test_size_colex_array_rows_are_padded_colex_combinations(n, top):
    rows = size_colex_array(n, top)
    combos = list(size_colex_subsets(n, top))
    assert rows.dtype == np.intp and rows.shape == (len(combos), top)
    ranks = [0] * (top + 1)
    for row, combo in zip(rows.tolist(), combos):
        k = len(combo)
        # the set in the last k columns, its smallest vertex repeated before
        assert tuple(row[top - k:]) == combo
        assert row[:top - k] == [combo[0]] * (top - k)
        # colex rank counts up within each size
        assert colex_rank(row[top - k:]) == ranks[k]
        ranks[k] += 1


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
