import dataclasses
import importlib.util
import json
import pathlib
import random
import sys
import time
import tracemalloc
import weakref
from functools import reduce
from operator import or_

import numpy as np
import pytest

from resolving import (
    Mode,
    ModeError,
    SearchConfig,
    all_pairs_distances,
    build_graph,
    cartesian_product,
    check_mode,
    complete_graph,
    cycle_graph,
    demo_graph,
    dimension_lower_bounds,
    flower_snark,
    forced_vertices,
    graphs,
    metric_dimension,
    path_graph,
    rook_graph,
    search,
    snark,
    star_graph,
    tree_from_parents,
    verify_basis_certificate,
)

from conftest import (
    bfs_distances,
    colex_first_cover,
    mode_blocks,
    mode_masks,
    oracle_automorphisms,
    oracle_first_basis,
    oracle_minimum_size,
    random_connected_graph,
    reference_kept_masks,
    reference_metric_dimension,
    reference_split_forced,
    reference_table_masks,
)


def dim(g, mode, **kw):
    return metric_dimension(g, SearchConfig(mode=mode, **kw))


# ---------------------------------------------------------------------------
# known small values


def test_path_dimensions():
    p5 = path_graph(5)
    r = dim(p5, Mode.resolving(1))
    assert r.value == 1 and r.basis in ((0,), (4,))
    s = dim(p5, Mode.solid(1))
    assert s.value == 2 and s.basis == (0, 4)
    d = dim(p5, Mode.doubly())
    assert d.value == 2 and d.basis == (0, 4)


def test_star_solid_dimension():
    g = star_graph(3)
    res = dim(g, Mode.solid(2))
    assert res.value == 3
    assert res.basis == (1, 2, 3)


def test_cycle_resolving_dimension():
    res = dim(cycle_graph(6), Mode.resolving(1))
    assert res.value == 2


def test_complete_graph_dimensions():
    res = dim(complete_graph(4), Mode.resolving(1))
    assert res.value == 3
    # every vertex outside S is dominated through any single anchor, so
    # only the whole vertex set is 1-solid
    res = dim(complete_graph(4), Mode.solid(1))
    assert res.value == 4


def test_snark_resolving_dimension_small():
    res = dim(flower_snark(5), Mode.resolving(1))
    assert res.value == 3
    dm = all_pairs_distances(flower_snark(5))
    assert check_mode(dm, res.basis, Mode.resolving(1)).holds


# ---------------------------------------------------------------------------
# equivalence with brute force


def test_matches_brute_force_randomized(rng):
    for _ in range(25):
        g = random_connected_graph(rng, n_min=2, n_max=7)
        dist = bfs_distances(g)
        for mode in (Mode.resolving(1), Mode.resolving(2), Mode.solid(1)):
            if mode.kind == "solid" and mode.order > g.n - 1:
                continue
            if mode.order > g.n:
                continue
            want = oracle_minimum_size(dist, mode.kind, mode.order)
            got = dim(g, mode)
            assert got.value == want
            dm = all_pairs_distances(g)
            assert check_mode(dm, got.basis, mode).holds
        if g.n >= 2:
            want = oracle_minimum_size(dist, "doubly", None)
            got = dim(g, Mode.doubly())
            assert got.value == want


def _modes_for(n):
    modes = [Mode.resolving(order) for order in (1, 2, 3) if order <= n]
    modes += [Mode.solid(order) for order in (1, 2) if order <= n - 1]
    if n >= 2:
        modes.append(Mode.doubly())
    return modes


def test_same_basis_as_colex_oracle_randomized(rng):
    for _ in range(100):
        g = random_connected_graph(rng, n_min=1, n_max=9)
        for mode in _modes_for(g.n):
            want = oracle_first_basis(g, mode)
            got = dim(g, mode)
            assert (got.value, got.basis) == (len(want), want), (list(g.edges()), mode)


def _mode_id(mode):
    return f"{mode.kind}{mode.order or ''}"


def _relabelled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return build_graph(g.n, sorted(tuple(sorted((perm[u], perm[v]))) for u, v in g.edges()))


@pytest.mark.parametrize("n, mode, seeds", [
    (5, Mode.resolving(2), (1, 2)),
    (5, Mode.solid(1), (1, 2)),
    (7, Mode.resolving(2), (1,)),
    (7, Mode.solid(1), (1, 2)),
])
def test_same_basis_as_colex_oracle_relabelled_snarks(n, mode, seeds):
    for seed in seeds:
        g = _relabelled(flower_snark(n), seed)
        want = oracle_first_basis(g, mode)
        got = dim(g, mode)
        assert (got.value, got.basis) == (len(want), want)


@pytest.mark.parametrize("g, mode", [
    (path_graph(70), Mode.resolving(1)),
    (path_graph(66), Mode.resolving(2)),
    (cycle_graph(67), Mode.solid(1)),
    (cycle_graph(66), Mode.doubly()),
])
def test_same_basis_as_colex_oracle_past_64_vertices(g, mode):
    # masks of more than 64 vertices span several uint64 words
    want = oracle_first_basis(g, mode)
    got = dim(g, mode)
    assert (got.value, got.basis) == (len(want), want)


def _outcome(res):
    return (res.value, res.basis, res.lower_bound, res.lower_bound_source,
            res.stats.subsets_checked, res.stats.exhausted_through)


_SMALL_GRAPHS = {
    "P6": path_graph(6), "C6": cycle_graph(6), "H": demo_graph(),
    "K1,3": star_graph(3), "J5": flower_snark(5),
    "rook3x3": rook_graph(3, 3), "rook4x3": rook_graph(4, 3),
}


@pytest.mark.parametrize("name", sorted(_SMALL_GRAPHS))
def test_degree_ordered_search_matches_vertex_ordered_reference(name):
    # deciding on positions sorted by mask degree changes only the nodes:
    # value, basis, bound and counters are those of the ascending search
    # that decides and reads off in vertex order
    g = _SMALL_GRAPHS[name]
    for mode in _modes_for(g.n):
        assert _outcome(dim(g, mode)) == reference_metric_dimension(g, mode), mode


@pytest.mark.parametrize("name, g", [
    ("J5", flower_snark(5)), ("J7", flower_snark(7)), ("rook4x4", rook_graph(4, 4)),
])
@pytest.mark.parametrize("seed", (1, 2, 3))
def test_degree_ordered_search_matches_reference_relabelled(name, g, seed):
    g = _relabelled(g, seed)
    for mode in (Mode.resolving(1), Mode.resolving(2), Mode.solid(1), Mode.solid(2),
                 Mode.doubly()):
        assert _outcome(dim(g, mode)) == reference_metric_dimension(g, mode), mode


def test_certificate_smaller_set_matches_reference():
    # one more vertex on the colex-first basis passes but is not minimum:
    # the certificate names that basis and its size
    g = _relabelled(flower_snark(7), 1)
    value, basis, *_ = reference_metric_dimension(g, Mode.resolving(2))
    extra = min(set(range(g.n)) - set(basis))
    report = verify_basis_certificate(g, Mode.resolving(2), sorted(basis + (extra,)))
    assert (report.certified, report.status) == (False, "smaller-set-exists")
    assert (report.smaller_set, report.lower_bound) == (basis, value)


# ---------------------------------------------------------------------------
# galloping below a greedy cover


def test_gallop_matches_ascending_reference_randomized(rng):
    # deciding a few cardinalities below a greedy cover, and reading the
    # basis off where the last decision leaves it, reports what the ascent
    # that decides every cardinality from the bound up reports: value,
    # basis, bound and source, and both counters.  Capped at value - 1 and
    # at the value, it reports what the ascent capped there reports
    shapes = set()
    for _ in range(150):
        g = random_connected_graph(rng, n_min=1, n_max=9)
        for mode in _modes_for(g.n):
            want = reference_metric_dimension(g, mode)
            res = dim(g, mode)
            assert _outcome(res) == want, (list(g.edges()), mode)
            # the read-off follows a passing decision, or the greedy cover
            shapes.add(res.value in res.stats.decided)
            for k_max in (want[0] - 1, want[0]):
                got = _outcome(dim(g, mode, k_max=k_max))
                assert got == reference_metric_dimension(g, mode, k_max), (
                    list(g.edges()), mode, k_max)
    assert shapes == {True, False}


def test_greedy_cover_drops_the_picks_the_others_cover():
    # masks {0, 1}, {0, 2}, {1} and {2}: all three positions are in two, so
    # 0 is taken first, then 1 and 2, which cover both masks 0 is in
    assert search._greedy_cover([0b0011, 0b0101, 0b1010], 4) == [1, 2]
    assert search._greedy_cover([0b1, 0b1], 1) == [0]
    assert search._greedy_cover([0, 0], 0) == []


_GREEDY_CASES = [(f"{name}-{_mode_id(mode)}", g, mode)
                 for name, g in [*_SMALL_GRAPHS.items(),
                                 *((f"random{i}", random_connected_graph(random.Random(i), 2, 9))
                                   for i in range(20))]
                 for mode in _modes_for(g.n)]


@pytest.mark.parametrize("g, mode", [case[1:] for case in _GREEDY_CASES],
                         ids=[case[0] for case in _GREEDY_CASES])
def test_greedy_cover_hits_every_kept_mask(g, mode):
    # the picks and the forced vertices pass, so they number at least the
    # value; no pick is covered by the others
    cover, members, place, _ = _search_family(g, mode)
    picks = search._greedy_cover(cover, len(members))
    full = (1 << len(members)) - 1
    union = [cover[p] for p in picks]
    assert reduce(or_, union, 0) == full
    assert len(set(picks)) == len(picks)
    for i in range(len(picks)):
        assert reduce(or_, union[:i] + union[i + 1:], 0) != full
    forced = () if mode.kind == "doubly" else forced_vertices(g, mode.order, mode.kind)
    free = [v for v in range(g.n) if v not in forced]
    by_position = sorted(range(len(place)), key=place.__getitem__)
    anchors = tuple(sorted(forced + tuple(free[by_position[p]] for p in picks)))
    assert check_mode(all_pairs_distances(g), anchors, mode).holds
    assert len(anchors) >= dim(g, mode).value


@pytest.mark.parametrize("g, mode, nodes", [
    (rook_graph(6, 5), Mode.resolving(2), 350_000),
    (flower_snark(7), Mode.resolving(3), 20_000),
], ids=["rook6x5-resolving2", "J7-resolving3"])
def test_gallop_node_guards(g, mode, nodes):
    # the decisions are deterministic, so the nodes are too; the ascent
    # took 596,233 and 42,124 here
    res = dim(g, mode)
    assert res.stats.nodes <= nodes, res.stats.decided


def _nodes_below_value(g, mode):
    """The nodes spent on the cardinalities below the value (the progress
    hook's reading as the value's cardinality starts), and in all."""
    starts = {}
    res = dim(g, mode, progress=lambda k, step, nodes: starts.setdefault(k, nodes))
    return starts[res.value], res.stats.nodes


def test_nodes_nearly_label_invariant():
    # the cardinalities below the value are decided on degree-ordered
    # positions, over orbits of a group read off the distances, so
    # relabelling J7 barely moves their node count (vertex order gave
    # 1.6-2.1x the native count).  The read-off at the value follows the
    # labels by definition; the totals stay under a quarter of the 19,523
    # nodes of the search without the group
    native, total = _nodes_below_value(flower_snark(7), Mode.resolving(2))
    assert total < 19523 / 4
    for seed in (1, 2, 3, 4):
        nodes, total = _nodes_below_value(_relabelled(flower_snark(7), seed), Mode.resolving(2))
        assert abs(nodes - native) <= 0.1 * native, (seed, nodes, native)
        assert total < 19523 / 4, (seed, total)


# ---------------------------------------------------------------------------
# symmetry


def _petersen():
    return build_graph(10, [(i, (i + 1) % 5) for i in range(5)]
                       + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                       + [(i, 5 + i) for i in range(5)])


def _complete_bipartite(a, b):
    return build_graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])


@pytest.mark.parametrize("g, order", [
    *((cycle_graph(n), 2 * n) for n in (3, 5, 8, 12)),
    *((path_graph(n), 2) for n in (2, 5, 9)),
    (_petersen(), 120),
    (_complete_bipartite(3, 3), 72),
    *((flower_snark(n), 4 * n) for n in (5, 7, 9, 11, 13)),
    (rook_graph(3, 3), 72),
    (rook_graph(4, 4), None),
])
def test_automorphism_group_orders(g, order):
    autos = search._automorphisms(all_pairs_distances(g))
    if order is None:
        # 1152 automorphisms, more than the cutoff of candidate images
        assert autos is None
        return
    assert len(autos) == len({tuple(row) for row in autos.tolist()}) == order
    edges = set(g.edges())
    for row in autos.tolist():
        assert {(min(row[u], row[v]), max(row[u], row[v])) for u, v in edges} == edges


def test_automorphisms_skip_distance_preserving_non_automorphisms():
    # the images of a base match every distance code here in four ways,
    # and two of those maps send some edge to a non-edge
    g = build_graph(5, [(0, 1), (0, 3), (1, 2), (1, 4), (2, 4), (3, 4)])
    autos = search._automorphisms(all_pairs_distances(g))
    assert sorted(map(tuple, autos.tolist())) == oracle_automorphisms(g)
    assert len(autos) == 2


_GROUP_GRAPHS = {
    **{f"C{n}": cycle_graph(n) for n in (5, 6, 7, 8)},
    "Petersen": _petersen(), "J5": flower_snark(5), "J7": flower_snark(7),
    "rook3x3": rook_graph(3, 3),
}


@pytest.mark.parametrize("name", sorted(_GROUP_GRAPHS))
@pytest.mark.parametrize("seed", (0, 1))
def test_orbital_branching_matches_search_without_group(name, seed, monkeypatch):
    # pruning whole orbits changes only the nodes: value, basis, bound and
    # counters are those of the same search with no group
    g = _GROUP_GRAPHS[name]
    g = _relabelled(g, seed) if seed else g
    assert len(search._automorphisms(all_pairs_distances(g))) > 1
    modes = _modes_for(g.n)
    with_group = [_outcome(dim(g, mode)) for mode in modes]
    # the module-level graphs keep their group from earlier searches; the
    # patched function must still decide it, and be asked
    asked = []
    monkeypatch.setattr(search, "_automorphisms", lambda dm: asked.append(dm) or None)
    assert [_outcome(dim(g, mode)) for mode in modes] == with_group
    assert asked == [all_pairs_distances(g)]


@pytest.mark.parametrize("graph, mode, k_max, two_positions", [
    (lambda: star_graph(3), Mode.solid(2), None, False),
    (lambda: star_graph(3), Mode.solid(2), 2, False),
    (lambda: rook_graph(4, 4), Mode.solid(2), None, False),
    (lambda: path_graph(9), Mode.resolving(1), None, False),
    (lambda: flower_snark(5), Mode.resolving(2), None, True),
], ids=["K1,3-solid2", "K1,3-solid2-kmax2", "rook4x4-solid2", "P9-resolving1", "J5-resolving2"])
def test_every_search_reads_the_group_once(graph, mode, k_max, two_positions, monkeypatch):
    # the group is read first, once, on a fresh graph, whether or not a
    # decision places two positions.  K1,3 {2}-solid leaves one free
    # position, every cell of rook 4x4 is forced, k_max = 2 is below the
    # forced count of K1,3, and on P9 the greedy cover (one end) meets the
    # bound 1, so the basis is read off with no decision: there the group
    # prunes nothing, and every counter is that of the search without it;
    # J5 {2}-resolving decides 3, 7 and 6, and takes fewer nodes with it
    calls = []
    automorphisms = search._automorphisms
    monkeypatch.setattr(search, "_automorphisms",
                        lambda dm: calls.append(dm.n) or automorphisms(dm))
    g = graph()
    res = dim(g, mode, k_max=k_max)
    assert calls == [g.n]
    assert next(iter(res.stats.phase_ms)) == "group"
    monkeypatch.setattr(search, "_automorphisms", lambda dm: None)
    without = dim(graph(), mode, k_max=k_max)
    assert _outcome(res) == _outcome(without)
    if two_positions:
        assert res.stats.nodes < without.stats.nodes
    else:
        assert _answers(res) == _answers(without)


def _answers(res):
    """Everything a search returns but its timings."""
    stats = dataclasses.asdict(res.stats)
    del stats["wall_ms"], stats["phase_ms"]
    return res.value, res.basis, res.lower_bound, res.lower_bound_source, stats


def test_distances_and_group_are_read_once_per_graph(monkeypatch):
    # two modes and a minimality certificate on one graph object: one BFS
    # and one group read, and the answers and counters of searches that
    # each start from a freshly built equal graph
    modes = Mode.resolving(2), Mode.solid(2)
    fresh = [_answers(dim(flower_snark(5), mode)) for mode in modes]
    bfs, group = [], []
    real_bfs, real_group = graphs._bfs_distances, search._automorphisms
    monkeypatch.setattr(graphs, "_bfs_distances", lambda g: bfs.append(g) or real_bfs(g))
    monkeypatch.setattr(search, "_automorphisms", lambda dm: group.append(dm) or real_group(dm))
    g = flower_snark(5)
    assert [_answers(dim(g, mode)) for mode in modes] == fresh
    assert verify_basis_certificate(g, modes[0], fresh[0][1]) == \
        search.CertificateReport(True, "confirmed-minimum", lower_bound=7)
    assert bfs == [g]
    assert group == [all_pairs_distances(g)]


def test_a_searched_graph_is_freed_with_its_matrix_and_group():
    # nothing outside the graph holds on to what is kept with it, so a
    # graph built per request leaves nothing behind
    g = flower_snark(5)
    dm = all_pairs_distances(g)
    assert dim(g, Mode.resolving(2)).value == 7
    assert dm._invariant(search._automorphisms) is not None
    refs = weakref.ref(g), weakref.ref(dm)
    del g, dm
    assert [ref() for ref in refs] == [None, None]


def _search_family(g, mode):
    """The degree-ordered family that ``metric_dimension`` searches for
    ``mode`` (cover, members, place), and the graph's group on it."""
    dm = all_pairs_distances(g)
    forced = () if mode.kind == "doubly" else forced_vertices(g, mode.order, mode.kind)
    _, masks = search._kept_masks(mode_masks(dm, mode), forced)
    free = [v for v in range(g.n) if v not in forced]
    member = search._member_matrix(masks, free)
    by_degree = np.argsort(-member.sum(axis=0, dtype=np.int64), kind="stable")
    cover, members = search._family(member[:, by_degree])
    place = np.argsort(by_degree).tolist()
    return cover, members, place, search._Orbits(search._automorphisms(dm), free, place)


@pytest.mark.parametrize("name", sorted(_GROUP_GRAPHS))
@pytest.mark.parametrize("seed", (0, 1))
def test_orbital_kernel_matches_kernel_without_group(name, seed):
    # at every cardinality, those above the value included, the group
    # leaves the set found unchanged, and an exhaustion takes no more
    # nodes with it than without
    g = _GROUP_GRAPHS[name]
    g = _relabelled(g, seed) if seed else g
    pruned = False
    for mode in _modes_for(g.n):
        cover, members, place, orbits = _search_family(g, mode)
        family = cover, members, place
        for r in range(len(place) + 1):
            want, plain = colex_first_cover(*family, r)
            got, nodes = colex_first_cover(*family, r, orbits)
            assert got == want, (mode, r)
            if got is None:
                assert nodes <= plain, (mode, r)
                pruned |= nodes < plain
    assert pruned


def test_budget_runs_out_inside_an_orbital_exhaustion(monkeypatch):
    # every node ticks, and the hook sleeps out the budget at its first
    # tick from a node that branches on orbits (nonzero h, r >= 2; a root
    # at r = 1 holds the group but never branches on it).  J7
    # {2}-resolving decides 1, 3 and 7: the first such node is in the
    # decision at 3, after 1 is exhausted, so the bound is 2, not 3
    monkeypatch.setattr(search, "PROGRESS_NODES", 1)
    budget = 0.3
    interrupted = []

    def progress(k, step, nodes):
        # frames: this hook, the search's tick, and the caller of tick
        caller = sys._getframe(2)
        if (not interrupted and caller.f_code.co_name == "hits" and caller.f_locals.get("h")
                and caller.f_locals["r"] >= 2):
            interrupted.append(k)
            time.sleep(budget)

    started = time.monotonic()
    res = dim(flower_snark(7), Mode.resolving(2), budget_s=budget, progress=progress)
    assert time.monotonic() - started < budget + 0.2
    assert interrupted == [3]
    assert res.value is None and res.basis is None
    assert (res.lower_bound, res.lower_bound_source) == (2, "exhausted-cardinality")
    assert (res.stats.exhausted_through, res.stats.decided) == (1, (1,))
    assert res.stats.subsets_checked == 28


def test_flower_snark_11_solid_2():
    # few minimal masks (66) but a deep proof that no 15-set is 2-solid
    res = dim(flower_snark(11), Mode.solid(2))
    assert res.value == 16
    assert res.basis == (0, 5, 6, 12, 13, 14, 15, 17, 18, 19, 20, 21, 22, 27, 33, 38)
    assert res.stats.exhausted_through == 15


# the benchmark's search cases at native labels: (graph, mode, k_max) ->
# value, basis, lower bound and source, subsets_checked, exhausted_through,
# mask_count (of the representatives' masks on the orbit path: J5
# {3}-resolving and J7 {2}-resolving), masks_kept, nodes, decided.  The
# last row is the search inside the minimality proof of the J9 solid1
# recipe, which stops below its 6 anchors
_PINNED_SEARCHES = [
    ("J9", Mode.solid(1), None, 6, (0, 5, 13, 18, 22, 27), 6, 769368, 5, 505, 226, 586,
     (2, 4, 5)),
    ("J11", Mode.solid(1), None, 6, (0, 6, 16, 22, 27, 33), 6, 2432138, 5, 617, 276, 958,
     (2, 4, 5)),
    ("J5", Mode.solid(2), None, 10, (0, 2, 3, 6, 8, 9, 10, 12, 15, 17), 10, 456925, 9, 1021,
     30, 484, (3, 5, 9, 10)),
    ("J5", Mode.resolving(2), None, 7, (0, 3, 6, 7, 10, 12, 15), 7, 68129, 6, 12079, 746, 243,
     (1, 3, 7, 6)),
    ("J7", Mode.resolving(2), None, 8, (0, 4, 6, 9, 10, 14, 17, 21), 8, 1909563, 7, 6786,
     1877, 2769, (1, 3, 7)),
    ("J5", Mode.resolving(3), None, 15, (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 14, 15, 17), 15,
     1027065, 14, 51837, 75, 742, (1, 3, 7, 14)),
    ("rook5x4", Mode.resolving(2), None, 10, (1, 3, 4, 7, 9, 10, 12, 14, 16, 17), 10, 466972,
     9, 15845, 569, 2548, (1, 3, 7, 9)),
    ("J7", Mode.doubly(), None, 4, (3, 7, 9, 14), 4, 4764, 3, 1157, 225, 30, (2, 3)),
    ("J9", Mode.solid(1), 5, None, None, 6, 443667, 5, 505, 226, 490, (2, 4, 5)),
]


_PINNED_GRAPHS = {"J5": flower_snark(5), "J7": flower_snark(7), "J9": flower_snark(9),
                  "J11": flower_snark(11), "rook5x4": rook_graph(5, 4)}


def test_search_workload_answers_and_counters_are_pinned():
    for name, mode, k_max, value, basis, lb, subsets, exhausted, count, kept, nodes, decided \
            in _PINNED_SEARCHES:
        res = dim(_PINNED_GRAPHS[name], mode, k_max=k_max)
        s = res.stats
        got = (res.value, res.basis, res.lower_bound, res.lower_bound_source,
               s.subsets_checked, s.exhausted_through, s.mask_count, s.masks_kept, s.nodes,
               s.decided)
        assert got == (value, basis, lb, "exhausted-cardinality", subsets, exhausted, count,
                       kept, nodes, decided), (name, mode)
    report = verify_basis_certificate(_PINNED_GRAPHS["J9"], Mode.solid(1),
                                      snark.recipe_set("solid1", 9))
    assert report.status == "confirmed-minimum"


def _newest_ladder_record():
    root = pathlib.Path(__file__).resolve().parents[1]
    path = max(root.glob("BENCH_*.json"), key=lambda p: int(p.stem.split("_")[1]))
    spec = importlib.util.spec_from_file_location("ladder", root / "tools" / "ladder.py")
    ladder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ladder)
    return path, json.loads(path.read_text()), ladder


def test_fast_ladder_rungs_keep_their_recorded_counters():
    # every rung of the newest ladder record that took under 0.5 s, run
    # again: a change that moves an answer or a counter of the separator
    # build, the reduction or the search fails here, not only in the
    # ladder
    path, record, ladder = _newest_ladder_record()
    fast = [rung for rung in record["rungs"] if rung["wall_s"] is not None and rung["wall_s"] < 0.5]
    assert len(fast) >= 8, path
    fields = ("value", "basis", "lower_bound", "mask_count", "masks_kept", "nodes", "decided")
    for rung in fast:
        mode = Mode.doubly() if rung["mode"] == "doubly" else Mode(rung["mode"], rung["order"])
        res = dim(ladder._graph(rung["graph"]), mode, budget_s=rung["budget_s"])
        s = res.stats
        got = (res.value, None if res.basis is None else list(res.basis), res.lower_bound,
               s.mask_count, s.masks_kept, s.nodes, list(s.decided))
        assert got == tuple(rung[field] for field in fields), (path.name, rung["name"])


def test_search_workload_forced_vertices_are_the_singleton_masks():
    # the vertices the search holds forced are those of its single-vertex
    # separator masks
    for name, mode, *_ in _PINNED_SEARCHES:
        if mode.kind != "doubly":
            g = _PINNED_GRAPHS[name]
            masks = mode_masks(all_pairs_distances(g), mode)
            assert reference_split_forced(masks)[0] == forced_vertices(g, mode.order, mode.kind)


def test_basis_is_minimal_in_enumeration(rng):
    # exhaustion certifies no smaller set passes
    g = random_connected_graph(rng, n_min=4, n_max=7)
    res = dim(g, Mode.resolving(1))
    assert res.stats.exhausted_through == res.value - 1


# ---------------------------------------------------------------------------
# configuration knobs leave results unchanged


def test_workers_identical():
    # workers is accepted and ignored: the search runs in one process
    g = flower_snark(5)
    lone = dim(g, Mode.resolving(2))
    multi = dim(g, Mode.resolving(2), workers=2)
    assert (lone.value, lone.basis) == (multi.value, multi.basis)


def test_progress_hook_fires():
    g = flower_snark(5)
    seen = []
    dim(g, Mode.solid(1), progress=lambda k, step, nodes: seen.append((k, step, nodes)))
    assert seen
    ks = [k for k, _, _ in seen]
    assert ks == sorted(ks)
    nodes = [c for _, _, c in seen]
    assert nodes == sorted(nodes)


def test_progress_hook_steps_within_a_cardinality(monkeypatch):
    # a small step size makes J7 {2}-resolving tick inside its
    # cardinalities.  Step 0 starts each decision (1, 3, then 7, all
    # failing) and the read-off at 8, which the greedy cover bounds
    monkeypatch.setattr(search, "PROGRESS_NODES", 64)
    seen = []
    res = dim(flower_snark(7), Mode.resolving(2),
              progress=lambda k, step, nodes: seen.append((k, step, nodes)))
    assert res.value == 8 and res.stats.decided == (1, 3, 7)
    assert [k for k, step, _ in seen if step == 0] == [1, 3, 7, 8]
    assert max(step for _, step, _ in seen) > 0
    assert [c for _, _, c in seen] == sorted(c for _, _, c in seen)
    assert seen[-1][2] <= res.stats.nodes


def test_progress_cardinality_falls_after_a_passing_decision():
    # J5 {2}-resolving: 1 and 3 fail, 7 passes, 6 fails, and the basis is
    # read off at 7; the node count never falls
    seen = []
    res = dim(flower_snark(5), Mode.resolving(2),
              progress=lambda k, step, nodes: seen.append((k, step, nodes)))
    assert res.value == 7 and res.stats.decided == (1, 3, 7, 6)
    assert [k for k, step, _ in seen if step == 0] == [1, 3, 7, 6, 7]
    assert [c for _, _, c in seen] == sorted(c for _, _, c in seen)


def test_stats_phases_and_counters():
    res = dim(flower_snark(5), Mode.resolving(2))
    stats = res.stats
    assert set(stats.phase_ms) == {"masks", "reduce", "group", "search", "verify"}
    assert all(ms >= 0.0 for ms in stats.phase_ms.values())
    assert 0 < stats.masks_kept <= stats.mask_count
    assert stats.nodes > 0


# ---------------------------------------------------------------------------
# one pass from the separator masks to the searched family


# word boundaries: P8-P65 and C8-C33 take one to eight bytes per mask word,
# and P65 two words
_BOUNDARY_CASES = [(f"{name}{n}-{_mode_id(mode)}", make(n), mode)
                   for name, make, sizes in (("P", path_graph, (8, 9, 16, 17, 32, 33, 64, 65)),
                                             ("C", cycle_graph, (8, 9, 16, 17, 32, 33)))
                   for n in sizes
                   for mode in (Mode.resolving(2), Mode.solid(1), Mode.doubly())]
_J5_CASES = [(f"J5-{_mode_id(mode)}", flower_snark(5), mode) for mode in
             (Mode.resolving(1), Mode.resolving(2), Mode.resolving(3),
              Mode.solid(1), Mode.solid(2), Mode.doubly())]
# the graphs with forced vertices, the tree being the cli workload's
_FORCED_CASES = [
    ("P9-solid1", path_graph(9), Mode.solid(1)),
    ("K1,3-solid2", star_graph(3), Mode.solid(2)),
    ("tree-solid1", tree_from_parents((0, 0, 1, 1, 2, 2, 3, 3)), Mode.solid(1)),
    ("tree-solid2", tree_from_parents((0, 0, 1, 1, 2, 2, 3, 3)), Mode.solid(2)),
]
# J17 (68 vertices, two words) keeps masks that differ in the second word,
# which P65 (whose masks its forced vertices all hit) does not
_KEPT_CASES = _BOUNDARY_CASES + _J5_CASES + _FORCED_CASES + [
    ("J7-resolving2", flower_snark(7), Mode.resolving(2)),
    ("rook5x4-resolving2", rook_graph(5, 4), Mode.resolving(2)),
] + [(f"J17-{_mode_id(mode)}", flower_snark(17), mode)
     for mode in (Mode.resolving(1), Mode.solid(1), Mode.doubly())]


@pytest.mark.parametrize("small", [False, True], ids=["blocks", "small-blocks"])
@pytest.mark.parametrize("g, mode", [case[1:] for case in _KEPT_CASES],
                         ids=[case[0] for case in _KEPT_CASES])
def test_kept_masks_match_reference_passes(g, mode, small, monkeypatch):
    # the search takes its forced vertices from the local rule of
    # forced_vertices: they are the vertices of the single-vertex masks.
    # Dropping the masks they are in and reducing the rest in one pass
    # returns what the forced split and the minimal-mask reduction
    # returned: the same count and kept masks, byte for byte in the same
    # order; with small blocks the masks are built a row group or two at
    # a time, and the reduction runs a chunk of a few masks at a time
    if small:
        monkeypatch.setattr(search, "_BLOCK_WORDS", 512)
    built = mode_masks(all_pairs_distances(g), mode)
    split = mode.kind != "doubly"
    ref_forced, ref_count, ref_kept = reference_kept_masks(built, split)
    if split:
        assert ref_forced == forced_vertices(g, mode.order, mode.kind)
    count, kept = search._kept_masks(built, ref_forced)
    assert count == ref_count
    assert (kept.shape, kept.dtype) == (ref_kept.shape, ref_kept.dtype)
    assert kept.tobytes() == ref_kept.tobytes()


def test_kept_masks_cases_have_forced_vertices():
    for _, g, mode in _FORCED_CASES:
        assert forced_vertices(g, mode.order, mode.kind), mode


# ---------------------------------------------------------------------------
# the sort and merge of one-word masks against a presence table: a table
# of 2^n flags that the raw blocks set, read off ascending
# (``reference_table_masks``)


_DEDUP_CASES = [(f"{name}{n}-{_mode_id(mode)}", make(n), mode)
                for name, make in (("P", path_graph), ("C", cycle_graph))
                for n in range(4, 21)
                for mode in (Mode.resolving(1), Mode.resolving(2), Mode.solid(1), Mode.doubly())
                ] + _J5_CASES + [
    (f"rook{m}x4-{_mode_id(mode)}", rook_graph(m, 4), mode)
    for m in (4, 5) for mode in (Mode.resolving(2), Mode.resolving(3))
] + [("K1,3-solid2", star_graph(3), Mode.solid(2))]


def _small_blocks(dm, mode):
    """Block words that cut the family of ``mode`` into about 40 blocks
    (fewer when they would hold under 64 words), so that more than 32
    parts are merged as the build goes."""
    return max(64, mode_blocks(dm, mode)[0] // 40)


@pytest.mark.parametrize("g, mode", [case[1:] for case in _DEDUP_CASES],
                         ids=[case[0] for case in _DEDUP_CASES])
def test_table_and_sort_dedup_agree(g, mode, monkeypatch):
    # with blocks of the default size and small ones (so that many blocks
    # reuse one set of buffers and their parts are merged), the sort path
    # returns the table's masks
    dm = all_pairs_distances(g)
    want = reference_table_masks(dm, mode)
    for words in (search._BLOCK_WORDS, _small_blocks(dm, mode)):
        monkeypatch.setattr(search, "_BLOCK_WORDS", words)
        got = mode_masks(dm, mode)
        assert (got.shape, got.dtype) == (want.shape, want.dtype)
        assert got.tobytes() == want.tobytes()


def _table_fits(g, mode):
    """Whether a table of 2^n one-byte flags takes no more bytes than the
    masks that ``mode`` builds on ``g``."""
    raw, _ = mode_blocks(all_pairs_distances(g), mode)
    return 1 << g.n <= raw * search._word_type(g.n).itemsize


# every mode on every graph of the dedup cases whose table fits
_TABLE_CASES = [(f"{name}-{_mode_id(mode)}", g, mode)
                for name, g in dict((case[0].rsplit("-", 1)[0], case[1])
                                    for case in _DEDUP_CASES).items()
                for mode in (Mode.resolving(1), Mode.resolving(2), Mode.resolving(3),
                             Mode.solid(1), Mode.solid(2), Mode.doubly())
                if _table_fits(g, mode)]


@pytest.mark.parametrize("small", [False, True], ids=["blocks", "small-blocks"])
@pytest.mark.parametrize("g, mode", [case[1:] for case in _TABLE_CASES],
                         ids=[case[0] for case in _TABLE_CASES])
def test_table_flags_are_the_distinct_raw_masks(g, mode, small, monkeypatch):
    # the table's flags, and the sort path's masks, are the distinct
    # nonempty masks of the raw blocks (doubly: not the all-vertex mask,
    # which each block drops for every level the difference never takes);
    # the blocks of the other modes are views of one set of buffers of
    # mask words, so each is copied before the next is built
    dm = all_pairs_distances(g)
    if small:
        monkeypatch.setattr(search, "_BLOCK_WORDS", _small_blocks(dm, mode))
    _, blocks = mode_blocks(dm, mode)
    blocks = [(block, block.copy()) for block in blocks]
    word = search._word_type(g.n)
    assert all(view.dtype == word for view, _ in blocks)
    if mode.kind != "doubly":
        assert all(np.shares_memory(view, blocks[0][0]) for view, _ in blocks)
    raw = set(np.unique(np.concatenate([copy[:, 0] for _, copy in blocks])).tolist()) - {0}
    assert reference_table_masks(dm, mode)[:, 0].tolist() == sorted(raw)
    assert mode_masks(dm, mode)[:, 0].tolist() == sorted(raw)


def test_table_cases_cover_every_mode():
    # not {1}-resolving: its n (n // 2) masks never reach 2^n bytes
    assert {(mode.kind, mode.order) for _, _, mode in _TABLE_CASES} == {
        ("resolving", 2), ("resolving", 3), ("solid", 1), ("solid", 2), ("doubly", None)}
    # a benchmark search among them
    assert "J5-resolving3" in {name for name, _, _ in _TABLE_CASES}


def test_sort_blocks_are_views_of_one_buffer(monkeypatch):
    # the sort path deduplicates each block into a part of its own, so the
    # blocks themselves reuse one buffer of mask words
    monkeypatch.setattr(search, "_BLOCK_WORDS", 4096)
    dm = all_pairs_distances(flower_snark(7))
    for mode in (Mode.resolving(2), Mode.solid(2)):
        _, blocks = mode_blocks(dm, mode)
        blocks = list(blocks)
        assert len(blocks) > 1
        assert all(block.dtype == np.uint32 and np.shares_memory(block, blocks[0])
                   for block in blocks)


def test_representatives_build_allocates_one_buffer_set():
    # J5 {3}-resolving builds only its representatives: 135,000 masks (100
    # set rows of 1350) in one block of uint32 words, into one set of
    # three buffers of about 0.5 MB each, and one part, a peak of about
    # 2.3 MB; the whole family, 911,250 masks in blocks of 2^18 words and
    # their merged parts, peaks at about 8 MB
    dm = all_pairs_distances(flower_snark(5))
    family = search._Separators(dm, Mode.resolving(3))
    firsts = family.firsts(search._image_map(search._automorphisms(dm), family.rows.dtype))
    peaks = []
    for chosen in (firsts, None):
        family.masks(None, chosen)
        tracemalloc.start()
        try:
            family.masks(None, chosen)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert len(firsts) == 100
    assert peaks[0] < 3 * (1 << 20) and 3 * peaks[0] < peaks[1]


@pytest.mark.parametrize("g, mode", [case[1:] for case in _DEDUP_CASES],
                         ids=[case[0] for case in _DEDUP_CASES])
def test_table_and_sort_kept_masks_agree(g, mode):
    # the reference passes over the table's masks give the count and kept
    # masks that the one pass gives over the sort path's, byte for byte in
    # the same order, sub-word masks (n < 8) and forced vertices included
    dm = all_pairs_distances(g)
    forced, count, kept = reference_kept_masks(reference_table_masks(dm, mode),
                                               mode.kind != "doubly")
    got_count, got = search._kept_masks(mode_masks(dm, mode), forced)
    assert (got_count, got.dtype, got.shape, got.tobytes()) == \
        (count, kept.dtype, kept.shape, kept.tobytes())


@pytest.mark.parametrize("width", [1, 2])
def test_merge_by_ranges_gives_the_bytes_of_one_sort(width, monkeypatch):
    # with ranges of a few dozen words, merging sorted parts (an empty one
    # among them) gives the bytes of one deduplication of all their
    # columns; with two words many columns share a first word, and a range
    # holds all of them
    monkeypatch.setattr(search, "_BLOCK_WORDS", 64)
    rng = np.random.default_rng(0)
    parts = [search._unique_columns(rng.integers(0, 40, size=(width, size), dtype=np.uint16))
             for size in (500, 0, 1, 30, 200, 300)]
    merged = search._merge(parts)
    whole = search._unique_columns(np.concatenate(parts, axis=1))
    assert (merged.shape, merged.dtype) == (whole.shape, whole.dtype)
    assert merged.tobytes() == whole.tobytes()


@pytest.mark.parametrize("g, mode", [case[1:] for case in _DEDUP_CASES],
                         ids=[case[0] for case in _DEDUP_CASES])
def test_stated_mask_count_matches_the_blocks(g, mode):
    # the count that picks the orbit path is that of the masks the blocks
    # build; doubly blocks drop, per pair of vertices, the levels c in
    # -top .. top that d(., u) - d(., v) never takes (all-vertex masks)
    dm = all_pairs_distances(g)
    dist = dm.dist
    raw, blocks = mode_blocks(dm, mode)
    doubly = mode.kind == "doubly"
    built = sum(int((np.bitwise_count(block).sum(axis=1) < g.n).sum()) if doubly else len(block)
                for block in blocks)
    if doubly:
        n, top = g.n, int(dist.max())
        for u in range(n):
            for v in ((u + d) % n for d in range(1, n // 2 + 1)):
                built += 2 * top + 1 - len(set((dist[:, u] - dist[:, v]).tolist()))
    assert raw == built


@pytest.mark.parametrize("g, mode", [
    (flower_snark(5), Mode.resolving(3)),
    (rook_graph(4, 4), Mode.resolving(3)),
    # forced vertices: 3 of K1,3's 4; 6 of the tree's 9
    (star_graph(3), Mode.solid(2)),
    (tree_from_parents((0, 0, 1, 1, 2, 2, 3, 3)), Mode.solid(2)),
], ids=["J5", "rook4x4", "K1,3-solid2", "tree-solid2"])
def test_search_matches_the_reference_search(g, mode):
    # the ascending reference search over the whole family's masks gives
    # the answer and counts of the search (J5 on the orbit path, the rest
    # on the plain one), which keeps the masks the reference passes keep;
    # off the orbit path mask_count is the whole family's count
    res = dim(g, mode, budget_s=None)
    s = res.stats
    assert (res.value, res.basis, res.lower_bound, res.lower_bound_source, s.subsets_checked,
            s.exhausted_through) == reference_metric_dimension(g, mode)
    dm = all_pairs_distances(g)
    _, count, kept = reference_kept_masks(mode_masks(dm, mode), mode.kind != "doubly")
    assert s.masks_kept == len(kept)
    if not search._Separators(dm, mode).orbital:
        assert s.mask_count == count


# ---------------------------------------------------------------------------
# the reduction on one representative per automorphism orbit


# every graph of these tests whose group is enumerated, with relabelled
# copies; P12 and the binary tree have forced vertices of their own, and
# the cycles from C53 on take their images as two products
_ORBIT_GRAPHS = {
    "J5": flower_snark(5), "J7": flower_snark(7), "J9": flower_snark(9),
    **{f"C{n}": cycle_graph(n) for n in (5, 8, 12, 16, 53, 60)},
    "P12": path_graph(12), "Petersen": _petersen(), "rook3x3": rook_graph(3, 3),
    "C3xC4": cartesian_product(cycle_graph(3), cycle_graph(4)),
    "C4xC5": cartesian_product(cycle_graph(4), cycle_graph(5)),
    "P3xC6": cartesian_product(path_graph(3), cycle_graph(6)),
    "K4xC4": cartesian_product(complete_graph(4), cycle_graph(4)),
    "tree": tree_from_parents((0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6)),
    **{f"{name}-relabelled": _relabelled(g, 1) for name, g in (
        ("J5", flower_snark(5)), ("J7", flower_snark(7)), ("C16", cycle_graph(16)),
        ("K4xC4", cartesian_product(complete_graph(4), cycle_graph(4))))},
}


def _orbit_family(g, mode):
    """The family of ``mode`` on ``g`` with its images, when it takes the
    sort path in one word and the group of ``g`` is enumerated."""
    dm = all_pairs_distances(g)
    family = search._Separators(dm, mode)
    autos = search._automorphisms(dm)
    if g.n > 64 or autos is None:
        return None
    return family, search._image_map(autos, search._word_type(g.n))


def _avoiding(masks, forced):
    """How many of the one-word ``masks`` hold no vertex of ``forced``."""
    row = np.array(sum(1 << v for v in forced), dtype=masks.dtype)
    return int(np.count_nonzero((masks[:, 0] & row) == 0))


# every {l}-resolving and doubly mode in one word ({3}-resolving up to J9:
# C53 and C60 build 309 and 650 million masks), with the default
# blocks, and with small ones where fewer than 2^18 masks are built
_ORBIT_CASES = [(f"{name}-{_mode_id(mode)}-{size}", g, mode, size == "small-blocks")
                for name, g in _ORBIT_GRAPHS.items()
                for mode in (Mode.resolving(1), Mode.resolving(2), Mode.resolving(3), Mode.doubly())
                if (mode.order != 3 or g.n <= 36) and _orbit_family(g, mode) is not None
                for size in ("blocks", "small-blocks")
                if size == "blocks" or _orbit_family(g, mode)[0].raw < 1 << 18]


@pytest.mark.parametrize("g, mode, small", [case[1:] for case in _ORBIT_CASES],
                         ids=[case[0] for case in _ORBIT_CASES])
def test_orbit_reduction_matches_plain_kept_masks(g, mode, small, monkeypatch):
    # the masks of the pairs whose first group comes first in its orbit,
    # reduced with the images of each level as its killers, give the kept
    # masks of the plain reduction of the whole family, byte for byte in
    # the same order, and the count of the representatives' masks left:
    # with no forced vertex, with those of the graph, and with the orbit
    # of vertex 0 (the group maps each onto itself); with small blocks,
    # the representatives are built a group or two at a time and the
    # levels reduced a few masks at a time
    if small:
        monkeypatch.setattr(search, "_BLOCK_WORDS", 512)
    family, images = _orbit_family(g, mode)
    masks = family.masks()
    firsts = family.firsts(images)
    reps = family.masks(None, firsts)
    assert 0 < len(firsts) < family.count and len(reps) <= len(masks)
    orbit = tuple(sorted(set(search._automorphisms(all_pairs_distances(g))[:, 0].tolist())))
    own = () if mode.kind == "doubly" else forced_vertices(g, mode.order, mode.kind)
    for forced in {(), own, orbit}:
        want = search._kept_masks(masks, forced)
        got = search._kept_masks(reps, forced, None, images)
        assert got[0] == _avoiding(reps, forced), forced
        assert (got[1].shape, got[1].dtype) == (want[1].shape, want[1].dtype)
        assert got[1].tobytes() == want[1].tobytes(), forced


def test_orbit_cases_cover_every_mode_and_forced_vertices():
    modes = {(mode.kind, mode.order) for _, _, mode, _ in _ORBIT_CASES}
    assert modes == {("resolving", 1), ("resolving", 2), ("resolving", 3), ("doubly", None)}
    assert any(forced_vertices(g, mode.order, mode.kind)
               for _, g, mode, _ in _ORBIT_CASES if mode.kind == "resolving")
    assert {g.n for _, g, _, _ in _ORBIT_CASES} >= {20, 28, 36, 53, 60}


@pytest.mark.parametrize("g", [flower_snark(5), cycle_graph(9), flower_snark(13), cycle_graph(60),
                               _relabelled(cartesian_product(complete_graph(4), cycle_graph(4)), 2)],
                         ids=["J5", "C9", "J13", "C60", "K4xC4-relabelled"])
def test_image_map_permutes_the_bits_of_each_mask(g):
    # one float64 product up to 52 vertices, two past it, each exact
    autos = search._automorphisms(all_pairs_distances(g))
    word = search._word_type(g.n)
    rng = np.random.default_rng(g.n)
    masks = rng.integers(0, 1 << min(g.n, 63), size=40, dtype=np.uint64)
    masks[:2] = (1 << g.n) - 1, 1 << (g.n - 1)
    masks = masks.astype(word)
    images = search._image_map(autos, word)(masks[None])
    assert (images.shape, images.dtype) == ((40, len(autos)), word)
    for mask, row in zip(masks.tolist(), images.tolist()):
        want = [sum(1 << int(a[v]) for v in range(g.n) if mask >> v & 1) for a in autos]
        assert row == want


def test_orbit_path_is_taken_by_large_families_only():
    # J5 {3}-resolving (911,250 masks built), J7 {2}-resolving (82,418)
    # and the J9 and J13 rungs take it; J5 {2}-resolving (22,050), every
    # cli dim family (at most a few thousand), the solid modes and
    # two-word families do not
    def orbital(g, mode):
        return search._Separators(all_pairs_distances(g), mode).orbital

    assert orbital(flower_snark(5), Mode.resolving(3))
    assert orbital(flower_snark(7), Mode.resolving(2))
    assert orbital(flower_snark(7), Mode.resolving(3))
    assert orbital(flower_snark(13), Mode.resolving(2))
    assert not orbital(flower_snark(5), Mode.resolving(2))
    assert not orbital(flower_snark(9), Mode.solid(2))
    assert not orbital(flower_snark(17), Mode.doubly())
    assert not orbital(path_graph(65), Mode.resolving(2))
    for g, mode in [(flower_snark(n), Mode.resolving(1)) for n in (5, 7, 9)] + [
            (flower_snark(5), Mode.doubly()), (path_graph(9), Mode.resolving(1)),
            (cycle_graph(6), Mode.resolving(2)), (demo_graph(), Mode.resolving(2))]:
        assert not orbital(g, mode)


def test_orbit_path_gives_the_answers_and_counters_of_the_plain_path(monkeypatch):
    # the group is read before the masks are built, and the search it
    # feeds is the one the plain path feeds, counters included, but for
    # mask_count: the representatives' masks left against the whole
    # family's (J7 {2}-resolving 6,786 against 41,325, J5 {3}-resolving
    # 51,837 against 186,397)
    cases = [(flower_snark(7), Mode.resolving(2)), (flower_snark(5), Mode.resolving(3))]
    reduced = []
    kept_masks = search._kept_masks

    def recorded(masks, forced, deadline=None, images=None):
        reduced.append(images is not None)
        return kept_masks(masks, forced, deadline, images)

    monkeypatch.setattr(search, "_kept_masks", recorded)
    got = [_answers(dim(g, mode)) for g, mode in cases]
    monkeypatch.setattr(search, "_ORBIT_MASKS", float("inf"))
    want = [_answers(dim(g, mode)) for g, mode in cases]
    assert reduced == [True, True, False, False]
    assert [answers[-1].pop("mask_count") for answers in got + want] == [
        6786, 51837, 41325, 186397]
    assert got == want
    assert [answers[:2] for answers in got] == [
        (8, (0, 4, 6, 9, 10, 14, 17, 21)),
        (15, (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 14, 15, 17))]


@pytest.mark.parametrize("g, mode", [
    (flower_snark(5), Mode.resolving(3)),
    (flower_snark(7), Mode.resolving(2)),
    (tree_from_parents((0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6)), Mode.resolving(3)),
], ids=["J5-resolving3", "J7-resolving2", "tree-resolving3"])
def test_orbit_path_builds_only_the_representatives(g, mode, monkeypatch):
    # the blocks built hold the pairs of the len(firsts) groups that come
    # first in their orbit, each against every group, and no block of the
    # whole family; mask_count is the number of the representatives'
    # distinct masks that avoid every forced vertex (the tree has some)
    family, images = _orbit_family(g, mode)
    firsts = family.firsts(images)
    reps = family.masks(None, firsts)
    blocks = []
    _counted_blocks(monkeypatch, [0.0], blocks, None)
    res = dim(g, mode)
    assert family.orbital and len(firsts) < family.count
    assert sum(rows for rows, _ in blocks) == len(firsts) * family.count
    assert res.stats.mask_count == _avoiding(reps, forced_vertices(g, mode.order, mode.kind))


def test_orbit_path_stops_at_its_deadline(monkeypatch):
    # J7 {2}-resolving takes the orbit path; the clock passes the deadline
    # as the images of its group are set up, so the build of the
    # representatives stops after its one block, and nothing is reduced
    now = [0.0]
    image_map = search._image_map
    reduced = []

    def late_image_map(autos, word):
        now[0] = 2.0
        return image_map(autos, word)

    monkeypatch.setattr(search, "_image_map", late_image_map)
    monkeypatch.setattr(search, "_minimal", lambda *args: reduced.append(args))
    monkeypatch.setattr(search.time, "monotonic", lambda: now[0])
    res = dim(flower_snark(7), Mode.resolving(2), budget_s=1.0)
    assert (res.value, res.basis, res.stats.mask_count) == (None, None, 0)
    assert (res.lower_bound, res.lower_bound_source) == (1, "trivial")
    assert not reduced


def test_orbit_reduction_stops_at_the_first_chunk_after_the_deadline(monkeypatch):
    # the deadline is checked after each chunk of a level, on the
    # representatives as on the plain path
    family, images = _orbit_family(flower_snark(7), Mode.resolving(2))
    reps = family.masks(None, family.firsts(images))
    checks = []
    check_deadline = search._check_deadline
    monkeypatch.setattr(search, "_check_deadline",
                        lambda deadline: checks.append(deadline) or check_deadline(deadline))
    with pytest.raises(search._OutOfBudget):
        search._kept_masks(reps, (), time.monotonic() - 1.0, images)
    assert len(checks) == 1
    count, kept = search._kept_masks(reps, (), time.monotonic() + 60.0, images)
    assert (count, len(kept)) == (6786, 1877)
    assert len(checks) > 2


# ---------------------------------------------------------------------------
# budgets and bounds


def test_budget_exhaustion_returns_lower_bound():
    g = flower_snark(7)
    res = dim(g, Mode.resolving(2), budget_s=0.0)
    assert res.value is None
    assert not res.exact
    assert res.lower_bound >= 1
    assert res.lower_bound_source == "trivial"
    assert res.describe().startswith("unknown >= ")


def test_nan_budget_is_refused():
    # t0 + nan is never exceeded, so a NaN budget would switch it off
    with pytest.raises(ValueError, match="NaN"):
        dim(flower_snark(5), Mode.resolving(2), budget_s=float("nan"))
    for budget in (0, -1.0):
        assert dim(flower_snark(5), Mode.resolving(2), budget_s=budget).value is None
    assert dim(flower_snark(5), Mode.resolving(2), budget_s=float("inf")).value == 7


def test_budget_holds_in_separator_build(monkeypatch):
    # J9 {3}-resolving off the orbit path compares about 30 million pairs
    # of sets of size <= 3, in over 100 blocks; the clock passes the
    # deadline as the third block is handed out, and the deadline, checked
    # between blocks, ends the search before any mask is reduced
    monkeypatch.setattr(search, "_ORBIT_MASKS", float("inf"))
    now = [0.0]
    blocks = []
    _counted_blocks(monkeypatch, now, blocks, 3)
    monkeypatch.setattr(search.time, "monotonic", lambda: now[0])
    started = time.perf_counter()
    res = dim(flower_snark(9), Mode.resolving(3), budget_s=1.0)
    assert time.perf_counter() - started < 2.0
    assert len(blocks) == 3
    assert res.value is None
    assert res.lower_bound >= 1
    assert res.describe().startswith("unknown >= ")
    assert "reduce" not in res.stats.phase_ms


def test_no_mask_merge_starts_after_the_deadline(monkeypatch):
    # the clock passes the deadline once the block that fills the 32nd part
    # is deduplicated; J9 {3}-resolving has over 100 blocks, so the 32
    # parts would be merged next
    now = [0.0]
    calls = []
    dedup = search._unique_columns

    def unique_columns(cols):
        calls.append(cols.shape)
        out = dedup(cols)
        if len(calls) == 32:
            now[0] = 2.0
        return out

    monkeypatch.setattr(search, "_unique_columns", unique_columns)
    monkeypatch.setattr(search.time, "monotonic", lambda: now[0])
    with pytest.raises(search._OutOfBudget):
        mode_masks(all_pairs_distances(flower_snark(9)), Mode.resolving(3), deadline=1.0)
    assert len(calls) == 32


def test_a_mask_merge_stops_between_ranges_after_the_deadline(monkeypatch):
    # J9 {3}-resolving merges its first 32 parts once the 32nd block is
    # deduplicated, a range of first words at a time; the clock passes the
    # deadline as the first range is deduplicated, and the merge stops
    # there, before its last range
    now = [0.0]
    sizes = []
    dedup = search._unique_columns

    def unique_columns(cols):
        out = dedup(cols)
        sizes.append((cols.shape[1], out.shape[1]))
        if len(sizes) == 33:
            now[0] = 2.0
        return out

    monkeypatch.setattr(search, "_unique_columns", unique_columns)
    monkeypatch.setattr(search.time, "monotonic", lambda: now[0])
    with pytest.raises(search._OutOfBudget):
        mode_masks(all_pairs_distances(flower_snark(9)), Mode.resolving(3), deadline=1.0)
    assert len(sizes) == 33
    # the range merged holds a small share of the parts' columns
    assert 0 < 8 * sizes[32][0] < sum(out for _, out in sizes[:32])


def _counted_blocks(monkeypatch, now, blocks, at):
    """Has ``search._Separators.blocks`` append the shape of each block it
    hands out to ``blocks``, and move the clock ``now`` to 2.0 as block
    ``at`` (1-based) is handed out."""
    family_blocks = search._Separators.blocks

    def counted_blocks(family, firsts=None):
        built = family_blocks(family, firsts)

        def counted():
            for block in built:
                blocks.append(block.shape)
                if len(blocks) == at:
                    now[0] = 2.0
                yield block
        return counted()

    monkeypatch.setattr(search._Separators, "blocks", counted_blocks)


@pytest.mark.parametrize("g, mode", [(flower_snark(5), Mode.resolving(3)),
                                     (cycle_graph(8), Mode.solid(2)),
                                     (cycle_graph(8), Mode.doubly())],
                         ids=["J5-resolving3", "C8-solid2", "C8-doubly"])
def test_no_block_is_built_after_the_deadline(g, mode, monkeypatch):
    # one row group of masks to a block: the clock passes the deadline
    # while the third block is built; it is deduplicated, and the
    # deadline, checked before the fourth block is built, stops the build
    monkeypatch.setattr(search, "_BLOCK_WORDS", 64)
    dm = all_pairs_distances(g)
    assert len(list(mode_blocks(dm, mode)[1])) > 3
    now = [0.0]
    built = []
    views = search._views

    def counted_views(bufs, shape):
        # each block takes its views of the buffers once, as it is built
        built.append(shape)
        if len(built) == 3:
            now[0] = 2.0
        return views(bufs, shape)

    monkeypatch.setattr(search, "_views", counted_views)
    monkeypatch.setattr(search.time, "monotonic", lambda: now[0])
    with pytest.raises(search._OutOfBudget):
        mode_masks(dm, mode, deadline=1.0)
    assert len(built) == 3


def test_budget_runs_out_inside_a_cardinality(monkeypatch):
    # the hook sleeps past the budget at its first step inside a
    # cardinality.  J7 {2}-resolving decides 1 and 3 in fewer than 64
    # nodes, so that step is in the decision at 7, which is not
    # exhausted: the bound is one above the last exhausted cardinality, 3.
    # The nodes of the cut decision count too
    monkeypatch.setattr(search, "PROGRESS_NODES", 64)
    budget = 1.0
    interrupted = []
    counts = []

    def progress(k, step, nodes):
        counts.append(nodes)
        if step > 0 and not interrupted:
            interrupted.append(k)
            time.sleep(budget)

    res = dim(flower_snark(7), Mode.resolving(2), budget_s=budget, progress=progress)
    assert res.value is None and res.basis is None
    assert interrupted == [7]
    assert res.stats.nodes >= counts[-1] >= 64
    assert (res.lower_bound, res.lower_bound_source) == (4, "exhausted-cardinality")
    assert (res.stats.exhausted_through, res.stats.decided) == (3, (1, 3))
    # every set of 1, 2 and 3 of the 28 vertices
    assert res.stats.subsets_checked == 28 + 378 + 3276


def test_k_max_cuts_off_search():
    g = star_graph(3)
    res = dim(g, Mode.solid(2), k_max=2)
    assert res.value is None
    assert res.lower_bound == 3
    assert res.lower_bound_source == "forced-count"


def test_forced_count_holds_on_a_zero_budget():
    # every cell of a rook's graph is forced for 2-solid; the forced
    # vertices are found before the separator masks, so a budget that runs
    # out before any mask is built still certifies their count
    g = rook_graph(4, 4)
    res = dim(g, Mode.solid(2), budget_s=0.0)
    assert (res.value, res.lower_bound, res.lower_bound_source) == (None, 16, "forced-count")
    res = dim(g, Mode.solid(2))
    assert res.value == 16 and res.basis == tuple(range(16))
    assert (res.lower_bound, res.lower_bound_source) == (16, "forced-count")


def test_forced_count_holds_when_the_budget_ends_in_the_mask_build(monkeypatch):
    # the cli workload's tree has 5 forced vertices for {2}-resolving; the
    # clock passes the deadline as the first of several mask blocks is
    # handed out, and the bound is still their count
    g = tree_from_parents((0, 0, 1, 1, 2, 2, 3, 3))
    monkeypatch.setattr(search, "_BLOCK_WORDS", 64)
    assert len(list(mode_blocks(all_pairs_distances(g), Mode.resolving(2))[1])) > 1
    now = [0.0]
    blocks = []
    _counted_blocks(monkeypatch, now, blocks, 1)
    monkeypatch.setattr(search.time, "monotonic", lambda: now[0])
    res = dim(g, Mode.resolving(2), budget_s=1.0)
    assert len(blocks) == 1
    assert (res.value, res.basis) == (None, None)
    assert (res.lower_bound, res.lower_bound_source) == (5, "forced-count")


def test_lower_bound_provenances():
    g = star_graph(3)
    bounds = dict(dimension_lower_bounds(g, Mode.solid(2)))
    assert bounds["forced-count"] == 3
    assert bounds["l-plus-1-rule"] == 3
    bounds = dict(dimension_lower_bounds(g, Mode.resolving(2)))
    assert bounds["trivial"] == 1
    bounds = dict(dimension_lower_bounds(g, Mode.doubly()))
    assert bounds["trivial"] == 2


def test_exhausted_provenance_certifies():
    g = cycle_graph(6)
    res = dim(g, Mode.resolving(1))
    assert res.value == 2
    assert res.lower_bound == 2
    assert res.lower_bound_source == "exhausted-cardinality"


def test_mode_validation_passthrough():
    with pytest.raises(ModeError):
        dim(path_graph(3), Mode.solid(3))


def test_doubly_mode_needs_two_vertices():
    # one vertex has no doubly resolving set, and no budget is involved:
    # the search and the bounds refuse the mode, as the checker does
    for call in (lambda: dim(path_graph(1), Mode.doubly()),
                 lambda: dimension_lower_bounds(path_graph(1), Mode.doubly()),
                 lambda: Mode.doubly().validate_for(1)):
        with pytest.raises(ModeError, match="two vertices"):
            call()
    assert dim(path_graph(2), Mode.doubly()).value == 2


# ---------------------------------------------------------------------------
# certificates


def test_certificate_confirmed():
    g = path_graph(5)
    report = verify_basis_certificate(g, Mode.solid(1), (0, 4))
    assert report.certified
    assert report.status == "confirmed-minimum"
    assert report.lower_bound == 2


def test_certificate_not_passing():
    g = path_graph(5)
    report = verify_basis_certificate(g, Mode.solid(1), (1, 2))
    assert not report.certified
    assert report.status == "not-passing"


def test_certificate_rejects_repeated_vertices():
    with pytest.raises(ModeError, match="repeated"):
        verify_basis_certificate(path_graph(5), Mode.resolving(1), (0, 0, 1))


def test_certificate_smaller_set_exists():
    g = path_graph(5)
    report = verify_basis_certificate(g, Mode.resolving(1), (0, 2, 4))
    assert not report.certified
    assert report.status == "smaller-set-exists"
    assert report.smaller_set is not None
    assert len(report.smaller_set) < 3


def test_certificate_inconclusive_on_zero_budget():
    g = flower_snark(5)
    report = verify_basis_certificate(
        g, Mode.resolving(2), (0, 3, 6, 7, 10, 12, 15), budget_s=0.0
    )
    assert not report.certified
    assert report.status == "inconclusive"
