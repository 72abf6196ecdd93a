import random
import time

import pytest

from resolving import (
    Mode,
    ModeError,
    SearchConfig,
    all_pairs_distances,
    build_graph,
    check_mode,
    complete_graph,
    cycle_graph,
    dimension_lower_bounds,
    flower_snark,
    metric_dimension,
    path_graph,
    search,
    star_graph,
    verify_basis_certificate,
)

from conftest import (
    bfs_distances,
    oracle_first_basis,
    oracle_minimum_size,
    random_connected_graph,
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
    # a small step size makes J7 {2}-resolving tick inside its cardinalities
    monkeypatch.setattr(search, "PROGRESS_NODES", 64)
    seen = []
    res = dim(flower_snark(7), Mode.resolving(2),
              progress=lambda k, step, nodes: seen.append((k, step, nodes)))
    assert res.value == 8
    assert [k for k, step, _ in seen if step == 0] == list(range(1, 9))
    assert max(step for _, step, _ in seen) > 0
    assert [c for _, _, c in seen] == sorted(c for _, _, c in seen)
    assert seen[-1][2] <= res.stats.nodes


def test_stats_phases_and_counters():
    res = dim(flower_snark(5), Mode.resolving(2))
    stats = res.stats
    assert set(stats.phase_ms) == {"masks", "reduce", "search", "verify"}
    assert all(ms >= 0.0 for ms in stats.phase_ms.values())
    assert 0 < stats.masks_kept <= stats.mask_count
    assert stats.nodes > 0


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


def test_budget_holds_in_separator_build():
    # J7 {3}-resolving compares about 6.8 million pairs of sets of size <= 3;
    # the deadline is checked between blocks of them
    started = time.monotonic()
    res = dim(flower_snark(7), Mode.resolving(3), budget_s=0.5)
    assert time.monotonic() - started < 2.0
    assert res.value is None
    assert res.lower_bound >= 1
    assert res.describe().startswith("unknown >= ")


def test_k_max_cuts_off_search():
    g = star_graph(3)
    res = dim(g, Mode.solid(2), k_max=2)
    assert res.value is None
    assert res.lower_bound == 3
    assert res.lower_bound_source == "forced-count"


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
