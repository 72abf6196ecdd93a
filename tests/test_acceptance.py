"""End-to-end gate: one test per headline value, each with its time budget.

Every test prints a single PASS line (visible under -s or on failure); the
asserts enforce exact values and the stated wall-clock limits.
"""
import random
import time

import pytest

from resolving import (
    Mode,
    SearchConfig,
    all_pairs_distances,
    check_erroneous_set,
    demo_graph,
    design_to_set,
    distance_array,
    fano_plane_design,
    flower_snark,
    forced_vertices,
    forced_vertices_oracle,
    is_doubly_resolving,
    is_l_resolving,
    is_l_solid,
    is_l_solid_oracle,
    metric_dimension,
    recipe_set,
    reduction_distance_check,
    rook_flat,
    rook_graph,
    rook_lower_bound,
    sufficiency_check,
    ten_point_design,
    verify_flank_table,
    verify_recipe,
    verify_triple_distinguishers,
)
from resolving.snark import admissible_vertices

from conftest import random_connected_graph, size_colex_subsets

CORPUS_SEED = 412731


@pytest.fixture(scope="module")
def corpus():
    rnd = random.Random(CORPUS_SEED)
    out = []
    while len(out) < 200:
        g = random_connected_graph(rnd, n_min=2, n_max=9)
        out.append((g, all_pairs_distances(g)))
    return out


def report(num, label, started, budget_s):
    elapsed = time.perf_counter() - started
    assert elapsed < budget_s, f"criterion {num} took {elapsed:.1f}s (budget {budget_s}s)"
    print(f"criterion {num} ({label}): PASS in {elapsed:.2f}s (budget {budget_s}s)")


def test_criterion_1_fixture_arrays():
    started = time.perf_counter()
    g = demo_graph()
    dm = all_pairs_distances(g)
    r1, s1 = (1, 2, 6), (0, 1, 2, 6, 7)
    r2, s2 = (0, 1, 2, 3, 7, 8), (0, 1, 2, 3, 5, 7, 8)
    assert distance_array(dm, r1, (5,)) == (2, 3, 1)
    assert distance_array(dm, r2, (5,)) == (3, 2, 3, 2, 2, 2)
    assert distance_array(dm, r2, (7, 8)) == (3, 2, 3, 2, 0, 0)
    assert distance_array(dm, s1, (5, 7)) == (3, 2, 3, 1, 0)
    assert distance_array(dm, s2, (4, 5, 6)) == (2, 1, 2, 1, 0, 1, 1)
    report(1, "fixture arrays", started, 1.0)


def test_criterion_2_oracle_equivalence(corpus):
    started = time.perf_counter()
    assert len(corpus) >= 200
    mismatches = 0
    for g, dm in corpus:
        for anchors in size_colex_subsets(g.n, min(5, g.n)):
            for order in range(1, 4):
                if order > g.n - 1:
                    continue
                fast = is_l_solid(dm, anchors, order).holds
                slow = is_l_solid_oracle(dm, anchors, order).holds
                mismatches += fast != slow
        for kind in ("solid", "resolving"):
            top = g.n - 1 if kind == "solid" else g.n
            for order in range(1, min(3, top) + 1):
                if forced_vertices(g, order, kind) != forced_vertices_oracle(g, order, kind):
                    mismatches += 1
    assert mismatches == 0
    report(2, "checker == oracle on random corpus", started, 300.0)


def test_criterion_3_implication_suite(corpus):
    started = time.perf_counter()
    rnd = random.Random(CORPUS_SEED + 1)
    violations = 0
    for g, dm in corpus:
        n = g.n
        for anchors in size_colex_subsets(n, min(5, n)):
            res = {o: is_l_resolving(dm, anchors, o).holds
                   for o in range(1, min(3, n) + 1)}
            sol = {o: is_l_solid(dm, anchors, o).holds
                   for o in range(1, min(3, n - 1) + 1)}
            for o, ok in sol.items():
                if ok and not res[o]:
                    violations += 1
                if ok and o > 1 and not sol[o - 1]:
                    violations += 1
            for o, ok in res.items():
                if ok and o - 1 in sol and not sol[o - 1]:
                    violations += 1
                if ok and o > 1 and not res[o - 1]:
                    violations += 1
            if len(anchors) >= 2 and (sol.get(1) or res.get(2)):
                if not is_doubly_resolving(dm, anchors).holds:
                    violations += 1
            if (res.get(1) or sol.get(1)) and len(anchors) < n:
                extra = rnd.choice([v for v in range(n) if v not in anchors])
                sup = tuple(sorted(anchors + (extra,)))
                if res.get(1) and not is_l_resolving(dm, sup, 1).holds:
                    violations += 1
                if sol.get(1) and not is_l_solid(dm, sup, 1).holds:
                    violations += 1
    assert violations == 0
    report(3, "implication suite", started, 300.0)


def test_criterion_4_rook_exactness():
    started = time.perf_counter()
    assert rook_lower_bound(7, 7) == 28
    fano = design_to_set(fano_plane_design())
    assert (fano.m, fano.n, len(fano.cells)) == (7, 7, 28)
    dm7 = all_pairs_distances(rook_graph(7, 7))
    anchors7 = tuple(sorted(rook_flat(r, c, 7) for r, c in fano.cells))
    assert is_l_resolving(dm7, anchors7, 2).holds
    assert sufficiency_check(fano).holds
    # generic check succeeding at the lower bound pins the dimension at 28
    assert len(anchors7) == rook_lower_bound(7, 7)

    assert rook_lower_bound(12, 10) == 81
    big = design_to_set(ten_point_design())
    assert (big.m, big.n, len(big.cells)) == (12, 10, 81)
    assert sufficiency_check(big).holds
    dm12 = all_pairs_distances(rook_graph(12, 10))
    anchors12 = tuple(sorted(rook_flat(r, c, 10) for r, c in big.cells))
    assert is_l_resolving(dm12, anchors12, 2).holds
    assert len(anchors12) == rook_lower_bound(12, 10)
    report(4, "rook dimensions 28 and 81", started, 600.0)


def _dim(n, mode, budget_s):
    g = flower_snark(n)
    result = metric_dimension(g, SearchConfig(mode=mode, budget_s=budget_s))
    assert result.value is not None, f"search gave up on J_{n} {mode}"
    return result.value


def test_criterion_5_snark_dimensions():
    started = time.perf_counter()
    assert _dim(5, Mode.resolving(1), 1700) == 3
    assert _dim(7, Mode.resolving(1), 1700) == 3
    assert _dim(5, Mode.resolving(2), 1700) == 7
    assert _dim(7, Mode.resolving(2), 1700) == 8
    group_a = time.perf_counter() - started
    assert group_a < 1800

    solid_started = time.perf_counter()
    for n in (5, 7, 9):
        assert _dim(n, Mode.solid(1), 1700) == 6
    assert time.perf_counter() - solid_started < 1800

    exhaustion_started = time.perf_counter()
    assert _dim(5, Mode.resolving(3), 550) == 15
    assert _dim(5, Mode.solid(2), 550) == 10
    assert time.perf_counter() - exhaustion_started < 600
    report(5, "nine snark dimensions", started, 4200.0)


def test_criterion_6_recipe_suite():
    started = time.perf_counter()
    sizes = {"l3": lambda n: 3 * n, "solid2": lambda n: n + 5,
             "l2": lambda n: 8, "solid1": lambda n: 6}
    for n in (5, 7, 9, 11, 13):
        for kind, size in sizes.items():
            if kind == "l2" and n < 7:
                continue
            members = recipe_set(kind, n)
            assert len(members) == size(n)
            assert verify_recipe(kind, n).holds
        for i in range(1, n + 1):
            assert verify_flank_table(n, i).holds
            assert verify_triple_distinguishers(n, i).holds
        assert check_erroneous_set(n).holds
    report(6, "recipes, lemma tables, erroneous set", started, 600.0)


def test_criterion_7_reduction_relations():
    started = time.perf_counter()
    rnd = random.Random(CORPUS_SEED + 2)
    for n in (21, 23):
        pool = admissible_vertices(n)
        for _ in range(50):
            s = tuple(sorted(rnd.sample(pool, 5)))
            rep = reduction_distance_check(n, s)
            assert rep.status == "ok", (n, s, rep.witness)
            assert rep.checked > 0
    report(7, "reduction distance relations", started, 300.0)


def test_criterion_8_forced_closed_forms():
    started = time.perf_counter()
    for m, n in ((3, 3), (3, 4), (4, 4)):
        g = rook_graph(m, n)
        assert forced_vertices(g, 2, "solid") == tuple(range(m * n))
    for n in (5, 7):
        g = flower_snark(n)
        for order in (1, 2, 3):
            assert forced_vertices(g, order, "resolving") == ()
        for order in (1, 2):
            assert forced_vertices(g, order, "solid") == ()
        assert forced_vertices(g, 3, "solid") == tuple(range(4 * n))
    report(8, "forced-vertex closed forms", started, 60.0)
