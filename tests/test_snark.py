import numpy as np
import pytest

from resolving import (
    GraphError,
    Mode,
    all_pairs_distances,
    check_erroneous_set,
    check_mode,
    distance_array,
    flower_snark,
    gap_statistics,
    recipe_set,
    reduction_distance_check,
    reduction_map,
    snark_suite,
    star_distance,
    verify_flank_table,
    verify_recipe,
    verify_triple_distinguishers,
)
from resolving import snark
from resolving.graphs import DistanceMatrix
from resolving.snark import (
    RECIPE_KINDS,
    ReductionReport,
    ReductionViolation,
    admissible_stars,
    admissible_vertices,
    recipe_check_mode,
    role_of,
    snark_label,
    snark_vertex,
    star_of,
)


# ---------------------------------------------------------------------------
# vertex naming


def test_vertex_naming_round_trip():
    n = 7
    for v in range(4 * n):
        role, i = role_of(v, n), star_of(v, n)
        assert snark_vertex(role, i, n) == v
        assert snark_label(v, n) == f"{role}{i}"
    assert snark_label(0, 7) == "a1"
    assert snark_label(27, 7) == "d7"
    # star indices wrap cyclically
    assert snark_vertex("b", 0, 5) == snark_vertex("b", 5, 5)
    assert snark_vertex("a", 6, 5) == snark_vertex("a", 1, 5)


@pytest.mark.parametrize("role", ["ab", "", "cd", "abcd", "e", "A", None, 0, ["a"]])
def test_snark_vertex_takes_exactly_one_role(role):
    # a substring of "abcd" is not a role
    with pytest.raises(GraphError, match="role"):
        snark_vertex(role, 2, 7)


@pytest.mark.parametrize("v", [28, 40, -1, -28, 1.0, True, "3"])
@pytest.mark.parametrize("name", ["role_of", "star_of", "snark_label"])
def test_role_and_label_take_only_vertices_of_the_snark(name, v):
    # 28 was an IndexError, and -1 read as d7; star_of(28, 7) was 1
    with pytest.raises(GraphError):
        getattr(snark, name)(v, 7)


def test_role_and_label_take_numpy_vertices():
    assert role_of(np.int64(27), 7) == "d"
    assert star_of(np.int64(27), 7) == 7
    assert snark_label(np.uint8(0), 7) == "a1"


def test_snark_functions_reject_bad_n():
    for bad in (4, 6, 3, -5):
        with pytest.raises(GraphError):
            recipe_set("l3", bad)
        with pytest.raises(GraphError):
            gap_statistics((), bad)


# ---------------------------------------------------------------------------
# recipes


@pytest.mark.parametrize("n", [5, 7, 9])
def test_recipe_sizes(n):
    k = (n - 1) // 2
    assert len(recipe_set("l3", n)) == 3 * n
    assert len(recipe_set("solid2", n)) == n + 5
    assert len(recipe_set("solid1", n)) == 6
    assert len(recipe_set("dim1_corrected", n)) == 3
    assert len(recipe_set("dim1_erroneous", n)) == 3
    if n >= 7:
        assert len(recipe_set("l2", n)) == 8
    labels = {snark_label(v, n) for v in recipe_set("solid1", n)}
    assert labels == {"a1", f"a{k+2}", "c1", "d1", f"c{k+1}", f"d{k+1}"}


def test_recipe_l2_needs_seven_stars():
    with pytest.raises(GraphError):
        recipe_set("l2", 5)
    with pytest.raises(GraphError):
        recipe_set("nonsense", 7)


@pytest.mark.parametrize("n", [5, 7, 9])
def test_recipes_pass_their_modes(n):
    for kind in RECIPE_KINDS:
        if kind == "dim1_erroneous":
            continue
        if kind == "l2" and n < 7:
            continue
        assert verify_recipe(kind, n).holds, (kind, n)


def test_recipe_modes():
    assert recipe_check_mode("l3") == Mode.resolving(3)
    assert recipe_check_mode("solid2") == Mode.solid(2)
    assert recipe_check_mode("l2") == Mode.resolving(2)
    assert recipe_check_mode("solid1") == Mode.solid(1)
    assert recipe_check_mode("dim1_corrected") == Mode.resolving(1)
    # the kind is checked as in recipe_set, not a bare KeyError
    with pytest.raises(GraphError, match="unknown recipe kind 'bogus'"):
        recipe_check_mode("bogus")


# ---------------------------------------------------------------------------
# the misprinted three-element set


@pytest.mark.parametrize("n", [5, 7, 9])
def test_erroneous_set_fails_exactly_as_documented(n):
    k = (n - 1) // 2
    report = check_erroneous_set(n)
    assert report.holds
    assert report.erroneous == recipe_set("dim1_erroneous", n)
    assert report.corrected == recipe_set("dim1_corrected", n)
    (u1, w1, arr1), (u2, w2, arr2) = report.collisions
    assert (snark_label(u1, n), snark_label(w1, n)) == ("a1", f"b{n}")
    assert arr1 == (2, 2, k + 1)
    assert (snark_label(u2, n), snark_label(w2, n)) == (f"a{k}", f"b{k+1}")
    assert arr2 == (k + 1, k + 1, 2)
    # and the collisions really are collisions of the checker's arrays
    _, dm = _context(n)
    bad = report.erroneous
    assert distance_array(dm, bad, (u1,)) == distance_array(dm, bad, (w1,))
    assert not check_mode(dm, bad, Mode.resolving(1)).holds
    assert check_mode(dm, report.corrected, Mode.resolving(1)).holds


def _context(n):
    g = flower_snark(n)
    return g, all_pairs_distances(g)


# ---------------------------------------------------------------------------
# star lemmas


@pytest.mark.parametrize("n", [5, 7, 9])
def test_flank_table_every_star(n):
    for i in range(1, n + 1):
        verdict = verify_flank_table(n, i)
        assert verdict.holds, (n, i, verdict.witness)


@pytest.mark.parametrize("n", [5, 7, 9])
def test_triple_distinguishers_every_star(n):
    for i in range(1, n + 1):
        verdict = verify_triple_distinguishers(n, i)
        assert verdict.holds, (n, i, verdict.witness)


def _plain_ints(value):
    if isinstance(value, dict):
        value = tuple(value.values())
    if isinstance(value, tuple):
        return all(_plain_ints(v) for v in value)
    return type(value) is int


def test_flank_table_witness_of_a_corrupted_entry(monkeypatch):
    monkeypatch.setitem(snark._FLANK_TABLE, "c", (2, 2, 1, 2))
    verdict = verify_flank_table(7, 3)
    assert not verdict.holds
    assert verdict.witness == snark.TableMismatch("c", "Y", 1, 0)
    assert type(verdict.witness.got) is int


def test_star_lemma_witnesses_of_a_corrupted_distance(monkeypatch):
    # a5 is brought next to d3: the flank sets no longer look alike from
    # a5, and a5 tells X from Z
    n, i = 7, 3
    g, dm = snark.snark_context(n)
    dist = dm.dist.copy()
    s, x = snark_vertex("a", i + 3, n), snark_vertex("d", i, n)
    dist[s, x] = dist[x, s] = 1
    monkeypatch.setattr(snark, "snark_context", lambda m: (g, DistanceMatrix(dist)))
    verdict = verify_flank_table(n, i)
    assert verdict.witness == ("outside-star", 5, {"B": 3, "X": 3, "Y": 3, "Z": 1})
    assert _plain_ints(verdict.witness[1:])
    verdict = verify_triple_distinguishers(n, i)
    assert verdict.witness == snark.DistinguisherMismatch("XZ", (2, 23), (2, 5, 23))
    assert _plain_ints(verdict.witness.got)


def test_star_lemma_witnesses_of_a_wrong_set(monkeypatch):
    # Z built on b_i instead of the leaf d_i
    flank_sets = snark._flank_sets

    def wrong(n, i):
        sets = flank_sets(n, i)
        sets["Z"] = sets["B"] + (snark_vertex("b", i, n),)
        return sets

    monkeypatch.setattr(snark, "_flank_sets", wrong)
    verdict = verify_flank_table(7, 3)
    assert verdict.witness == snark.TableMismatch("b", "Z", 1, 0)
    assert type(verdict.witness.got) is int
    verdict = verify_triple_distinguishers(7, 3)
    assert verdict.witness == snark.DistinguisherMismatch("XZ", (2, 23), (2, 9, 16, 23))
    assert _plain_ints(verdict.witness.got)


# ---------------------------------------------------------------------------
# gap statistics


def test_gap_statistics_extremes():
    rep = gap_statistics((), 9)
    assert (rep.a_gap, rep.cycle_gap) == (9, 18)
    assert rep.certifies_not_2_solid
    rep = gap_statistics(range(36), 9)
    assert (rep.a_gap, rep.cycle_gap) == (0, 0)
    assert rep.a_ok and rep.cycle_ok


def test_gap_statistics_solid_recipe_within_bounds():
    for n in (5, 7, 9, 11):
        k = (n - 1) // 2
        rep = gap_statistics(recipe_set("solid2", n), n)
        assert (rep.a_bound, rep.cycle_bound) == (k - 1, k)
        assert rep.a_ok and rep.cycle_ok


def test_gap_statistics_sparse_set_certifies():
    n = 9
    rep = gap_statistics((snark_vertex("a", 1, n),), n)
    assert rep.a_gap == 8
    assert rep.certifies_not_2_solid
    # gap counts wrap around the cycle
    two = (snark_vertex("a", 1, n), snark_vertex("a", 3, n))
    assert gap_statistics(two, n).a_gap == 6


# ---------------------------------------------------------------------------
# reduction


def test_reduction_map_shape():
    alpha = reduction_map(9)
    assert (alpha.n, alpha.m, alpha.k, alpha.l) == (9, 7, 4, 3)
    assert sorted(set(alpha.image)) == list(range(28))
    for v in range(36):
        assert role_of(alpha(v), 7) == role_of(v, 9)
    # fold stars 1 and l+1 carry two preimages per role, the rest one
    for w in range(28):
        expected = 2 if star_of(w, 7) in (1, 4) else 1
        assert len(alpha.preimages[w]) == expected
        assert all(alpha(v) == w for v in alpha.preimages[w])
    with pytest.raises(GraphError):
        reduction_map(5)


def test_reduction_map_pinned_examples():
    alpha = reduction_map(7)
    assert alpha(snark_vertex("a", 7, 7)) == snark_vertex("a", 1, 5)
    assert len(alpha.preimages[snark_vertex("b", 1, 5)]) == 2


def test_admissible_bands():
    assert admissible_stars(7) == ()
    assert admissible_stars(9) == (7,)
    assert admissible_stars(21) == (3, 4, 5, 6, 7, 8, 13, 14, 15, 16, 17, 18, 19)
    assert len(admissible_vertices(9)) == 4
    with pytest.raises(GraphError):
        admissible_stars(5)


def test_reduction_distances_hold_everywhere_small():
    verts = admissible_vertices(9)
    report = reduction_distance_check(9, verts)
    assert report.status == "ok"
    assert report.holds
    assert report.checked == len(verts) * (4 * 7 + 8)


def test_reduction_no_admissible_band():
    report = reduction_distance_check(7, ())
    assert report.status == "no-admissible"
    assert report.holds  # vacuous, not a violation


# One distance of J9 or J7 made one too large.  The source is a7 of J9, the
# first admissible vertex, whose image a6 of J7 lies on the J side of the
# fold; the targets are read in index order, two checks for each fold-star
# target (stars 1 and 4 of J7) and one for any other.
@pytest.mark.parametrize("matrix, target, witness, checked", [
    # b2 of J7, whose one preimage is b3 of J9 (4 away): 4 fold-star
    # targets and 4 others precede it
    (7, ("b", 2), ReductionViolation(6, 8, 10, 4, 5), 12),
    # fold-star a4 of J7, near check: its near counterpart is a5 of J9
    (7, ("a", 4), ReductionViolation(6, 3, 4, 2, 3), 6),
    # fold-star a4 of J7, far check: a4 of J9 must be one further than a5
    (9, ("a", 4), ReductionViolation(6, 3, 3, 3, 4), 6),
], ids=["other", "fold-near", "fold-far"])
def test_reduction_reports_a_corrupted_distance(monkeypatch, matrix, target, witness, checked):
    source, image = snark_vertex("a", 7, 9), snark_vertex("a", 6, 7)
    corrupted = {7: (image, snark_vertex(*target, 7)), 9: (source, snark_vertex(*target, 9))}
    context = snark.snark_context

    def snark_context(n):
        g, dm = context(n)
        if n == matrix:
            dist = dm.dist.copy()
            dist[corrupted[n]] += 1
            dm = DistanceMatrix(dist)
        return g, dm

    monkeypatch.setattr(snark, "snark_context", snark_context)
    report = reduction_distance_check(9, (source,))
    assert report == ReductionReport("violation", checked, witness)
    assert not report.holds


def test_reduction_rejects_forbidden_sources():
    with pytest.raises(GraphError):
        reduction_distance_check(9, (snark_vertex("a", 1, 9),))


def test_snark_helpers_reject_vertices_outside_the_graph():
    # J9 has vertices 0..35, J5 0..19; -3 would index from the end
    for bad in (-3, 36, 42):
        with pytest.raises(GraphError, match=f"vertex {bad} "):
            reduction_distance_check(9, (bad,))
    for u, v, bad in ((-1, 3, -1), (0, 99, 99), (20, 0, 20)):
        with pytest.raises(GraphError, match=f"vertex {bad} "):
            star_distance(u, v, 5)
    for members in ((-1, 100, 3), (3, 20)):
        with pytest.raises(GraphError, match="is not in J_5"):
            gap_statistics(members, 5)
    assert gap_statistics((0, 19), 5).a_gap == 4


@pytest.mark.parametrize("bad", [1.9, 2.0, True, np.bool_(False), "3"])
def test_snark_helpers_reject_non_integer_vertices(bad):
    # 1.9 must not become vertex 1, nor True vertex 1, nor "3" vertex 3
    with pytest.raises(GraphError, match="is not in J_"):
        gap_statistics([1, bad], 5)
    with pytest.raises(GraphError, match="is not in J_"):
        star_distance(bad, 2, 5)
    with pytest.raises(GraphError, match="is not in J_"):
        reduction_distance_check(9, (admissible_vertices(9)[0], bad))


def test_snark_helpers_take_numpy_integers():
    v = admissible_vertices(9)[0]
    assert star_distance(np.int64(0), np.int32(7), 5) == star_distance(0, 7, 5)
    assert gap_statistics(np.array([0, 19]), 5) == gap_statistics((0, 19), 5)
    assert reduction_distance_check(9, (np.intp(v),)) == reduction_distance_check(9, (v,))


def test_reduction_sampled_large():
    verts = admissible_vertices(21)
    sample = verts[::7]
    report = reduction_distance_check(21, sample)
    assert report.status == "ok"


# ---------------------------------------------------------------------------
# star distance


def brute_star_distance(g, dm, u, v, n):
    """Minimum star-boundary crossings over all shortest u-v paths, by
    explicit path enumeration."""
    best = [None]

    def walk(w, crossings):
        if w == v:
            if best[0] is None or crossings < best[0]:
                best[0] = crossings
            return
        for p in g.neighbors(w):
            if dm[u, p] == dm[u, w] + 1 and dm[p, v] == dm[w, v] - 1:
                walk(p, crossings + (star_of(p, n) != star_of(w, n)))

    walk(u, 0)
    return best[0]


def test_star_distance_examples():
    assert star_distance(snark_vertex("b", 1, 5), snark_vertex("b", 4, 5), 5) == 2
    assert star_distance(snark_vertex("a", 1, 5), snark_vertex("b", 1, 5), 5) == 0
    assert star_distance(snark_vertex("c", 1, 7), snark_vertex("c", 1, 7), 7) == 0


def test_star_distance_matches_path_enumeration():
    n = 5
    g, dm = _context(n)
    for u in range(4 * n):
        for v in range(4 * n):
            assert star_distance(u, v, n) == brute_star_distance(g, dm, u, v, n)


def test_star_distance_symmetric_sample():
    n = 7
    for u, v in ((0, 17), (3, 26), (10, 24), (5, 5)):
        assert star_distance(u, v, n) == star_distance(v, u, n)


# ---------------------------------------------------------------------------
# suite


def test_suite_small_run_all_pass():
    records = snark_suite([5, 7])
    names5 = [r["check_name"] for r in records if r["n"] == 5]
    assert names5 == [
        "recipe-l3", "recipe-solid2", "recipe-solid1", "recipe-dim1-corrected",
        "erroneous-set", "flank-table", "triple-distinguishers",
        "gap-statistics",
    ]
    names7 = [r["check_name"] for r in records if r["n"] == 7]
    assert "recipe-l2" in names7 and "reduction-distances" in names7
    assert all(r["holds"] for r in records)
    assert all(r["millis"] >= 0 for r in records)
    # the empty n=7 band is annotated, everything else passes silently
    for r in records:
        if r["n"] == 7 and r["check_name"] == "reduction-distances":
            assert r["witness"] == "no-admissible"
        else:
            assert r["witness"] is None


def test_suite_long_adds_dimension_checks():
    records = snark_suite([5], long=True)
    names = {r["check_name"] for r in records}
    assert "dimension-solid-1" in names
    assert "dimension-resolving-2" in names
    assert all(r["holds"] for r in records)


@pytest.mark.parametrize("n", [9, 11])
def test_suite_checks_the_reduction_from_every_admissible_vertex(n, monkeypatch):
    seen = []

    def check(n, s):
        seen.append((n, s))
        return reduction_distance_check(n, s)

    monkeypatch.setattr(snark, "reduction_distance_check", check)
    records = snark_suite([n])
    assert seen == [(n, admissible_vertices(n))]
    (record,) = [r for r in records if r["check_name"] == "reduction-distances"]
    assert record["holds"] and record["witness"] is None
