"""Exact LP solver: optima, duality, feasibility validation."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from ekrlab import limits, lp
from ekrlab.cli import dispatch
from ekrlab.errors import ContradictionError, DomainError, ResourceLimitError
from ekrlab.families import Family, _star_table, binomial, degree, is_intersecting
from ekrlab.constructions import complete, erdos_extremal, fano, star
from ekrlab.io import serialize_family
from ekrlab.lp import fractional_cover, fractional_matching, fractional_pair, verify_duality
from ekrlab.matching import threshold_report
from ekrlab.search import maximal_intersecting

from conftest import random_family_edge_count
from oracles import dense_packing, fraction_packing, fractional_matching_value


def test_fano_sandwich():
    # weight 1/3 on every edge is feasible (each vertex has degree 3),
    # and 1/3 on every vertex is a feasible cover: nu* = tau* = 7/3 exactly.
    f = fano()
    nu = fractional_matching(f)
    tau = fractional_cover(f)
    assert nu.objective == Fraction(7, 3) == tau.objective
    assert all(w == Fraction(1, 3) for w in nu.weights.values())


def test_star_optima():
    s = star(7, 3, 1)
    assert fractional_matching(s).objective == 1
    cover = fractional_cover(s)
    assert cover.objective == 1
    assert cover.weights[1] == 1
    assert all(w == 0 for v, w in cover.weights.items() if v != 1)


def test_empty_family():
    empty = Family.empty(6, 3)
    assert fractional_matching(empty).objective == 0
    assert fractional_cover(empty).objective == 0


def test_erdos_extremal_12_3_3():
    fam = erdos_extremal(12, 3, 3, 1)
    assert fractional_matching(fam).objective == 2
    assert fractional_cover(fam).objective == 2


def test_perfect_fractional_matching_complete():
    assert fractional_matching(complete(6, 3)).objective == 2
    assert fractional_matching(complete(6, 2)).objective == 3


def test_duality_random_families():
    rng = random.Random(40)
    for _ in range(40):
        n = rng.randrange(4, 13)
        k = rng.choice([2, 3])
        if k > n:
            continue
        fam = random_family_edge_count(rng, n, k, rng.randrange(0, 30))
        assert verify_duality(fam)


def test_matching_weights_within_loads():
    rng = random.Random(41)
    for _ in range(20):
        fam = random_family_edge_count(rng, 9, 3, 20)
        sol = fractional_matching(fam)
        assert sol.objective == sum(sol.weights.values())
        load = {}
        for rank, edge in zip(fam.edge_ranks(), fam.edge_tuples()):
            for v in edge:
                load[v] = load.get(v, Fraction(0)) + sol.weights[rank]
        assert all(x <= 1 for x in load.values())


def test_cover_feasible():
    rng = random.Random(42)
    for _ in range(20):
        fam = random_family_edge_count(rng, 9, 3, 20)
        sol = fractional_cover(fam)
        assert sol.objective == sum(sol.weights.values())
        for edge in fam.edge_tuples():
            assert sum(sol.weights[v] for v in edge) >= 1


def test_lp_size_limit(monkeypatch):
    solved = complete(8, 3)
    assert fractional_matching(solved).objective == Fraction(8, 3)
    monkeypatch.setattr(limits, "LP_EDGE_LIMIT", 10)
    with pytest.raises(ResourceLimitError, match="^56 edges exceed LP_EDGE_LIMIT = 10$"):
        fractional_matching(complete(8, 3))
    # the gate runs on every call, also on a family whose solve is kept
    for program in (fractional_matching, fractional_cover, fractional_pair, verify_duality):
        with pytest.raises(ResourceLimitError, match="^56 edges exceed LP_EDGE_LIMIT = 10$"):
            program(solved)


def test_lp_rejects_k0():
    with pytest.raises(DomainError):
        fractional_matching(complete(5, 0))


@st.composite
def small_families(draw):
    k = draw(st.sampled_from([1, 2, 3, 4]))
    n = draw(st.integers(min_value=k, max_value=10))
    ranks = draw(st.sets(st.integers(min_value=0, max_value=binomial(n, k) - 1), max_size=25))
    return Family.from_ranks(n, k, sum(1 << r for r in ranks))


@settings(max_examples=60, deadline=None)
@given(small_families())
def test_lp_pair_property(fam):
    pytest.importorskip("scipy")
    nu = fractional_matching(fam)
    tau = fractional_cover(fam)
    load = {v: Fraction(0) for v in range(1, fam.n + 1)}
    for rank, edge in zip(fam.edge_ranks(), fam.edge_tuples()):
        assert 0 <= nu.weights[rank] <= 1
        assert sum(tau.weights[v] for v in edge) >= 1
        for v in edge:
            load[v] += nu.weights[rank]
    assert all(x <= 1 for x in load.values())
    assert all(0 <= w <= 1 for w in tau.weights.values())
    assert nu.objective == tau.objective
    assert abs(float(nu.objective) - fractional_matching_value(fam.n, fam.edge_tuples())) < 1e-9


@pytest.mark.parametrize("perturb, message", [
    (lambda x, y, d: (x, {**y, 1: y[1] + 1}), "duality gap"),
    (lambda x, y, d: (x, {**y, 1: y[1] - 1}), "is not covered"),
    (lambda x, y, d: ([d + 1, *x[1:]], y), r"^matching weight 25/24 outside \[0, 1\]$"),
    (lambda x, y, d: ([x[0] + 1, *x[1:]], y), "^fractional matching overloads a vertex$"),
    (lambda x, y, d: (x, {**y, 1: d + 1}), r"^cover weight 25/24 at vertex 1 outside \[0, 1\]$"),
], ids=["gap", "uncovered", "matching-weight", "overload", "cover-weight"])
def test_failed_certificate_is_a_contradiction(perturb, message, tmp_path, monkeypatch, capsys):
    # on Fano every numerator is 8 over d = 24, and every vertex load is d:
    # one more on a cover numerator leaves a duality gap, one less uncovers an
    # edge; one more on a matching numerator overloads its vertices, and a
    # numerator of d + 1 is a weight above 1
    # a failed solve is not kept: each call on the same family solves again
    solve, calls = lp._solve_packing, [0]

    def perturbed(edges):
        calls[0] += 1
        x, y, d = solve(edges)
        return (*perturb(x, y, d), d)

    monkeypatch.setattr(lp, "_solve_packing", perturbed)
    fam = fano()
    for _ in range(2):
        with pytest.raises(ContradictionError, match=message):
            fractional_cover(fam)
    assert calls[0] == 2
    path = tmp_path / "fano.json"
    path.write_bytes(serialize_family(fano()))
    assert dispatch(["matching", str(path), "--cover"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("contradiction:") and "Traceback" not in err


def test_fractional_pair_equals_separate_calls():
    rng = random.Random(404)
    for _ in range(20):
        n, k = rng.choice([(7, 2), (8, 3), (9, 3), (10, 4)])
        fam = random_family_edge_count(rng, n, k, rng.randrange(0, 20))
        assert fractional_pair(fam) == (fractional_matching(fam), fractional_cover(fam))


def test_fractional_pair_solves_once(monkeypatch):
    calls = [0]
    solve = lp._solve_packing

    def counting(edges):
        calls[0] += 1
        return solve(edges)

    monkeypatch.setattr(lp, "_solve_packing", counting)
    fam = erdos_extremal(12, 3, 3, 1)
    matching, cover = fractional_pair(fam)
    assert calls[0] == 1
    assert matching.objective == cover.objective == 2
    # every LP entry point reads the family's one kept solve
    fractional_matching(fam)
    fractional_cover(fam)
    assert verify_duality(fam)
    assert threshold_report(fam, 3).nu_star == 2
    assert calls[0] == 1
    # the solve is kept per instance, not per value: an equal family solves again
    twin = Family.from_ranks(fam.n, fam.k, fam.edges)
    assert twin == fam and hash(twin) == hash(fam)
    assert fractional_pair(twin) == fractional_pair(fam)
    assert calls[0] == 2


def test_mutating_returned_weights_changes_no_later_result():
    fam = erdos_extremal(12, 3, 3, 1)
    matching, cover = fractional_pair(fam)
    expected = fractional_pair(Family.from_ranks(fam.n, fam.k, fam.edges))
    assert (matching, cover) == expected
    for solution in (matching, cover):
        for key in solution.weights:
            solution.weights[key] = Fraction(7)
        solution.weights[0] = Fraction(1)
    assert fractional_pair(fam) == expected


@pytest.fixture(scope="module")
def criterion7_sample():
    """The 200 seeded families of acceptance criterion 7 (seed 777)."""
    rng = random.Random(777)
    sample = []
    while len(sample) < 200:
        n = rng.randrange(4, 13)
        k = rng.choice([2, 3])
        sample.append(random_family_edge_count(rng, n, k, rng.randrange(0, 41)))
    return sample


# (family, pivots by Bland's rule from the all-slack basis)
PINNED_LPS = {
    "fano": (fano, 7),
    "erdos_extremal(12,3,3,1)": (lambda: erdos_extremal(12, 3, 3, 1), 14),
    "complete(10,3)": (lambda: complete(10, 3), 67),
    "complete(9,4)": (lambda: complete(9, 4), 74),
}


def count_pivots(monkeypatch, families):
    calls = [0]
    pivot = lp._pivot

    def counting(*args):
        calls[0] += 1
        pivot(*args)

    monkeypatch.setattr(lp, "_pivot", counting)
    for fam in families:
        # a copy, so that no solve kept on ``fam`` by an earlier test is read
        fractional_pair(Family.from_ranks(fam.n, fam.k, fam.edges))
    return calls[0]


def on_support(edges, y):
    """An oracle's y over [n] as (vertex, y) pairs on the support, ascending,
    after checking that it is 0 at every vertex on no edge."""
    support = {v for edge in edges for v in edge}
    assert all(w == 0 for v, w in enumerate(y, start=1) if v not in support)
    return [(v, y[v - 1]) for v in sorted(support)]


def assert_same_as_fraction_tableau(fam):
    edges = fam.edge_tuples()
    x, y, d = lp._solve_packing(edges)
    assert d > 0 and all(type(a) is int for a in [*x, *y.values()])
    fx, fy = fraction_packing(edges, fam.n)
    assert [Fraction(a, d) for a in x] == fx
    assert [(v, Fraction(a, d)) for v, a in y.items()] == on_support(edges, fy)


@pytest.mark.parametrize("name", PINNED_LPS)
def test_pinned_pivot_counts(name, monkeypatch):
    build, pivots = PINNED_LPS[name]
    assert count_pivots(monkeypatch, [build()]) == pivots


def test_criterion7_sample_pivot_count(criterion7_sample, monkeypatch):
    assert count_pivots(monkeypatch, criterion7_sample) == 2807


@pytest.mark.parametrize("name", PINNED_LPS)
def test_integer_tableau_matches_fraction_tableau(name):
    assert_same_as_fraction_tableau(PINNED_LPS[name][0]())


def test_integer_tableau_matches_fraction_tableau_criterion7(criterion7_sample):
    for fam in criterion7_sample:
        assert_same_as_fraction_tableau(fam)


@settings(max_examples=60, deadline=None)
@given(small_families())
def test_integer_tableau_matches_fraction_tableau_property(fam):
    assert_same_as_fraction_tableau(fam)


def assert_same_triple_as_dense_tableau(fam):
    # the slack-column solve must reproduce the full tableau's numerators
    # and denominator exactly, not only the same values over d: x in edge
    # order, y on the support (the dense y is 0 off it)
    edges = fam.edge_tuples()
    x, y, d = lp._solve_packing(edges)
    dense_x, dense_y, dense_d = dense_packing(edges, fam.n)
    assert (x, list(y.items()), d) == (dense_x, on_support(edges, dense_y), dense_d)


@pytest.mark.parametrize("name", PINNED_LPS)
def test_slack_columns_match_dense_tableau(name):
    assert_same_triple_as_dense_tableau(PINNED_LPS[name][0]())


def test_slack_columns_match_dense_tableau_criterion7(criterion7_sample):
    for fam in criterion7_sample:
        assert_same_triple_as_dense_tableau(fam)


@settings(max_examples=100, deadline=None)
@given(small_families())
def test_slack_columns_match_dense_tableau_property(fam):
    assert_same_triple_as_dense_tableau(fam)


def test_single_vertex_edges():
    # k = 1: each edge column is one slack column
    fam = Family.from_edges(5, 1, [(2,), (4,), (5,)])
    assert_same_triple_as_dense_tableau(fam)
    matching, cover = fractional_pair(fam)
    assert matching.objective == cover.objective == 3
    assert cover.weights == {2: 1, 4: 1, 5: 1}



def test_vertices_on_no_edge_change_no_pivot(monkeypatch):
    # the solve runs on the support only: the oracle's full tableau pivots
    # the same way, keeps every isolated slack basic and gives it y = 0
    pivots = {"lp": 0, "dense": 0}

    def counted(key, pivot):
        def run(*args):
            pivots[key] += 1
            pivot(*args)
        return run

    monkeypatch.setattr(lp, "_pivot", counted("lp", lp._pivot))
    monkeypatch.setattr(oracles, "_dense_pivot", counted("dense", oracles._dense_pivot))
    rng = random.Random(2410)
    for _ in range(300):
        n = rng.randrange(1, 15)
        k = rng.randrange(1, min(n, 4) + 1)
        support = sorted(rng.sample(range(1, n + 1), rng.randrange(k, n + 1)))
        pool = list(combinations(support, k))
        fam = Family.from_edges(n, k, rng.sample(pool, min(len(pool), rng.randrange(31))))
        assert_same_triple_as_dense_tableau(fam)
        assert pivots["lp"] == pivots["dense"]


def test_maximal_intersecting_families_at_7_3_meet_furedis_bound():
    # Furedi (Combinatorica 1981): an intersecting k-family has
    # nu* <= k - 1 + 1/k, with equality only on projective planes; at (7,3)
    # exactly the 30 labelled Fano planes reach 7/3
    counts, planes = Counter(), []
    for fam in maximal_intersecting(7, 3):
        value = fractional_matching(fam).objective
        counts[value] += 1
        if value == Fraction(7, 3):
            planes.append(fam)
    assert counts == {1: 7, Fraction(3, 2): 35, Fraction(5, 3): 161, Fraction(7, 4): 210,
                      Fraction(9, 5): 630, 2: 5054, Fraction(7, 3): 30}
    assert all(fam.edge_count == 7 and all(degree(fam, pair) == 1
                                           for pair in combinations(range(1, 8), 2))
               for fam in planes)


@st.composite
def intersecting_families(draw):
    """Greedy intersecting families, k = 2..4, n <= 10: the k-sets in a drawn
    order, each kept if it meets every kept one, up to a drawn size."""
    k = draw(st.integers(min_value=2, max_value=4))
    n = draw(st.integers(min_value=k + 1, max_value=10))
    order = draw(st.permutations(list(combinations(range(1, n + 1), k))))
    size, kept = draw(st.integers(min_value=2, max_value=len(order))), []
    for edge in order:
        if len(kept) < size and all(set(edge) & set(other) for other in kept):
            kept.append(edge)
    return Family.from_edges(n, k, kept)


@settings(max_examples=80, deadline=None)
@given(intersecting_families())
def test_random_intersecting_families_meet_furedis_bound(fam):
    # within the star rule the intersecting check reads the hub's stars and
    # transposes nothing
    assume(_star_table(fam) is not None)
    assert is_intersecting(fam) and "through" not in vars(fam)
    k = fam.k
    assert fractional_matching(fam).objective <= k - 1 + Fraction(1, k)
