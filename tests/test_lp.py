"""Exact LP solver: optima, duality, feasibility validation."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ekrlab import lp
from ekrlab.cli import dispatch
from ekrlab.errors import ContradictionError, DomainError, ResourceLimitError
from ekrlab.families import Family, binomial
from ekrlab.constructions import complete, erdos_extremal, fano, star
from ekrlab.io import serialize_family
from ekrlab.lp import fractional_cover, fractional_matching, fractional_pair, verify_duality

from conftest import random_family_edge_count
from oracles import fraction_packing, fractional_matching_value


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


def test_lp_size_limit():
    with pytest.raises(ResourceLimitError):
        fractional_matching(complete(8, 3), limit=10)


def test_lp_rejects_k0():
    with pytest.raises(DomainError):
        fractional_matching(complete(5, 0))


@st.composite
def small_families(draw):
    k = draw(st.sampled_from([2, 3]))
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


@pytest.mark.parametrize(
    "delta, message", [(1, "duality gap"), (-1, "is not covered")], ids=["gap", "uncovered"]
)
def test_failed_certificate_is_a_contradiction(delta, message, tmp_path, monkeypatch, capsys):
    # one more on a cover numerator leaves a duality gap; one less uncovers an edge
    solve = lp._solve_packing

    def perturbed(edges, n):
        x, y, d = solve(edges, n)
        return x, [y[0] + delta] + y[1:], d

    monkeypatch.setattr(lp, "_solve_packing", perturbed)
    with pytest.raises(ContradictionError, match=message):
        fractional_cover(fano())
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

    def counting(edges, n):
        calls[0] += 1
        return solve(edges, n)

    monkeypatch.setattr(lp, "_solve_packing", counting)
    matching, cover = fractional_pair(erdos_extremal(12, 3, 3, 1))
    assert calls[0] == 1
    assert matching.objective == cover.objective == 2


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
        fractional_pair(fam)
    return calls[0]


def assert_same_as_fraction_tableau(fam):
    edges = fam.edge_tuples()
    x, y, d = lp._solve_packing(edges, fam.n)
    assert d > 0 and all(type(a) is int for a in x + y)
    over_d = [Fraction(a, d) for a in x], [Fraction(a, d) for a in y]
    assert over_d == fraction_packing(edges, fam.n)


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
