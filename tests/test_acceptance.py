"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  All comparisons are exact unless a criterion states a
floating tolerance for its oracle.
"""

import random
import time
from fractions import Fraction

import numpy as np
import pytest

from ekrlab.certificates import simplex_min_index, simplex_witness
from ekrlab.cli import dispatch
from ekrlab.families import Family, binomial, is_intersecting, min_degree, vertex_degrees
from ekrlab.constructions import erdos_extremal, fano, remark_family, star
from ekrlab.lp import fractional_matching, verify_duality
from ekrlab.matching import corollary33_check, find_matching_by_degree, matching_number
from ekrlab.search import cross_pair_scan, ekr_degree_scan
from ekrlab.spectral import eigen_mass_full, kneser_spectrum, level_masses, quadratic_form

from conftest import random_family, random_family_edge_count, random_family_min_degree, random_sum_zero
from oracles import char_vector, eigenspace_masses_dense, float_simplex_min


def report(number: int, elapsed: float, detail: str) -> None:
    print(f"ACCEPTANCE {number:2d} [PASS] {detail} ({elapsed:.1f}s)")


@pytest.fixture(scope="module")
def mass_sample():
    """500 seeded random families split across (7,3) and (9,4)."""
    rng = random.Random(2024)
    sample = []
    for i in range(500):
        n, k = (7, 3) if i % 2 == 0 else (9, 4)
        sample.append(random_family(rng, n, k, rng.choice([0.2, 0.5, 0.8])))
    return sample


def test_criterion_1_exhaustive_degree_dichotomy_7_3():
    start = time.time()
    rep = ekr_degree_scan(7, 3)
    assert rep.best["max_delta1"] == 5 == binomial(5, 1)
    assert rep.best["num_at_max"] == 7
    assert rep.best["stars_seen"] == 7
    assert rep.best["all_at_max_are_stars"]
    assert rep.best["nonstar_max_delta1"] <= 4
    assert not rep.violations
    assert dispatch(["scan", "ekr", "--n", "7", "--k", "3", "--out", "/dev/null"]) == 0
    elapsed = time.time() - start
    assert elapsed < 60
    report(1, elapsed, f"{rep.families_examined} maximal families; "
                       "max delta_1 = 5 attained exactly by the 7 stars")


def test_criterion_2_remark_sharpness():
    start = time.time()
    fam = remark_family()
    assert is_intersecting(fam)
    degrees = vertex_degrees(fam)
    assert degrees == [5] * 6
    assert all(d > binomial(4, 1) == 4 for d in degrees)
    assert max(degrees) < fam.edge_count  # no common vertex: not a star
    nu, _ = matching_number(fam)
    assert nu == 1
    elapsed = time.time() - start
    assert elapsed < 1
    report(2, elapsed, "remark family: intersecting, 5-regular > 4, not a star, nu = 1")


def test_criterion_3_star_spectral_equalities():
    start = time.time()
    fam = star(7, 3, 1)
    masses = eigen_mass_full(fam).masses
    assert masses == (Fraction(45, 7), Fraction(60, 7), 0, 0)
    witness = simplex_witness(fam)
    assert witness.lhs == Fraction(-10, 7)
    assert witness.rhs_squared == Fraction(100, 49)  # rhs = -10/7 exactly
    assert witness.holds and witness.equality
    elapsed = time.time() - start
    assert elapsed < 1
    report(3, elapsed, "star(7,3,1): masses (45/7, 60/7, 0, 0); witness equality at -10/7")


def test_criterion_4_mass_identities_and_float_oracle(mass_sample):
    start = time.time()
    exact_by_shape: dict[tuple, list] = {(7, 3): [], (9, 4): []}
    for fam in mass_sample:
        shape = (fam.n, fam.k)
        sm = eigen_mass_full(fam)
        lams = kneser_spectrum(*shape).eigenvalues()
        assert sum(sm.masses) == fam.edge_count
        assert sum(l * f for l, f in zip(lams, sm.masses)) == quadratic_form(fam)
        exact_by_shape[shape].append((fam, sm.masses))
    worst = 0.0
    for (n, k), items in exact_by_shape.items():
        lams = kneser_spectrum(n, k).eigenvalues()
        vectors = np.array([char_vector(n, k, set(f.edge_tuples())) for f, _ in items])
        dense = eigenspace_masses_dense(n, k, vectors, lams)
        exact = np.array([[float(x) for x in masses] for _, masses in items])
        worst = max(worst, float(np.abs(dense - exact).max()))
    assert worst < 1e-9
    elapsed = time.time() - start
    assert elapsed < 120
    report(4, elapsed, f"500 families: exact mass/quadratic identities; "
                       f"dense-oracle deviation {worst:.1e} < 1e-9")


def test_criterion_5_simplex_lemma_property():
    start = time.time()
    rng = random.Random(99)
    compared = 0
    for n in range(3, 13):
        for _ in range(1000):
            v = random_sum_zero(rng, n)
            w = simplex_min_index(v)
            assert w.holds
            # the float QR frame gives <v, u_i> = v_i sqrt(n/(n-1))
            idx, value = float_simplex_min(v)
            assert value == pytest.approx(float(w.lhs) * (n / (n - 1)) ** 0.5, abs=1e-9)
            if v.count(w.lhs) == 1:
                assert idx == w.vertex
                compared += 1
    elapsed = time.time() - start
    assert elapsed < 10
    report(5, elapsed, "exact lemma held for 1000 random integer sum-zero vectors at every "
                       f"n in 3..12; float QR oracle agrees (index on {compared} unique minima)")


def test_criterion_6_generalized_witness_inequality(mass_sample):
    start = time.time()
    violations = 0
    for fam in mass_sample:
        n, k = fam.n, fam.k
        witness = simplex_witness(fam)
        violations += not witness.holds
        shift = Fraction(k * fam.edge_count, n)
        assert witness == simplex_min_index([d - shift for d in vertex_degrees(fam)])
        _, f1, _ = level_masses(fam)
        scale = Fraction(binomial(n, k) * k * (n - k), n * n * (n - 1) * (n - 1))
        assert witness.rhs_squared == scale * f1
    assert violations == 0
    elapsed = time.time() - start
    report(6, elapsed, "witness inequality exact on all 500 families, equal to the simplex "
                       "lemma on deg - ke/n with rhs^2 the scaled F_1; zero violations")


def test_criterion_7_strong_duality():
    start = time.time()
    rng = random.Random(777)
    checked = 0
    while checked < 200:
        n = rng.randrange(4, 13)
        k = rng.choice([2, 3])
        if k > n:
            continue
        fam = random_family_edge_count(rng, n, k, rng.randrange(0, 41))
        assert verify_duality(fam)
        checked += 1
    assert fractional_matching(fano()).objective == Fraction(7, 3)
    elapsed = time.time() - start
    assert elapsed < 120
    report(7, elapsed, "nu* = tau* exactly on 200 seeded families; fano nu* = 7/3")


@pytest.mark.parametrize("n,k,s", [(9, 2, 3), (12, 3, 3), (8, 3, 2)])
def test_criterion_8_extremal_construction_metrics(n, k, s):
    start = time.time()
    fam = erdos_extremal(n, k, s, 1)
    assert min_degree(fam, 1) == binomial(n - 1, k - 1) - binomial(n - s, k - 1)
    nu, _ = matching_number(fam)
    assert nu == s - 1
    assert fractional_matching(fam).objective == s - 1
    elapsed = time.time() - start
    report(8, elapsed, f"H^1({n},{k},{s}): delta_1 formula, nu = nu* = {s - 1} exact")


def test_criterion_9_constructive_matching_algorithm():
    start = time.time()
    rng = random.Random(31337)
    for run in range(50):
        fam = random_family_min_degree(rng, 37, 2, 3)
        matching, _ = find_matching_by_degree(fam, 3)
        assert len(matching) == 3
        used = set()
        for e in matching.edges:
            assert fam.has_edge(e) and not used.intersection(e)
            used.update(e)
        nu, _ = matching_number(fam, at_least=3)
        assert nu >= 3  # exact-oracle cross-validation
    for run in range(10):
        fam = random_family_min_degree(rng, 54, 3, 53)
        matching, _ = find_matching_by_degree(fam, 2)
        assert len(matching) == 2
        used = set()
        for e in matching.edges:
            assert fam.has_edge(e) and not used.intersection(e)
            used.update(e)
    elapsed = time.time() - start
    assert elapsed < 300
    report(9, elapsed, "constructive matchings valid on 50 runs at (37,2,s=3) "
                       "and 10 at (54,3,s=2)")


def test_criterion_10_corollary_lp_bound():
    start = time.time()
    rng = random.Random(4242)
    produced = 0
    while produced < 50:
        fam = random_family_min_degree(rng, 7, 3, 6)
        assert min_degree(fam, 1) > 5
        assert corollary33_check(fam, 2)
        produced += 1
    elapsed = time.time() - start
    report(10, elapsed, "50 seeded families at (7,3) with delta_1 > 5 all have nu* >= 2")


def test_criterion_11_cross_pair_scan_7_3():
    start = time.time()
    rep = cross_pair_scan(7, 3)
    assert not rep.violations
    assert rep.best["max_product"] == 25 == binomial(5, 1) ** 2
    assert rep.best["maximizers_all_same_center_stars"]
    assert rep.best["bound"] == 25
    elapsed = time.time() - start
    assert elapsed < 300
    report(11, elapsed, f"{rep.notes['ordered_pairs_cross']} cross-intersecting ordered "
                        "pairs: products <= 25, max by same-center star pairs")
