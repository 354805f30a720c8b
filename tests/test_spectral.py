"""Spectrum values against dense oracles; exact mass identities."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ekrlab.cli import dispatch
from ekrlab.errors import DomainError, ResourceLimitError
from ekrlab.families import Family, binomial, is_intersecting
from ekrlab.constructions import complete, remark_family, star
from ekrlab.io import serialize_family
from ekrlab.spectral import (
    disjoint_pairs,
    eigen_mass_full,
    kneser_spectrum,
    level_masses,
    quadratic_form,
)

from conftest import random_family, random_family_edge_count
from oracles import (
    char_vector,
    eigenspace_masses_dense,
    eigenspace_masses_incidence,
    kneser_adjacency,
    star_span_mass,
)


def dense_spectrum(n, k):
    _, adj = kneser_adjacency(n, k)
    w = np.linalg.eigvalsh(adj)
    out = {}
    for x in w:
        key = round(float(x), 6)
        out[key] = out.get(key, 0) + 1
    return out


def test_kneser_spectrum_petersen():
    spec = kneser_spectrum(5, 2)
    assert [(lam, mult) for _, lam, mult in spec.levels] == [(3, 1), (-2, 4), (1, 5)]
    assert dense_spectrum(5, 2) == {3.0: 1, -2.0: 4, 1.0: 5}


def test_kneser_spectrum_6_3():
    spec = kneser_spectrum(6, 3)
    assert [(lam, mult) for _, lam, mult in spec.levels] == [(1, 1), (-1, 5), (1, 9), (-1, 5)]
    # dense oracle sees the merged eigenvalues
    assert dense_spectrum(6, 3) == {1.0: 10, -1.0: 10}


@pytest.mark.parametrize("n,k", [(5, 2), (6, 3), (7, 3), (9, 4), (10, 3)])
def test_multiplicities_sum(n, k):
    spec = kneser_spectrum(n, k)
    assert sum(mult for _, _, mult in spec.levels) == binomial(n, k)


def test_kneser_spectrum_rejects_k_above_n():
    with pytest.raises(DomainError):
        kneser_spectrum(3, 4)


def test_disjoint_pairs():
    assert quadratic_form(star(7, 3, 1)) == 0
    assert quadratic_form(remark_family()) == 0
    two = Family.from_edges(6, 3, [(1, 2, 3), (4, 5, 6)])
    assert quadratic_form(two) == 2
    assert disjoint_pairs(complete(6, 3)) == 10
    assert quadratic_form(complete(6, 3)) == 20


def test_level_masses_fixtures():
    assert level_masses(complete(7, 3)) == (binomial(7, 3), 0, 0)
    assert level_masses(star(7, 3, 1)) == (Fraction(45, 7), Fraction(60, 7), 0)
    assert level_masses(remark_family()) == (5, 0, 5)


def test_level_masses_rejects_n_equal_k():
    with pytest.raises(DomainError):
        level_masses(complete(3, 3))


@pytest.mark.parametrize("n,k", [(5, 3), (6, 4), (7, 4), (7, 5)])
def test_level_masses_below_n_2k_match_star_span_oracle(n, k):
    rng = random.Random(41 * n + k)
    families = [Family.empty(n, k), complete(n, k)]
    families += [random_family(rng, n, k, density) for density in (0.1, 0.3, 0.5, 0.7, 0.9)]
    for fam in families:
        f0, f1, residual = level_masses(fam)
        e = fam.edge_count
        assert f0 == Fraction(e * e, binomial(n, k))
        assert f1 >= 0 and residual >= 0
        assert f0 + f1 + residual == e
        h = char_vector(n, k, set(fam.edge_tuples()))[None, :]
        assert abs(float(f0 + f1) - star_span_mass(n, k, h)[0]) < 1e-9


def test_eigen_mass_full_fixtures():
    assert eigen_mass_full(remark_family()).masses == (5, 0, 0, 5)
    assert eigen_mass_full(star(7, 3, 1)).masses == (Fraction(45, 7), Fraction(60, 7), 0, 0)
    assert eigen_mass_full(complete(6, 3)).masses == (20, 0, 0, 0)


def test_mass_conservation_and_spectral_identity():
    rng = random.Random(20)
    for n, k in ((7, 3), (9, 4), (8, 2)):
        lams = kneser_spectrum(n, k).eigenvalues()
        for _ in range(30):
            fam = random_family(rng, n, k, rng.choice([0.2, 0.5, 0.8]))
            sm = eigen_mass_full(fam)
            assert sum(sm.masses) == fam.edge_count
            assert sum(l * f for l, f in zip(lams, sm.masses)) == quadratic_form(fam)
            assert all(f >= 0 for f in sm.masses)


def test_exact_masses_match_dense_oracle():
    rng = random.Random(21)
    for n, k in ((7, 3), (5, 2)):
        lams = kneser_spectrum(n, k).eigenvalues()
        for _ in range(20):
            fam = random_family(rng, n, k, 0.5)
            exact = np.array([float(f) for f in eigen_mass_full(fam).masses])
            h = char_vector(n, k, set(fam.edge_tuples()))
            dense = eigenspace_masses_dense(n, k, h[None, :], lams)[0]
            assert np.abs(exact - dense).max() < 1e-9


def test_exact_masses_match_incidence_oracle_at_n_2k():
    rng = random.Random(22)
    for _ in range(20):
        fam = random_family(rng, 6, 3, 0.5)
        exact = np.array([float(f) for f in eigen_mass_full(fam).masses])
        h = char_vector(6, 3, set(fam.edge_tuples()))
        dense = eigenspace_masses_incidence(6, 3, h[None, :])[0]
        assert np.abs(exact - dense).max() < 1e-9


def test_level_masses_match_full_masses():
    rng = random.Random(23)
    for n, k in ((7, 3), (8, 2), (9, 4)):
        for _ in range(10):
            fam = random_family(rng, n, k, 0.4)
            f0, f1, residual = level_masses(fam)
            sm = eigen_mass_full(fam)
            assert sm.masses[0] == f0
            assert sm.masses[1] == f1
            assert sum(sm.masses[2:]) == residual


def test_intersecting_iff_zero_quadratic_form():
    rng = random.Random(24)
    for _ in range(40):
        fam = random_family(rng, 7, 3, 0.3)
        assert (quadratic_form(fam) == 0) == is_intersecting(fam)


def test_eigenvalue_lower_bound_grid():
    # lambda_i >= -C(n-k-3, k-3) for i >= 2 whenever n >= 2k+1
    for k in range(2, 11):
        for n in range(2 * k + 1, 31):
            floor = -binomial(n - k - 3, k - 3)
            for j, lam, _ in kneser_spectrum(n, k).levels:
                if j >= 2:
                    assert lam >= floor


def test_resource_limit():
    with pytest.raises(ResourceLimitError):
        eigen_mass_full(star(9, 4, 1), limit=10)


def test_rejects_n_below_2k():
    with pytest.raises(DomainError):
        eigen_mass_full(Family.from_edges(5, 3, [(1, 2, 3)]))


def check_mass_identities(fam, sm):
    lams = kneser_spectrum(fam.n, fam.k).eigenvalues()
    assert all(f >= 0 for f in sm.masses)
    assert sum(sm.masses) == fam.edge_count
    quad = quadratic_form(fam)
    assert sm.quad_form == quad
    assert sum(l * f for l, f in zip(lams, sm.masses)) == quad
    f0, f1, residual = level_masses(fam)
    assert (sm.masses[0], sm.masses[1], sum(sm.masses[2:])) == (f0, f1, residual)


@pytest.mark.parametrize("n,k", [(5, 1), (9, 1), (6, 2), (7, 2), (8, 4), (9, 3)])
def test_exact_masses_match_oracles(n, k):
    rng = random.Random(31 * n + k)
    lams = kneser_spectrum(n, k).eigenvalues()
    families = [Family.empty(n, k), complete(n, k)]
    families += [random_family(rng, n, k, density) for density in (0.1, 0.5, 0.9)]
    for fam in families:
        exact = np.array([float(f) for f in eigen_mass_full(fam).masses])
        h = char_vector(n, k, set(fam.edge_tuples()))[None, :]
        if len(set(lams)) == len(lams):
            dense = eigenspace_masses_dense(n, k, h, lams)[0]
        else:
            dense = eigenspace_masses_incidence(n, k, h)[0]
        assert np.abs(exact - dense).max() < 1e-9


def test_empty_and_complete_masses():
    for n, k in ((5, 1), (8, 4), (9, 3)):
        assert eigen_mass_full(Family.empty(n, k)).masses == (0,) * (k + 1)
        total = binomial(n, k)
        full = eigen_mass_full(complete(n, k))
        assert full.masses == (total,) + (0,) * k
        assert full.quad_form == total * binomial(n - k, k)


@st.composite
def small_families(draw):
    n, k = draw(st.sampled_from([(2, 1), (5, 1), (4, 2), (6, 2), (7, 3), (6, 3), (8, 3), (8, 4)]))
    bits = draw(st.integers(min_value=0, max_value=(1 << binomial(n, k)) - 1))
    return Family.from_ranks(n, k, bits)


@settings(max_examples=80, deadline=None)
@given(small_families())
def test_mass_identities_property(fam):
    check_mass_identities(fam, eigen_mass_full(fam))


def test_masses_at_24_6():
    fam = random_family_edge_count(random.Random(573), 24, 6, 573)
    assert fam.edge_count == 573
    check_mass_identities(fam, eigen_mass_full(fam))


def test_subset_update_limit(tmp_path, monkeypatch, capsys):
    fam = star(7, 3, 1)  # 15 edges: 15 * 2^3 = 120 subset-degree updates
    assert eigen_mass_full(fam, limit=120).masses == (Fraction(45, 7), Fraction(60, 7), 0, 0)
    with pytest.raises(ResourceLimitError):
        eigen_mass_full(fam, limit=119)
    path = tmp_path / "star.json"
    path.write_bytes(serialize_family(fam))
    monkeypatch.setenv("EKRLAB_LIMIT", "119")
    assert dispatch(["spectrum", str(path), "--full"]) == 3
    monkeypatch.setenv("EKRLAB_LIMIT", "120")
    assert dispatch(["spectrum", str(path), "--full"]) == 0
    capsys.readouterr()
