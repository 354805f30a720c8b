"""Spectrum values against dense oracles; exact mass identities."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ekrlab import limits, spectral
from ekrlab.cli import dispatch
from ekrlab.errors import ContradictionError, DomainError
from ekrlab.families import Family, binomial, is_intersecting
from ekrlab.constructions import complete, remark_family, star
from ekrlab.io import serialize_family
from ekrlab.spectral import (
    SpectralMass,
    _packed_degree_sums,
    _subset_degree_sums,
    disjoint_pairs,
    eigen_mass_full,
    kneser_spectrum,
    level_masses,
    quadratic_form,
)

from conftest import count_decodes, count_transpositions, random_family, random_family_edge_count
from oracles import (
    char_vector,
    eigenspace_masses_dense,
    eigenspace_masses_incidence,
    inner_distribution_by_pairs,
    kneser_adjacency,
    star_span_mass,
    subset_degree_sums_by_submasks,
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
    n, k = draw(st.sampled_from([
        (2, 1), (5, 1), (4, 2), (6, 2), (7, 3), (6, 3), (8, 3), (8, 4), (10, 5), (11, 5), (12, 6),
    ]))
    bits = draw(st.integers(min_value=0, max_value=(1 << binomial(n, k)) - 1))
    return Family.from_ranks(n, k, bits)


@settings(max_examples=80, deadline=None)
@given(small_families())
def test_mass_identities_property(fam):
    check_mass_identities(fam, eigen_mass_full(fam))


# k = 1..7; (40,4) and (60,3) are sparse, so most subsets there have degree 1
WALK_SHAPES = [(3, 1), (9, 1), (6, 2), (8, 3), (9, 4), (12, 5), (13, 6), (14, 7), (40, 4), (60, 3)]


@st.composite
def walk_families(draw):
    n, k = draw(st.sampled_from(WALK_SHAPES))
    total = binomial(n, k)
    if total <= binomial(14, 7) and draw(st.booleans()):
        bits = draw(st.integers(min_value=0, max_value=(1 << total) - 1))  # about half the k-sets
    else:
        ranks = draw(st.sets(st.integers(min_value=0, max_value=total - 1), max_size=12))
        bits = sum(1 << r for r in ranks)
    return Family.from_ranks(n, k, bits)


@settings(max_examples=120, deadline=None)
@given(walk_families())
@example(Family.empty(40, 4))
@example(Family.from_ranks(14, 7, 1))
@example(Family.from_ranks(40, 4, 1 << binomial(40, 4) - 1))
@example(complete(9, 1))
@example(complete(12, 5))
@example(complete(14, 7))
def test_subset_walk_matches_submask_expansion(fam):
    assert _subset_degree_sums(fam) == subset_degree_sums_by_submasks(fam)


def test_eigen_mass_full_transposes_and_decodes_once(monkeypatch):
    transposed, decoded = count_transpositions(monkeypatch), count_decodes(monkeypatch)
    fam = random_family_edge_count(random.Random(18), 18, 5, 300)
    first = eigen_mass_full(fam)
    assert len(transposed) == len(decoded) == 1
    assert transposed[0] is fam and decoded[0] is fam
    assert eigen_mass_full(fam) == first
    assert len(transposed) == len(decoded) == 1


# k = 2..17 across the field widths w = (k-1).bit_length() = 1..5; n = 2k at
# (10,5), and few edges at k >= 16, where the walk's subsets grow as 2^|E & F|
PACKED_SHAPES = [(4, 2), (9, 2), (6, 3), (12, 4), (10, 5), (14, 5), (16, 8), (18, 9),
                 (30, 8), (20, 16), (20, 17)]


@st.composite
def packed_families(draw):
    n, k = draw(st.sampled_from(PACKED_SHAPES))
    total = binomial(n, k)
    if total <= 252 and draw(st.booleans()):
        bits = draw(st.integers(min_value=0, max_value=(1 << total) - 1))
    else:
        size = 4 if k >= 16 else 16
        ranks = draw(st.sets(st.integers(min_value=0, max_value=total - 1), max_size=size))
        bits = sum(1 << r for r in ranks)
    return Family.from_ranks(n, k, bits)


def _with_examples(test):
    """At k = 2, 3, 4, 5, 8, 9, 16, 17 the field width w = (k-1).bit_length()
    steps or x = k - 1 fills its field: e = 0, 1, 2 at ranks 0 and 1, whose
    edges share k - 1 vertices; then n = 2k and two complete families."""
    boundaries = [Family.from_ranks(20, k, bits) for k in (2, 3, 4, 5, 8, 9, 16, 17)
                  for bits in (0, 1, 3)]
    for fam in (*boundaries, complete(10, 5), complete(12, 5), complete(14, 7)):
        test = example(fam)(test)
    return test


@settings(max_examples=120, deadline=None)
@given(packed_families())
@_with_examples
def test_packed_pairs_match_pair_oracle_and_walk(fam):
    sums = _packed_degree_sums(fam)
    assert sums == inner_distribution_by_pairs(fam)
    assert sums == _subset_degree_sums(fam)


def test_packed_pairs_take_fields_of_five_to_seven_bits(monkeypatch):
    # k = 31..65 needs w = 5..7 bits per field, w = 6 and 7 past int()'s digit
    # bases; the family gate raised, a sparse family at n = 2k gets its masses
    monkeypatch.setattr(limits, "FAMILY_KSET_LIMIT", 1 << 200)
    rng = random.Random(33)
    for k in (31, 32, 33, 40, 65):
        ranks = rng.sample(range(binomial(k + 3, k)), 9)  # edges inside [k + 3]
        fam = Family.from_ranks(2 * k, k, sum(1 << r for r in ranks))
        assert _packed_degree_sums(fam) == inner_distribution_by_pairs(fam)
        check_mass_identities(fam, eigen_mass_full(fam))


def _count_paths(monkeypatch) -> dict[str, int]:
    calls = {"walk": 0, "packed": 0}
    for name, key in (("_subset_degree_sums", "walk"), ("_packed_degree_sums", "packed")):
        def counted(family, original=getattr(spectral, name), key=key):
            calls[key] += 1
            return original(family)
        monkeypatch.setattr(spectral, name, counted)
    return calls


# The crossover table of spectral._PACKED_RATIO: bound / (e k) <= 2 walks
@pytest.mark.parametrize("n, k, e, path", [
    (18, 5, 1500, "walk"), (13, 5, 445, "walk"), (14, 5, 400, "walk"), (18, 5, 800, "walk"),
    (18, 6, 1500, "walk"), (40, 4, 400, "walk"), (14, 5, 715, "walk"),
    (16, 6, 300, "packed"), (60, 4, 100, "packed"), (15, 7, 300, "packed"),
    (20, 6, 250, "packed"), (30, 8, 400, "packed"), (24, 12, 250, "packed"),
])
def test_cost_rule_picks_the_path(monkeypatch, n, k, e, path):
    fam = random_family_edge_count(random.Random(n * k + e), n, k, e)
    calls = _count_paths(monkeypatch)
    eigen_mass_full(fam)
    assert calls == {"walk": path == "walk", "packed": path == "packed"}


def test_eigen_mass_full_packed_decodes_once_and_never_transposes(monkeypatch):
    transposed, decoded = count_transpositions(monkeypatch), count_decodes(monkeypatch)
    fam = random_family_edge_count(random.Random(16), 16, 6, 300)
    first = eigen_mass_full(fam)
    assert transposed == [] and decoded == [fam]
    assert eigen_mass_full(fam) == first
    assert transposed == [] and decoded == [fam]


def test_masses_at_24_6():
    fam = random_family_edge_count(random.Random(573), 24, 6, 573)
    assert fam.edge_count == 573
    check_mass_identities(fam, eigen_mass_full(fam))


# e * 2^k of 8.2M and 2.5M: the masses need no gate beyond the family's own
@pytest.mark.parametrize("n, k, e", [(24, 12, 2000), (26, 13, 300)])
def test_masses_of_large_k_families(n, k, e):
    fam = random_family_edge_count(random.Random(n * k + e), n, k, e)
    check_mass_identities(fam, eigen_mass_full(fam))
    if k == 13:
        assert _packed_degree_sums(fam) == inner_distribution_by_pairs(fam)


def test_masses_of_complete_100_3():
    assert eigen_mass_full(complete(100, 3)).masses == (161700, 0, 0, 0)


def test_spectrum_full_at_26_13(tmp_path, capsys):
    fam = random_family_edge_count(random.Random(26 * 13 + 300), 26, 13, 300)
    path = tmp_path / "r2613.json"
    path.write_bytes(serialize_family(fam))
    assert dispatch(["spectrum", str(path), "--full"]) == 0
    assert "rows: 14 " in capsys.readouterr().out  # F_0..F_13


def test_masses_off_the_edge_count_are_a_contradiction():
    with pytest.raises(ContradictionError, match="^eigenspace masses do not sum to the edge count$"):
        SpectralMass(7, 3, (Fraction(45, 7), Fraction(60, 7), 0, 1), 0, Fraction(15))


def test_masses_off_the_quadratic_form_are_a_contradiction(monkeypatch):
    # one unit moved from F_1 to F_2 on star(7, 3) keeps the sum and breaks sum lambda_j F_j
    masses = spectral._masses

    def moved(n, k, sums):
        out = masses(n, k, sums)
        return [out[0], out[1] - 1, out[2] + 1, *out[3:]]

    monkeypatch.setattr(spectral, "_masses", moved)
    with pytest.raises(ContradictionError, match="^eigenspace masses violate the quadratic-form identity$"):
        eigen_mass_full(star(7, 3, 1))


@pytest.mark.parametrize("call, message", [
    (lambda: eigen_mass_full(complete(4, 0)), "eigen_mass_full needs k >= 1, got k=0"),
    (lambda: eigen_mass_full(complete(5, 3)), "eigen_mass_full needs n >= 2k, got n=5, k=3"),
], ids=["k0", "n-below-2k"])
def test_spectral_refusals_name_their_bound(call, message):
    with pytest.raises(DomainError) as raised:
        call()
    assert str(raised.value) == message
