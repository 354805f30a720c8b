"""Core substrate: binomials, colex ranking, predicates, degrees, links."""

import random
from itertools import combinations

import pytest

from ekrlab.errors import DomainError
from ekrlab.families import (
    Family,
    are_cross_intersecting,
    binomial,
    degree,
    degree_profile,
    is_intersecting,
    link,
    min_degree,
    rank_colex,
    unrank_colex,
    vertex_degrees,
)
from ekrlab.constructions import complete, remark_family, star
from ekrlab.spectral import disjoint_pairs

from conftest import random_family
from oracles import pascal_binomial


def test_binomial_examples():
    assert binomial(6, 3) == 20
    assert binomial(5, -1) == 0
    assert binomial(35, 17) == 4537567650
    assert binomial(35, 17) == pascal_binomial(35, 17)
    assert binomial(5, 7) == 0


def test_binomial_matches_pascal_oracle():
    for n in range(0, 16):
        for r in range(-2, n + 3):
            assert binomial(n, r) == pascal_binomial(n, r)


def test_binomial_negative_n_rejected():
    with pytest.raises(DomainError):
        binomial(-1, 0)


def test_rank_colex_minimum():
    assert rank_colex((1, 2, 3)) == 0
    assert unrank_colex(0, 3, 7) == (1, 2, 3)


@pytest.mark.parametrize("n,k", [(7, 3), (8, 3)])
def test_rank_unrank_bijection(n, k):
    seen = set()
    for r in range(binomial(n, k)):
        s = unrank_colex(r, k, n)
        assert rank_colex(s) == r
        seen.add(s)
    assert seen == set(combinations(range(1, n + 1), k))


def test_unrank_out_of_range():
    with pytest.raises(DomainError):
        unrank_colex(binomial(7, 3), 3, 7)
    with pytest.raises(DomainError):
        unrank_colex(-1, 3, 7)


def test_is_intersecting():
    assert is_intersecting(star(7, 3, 1))
    assert not is_intersecting(Family.from_edges(6, 3, [(1, 2, 3), (4, 5, 6)]))
    assert is_intersecting(remark_family())
    assert is_intersecting(Family.empty(6, 3))
    assert is_intersecting(Family.from_edges(6, 3, [(1, 2, 3)]))


def test_cross_intersecting():
    s = star(7, 3, 1)
    assert are_cross_intersecting(s, s)
    b = Family.from_edges(4, 2, [(1, 2)])
    c = Family.from_edges(4, 2, [(3, 4)])
    assert not are_cross_intersecting(b, c)
    with pytest.raises(DomainError):
        are_cross_intersecting(star(7, 3, 1), remark_family())


def test_degree():
    s = star(7, 3, 1)
    # independent enumeration
    assert degree(s, (1,)) == sum(1 for e in s if 1 in e) == binomial(6, 2)
    assert degree(s, (2,)) == sum(1 for e in s if 2 in e) == binomial(5, 1)
    assert degree(complete(7, 3), (2, 5)) == binomial(5, 1)
    with pytest.raises(DomainError):
        degree(s, (1, 2, 3))


def test_min_degree():
    assert min_degree(remark_family(), 1) == 5
    assert min_degree(star(7, 3, 1), 1) == 5
    assert min_degree(Family.empty(7, 3), 1) == 0
    assert min_degree(star(7, 3, 1), 0) == 15
    with pytest.raises(DomainError):
        min_degree(star(7, 3, 1), 3)


def test_min_degree_counts_isolated_vertices():
    fam = Family.from_edges(9, 3, [(1, 2, 3)])
    assert min_degree(fam, 1) == 0
    assert min_degree(fam, 2) == 0


def test_link():
    s = star(7, 3, 1)
    assert link(s, 1).edges == complete(6, 2).edges
    l2 = link(s, 2)
    assert (l2.n, l2.k, len(l2)) == (6, 2, 5)
    assert all(1 in e for e in l2)  # relabeled center
    assert link(Family.empty(7, 3), 4) == Family.empty(6, 2)


def test_link_size_equals_vertex_degree():
    rng = random.Random(7)
    for _ in range(20):
        fam = random_family(rng, 7, 3, 0.4)
        v = rng.randrange(1, 8)
        assert len(link(fam, v)) == degree(fam, (v,))


def test_handshake():
    rng = random.Random(1)
    for _ in range(50):
        fam = random_family(rng, 8, 3, 0.5)
        assert sum(vertex_degrees(fam)) == fam.k * fam.edge_count


def test_monotonicity_under_edge_addition():
    rng = random.Random(2)
    for _ in range(25):
        fam = random_family(rng, 7, 3, 0.3)
        absent = [r for r in range(binomial(7, 3)) if not fam.edges >> r & 1]
        if not absent:
            continue
        bigger = Family.from_ranks(7, 3, fam.edges | (1 << absent[0]))
        assert bigger.edge_count == fam.edge_count + 1
        assert min_degree(bigger, 1) >= min_degree(fam, 1)
        old, new = vertex_degrees(fam), vertex_degrees(bigger)
        assert all(b >= a for a, b in zip(old, new))


def test_subset_degree_bound():
    rng = random.Random(3)
    for _ in range(25):
        fam = random_family(rng, 7, 3, 0.5)
        for d in (1, 2):
            profile = degree_profile(fam, d)
            cap = binomial(7 - d, 3 - d)
            assert all(0 <= c <= cap for c in profile.degrees.values())
    full = complete(7, 3)
    assert all(c == binomial(5, 1) for c in degree_profile(full, 2).degrees.values())


def test_intersecting_iff_no_disjoint_pairs():
    rng = random.Random(4)
    for _ in range(50):
        fam = random_family(rng, 6, 3, 0.4)
        assert is_intersecting(fam) == (disjoint_pairs(fam) == 0)


def test_family_validation():
    with pytest.raises(DomainError):
        Family.from_edges(6, 3, [(1, 2, 3), (1, 2, 3)])
    with pytest.raises(DomainError):
        Family.from_edges(6, 3, [(1, 2)])
    with pytest.raises(DomainError):
        Family.from_edges(6, 3, [(1, 2, 7)])
    with pytest.raises(DomainError):
        Family.from_edges(6, 3, [(0, 1, 2)])
    with pytest.raises(DomainError):
        Family.from_edges(6, 3, [(1, 1, 2)])
    # unsorted input is normalized, not rejected
    assert Family.from_edges(6, 3, [(3, 1, 2)]).edge_tuples() == [(1, 2, 3)]


def test_edge_ranks_sparse_and_empty():
    assert list(Family.empty(30, 10).edge_ranks()) == []
    total = binomial(30, 10)
    rng = random.Random(3010)
    ranks = set(rng.sample(range(total), 40)) | {0, 7, 8, 63, 64, total - 1}
    bits = 0
    for r in ranks:
        bits |= 1 << r
    listed = Family.from_ranks(30, 10, bits).edge_ranks()
    assert iter(listed) is listed  # still a generator
    assert list(listed) == sorted(ranks)
