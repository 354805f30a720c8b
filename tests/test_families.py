"""Core substrate: binomials, colex ranking, predicates, degrees, links."""

import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

import ekrlab.families
from ekrlab.certificates import cross_certificate, ekr_certificate, simplex_witness
from ekrlab.errors import DomainError
from ekrlab.families import (
    Family,
    are_cross_intersecting,
    binomial,
    degree,
    degree_profile,
    incidence,
    is_intersecting,
    iter_bits,
    link,
    meets,
    min_degree,
    rank_colex,
    unrank_colex,
    vertex_degrees,
)
from ekrlab.constructions import complete, hilton_milner, remark_family, star
from ekrlab.lp import fractional_cover
from ekrlab.spectral import disjoint_pairs

from conftest import random_family, random_family_edge_count, small_families
from oracles import (
    pairwise_are_cross_intersecting,
    pairwise_disjoint_pairs,
    pairwise_is_intersecting,
    pascal_binomial,
)


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


def test_incidence_and_meets_of_a_small_family():
    fam = Family.from_edges(5, 2, [(1, 2), (2, 3), (4, 5)])  # colex: 12, 23, 45
    through = incidence(fam.vertex_masks(), 5)
    assert through == [0b001, 0b011, 0b010, 0b100, 0b100]
    assert meets(through, fam.vertex_masks()) == [0b011, 0b011, 0b100]
    # the complete family's incidence bitsets are the stars
    full = complete(6, 3)
    assert incidence(full.vertex_masks(), 6) == [star(6, 3, v).edges for v in range(1, 7)]
    assert incidence([], 3) == [0, 0, 0] and meets([0, 0, 0], []) == []


def _check_meet_predicates(fam: Family, other: Family) -> None:
    edges, other_edges = fam.edge_tuples(), other.edge_tuples()
    assert is_intersecting(fam) == pairwise_is_intersecting(edges)
    assert disjoint_pairs(fam) == pairwise_disjoint_pairs(edges)
    assert are_cross_intersecting(fam, other) == pairwise_are_cross_intersecting(edges, other_edges)
    assert are_cross_intersecting(other, fam) == pairwise_are_cross_intersecting(other_edges, edges)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_meet_predicates_match_pairwise_oracles(data):
    # incidence bitsets against the pairwise loops they replaced
    fam = data.draw(small_families())
    _check_meet_predicates(fam, data.draw(small_families(n=fam.n, k=fam.k)))


@pytest.mark.parametrize("n, k", [(0, 0), (3, 0), (4, 1), (6, 3)])
def test_meet_predicates_at_k0_and_on_empty_families(n, k):
    families = [Family.empty(n, k), complete(n, k), Family.from_ranks(n, k, 1)]
    for fam in families:
        for other in families:
            _check_meet_predicates(fam, other)


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


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=1 << 300))
@example(0)
@example(1)
@example(0xFF)
@example(1 << 64 | 1 << 8 | 1 << 7)
def test_iter_bits_matches_bit_tests(x):
    assert list(iter_bits(x)) == [i for i in range(x.bit_length()) if x >> i & 1]


@st.composite
def ranked_ksets(draw):
    n = draw(st.integers(min_value=0, max_value=40))
    k = draw(st.integers(min_value=0, max_value=n))
    r = draw(st.integers(min_value=0, max_value=binomial(n, k) - 1))
    return n, k, r


@settings(max_examples=200, deadline=None)
@given(ranked_ksets())
def test_rank_unrank_round_trip_property(nkr):
    n, k, r = nkr
    s = unrank_colex(r, k, n)
    assert len(s) == k
    assert all(1 <= a < b <= n for a, b in zip(s, s[1:]))
    assert not s or 1 <= s[0] and s[-1] <= n
    assert rank_colex(s) == r


def test_decoded_lists_are_fresh_copies():
    fam = Family.from_edges(7, 3, [(1, 2, 3), (2, 4, 6), (3, 5, 7)])
    tuples, masks = fam.edge_tuples(), fam.vertex_masks()
    fam.edge_tuples().append((4, 5, 6))
    fam.edge_tuples().clear()
    fam.vertex_masks()[0] = 0
    fam.vertex_masks().pop()
    assert fam.edge_tuples() == tuples == [(1, 2, 3), (2, 4, 6), (3, 5, 7)]
    assert fam.vertex_masks() == masks == [0b111, 0b101010, 0b1010100]


def test_decode_cache_leaves_equality_and_hash_alone():
    decoded = random_family(random.Random(135), 13, 5, density=0.1)
    decoded.edge_tuples()
    fresh = Family.from_ranks(13, 5, decoded.edges)
    assert decoded == fresh
    assert hash(decoded) == hash(fresh)
    assert {decoded: 1}[fresh] == 1


def _count_unranks(monkeypatch) -> list[int]:
    calls = [0]
    original = ekrlab.families.unrank_colex

    def counting(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(ekrlab.families, "unrank_colex", counting)
    return calls


def test_ekr_certificate_decodes_each_edge_once(monkeypatch):
    rng = random.Random(1305)
    whole = star(13, 5, 1).edge_tuples()
    edges = rng.sample(whole, len(whole) * 9 // 10)
    fam = Family.from_edges(13, 5, edges)
    calls = _count_unranks(monkeypatch)
    ekr_certificate(fam)
    assert calls[0] == fam.edge_count == 445


def test_fractional_cover_decodes_each_edge_once(monkeypatch):
    fam = random_family_edge_count(random.Random(93), 9, 3, 24)
    calls = _count_unranks(monkeypatch)
    fractional_cover(fam)
    assert calls[0] == fam.edge_count == 24


def test_vertex_degrees_are_fresh_copies():
    fam = star(7, 3, 2)
    vertex_degrees(fam)[1] = 0
    assert vertex_degrees(fam) == [5, 15, 5, 5, 5, 5, 5]


def test_certificates_count_degrees_once_per_family(monkeypatch):
    # one degree pass per family, however many steps read the degrees
    calls = [0]
    cached = Family.__dict__["_degrees"]
    original = cached.func

    def counting(family):
        calls[0] += 1
        return original(family)

    left, right, single, witness = (hilton_milner(11, 4) for _ in range(4))
    monkeypatch.setattr(cached, "func", counting)
    cross_certificate(left, right)
    assert calls[0] == 2
    ekr_certificate(single)
    assert calls[0] == 3
    simplex_witness(witness)
    assert calls[0] == 4
    cross_certificate(left, right)
    assert calls[0] == 4
