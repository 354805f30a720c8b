"""Named families: sizes, degrees, intersection structure, determinism."""

import itertools
import statistics

import pytest

from ekrlab import constructions, limits
from ekrlab.errors import DomainError, ResourceLimitError
from ekrlab.families import Family, binomial, is_intersecting, min_degree, vertex_degrees
from ekrlab.constructions import (
    build_construction,
    complete,
    erdos_extremal,
    fano,
    hilton_milner,
    random_halved,
    remark_family,
    star,
)

from oracles import brute_matching_number


def common_vertex(fam) -> bool:
    masks = fam.vertex_masks()
    acc = (1 << fam.n) - 1
    for m in masks:
        acc &= m
    return bool(acc) and len(fam) > 0


def test_star_examples():
    s = star(7, 3, 1)
    assert len(s) == binomial(6, 2) == 15
    deg = vertex_degrees(s)
    assert deg[0] == 15 and all(d == 5 for d in deg[1:])
    assert star(5, 2, 3).edge_tuples() == [(1, 3), (2, 3), (3, 4), (3, 5)]
    assert star(4, 4, 1).edge_tuples() == [(1, 2, 3, 4)]
    with pytest.raises(DomainError):
        star(7, 3, 8)


def test_erdos_extremal_9_2_3():
    fam = erdos_extremal(9, 2, 3, 1)
    assert len(fam) == binomial(9, 2) - binomial(7, 2) == 15
    assert min_degree(fam, 1) == 2 == binomial(8, 1) - binomial(6, 1)


def test_erdos_extremal_7_3_2_3():
    fam = erdos_extremal(7, 3, 2, 3)
    assert len(fam) == 10
    assert all(max(e) <= 5 for e in fam)
    assert brute_matching_number(fam.edge_tuples()) == 1


@pytest.mark.parametrize(
    "n,k,s,i",
    [(9, 2, 3, 1), (9, 2, 3, 2), (8, 3, 2, 1), (8, 3, 2, 2), (8, 3, 2, 3), (10, 2, 4, 1)],
)
def test_erdos_extremal_matching_below_s(n, k, s, i):
    fam = erdos_extremal(n, k, s, i)
    assert brute_matching_number(fam.edge_tuples()) <= s - 1


@pytest.mark.parametrize("n,k,s", [(9, 2, 3), (12, 3, 3), (8, 3, 2), (7, 3, 2)])
def test_erdos_extremal_min_degree_formula(n, k, s):
    fam = erdos_extremal(n, k, s, 1)
    assert min_degree(fam, 1) == binomial(n - 1, k - 1) - binomial(n - s, k - 1)


def test_hilton_milner():
    hm = hilton_milner(7, 3)
    assert len(hm) == 1 + binomial(6, 2) - binomial(3, 2) == 13
    # minimum degree by direct enumeration and by the closed form
    assert min_degree(hm, 1) == min(sum(1 for e in hm if v in e) for v in range(1, 8))
    assert min_degree(hm, 1) == binomial(5, 1) - binomial(2, 1) == 3
    assert is_intersecting(hm)
    shared = set(range(1, 8))
    for e in hm:
        shared &= set(e)
    assert shared == set()
    with pytest.raises(DomainError):
        hilton_milner(3, 3)


def test_remark_family():
    fam = remark_family()
    assert len(fam) == 10
    assert all(d == 5 for d in vertex_degrees(fam))
    assert 5 > binomial(4, 1) == 4
    assert is_intersecting(fam)
    assert not common_vertex(fam)
    assert brute_matching_number(fam.edge_tuples()) == 1


def test_random_halved_properties():
    degs = []
    for seed in range(100):
        fam = random_halved(3, seed)
        assert len(fam) == binomial(6, 3) // 2 == 10
        assert is_intersecting(fam)
        degs.append(min_degree(fam, 1))
    # expected vertex degree is C(2k,k)/4 = 5; report only
    print(f"random_halved(3): mean delta_1 over 100 seeds = {statistics.mean(degs):.2f}")
    assert random_halved(3, 42).edges == random_halved(3, 42).edges


def test_complete_and_fano():
    assert len(complete(6, 3)) == 20
    f = fano()
    assert len(f) == 7
    assert vertex_degrees(f) == [3] * 7
    assert is_intersecting(f)


def test_intersecting_constructions():
    for fam in (star(7, 3, 1), hilton_milner(7, 3), remark_family(), random_halved(3, 5), fano()):
        assert is_intersecting(fam)


def test_star_is_the_only_common_vertex_construction():
    assert common_vertex(star(7, 3, 1))
    for fam in (hilton_milner(7, 3), remark_family(), random_halved(3, 9), fano()):
        assert not common_vertex(fam)


def test_build_construction_dispatch():
    assert build_construction("star", n=7, k=3).edges == star(7, 3, 1).edges
    assert build_construction("fano").edges == fano().edges
    with pytest.raises(DomainError):
        build_construction("star", n=7)
    with pytest.raises(DomainError):
        build_construction("nonesuch", n=7, k=3)


def test_random_halved_refuses_a_ground_set_other_than_2k():
    # the family lives on [2k]; any other --n is refused, not ignored
    assert build_construction("random-halved", n=6, k=3, seed=5) == random_halved(3, 5)
    assert build_construction("random-halved", k=3, seed=5) == random_halved(3, 5)
    with pytest.raises(DomainError, match=r"\[2k\], got n=8475 for k=11$"):
        build_construction("random-halved", n=8475, k=11)


# C(12,4) = 495 and C(10,5) = 252 k-sets, above a gate lowered to 100
OVERSIZED = {
    "star": {"n": 12, "k": 4},
    "hilton-milner": {"n": 12, "k": 4},
    "erdos-extremal": {"n": 12, "k": 4, "s": 2, "i": 1},
    "random-halved": {"k": 5},
}


@pytest.mark.parametrize("kind", OVERSIZED)
def test_oversized_construction_draws_no_kset(kind, monkeypatch):
    # the C(n,k) gate fires before the first k-set is enumerated
    drawn = []

    def counting(*args):
        for c in itertools.combinations(*args):
            drawn.append(c)
            yield c

    monkeypatch.setattr(constructions, "combinations", counting)
    monkeypatch.setattr(limits, "FAMILY_KSET_LIMIT", 100)
    with pytest.raises(ResourceLimitError, match="FAMILY_KSET_LIMIT = 100$"):
        build_construction(kind, **OVERSIZED[kind])
    assert len(drawn) == 0
    monkeypatch.setattr(limits, "FAMILY_KSET_LIMIT", 1 << 24)
    build_construction(kind, **OVERSIZED[kind])
    assert len(drawn) > 0  # the counter does see an enumeration below the gate


@pytest.mark.parametrize("build, message", [
    (lambda: star(3, 0), "star needs 1 <= k <= n, got k=0, n=3"),
    (lambda: star(3, 4), "star needs 1 <= k <= n, got k=4, n=3"),
    (lambda: erdos_extremal(8, 3, 0, 1), "need s >= 1, got s=0"),
    (lambda: erdos_extremal(4, 3, 3, 2), "need s*i - 1 <= n, got s*i-1=5, n=4"),
    (lambda: erdos_extremal(4, 5, 2, 1), "need k <= n, got k=5, n=4"),
    (lambda: erdos_extremal(8, 3, 2, 0), "need 1 <= i <= k, got i=0, k=3"),
    (lambda: hilton_milner(3, 0), "hilton-milner needs k >= 1, got k=0"),
    (lambda: random_halved(1, 0), "need k >= 2, got k=1"),
    (lambda: complete(5, 6), "complete needs 0 <= k <= n, got k=6, n=5"),
    (lambda: complete(5, -1), "complete needs 0 <= k <= n, got k=-1, n=5"),
], ids=["star-k0", "star-k-above-n", "erdos-s0", "erdos-s-i", "erdos-k-above-n",
        "erdos-i0", "hm-k0", "halved-k1", "complete-k-above-n", "complete-k-negative"])
def test_construction_refusals_name_their_bound(build, message):
    with pytest.raises(DomainError) as raised:
        build()
    assert str(raised.value) == message


def _by_definition(n, k, holds):
    return Family.from_edges(n, k, (e for e in itertools.combinations(range(1, n + 1), k) if holds(set(e))))


@pytest.mark.parametrize("n", range(1, 11))
def test_constructions_match_their_definitions(n):
    # each family against the filter of all k-sets of [n] that defines it
    for k in range(1, n + 1):
        for c in range(1, n + 1):
            assert star(n, k, c) == _by_definition(n, k, lambda e: c in e)
        if k < n:
            blocker = set(range(2, k + 2))
            assert hilton_milner(n, k) == _by_definition(
                n, k, lambda e: e == blocker or (1 in e and bool(e & blocker))
            )
        for i in range(1, k + 1):
            for s in range(1, (n + 1) // i + 1):
                core = set(range(1, s * i))
                assert erdos_extremal(n, k, s, i) == _by_definition(n, k, lambda e: len(e & core) >= i)
