"""Enumeration correctness, scan verdicts, local-search determinism."""

import hashlib
import inspect
import os
import random

import pytest

from ekrlab import search
from ekrlab.cli import dispatch
from ekrlab.errors import ContradictionError, DomainError, ResourceLimitError
from ekrlab.families import Family, binomial, is_intersecting, min_degree
from ekrlab.constructions import star
from ekrlab.matching import matching_number
from ekrlab.search import (
    ScanReport,
    conjecture_scan,
    cross_pair_scan,
    ekr_degree_scan,
    greedy_complete,
    maximal_intersecting,
)

from conftest import random_family_edge_count
from oracles import (
    brute_maximal_intersecting,
    per_edge_family_stats,
    quadratic_cross_pair_scan,
    quadratic_kneser_tables,
)


def is_maximal_intersecting(fam: Family) -> bool:
    if not is_intersecting(fam):
        return False
    return greedy_complete(fam).edges == fam.edges


def test_maximal_intersecting_5_2_exhaustive():
    fams = list(maximal_intersecting(5, 2))
    assert len(fams) == 15
    got = {frozenset(frozenset(e) for e in f.edge_tuples()) for f in fams}
    expected = {
        frozenset(frozenset(e) for e in fam) for fam in brute_maximal_intersecting(5, 2)
    }
    assert got == expected
    stars = [f for f in fams if len(f) == binomial(4, 1)]
    triangles = [f for f in fams if len(f) == 3]
    assert len(stars) == 5 and len(triangles) == 10


def test_maximal_intersecting_4_2_definitional():
    fams = list(maximal_intersecting(4, 2))
    assert len(fams) == len(brute_maximal_intersecting(4, 2))
    for f in fams:
        assert is_maximal_intersecting(f)


def test_maximal_intersecting_emits_each_once():
    fams = list(maximal_intersecting(6, 2))
    assert len({f.edges for f in fams}) == len(fams)
    for f in fams:
        assert is_maximal_intersecting(f)


@pytest.mark.parametrize("n,k,count,digest", [
    (7, 3, 6127, "18b4c79967f7ebfaba6bca7a0f7302b8d23a4221e8035bd15db87865e79ad4d9"),
    (8, 3, 23936, "0f4908578ae4f18ec0bbe514010f26b716f0b45908e9aaf5b99fcc04f04afe0a"),
])
def test_emission_order_is_pinned(n, k, count, digest):
    # scan indices and records follow the emission order, so it must not move
    h = hashlib.sha256()
    emitted = 0
    for fam in maximal_intersecting(n, k):
        h.update(f"{fam.edges}\n".encode())
        emitted += 1
    assert (emitted, h.hexdigest()) == (count, digest)


@pytest.mark.parametrize("n, k", [(5, 2), (7, 2), (9, 2), (11, 2), (7, 3), (8, 3)])
def test_kneser_tables_match_quadratic_oracle(n, k):
    assert search._kneser_tables(n, k) == quadratic_kneser_tables(n, k)


def test_family_stats_match_per_edge_count():
    # n popcounts against the per-edge degree loop, on every maximal family at (7,3)
    stars = search._kneser_tables(7, 3)[0]
    examined = 0
    for fam in maximal_intersecting(7, 3):
        assert search._family_stats(fam.edges, stars) == per_edge_family_stats(fam.edge_tuples(), 7)
        examined += 1
    assert examined == 6127
    assert search._family_stats(0, stars) == per_edge_family_stats([], 7) == (0, 0, 0b1111111)


def test_enumeration_limit():
    with pytest.raises(ResourceLimitError):
        maximal_intersecting(9, 4)  # C(9,4) = 126 > 64
    families = maximal_intersecting(9, 4, limit=200)  # explicit limit lifts the gate
    # the gate ran at call time; the search itself waits for next(), and
    # full enumeration at (9,4) runs for minutes, so one family comes lazily
    assert inspect.getgeneratorstate(families) == inspect.GEN_CREATED
    first = next(families)
    assert inspect.getgeneratorstate(families) == inspect.GEN_SUSPENDED
    assert is_intersecting(first)


def test_env_limit_override(monkeypatch):
    monkeypatch.setenv("EKRLAB_LIMIT", "10")
    with pytest.raises(ResourceLimitError):
        maximal_intersecting(6, 2)
    monkeypatch.delenv("EKRLAB_LIMIT")


def test_ekr_degree_scan_5_2():
    report = ekr_degree_scan(5, 2)
    assert report.families_examined == 15
    assert report.best["max_delta1"] == 1 == binomial(3, 0)
    assert report.best["num_at_max"] == 5
    assert report.best["all_at_max_are_stars"]
    assert report.best["nonstar_max_delta1"] == 0
    assert not report.violations


def test_ekr_degree_scan_rejects_n_2k():
    with pytest.raises(DomainError):
        ekr_degree_scan(6, 3)


def test_cross_pair_scan_5_2():
    report = cross_pair_scan(5, 2)
    assert report.best["max_product"] == 1
    assert report.best["maximizers_all_same_center_stars"]
    assert not report.violations
    assert report.notes["ordered_pairs_total"] == 225


@pytest.mark.parametrize("n,k", [(5, 2), (7, 2), (9, 2), (11, 2), (7, 3)])
def test_cross_pair_scan_matches_quadratic_oracle(n, k):
    families = [fam.edge_tuples() for fam in maximal_intersecting(n, k)]
    expected = ScanReport(kind="cross-pair-scan", parameters={"n": n, "k": k},
                          **quadratic_cross_pair_scan(n, k, families))
    assert cross_pair_scan(n, k) == expected


@pytest.mark.parametrize("fault,message", [("non-maximal", "not self-dual"),
                                           ("duplicate", "repeats an earlier one")])
def test_cross_pair_scan_checks_its_certificate(fault, message, monkeypatch, capsys):
    real = search.maximal_intersecting

    def faulty(n, k, limit=None):
        families = list(real(n, k, limit=limit))
        if fault == "non-maximal":
            families[3] = families[3].without_rank(next(families[3].edge_ranks()))
        else:
            families.append(families[3])
        return iter(families)

    monkeypatch.setattr(search, "maximal_intersecting", faulty)
    with pytest.raises(ContradictionError, match=message):
        cross_pair_scan(5, 2)
    assert dispatch(["scan", "cross", "--n", "5", "--k", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("contradiction:") and "Traceback" not in err


def test_greedy_complete_monotone():
    rng = random.Random(60)
    for _ in range(30):
        fam = random_family_edge_count(rng, 6, 2, rng.randrange(0, 6))
        if not is_intersecting(fam):
            continue
        completed = greedy_complete(fam)
        assert completed.edges & fam.edges == fam.edges
        assert is_maximal_intersecting(completed)
        assert min_degree(fam, 1) <= min_degree(completed, 1)


def test_maximality_argument_subfamilies():
    """delta_1 of any intersecting subfamily is dominated by a maximal one."""
    rng = random.Random(61)
    for fam in maximal_intersecting(7, 3):
        if rng.random() > 0.02:
            continue
        bits = fam.edges
        for r in list(Family.from_ranks(7, 3, bits).edge_ranks()):
            if rng.random() < 0.3:
                bits &= ~(1 << r)
        sub = Family.from_ranks(7, 3, bits)
        completed = greedy_complete(sub)
        assert min_degree(sub, 1) <= min_degree(completed, 1)


def test_conjecture_scan_7_3_2():
    report = conjecture_scan(7, 3, 2, budget=400, seed=3)
    assert report.best["delta1"] == 5 == binomial(6, 2) - binomial(5, 2)
    assert report.best["nu"] < 2
    assert not report.violations
    assert report.notes["assert_mode"]


def test_conjecture_scan_9_2_3():
    report = conjecture_scan(9, 2, 3, budget=400, seed=4)
    assert report.best["delta1"] == 2 == binomial(8, 1) - binomial(6, 1)
    assert report.best["nu"] < 3
    assert not report.violations


def test_conjecture_scan_never_reports_high_matching():
    for seed in range(5):
        report = conjecture_scan(8, 2, 3, budget=200, seed=seed)
        fam = Family.from_edges(8, 2, report.best["edges"])
        assert matching_number(fam)[0] < 3


def test_conjecture_scan_deterministic():
    a = conjecture_scan(7, 3, 2, budget=250, seed=9)
    b = conjecture_scan(7, 3, 2, budget=250, seed=9)
    assert a == b


def test_conjecture_scan_boundary_report_only():
    report = conjecture_scan(6, 3, 2, budget=400, seed=5)
    assert not report.notes["assert_mode"]
    assert not report.violations  # over-bound families are notes, not violations


def test_conjecture_scan_rejects_s_above_nk():
    with pytest.raises(DomainError):
        conjecture_scan(6, 3, 3, budget=10, seed=0)


def test_conjecture_scan_rejects_negative_budget():
    with pytest.raises(DomainError):
        conjecture_scan(9, 2, 3, budget=-5, seed=0)
    assert conjecture_scan(9, 2, 3, budget=0, seed=0).families_examined == 0
