"""Enumeration correctness, scan verdicts, local-search determinism."""

import hashlib
import inspect
import json
import os
import random
from functools import cache
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from ekrlab import limits, search
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

from conftest import count_transpositions, random_family_edge_count
from oracles import (
    brute_maximal_cliques,
    brute_maximal_intersecting,
    colex_list,
    per_edge_family_stats,
    per_rank_forbidden,
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


@st.composite
def small_graphs(draw):
    count = draw(st.integers(min_value=0, max_value=10))
    pairs = [(u, v) for v in range(count) for u in range(v)]
    return count, draw(st.sets(st.sampled_from(pairs))) if pairs else set()


@settings(max_examples=200, deadline=None)
@given(small_graphs())
def test_maximal_cliques_match_brute_force(graph):
    count, edges = graph
    meet = [0] * count
    for u, v in edges:
        meet[u] |= 1 << v
        meet[v] |= 1 << u
    cliques = list(search._maximal_cliques(tuple(meet)))
    assert len(set(cliques)) == len(cliques)
    assert sorted(cliques) == sorted(brute_maximal_cliques(count, edges))


@pytest.mark.parametrize("n, k", [(7, 3), (8, 3)])
def test_exhaustive_scans_build_no_family(n, k, monkeypatch):
    # the scans read the enumeration's rank ints; a Family is built only for a
    # violation record, and there is none; the public generator builds one each
    search._shape(n, k)
    built = []
    post_init = Family.__post_init__

    def counting(family):
        built.append(family)
        post_init(family)

    monkeypatch.setattr(Family, "__post_init__", counting)
    report = ekr_degree_scan(n, k)
    cross_pair_scan(n, k)
    assert built == []
    assert sum(1 for _ in maximal_intersecting(n, k)) == len(built) == report.families_examined


@pytest.mark.parametrize("scan, digest", [
    ("ekr", "767e73e32a442e359cc0627b0fe337f89bbdbc1a501d0f246d8d4843eda20015"),
    ("cross", "88c3b149950c8e8ed643d5356d1b8817ba01158da073b837b3a082ceaacb699d"),
])
def test_scan_json_output_is_pinned(scan, digest, capsys):
    # the records and maximizers carry emission indices, so the bytes pin them
    assert dispatch(["scan", scan, "--n", "7", "--k", "3", "--json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    ("ekr --n 8 --k 3", "905c78b867fc63f438e3ad59f63c947ea740be027ebd9399b02886394a8360c5"),
    ("cross --n 8 --k 3", "9cc606e2e9055b5bd19e14c8cea708ac71b143f2ba42ab9b55227a555be5cf7e"),
    ("ekr --n 11 --k 2", "5ac415f05781923f212daffe40d28f6868942f892dc24927d2bb6d794cd5d0e3"),
    ("cross --n 11 --k 2", "2626732286b74fa298aff761abe7b9c699d1e3cbbcb8d31647e2e5437b3411b5"),
    # the conjecture scan's bytes also pin every draw of its seeded walk
    ("conjecture --n 9 --k 2 --s 3 --budget 1000 --seed 0",
     "072e71ceea4dbf7b952a81c59c16d565088c46658700fc7d1ec9c7541be675d4"),
    ("conjecture --n 9 --k 2 --s 3 --budget 1000 --seed 5",
     "8b937683c636a77f7f64fd8905c7eba334aa71d56e31bc73edaeb8b79f1d2ada"),
    ("conjecture --n 10 --k 2 --s 3 --budget 1667 --seed 0",
     "c7ec7fb76797572c49c47610a2e18d29554d76e1256a55d6c3e7a3584897efa8"),
    ("conjecture --n 10 --k 2 --s 3 --budget 1667 --seed 5",
     "71c9900633028e84fc4d10dfc32f47f574f134da770ed3453323a116adc208bb"),
    ("conjecture --n 8 --k 3 --s 2 --budget 2333 --seed 0",
     "c1068c9c63edc478e7d5e5349aa8b256f46c659329ae8edae8e02638a00e01cd"),
    ("conjecture --n 8 --k 3 --s 2 --budget 2333 --seed 5",
     "8f382c4d5be37bc8aa926039a3b705c5de7bccf5773bb14827a77a7cea6e8238"),
    ("conjecture --n 11 --k 2 --s 4 --budget 3000 --seed 0",
     "9e63b8d7c015eff2c6dc3de0f45b355601f2251bba0768c10c29b00dc0d7eece"),
    ("conjecture --n 11 --k 2 --s 4 --budget 3000 --seed 5",
     "4d70f1e008d3709cb1e17aef1f08085768c91da20255fdc7ee12ff78b5ab8fb3"),
    ("conjecture --n 7 --k 3 --s 2 --budget 400 --seed 3",
     "431315f033b7c72b0c54531d7485749a18070841aa5dbed44ba4dcc08c499f25"),
    # at n = ks the scan reports over-bound families as rows without failing
    ("conjecture --n 6 --k 3 --s 2 --budget 1000 --seed 4",
     "7c7e03bd3249ee50a38b2463b41018fa11ceabe06c7f4263791528410855281d"),
])
def test_scan_json_reports_are_pinned(argv, digest, capsys):
    assert dispatch(["scan", *argv.split(), "--json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("n, k", [(5, 2), (7, 2), (9, 2), (11, 2), (7, 3), (8, 3)])
def test_shape_tables_match_quadratic_oracle(n, k):
    shape = search._shape(n, k)
    assert list(shape.stars) == list(range(1, n + 1))
    assert (tuple(shape.stars.values()), shape.meet, shape.disjoint) == quadratic_kneser_tables(n, k)
    assert list(shape.ksets) == colex_list(n, k)
    # the byte tables hold the same rows: one rank's entry is its own row and column
    for r, row in enumerate(shape.disjoint):
        assert shape.forbid[r >> 3][1 << (r & 7)] == row
        assert shape.column(r) == shape.vector(1 << r)


@cache
def oracle_disjoint(n, k):
    return quadratic_kneser_tables(n, k)[2]


def check_rank_bytes(n, k, bits):
    # degrees against the per-edge count and F^perp's complement against the
    # per-rank OR, both over the pairwise-built tables
    shape = search._shape(n, k)
    ksets = colex_list(n, k)
    edges = [ksets[r] for r in range(len(ksets)) if bits >> r & 1]
    assert list(shape.degrees(shape.vector(bits))) == per_edge_family_stats(edges, n)[1]
    assert shape.forbidden(bits) == per_rank_forbidden(bits, oracle_disjoint(n, k))


def test_family_stats_match_per_edge_count():
    # the byte tables on every maximal family at (7,3), and on the empty one
    examined = 0
    for bits in search._maximal_cliques(search._shape(7, 3).meet):
        check_rank_bytes(7, 3, bits)
        examined += 1
    assert examined == 6127
    check_rank_bytes(7, 3, 0)
    assert per_edge_family_stats([], 7) == (0, [0] * 7, 0b1111111)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([(5, 2), (8, 3), (11, 2)]).flatmap(
    lambda shape: st.tuples(st.just(shape), st.integers(0, (1 << binomial(*shape)) - 1))))
def test_rank_bytes_match_oracles_on_random_bitsets(case):
    (n, k), bits = case
    check_rank_bytes(n, k, bits)


def test_rank_bytes_wide_fields(monkeypatch):
    # C(11,4) = 330 does not fit in a byte: the degree fields of (12,5) are two
    # bytes wide, and the conjecture scan's base family, the star of vertex 1
    # with its 330 edges, would carry into vertex 2's field at one byte
    monkeypatch.setattr(limits, "ENUM_KSET_LIMIT", 792)
    assert search._shape(12, 5).width == 2
    rng = random.Random(125)
    for bits in [0, (1 << 792) - 1, *(rng.getrandbits(792) for _ in range(4))]:
        check_rank_bytes(12, 5, bits)
    report = conjecture_scan(12, 5, 2, budget=300, seed=1)
    best = Family.from_edges(12, 5, report.best["edges"])
    check_rank_bytes(12, 5, best.edges)
    assert report.best["delta1"] == min(per_edge_family_stats(report.best["edges"], 12)[1])


def test_enumeration_limit(monkeypatch):
    with pytest.raises(ResourceLimitError):
        maximal_intersecting(9, 4)  # C(9,4) = 126 > 64
    # a count too large to print is named by its shape; math.comb would take seconds
    with pytest.raises(ResourceLimitError,
                       match=r"^C\(n,k\) = C\(100001,50000\) k-sets exceed ENUM_KSET_LIMIT = 64$"):
        ekr_degree_scan(100001, 50000)
    monkeypatch.setattr(limits, "ENUM_KSET_LIMIT", 200)  # a higher limit lifts the gate
    families = maximal_intersecting(9, 4)
    # the gate ran at call time; the search itself waits for next(), and
    # full enumeration at (9,4) runs for minutes, so one family comes lazily
    assert inspect.getgeneratorstate(families) == inspect.GEN_CREATED
    first = next(families)
    assert inspect.getgeneratorstate(families) == inspect.GEN_SUSPENDED
    assert is_intersecting(first)


@pytest.mark.parametrize("call", [
    lambda: maximal_intersecting(7, 3),
    lambda: greedy_complete(Family.empty(7, 3)),
    lambda: ekr_degree_scan(7, 3),
    lambda: cross_pair_scan(7, 3),
    lambda: conjecture_scan(7, 3, 2, budget=50, seed=0),
], ids=["maximal_intersecting", "greedy_complete", "ekr", "cross", "conjecture"])
def test_enumeration_limit_refuses_a_cached_shape(call, monkeypatch):
    # the gate runs on every call, before the shape's cached tables are read
    call()
    monkeypatch.setattr(limits, "ENUM_KSET_LIMIT", 34)  # C(7,3) = 35
    with pytest.raises(ResourceLimitError, match=" exceed ENUM_KSET_LIMIT = 34$"):
        call()


def test_each_shape_is_built_once():
    # the completion and the three scans share one table object per shape
    search._shapes.cache_clear()
    greedy_complete(Family.empty(7, 2))
    ekr_degree_scan(7, 2)
    cross_pair_scan(7, 2)
    conjecture_scan(7, 2, 3, budget=50, seed=0)
    info = search._shapes.cache_info()
    assert (info.misses, info.currsize) == (1, 1)


def test_ekr_degree_scan_5_2():
    report = ekr_degree_scan(5, 2)
    assert report.families_examined == 15
    assert report.best["max_delta1"] == 1 == binomial(3, 0)
    assert report.best["num_at_max"] == 5
    assert report.best["all_at_max_are_stars"]
    assert report.best["nonstar_max_delta1"] == 0
    assert not report.violations and report.passed


def test_ekr_degree_scan_records_each_violation(monkeypatch, capsys):
    # a fault that lowers the expected maximum C(n-2,k-2) = C(3,0) from 1 to 0
    # makes each non-star maximal family at (5,2), the ten triangles, a violation
    real = search.binomial
    monkeypatch.setattr(search, "binomial", lambda n, r: real(n, r) - ((n, r) == (3, 0)))
    report = ekr_degree_scan(5, 2)
    assert not report.passed
    cliques = [family.edge_tuples() for family in maximal_intersecting(5, 2)]
    assert [v["edges"] for v in report.violations] == [e for e in cliques if len(e) == 3]
    assert sorted(v["edges"] for v in report.violations) == sorted(
        list(combinations(t, 2)) for t in combinations(range(1, 6), 3))
    assert {(v["delta1"], v["reason"]) for v in report.violations} == {
        (0, "non-star at or above C(n-2,k-2)")}
    assert dispatch(["scan", "ekr", "--n", "5", "--k", "2", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["fields"]["violations"] == 10
    assert [v["edges"] for v in payload["violations"]] == [str(v["edges"]) for v in report.violations]


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
    real = search._maximal_cliques

    def faulty(meet):
        cliques = list(real(meet))
        if fault == "non-maximal":
            cliques[3] &= cliques[3] - 1  # drop its lowest rank
        else:
            cliques.append(cliques[3])
        return iter(cliques)

    monkeypatch.setattr(search, "_maximal_cliques", faulty)
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


def test_greedy_complete_refuses_a_non_intersecting_family():
    # {12, 34} has two disjoint edges, so no completion of it is intersecting
    with pytest.raises(DomainError, match="intersecting"):
        greedy_complete(Family.from_edges(5, 2, [(1, 2), (3, 4)]))
    assert greedy_complete(Family.empty(5, 2)) == Family.from_edges(5, 2, [(1, 2), (1, 3), (2, 3)])


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


@pytest.mark.parametrize("shape, seed", [
    ((9, 2, 3, 1000), 0), ((10, 2, 3, 1667), 0), ((8, 3, 2, 2333), 0), ((11, 2, 4, 3000), 0),
    ((6, 3, 2, 1000), 4), ((6, 3, 2, 3000), 0),  # over-bound families, reported at n = ks
])
def test_conjecture_scan_transposes_only_to_reverify(shape, seed, monkeypatch):
    # add moves ask the matching search on rank bitsets with the shape's tables;
    # only the over-bound families and the final one become Family objects,
    # each distinct one once, so without over-bound families Family.through
    # is computed once
    search._shape(*shape[:2])
    transposed = count_transpositions(monkeypatch)
    report = conjecture_scan(*shape, seed=seed)
    over = [entry["edges"] for entry in report.violations + report.notes["over_bound_examples"]]
    seen = [f.edge_tuples() for f in transposed]
    assert seen[-1] == report.best["edges"]
    assert all(edges in over for edges in seen[:-1]) and all(edges in seen for edges in over)
    assert len(seen) == len(over) + 1


def test_conjecture_scan_rejects_s_above_nk():
    with pytest.raises(DomainError):
        conjecture_scan(6, 3, 3, budget=10, seed=0)


def test_conjecture_scan_rejects_negative_budget():
    with pytest.raises(DomainError):
        conjecture_scan(9, 2, 3, budget=-5, seed=0)
    assert conjecture_scan(9, 2, 3, budget=0, seed=0).families_examined == 0
