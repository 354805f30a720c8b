"""Exact matching number, rainbow step, constructive algorithm, reduction."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ekrlab import limits
from ekrlab.errors import ContradictionError, DomainError, ResourceLimitError
from ekrlab.families import Family, binomial, min_degree, vertex_degrees
from ekrlab.constructions import complete, erdos_extremal, fano, remark_family, star
from ekrlab.lp import FractionalSolution, fractional_cover, fractional_matching
from ekrlab.matching import (
    Matching,
    corollary33_check,
    find_matching_by_degree,
    matching_number,
    rainbow_extension,
    reduce_cover,
)

from conftest import random_family_edge_count, random_family_min_degree, small_families
from oracles import brute_matching_number, mask_list_matching_number


def assert_valid_matching(fam, matching):
    used = set()
    for e in matching.edges:
        assert fam.has_edge(e)
        assert not used.intersection(e)
        used.update(e)


def test_matching_number_fixtures():
    assert matching_number(star(7, 3, 1))[0] == 1
    assert matching_number(erdos_extremal(9, 2, 3, 1))[0] == 2
    assert matching_number(complete(6, 3))[0] == 2
    assert matching_number(remark_family())[0] == 1
    assert matching_number(fano())[0] == 1
    assert matching_number(Family.empty(6, 3))[0] == 0


def test_matching_number_vs_brute_oracle():
    rng = random.Random(50)
    for _ in range(80):
        n = rng.randrange(5, 10)
        k = rng.choice([2, 3])
        fam = random_family_edge_count(rng, n, k, rng.randrange(0, 13))
        nu, witness = matching_number(fam)
        assert nu == brute_matching_number(fam.edge_tuples())
        assert len(witness) == nu
        assert_valid_matching(fam, witness)


@st.composite
def matching_families(draw):
    k = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(min_value=k, max_value=10))
    ranks = draw(st.sets(st.integers(min_value=0, max_value=binomial(n, k) - 1), max_size=14))
    return Family.from_ranks(n, k, sum(1 << r for r in ranks))


@settings(max_examples=100, deadline=None)
@given(matching_families())
def test_matching_number_matches_brute_force_property(fam):
    nu, witness = matching_number(fam)
    assert nu == brute_matching_number(fam.edge_tuples())
    assert len(witness) == nu
    assert_valid_matching(fam, witness)


@pytest.mark.parametrize("fam, at_least, nodes", [
    (fano(), None, 8),
    (remark_family(), None, 7),
    (erdos_extremal(12, 3, 3, 1), None, 29),
    (erdos_extremal(8, 3, 2, 1), None, 8),
    (complete(10, 3), None, 58),
    (complete(9, 4), None, 63),
    (complete(12, 2), 2, 3),
], ids=["fano", "remark", "erdos(12,3,3,1)", "erdos(8,3,2,1)", "complete(10,3)",
        "complete(9,4)", "complete(12,2)-at-least-2"])
def test_branch_and_bound_node_counts_are_pinned(fam, at_least, nodes):
    # machine-independent regression guard: the search visits exactly `nodes` nodes
    assert nodes <= limits.MATCHING_NODE_LIMIT
    result = matching_number(fam, at_least=at_least)
    assert matching_number(fam, at_least=at_least, node_limit=nodes) == result
    with pytest.raises(ResourceLimitError):
        matching_number(fam, at_least=at_least, node_limit=nodes - 1)


@settings(max_examples=150, deadline=None)
@given(small_families(), st.sampled_from([None, 1, 2, 3]))
def test_matching_number_matches_mask_list_oracle(fam, at_least):
    # (nu, witness, node count) against the mask-list search the bitsets replaced
    nu, witness, nodes = mask_list_matching_number(fam.edge_tuples(), fam.k, at_least)
    assert matching_number(fam, at_least=at_least) == (nu, Matching(tuple(witness)))
    matching_number(fam, at_least=at_least, node_limit=nodes)
    with pytest.raises(ResourceLimitError):
        matching_number(fam, at_least=at_least, node_limit=nodes - 1)


def test_matching_number_at_least_short_circuit():
    nu, witness = matching_number(complete(12, 2), at_least=2)
    assert nu >= 2 and len(witness) >= 2
    assert_valid_matching(complete(12, 2), witness)


def test_matching_validation():
    s = star(7, 3, 1)
    with pytest.raises(DomainError):
        Matching.from_family(s, [(1, 2, 3), (1, 4, 5)])  # overlap at 1
    with pytest.raises(DomainError):
        Matching.from_family(s, [(2, 3, 4)])  # not an edge


def test_nu_at_most_fractional():
    rng = random.Random(51)
    for _ in range(30):
        fam = random_family_edge_count(rng, 9, 3, rng.randrange(0, 25))
        nu, _ = matching_number(fam)
        assert nu <= fractional_matching(fam).objective


@pytest.mark.parametrize("n,k,s", [(9, 2, 3), (12, 3, 3), (8, 3, 2)])
def test_erdos_extremal_exact_metrics(n, k, s):
    fam = erdos_extremal(n, k, s, 1)
    assert min_degree(fam, 1) == binomial(n - 1, k - 1) - binomial(n - s, k - 1)
    assert matching_number(fam)[0] == s - 1
    assert fractional_matching(fam).objective == s - 1


def test_rainbow_extension():
    fam = complete(7, 3)
    m = rainbow_extension(fam, [1, 2])
    assert len(m) == 2
    assert 1 in m.edges[0] and 2 in m.edges[1]
    assert_valid_matching(fam, m)


def test_rainbow_single_vertex():
    m = rainbow_extension(star(7, 3, 1), [3])
    assert len(m) == 1 and 3 in m.edges[0]


def test_rainbow_precondition_errors():
    with pytest.raises(DomainError):
        rainbow_extension(star(7, 3, 1), [2, 3])  # degrees 5 <= 10
    with pytest.raises(DomainError):
        rainbow_extension(complete(6, 3), [1, 2])  # ks = n
    with pytest.raises(DomainError):
        rainbow_extension(complete(7, 3), [1, 1])


def test_find_matching_complete_graph():
    fam = complete(37, 2)
    matching, trace = find_matching_by_degree(fam, 3)
    assert len(matching) == 3
    assert_valid_matching(fam, matching)
    assert trace[0]["branch"] == "high-degree-vertex"


def test_find_matching_random_graphs():
    rng = random.Random(52)
    for _ in range(10):
        fam = random_family_min_degree(rng, 37, 2, 3)
        assert min_degree(fam, 1) >= 3 > binomial(36, 1) - binomial(34, 1)
        matching, trace = find_matching_by_degree(fam, 3)
        assert len(matching) == 3
        assert_valid_matching(fam, matching)
        nu, _ = matching_number(fam, at_least=3)
        assert nu >= 3


def test_find_matching_triple_system():
    rng = random.Random(53)
    fam = random_family_min_degree(rng, 54, 3, 53)
    assert min_degree(fam, 1) >= 53 > binomial(53, 2) - binomial(52, 2)
    matching, _ = find_matching_by_degree(fam, 2)
    assert len(matching) == 2
    assert_valid_matching(fam, matching)


def test_find_matching_strict_preconditions():
    with pytest.raises(DomainError):
        find_matching_by_degree(complete(12, 2), 3)  # n < 3k^2 s
    sparse = Family.from_edges(37, 2, [(1, 2)])
    with pytest.raises(DomainError):
        find_matching_by_degree(sparse, 3)  # degree hypothesis fails


def test_find_matching_rejects_negative_size():
    for strict in (True, False):
        with pytest.raises(DomainError):
            find_matching_by_degree(complete(40, 2), -1, strict=strict)
    matching, trace = find_matching_by_degree(star(9, 2, 1), 0, strict=False)
    assert len(matching) == 0 and trace == [{"s": 0, "branch": "empty"}]


def test_find_matching_fallback():
    fam = complete(12, 2)  # n < 36 but nu = 6
    matching, trace = find_matching_by_degree(fam, 3, strict=False)
    assert len(matching) == 3
    assert trace[0]["branch"] == "outside-guarantee"
    with pytest.raises(DomainError):
        find_matching_by_degree(star(12, 2, 1), 3, strict=False)  # nu = 1


def test_trace_replay():
    """Replaying the recorded branches against degree profiles reproduces them."""
    rng = random.Random(54)
    for _ in range(5):
        fam = random_family_min_degree(rng, 37, 2, 3)
        _, trace = find_matching_by_degree(fam, 3)
        current = fam
        for step in trace:
            s = step["s"]
            if step["branch"] in ("pair-scan", "single-edge", "empty"):
                assert s <= 2
                continue
            deg = vertex_degrees(current)
            high = current.k * (s - 1) * binomial(current.n - 2, current.k - 2)
            if step["branch"] == "high-degree-vertex":
                v = step["vertex"]
                assert deg[v - 1] > high
                assert deg[v - 1] == max(deg)
                kept = [e for e in current.edge_tuples() if v not in e]
                relabeled = [tuple(u if u < v else u - 1 for u in e) for e in kept]
                current = Family.from_edges(current.n - 1, current.k, relabeled)
            elif step["branch"] == "rainbow":
                assert max(deg) <= high
                order = sorted(range(current.n), key=lambda i: (-deg[i], i))
                assert step["vertices"] == [i + 1 for i in order[:s]]
                assert deg[order[s - 1]] > step["threshold"]
            else:
                assert step["branch"] == "greedy-extension"
                assert max(deg) <= high


def test_reduce_cover_star():
    s = star(7, 3, 1)
    cover = fractional_cover(s)
    reduced = reduce_cover(s, cover)
    assert (reduced.n, reduced.k) == (6, 2)
    assert len(reduced) >= min_degree(s, 1)


def test_reduce_cover_all_ones():
    fam = complete(6, 3)
    ones = FractionalSolution("cover", {v: Fraction(1) for v in range(1, 7)}, Fraction(6))
    reduced = reduce_cover(fam, ones)
    assert reduced.edges == complete(5, 2).edges


def test_reduce_cover_infeasible_rejected():
    fam = complete(6, 3)
    bad = FractionalSolution("cover", {v: Fraction(0) for v in range(1, 7)}, Fraction(0))
    with pytest.raises(DomainError):
        reduce_cover(fam, bad)


def test_reduce_cover_contains_link_of_last_vertex():
    rng = random.Random(55)
    for _ in range(10):
        fam = random_family_edge_count(rng, 8, 3, 20)
        if fam.edge_count == 0:
            continue
        cover = fractional_cover(fam)
        reduced = reduce_cover(fam, cover)
        weights = {v: cover.weights.get(v, Fraction(0)) for v in range(1, 9)}
        order = sorted(range(1, 9), key=lambda v: (-weights[v], v))
        position = {v: i + 1 for i, v in enumerate(order)}
        last = order[-1]
        for e in fam.edge_tuples():
            if last in e:
                relabeled = tuple(sorted(position[u] for u in e if u != last))
                assert reduced.has_edge(relabeled)
        assert len(reduced) >= min_degree(fam, 1)


def test_reduce_cover_requires_k3():
    with pytest.raises(DomainError):
        reduce_cover(complete(6, 2), fractional_cover(complete(6, 2)))


def test_corollary33():
    assert corollary33_check(complete(7, 3), 2)
    with pytest.raises(DomainError):
        corollary33_check(erdos_extremal(7, 3, 2, 1), 2)  # delta_1 = 5, not > 5
    assert fractional_matching(erdos_extremal(7, 3, 2, 1)).objective == 1
    with pytest.raises(DomainError):
        corollary33_check(complete(4, 3), 2)  # n below the floor


def test_threshold_report():
    from ekrlab.matching import threshold_report

    rep = threshold_report(complete(7, 3), 2)
    assert (rep.n, rep.k, rep.d, rep.s) == (7, 3, 1, 2)
    assert rep.threshold == binomial(6, 2) - binomial(5, 2) == 5
    assert rep.delta == binomial(6, 2)
    assert rep.hypothesis_met and rep.conclusion_holds
    rep = threshold_report(erdos_extremal(7, 3, 2, 1), 2)
    assert not rep.hypothesis_met
    assert rep.nu_star == 1 and not rep.conclusion_holds
