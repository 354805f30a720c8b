"""Exact matching number, rainbow step, constructive algorithm, reduction."""

import inspect
import random
import sys
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from ekrlab import limits, search
from ekrlab.errors import ContradictionError, DomainError, ResourceLimitError
from ekrlab.families import Family, binomial, min_degree, vertex_degrees
from ekrlab.constructions import complete, erdos_extremal, fano, remark_family, star
from ekrlab.lp import FractionalSolution, fractional_cover, fractional_matching
from ekrlab.matching import (
    Matching,
    _greedy_cover_bound,
    _max_matching,
    _rainbow,
    corollary33_check,
    find_matching_by_degree,
    matching_number,
    rainbow_extension,
    reduce_cover,
    threshold_report,
)

from conftest import (
    count_transpositions,
    random_family,
    random_family_edge_count,
    random_family_min_degree,
    random_family_near_regular,
    small_families,
)
from oracles import (
    brute_matching_number,
    mask_list_matching_number,
    rescanning_greedy_cover,
    tuple_matching_by_degree,
    tuple_rainbow,
)


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
    (erdos_extremal(12, 3, 3, 1), None, 4),
    (erdos_extremal(8, 3, 2, 1), None, 2),
    (complete(10, 3), None, 4),
    (complete(9, 4), None, 3),
    (complete(12, 2), 2, 3),
    # the only row that needs the per-node greedy cover bound: without it
    # the search visits 49,686 nodes here
    (erdos_extremal(20, 3, 5, 1), None, 58),
], ids=["fano", "remark", "erdos(12,3,3,1)", "erdos(8,3,2,1)", "complete(10,3)",
        "complete(9,4)", "complete(12,2)-at-least-2", "erdos(20,3,5,1)"])
def test_branch_and_bound_node_counts_are_pinned(fam, at_least, nodes, monkeypatch):
    # machine-independent regression guard: the search visits exactly `nodes` nodes
    assert nodes <= limits.MATCHING_NODE_LIMIT
    result = matching_number(fam, at_least=at_least)
    monkeypatch.setattr(limits, "MATCHING_NODE_LIMIT", nodes)
    assert matching_number(fam, at_least=at_least) == result
    monkeypatch.setattr(limits, "MATCHING_NODE_LIMIT", nodes - 1)
    with pytest.raises(ResourceLimitError):
        matching_number(fam, at_least=at_least)


@pytest.mark.parametrize("fam, calls", [(erdos_extremal(20, 3, 5, 1), 43), (fano(), 2)],
                         ids=["erdos(20,3,5,1)", "fano"])
def test_the_root_greedy_cover_sets_the_goal_and_bounds_node_1(fam, calls, monkeypatch):
    # one greedy cover at the root serves both; each later node that passes
    # the support bound computes its own
    counted = [0]

    def counting(*args):
        counted[0] += 1
        return _greedy_cover_bound(*args)

    monkeypatch.setattr("ekrlab.matching._greedy_cover_bound", counting)
    matching_number(fam)
    assert counted[0] == calls


def test_300_singletons_pin_their_nodes_and_greedy_covers(monkeypatch):
    # every vertex is its own edge, so each node's greedy cover has as many
    # vertices as edges are left: 45,150 greedy steps in all, which took
    # about a second when every step recounted all 300 degrees
    fam = Family.from_edges(300, 1, [(v,) for v in range(1, 301)])
    counted = [0]

    def counting(*args):
        counted[0] += 1
        return _greedy_cover_bound(*args)

    monkeypatch.setattr("ekrlab.matching._greedy_cover_bound", counting)
    monkeypatch.setattr(limits, "MATCHING_NODE_LIMIT", 301)
    nu, witness = matching_number(fam)
    assert nu == len(witness) == 300
    assert counted[0] == 300
    monkeypatch.setattr(limits, "MATCHING_NODE_LIMIT", 300)
    with pytest.raises(ResourceLimitError):
        matching_number(fam)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=4).flatmap(lambda k: small_families(k=k, max_edges=40)),
       st.data())
def test_lazy_greedy_cover_matches_the_rescanning_loop(fam, data):
    avail = data.draw(st.integers(min_value=0, max_value=(1 << fam.edge_count) - 1))
    rows, degrees = _root_rows_and_degrees(avail, fam.through)
    through = list(fam.through.values())
    assert _greedy_cover_bound(avail, rows, degrees) == rescanning_greedy_cover(avail, through)


def _root_rows_and_degrees(avail, through):
    # what a search node hands the greedy cover: the rows nonzero at the
    # root, in vertex order, and their degrees, counted once
    rows = [row for row in through.values() if row & avail]
    return rows, [(avail & row).bit_count() for row in rows]


class _CountingDict(dict):
    """A dict that counts the calls of ``values`` on it."""

    iterations = 0

    def values(self):
        self.iterations += 1
        return super().values()


def _family_search(fam):
    edges = fam.edge_tuples()
    return (1 << len(edges)) - 1, fam.through, edges, fam.k


def _shape_search(n, k, seed):
    shape = search._shape(n, k)
    return random.Random(seed).getrandbits(len(shape.ksets)), shape.stars, shape.ksets, k


@pytest.mark.parametrize("instance", [
    lambda: _family_search(erdos_extremal(20, 3, 5, 1)),
    lambda: _shape_search(11, 2, 0),
], ids=["erdos(20,3,5,1)", "shape(11,2)"])
def test_max_matching_iterates_through_once_per_call(instance):
    # the root keeps the rows that can be nonzero, and every node reads
    # only those: no node walks all n rows of ``through`` again
    avail, through, edges, k = instance()
    counted = _CountingDict(through)
    expected = _max_matching(avail, through, edges, k, None)
    assert _max_matching(avail, counted, edges, k, None) == expected
    assert counted.iterations == 1


@settings(max_examples=150, deadline=None)
@given(small_families(), st.sampled_from([None, 1, 2, 3]))
def test_matching_number_matches_mask_list_oracle(fam, at_least):
    # (nu, witness, node count) against the mask-list search the bitsets replaced
    if fam.k == 0:  # answered before the search: the one empty edge matches alone
        edges = fam.edge_tuples()
        assert matching_number(fam, at_least=at_least) == (len(edges), Matching(tuple(edges)))
        assert len(edges) == brute_matching_number(edges)
        return
    nu, witness, nodes = mask_list_matching_number(fam.edge_tuples(), fam.k, at_least)
    assert matching_number(fam, at_least=at_least) == (nu, Matching(tuple(witness)))
    brute = brute_matching_number(fam.edge_tuples())
    assert nu == brute or at_least is not None and brute >= nu >= at_least  # stopped at at_least
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(limits, "MATCHING_NODE_LIMIT", nodes)
        matching_number(fam, at_least=at_least)
        patch.setattr(limits, "MATCHING_NODE_LIMIT", nodes - 1)
        with pytest.raises(ResourceLimitError):
            matching_number(fam, at_least=at_least)


@st.composite
def shape_bitsets(draw):
    n, k = draw(st.sampled_from([(7, 3), (8, 3), (9, 2), (11, 2)]))
    return n, k, draw(st.integers(min_value=0, max_value=(1 << binomial(n, k)) - 1))


@settings(max_examples=100, deadline=None)
@given(shape_bitsets(), st.sampled_from([None, 1, 2, 3]))
def test_max_matching_on_shape_tables_matches_matching_number(shape, at_least):
    # the scans' question: the same search on a rank bitset with the complete
    # family's stars and k-sets, node for node
    n, k, bits = shape
    shape = search._shape(n, k)
    stars, ksets = shape.stars, shape.ksets
    fam = Family.from_ranks(n, k, bits)
    nu, witness = matching_number(fam, at_least=at_least)
    ranks = _max_matching(bits, stars, ksets, k, at_least)
    assert (len(ranks), tuple(ksets[r] for r in ranks)) == (nu, witness.edges)
    nodes = mask_list_matching_number(fam.edge_tuples(), k, at_least)[2]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(limits, "MATCHING_NODE_LIMIT", nodes)
        assert matching_number(fam, at_least=at_least)[0] == nu
        assert len(_max_matching(bits, stars, ksets, k, at_least)) == nu
        patch.setattr(limits, "MATCHING_NODE_LIMIT", nodes - 1)
        with pytest.raises(ResourceLimitError):
            matching_number(fam, at_least=at_least)
        with pytest.raises(ResourceLimitError):
            _max_matching(bits, stars, ksets, k, at_least)


@settings(max_examples=100, deadline=None)
@given(shape_bitsets())
def test_lazy_greedy_cover_matches_the_rescanning_loop_on_shape_tables(shape):
    n, k, bits = shape
    stars = search._shape(n, k).stars
    rows, degrees = _root_rows_and_degrees(bits, stars)
    assert _greedy_cover_bound(bits, rows, degrees) == rescanning_greedy_cover(bits, list(stars.values()))


def test_matching_number_at_least_short_circuit():
    nu, witness = matching_number(complete(12, 2), at_least=2)
    assert nu >= 2 and len(witness) >= 2
    assert_valid_matching(complete(12, 2), witness)


def test_matching_search_depth_is_not_bounded_by_the_recursion_limit():
    # 150 disjoint pairs: the search matches one pair per level, 150 deep
    fam = Family.from_edges(300, 2, [(2 * i - 1, 2 * i) for i in range(1, 151)])
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        nu, witness = matching_number(fam)
    finally:
        sys.setrecursionlimit(old)
    assert nu == len(witness) == 150


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


def test_rainbow_search_backtracks_and_exhausts():
    # {1,3}, taken first for vertex 1, blocks {2,3}: the search backs up to {1,4}
    fam = Family.from_edges(4, 2, [(1, 3), (2, 3), (1, 4)])
    chosen = _rainbow(fam.through, fam.edge_tuples(), (1 << len(fam)) - 1, [1, 2])
    assert [fam.edge_tuples()[i] for i in chosen] == [(1, 4), (2, 3)]
    fam = Family.from_edges(4, 2, [(1, 3), (2, 3)])
    with pytest.raises(ContradictionError, match="rainbow search exhausted"):
        _rainbow(fam.through, fam.edge_tuples(), (1 << len(fam)) - 1, [1, 2])


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
        with pytest.raises(DomainError, match="no 21 disjoint 2-sets fit on n = 40"):
            find_matching_by_degree(complete(40, 2), 21, strict=strict)
        for s in (2, 5):  # one empty edge is all a 0-uniform family can hold
            with pytest.raises(DomainError, match=f"no {s} disjoint 0-sets fit on n = 3 .*"
                               "a 0-uniform family has at most one edge"):
                find_matching_by_degree(Family.from_edges(3, 0, [()]), s, strict=strict)
    matching, trace = find_matching_by_degree(star(9, 2, 1), 0, strict=False)
    assert len(matching) == 0 and trace == [{"s": 0, "branch": "empty"}]


def test_matching_number_counts_the_empty_edge_at_k0():
    single = Family.from_edges(3, 0, [()])
    assert matching_number(single) == (1, Matching(edges=((),)))
    assert matching_number(Family.empty(3, 0)) == (0, Matching(edges=()))
    matching, trace = find_matching_by_degree(single, 1, strict=False)
    assert matching.edges == ((),) and trace == [{"s": 1, "branch": "outside-guarantee", "nu": 1}]


def test_find_matching_by_degree_takes_k1():
    # delta_1 comes from the vertex degrees, which min_degree(., 1) refuses at k = 1
    two = Family.from_edges(5, 1, [(1,), (2,)])
    matching, trace = find_matching_by_degree(two, 1, strict=False)
    assert matching.edges == ((1,),) and trace[0]["branch"] == "outside-guarantee"
    with pytest.raises(DomainError, match="hypothesis violated"):
        find_matching_by_degree(two, 1)
    full = Family.from_edges(6, 1, [(v,) for v in range(1, 7)])
    matching, trace = find_matching_by_degree(full, 2)
    assert len(matching) == 2 and "outside-guarantee" not in [t["branch"] for t in trace]
    assert threshold_report(two, 1).delta == 0
    assert threshold_report(full, 2).delta == 1


def test_find_matching_rejects_an_empty_ground_set():
    for s in (0, 1, 2):
        for strict in (True, False):
            with pytest.raises(DomainError, match="nonempty ground set, got n = 0"):
                find_matching_by_degree(Family.from_edges(0, 0, []), s, strict=strict)


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
    cases = [(random_family_min_degree(rng, 37, 2, 3), 3) for _ in range(5)]
    # at k = 2 the high-degree and rainbow thresholds coincide; at k = 3 rainbow fires
    cases.append((random_family_near_regular(random.Random(55), 81, 3, 330), 3))
    seen = set()
    for fam, s in cases:
        _, trace = find_matching_by_degree(fam, s)
        seen.update(step["branch"] for step in trace)
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
    assert {"high-degree-vertex", "rainbow"} <= seen


def _heavy_vertex_family(rng):
    """(108,3,4): vertex 54 has degree 1000, and once it is deleted every
    other degree lies in 450..457, above the rainbow bound 420 at s = 3."""
    rest = random_family_near_regular(rng, 107, 3, 450).edge_tuples()
    others = [v for v in range(1, 109) if v != 54]
    heavy = [(54,) + pair for pair in rng.sample(list(combinations(others, 2)), 1000)]
    return Family.from_edges(108, 3, [tuple(u + (u >= 54) for u in e) for e in rest] + heavy)


def test_construct_matches_tuple_oracle():
    """Bitset levels give the matching and trace of the relabel-and-lift recursion."""
    rng = random.Random(61)
    high = "high-degree-vertex"
    cases = [
        (random_family_min_degree(rng, 37, 2, 3), 3, [high, "pair-scan"]),
        (random_family_min_degree(rng, 48, 2, 4), 4, [high, high, "pair-scan"]),
        (random_family_min_degree(rng, 60, 2, 5), 5, [high, high, high, "pair-scan"]),
        (random_family_min_degree(rng, 54, 3, 53), 2, ["pair-scan"]),
        (random_family_near_regular(rng, 81, 3, 330), 3, ["rainbow"]),
        (random_family_near_regular(rng, 81, 3, 158), 3, ["greedy-extension", "pair-scan"]),
        (_heavy_vertex_family(rng), 4, [high, "rainbow"]),
    ]
    for fam, s, branches in cases:
        matching, trace = find_matching_by_degree(fam, s)
        assert [step["branch"] for step in trace] == branches
        expected = tuple_matching_by_degree(fam.edge_tuples(), fam.n, fam.k, s)
        assert repr((list(matching.edges), trace)) == repr(expected)
    # the rainbow vertices above the deleted vertex 54 are named by relabelled id
    assert trace[0]["vertex"] == 54 and max(trace[1]["vertices"]) >= 54


@st.composite
def degree_hypothesis_families(draw):
    """(family, s) with k, s in {2, 3}, n >= 3 k^2 s and delta_1 above
    C(n-1,k-1) - C(n-s,k-1): a near-regular family whose degrees reach a
    target between that threshold and k(s-1) C(n-2,k-2), the bound of the
    high-degree branch, and maybe one vertex with extra edges, so every
    branch of the construction fires."""
    k, s = draw(st.sampled_from([2, 3])), draw(st.sampled_from([2, 3]))
    n = draw(st.integers(min_value=3 * k * k * s, max_value=3 * k * k * s + 4))
    floor = binomial(n - 1, k - 1) - binomial(n - s, k - 1) + 1
    target = draw(st.integers(min_value=floor, max_value=k * (s - 1) * binomial(n - 2, k - 2)))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    edges = set(random_family_near_regular(rng, n, k, target).edge_tuples())
    if draw(st.booleans()):
        heavy = draw(st.integers(min_value=1, max_value=n))
        pool = list(combinations([v for v in range(1, n + 1) if v != heavy], k - 1))
        extra = rng.sample(pool, draw(st.integers(min_value=0, max_value=min(2 * target, len(pool)))))
        edges.update(tuple(sorted((heavy,) + rest)) for rest in extra)
    return Family.from_edges(n, k, edges), s


@settings(max_examples=40, deadline=None)
@given(degree_hypothesis_families())
def test_construct_matches_tuple_oracle_on_random_families(fam_s):
    fam, s = fam_s
    matching, trace = find_matching_by_degree(fam, s)
    expected = tuple_matching_by_degree(fam.edge_tuples(), fam.n, fam.k, s)
    assert repr((list(matching.edges), trace)) == repr(expected)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(min_value=1, max_value=3), st.data())
def test_rainbow_extension_matches_tuple_placement(k, s, data):
    n = data.draw(st.integers(min_value=k * s + 1, max_value=10))
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=2**32)))
    fam = random_family(rng, n, k, data.draw(st.floats(min_value=0.5, max_value=1.0)))
    need = 2 * (s - 1) * binomial(n - 2, k - 2)
    deg = vertex_degrees(fam)
    eligible = [v for v in range(1, n + 1) if deg[v - 1] > need]
    assume(len(eligible) >= s)
    vertices = data.draw(st.permutations(eligible))[:s]
    expected = tuple_rainbow(fam.edge_tuples(), vertices)
    assert list(rainbow_extension(fam, vertices).edges) == expected


def test_construct_transposes_once_from_s_2(monkeypatch):
    transposed = count_transpositions(monkeypatch)
    for fam, s, transposes in [(complete(60, 2), 5, 1), (complete(24, 2), 2, 1),
                               (complete(12, 2), 1, 0), (complete(12, 2), 0, 0)]:
        transposed.clear()
        find_matching_by_degree(fam, s)
        assert len(transposed) == transposes


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


def test_reduce_cover_reads_a_missing_vertex_as_weight_0():
    # the cover has a key only for vertices on some edge; the same cover
    # widened with explicit zeros over [n] reduces to the same family
    rng = random.Random(56)
    for k in (3, 4):
        for _ in range(8):
            n = rng.randrange(k + 2, 10)
            support = sorted(rng.sample(range(1, n + 1), rng.randrange(k, n)))
            pool = list(combinations(support, k))
            fam = Family.from_edges(n, k, rng.sample(pool, rng.randrange(1, min(len(pool), 12) + 1)))
            cover = fractional_cover(fam)
            isolated = set(range(1, n + 1)).difference(*fam.edge_tuples())
            assert isolated and set(cover.weights).isdisjoint(isolated)
            widened = FractionalSolution(
                "cover", {v: cover.weights.get(v, Fraction(0)) for v in range(1, n + 1)},
                cover.objective)
            assert reduce_cover(fam, cover) == reduce_cover(fam, widened)


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


@pytest.mark.parametrize("s", [100, 0, -1])
@pytest.mark.parametrize("call", [threshold_report, corollary33_check])
def test_a_matching_size_outside_1_to_n_is_refused_by_name(call, s):
    with pytest.raises(DomainError, match=rf"^{call.__name__}: need 1 <= s <= n = 7, got s={s}$"):
        call(star(7, 3, 1), s)


@pytest.mark.parametrize("call, message", [
    (lambda: rainbow_extension(star(9, 2, 1), [0]), "rainbow vertices must lie in [1, 9]"),
    (lambda: rainbow_extension(star(9, 2, 1), [1, 10]), "rainbow vertices must lie in [1, 9]"),
    (lambda: reduce_cover(complete(6, 3), FractionalSolution("matching", {}, Fraction(0))),
     "reduce_cover expects a fractional cover"),
], ids=["rainbow-vertex-0", "rainbow-vertex-above-n", "reduce-a-matching"])
def test_matching_refusals_name_what_is_wrong(call, message):
    with pytest.raises(DomainError) as raised:
        call()
    assert str(raised.value) == message
