"""Core substrate: binomials, colex ranking, predicates, degrees, links."""

import dataclasses
import random
import subprocess
import sys
from collections import Counter
from itertools import chain, combinations, compress

import pytest
from hypothesis import example, given, settings, strategies as st

import ekrlab.families
from ekrlab.certificates import cross_certificate, ekr_certificate, simplex_witness
from ekrlab import limits
from ekrlab.errors import DomainError, ResourceLimitError
from ekrlab.families import (
    _DENSE_RATIO as DENSE_RATIO,
    _STAR_RATIO as STAR_RATIO,
    Family,
    _digit_rows,
    _star_table,
    _stars,
    are_cross_intersecting,
    binomial,
    degree,
    degree_profile,
    is_intersecting,
    iter_bits,
    kset_count,
    link,
    meet_rows,
    min_degree,
    rank_colex,
    unrank_colex,
    vertex_degrees,
)
from ekrlab.constructions import complete, hilton_milner, remark_family, star
from ekrlab.lp import fractional_cover
from ekrlab.matching import matching_number
from ekrlab.search import maximal_intersecting
from ekrlab.spectral import disjoint_pairs

from conftest import (
    count_decodes, count_transpositions, random_family, random_family_edge_count, small_families,
)
from oracles import (
    colex_list,
    linear_unrank,
    or_loop_edge_bits,
    pairwise_are_cross_intersecting,
    pairwise_disjoint_pairs,
    pairwise_is_intersecting,
    pascal_binomial,
    transposed_masks,
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
    with pytest.raises(DomainError, match=r"^rank 35 out of range \[0, 35\) at \(n=7, k=3\)$"):
        unrank_colex(binomial(7, 3), 3, 7)
    with pytest.raises(DomainError, match=r"^rank -1 out of range \[0, 35\) at \(n=7, k=3\)$"):
        unrank_colex(-1, 3, 7)
    with pytest.raises(DomainError) as bad_k:
        unrank_colex(0, 4, 3)
    assert str(bad_k.value) == "unrank_colex: need 0 <= k <= n, got k=4, n=3"


def test_unrank_matches_colex_list_on_every_rank_up_to_n_20():
    for n in range(21):
        for k in range(n + 1):
            colex = colex_list(n, k)
            assert [unrank_colex(r, k, n) for r in range(len(colex))] == colex


def test_unrank_matches_linear_walk_on_random_ranks_below_n_60():
    rng = random.Random(60)
    for n in range(21, 60):
        for k in range(n + 1):
            total = binomial(n, k)
            if total > limits.FAMILY_KSET_LIMIT:
                continue
            for r in {0, total - 1, *(rng.randrange(total) for _ in range(20))}:
                assert unrank_colex(r, k, n) == linear_unrank(r, k, n)


def test_unrank_is_gated_like_families():
    cap = limits.FAMILY_KSET_LIMIT
    assert binomial(5793, 2) <= cap < binomial(5794, 2)
    assert unrank_colex(binomial(5793, 2) - 1, 2, 5793) == (5792, 5793)
    for r, k, n in [(0, 2, 5794), (0, 1, cap + 1), (0, 20, 40)]:
        with pytest.raises(ResourceLimitError, match="FAMILY_KSET_LIMIT"):
            unrank_colex(r, k, n)
    with pytest.raises(ResourceLimitError):
        Family.from_ranks(40, 20, 1).edge_tuples()
    # level 1 is the rank itself, so k = 1 decodes at the gate's largest n
    assert unrank_colex(cap - 1, 1, cap) == (cap,)


def test_a_lowered_family_limit_gates_decodes_of_a_cached_shape(monkeypatch):
    # the unrank table is cached per shape, but the gate runs on every call
    assert len(Family.from_ranks(12, 4, (1 << 495) - 1).edge_tuples()) == 495
    monkeypatch.setattr(limits, "FAMILY_KSET_LIMIT", 100)
    refused = r"^C\(n,k\) = C\(12,4\) = 495 k-sets exceed FAMILY_KSET_LIMIT = 100$"
    with pytest.raises(ResourceLimitError, match=refused):
        unrank_colex(0, 4, 12)
    with pytest.raises(ResourceLimitError, match=refused):
        Family.from_ranks(12, 4, 1).edge_tuples()
    with pytest.raises(ResourceLimitError, match=refused):
        Family.from_edges(12, 4, [(1, 2, 3, 4)])


@pytest.mark.parametrize("name, value, call", [
    ("FAMILY_KSET_LIMIT", 100, lambda: Family.from_edges(12, 4, [])),
    ("LP_EDGE_LIMIT", 10, lambda: fractional_cover(complete(8, 3))),
    ("ENUM_KSET_LIMIT", 10, lambda: maximal_intersecting(6, 2)),
    ("MATCHING_NODE_LIMIT", 1, lambda: matching_number(complete(7, 3))),
], ids=["FAMILY", "LP", "ENUM", "MATCHING"])
def test_every_limit_refusal_names_its_constant(name, value, call, monkeypatch):
    call()  # passes at the default
    monkeypatch.setattr(limits, name, value)
    with pytest.raises(ResourceLimitError, match=f" exceed {name} = {value}$"):
        call()


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


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=4).flatmap(lambda k: small_families(k=k)), st.data())
def test_degree_counts_the_edges_holding_the_subset(fam, data):
    # S = (), a drawn S and, where there is one, a vertex on no edge; the
    # calls share one transposition, which S = () alone does not need
    edges = fam.edge_tuples()
    drawn = data.draw(st.sets(st.integers(min_value=1, max_value=fam.n), max_size=fam.k - 1))
    subsets = [(), tuple(sorted(drawn))]
    idle = [v for v in range(1, fam.n + 1) if not any(v in e for e in edges)]
    if idle and fam.k >= 2:
        subsets.append((idle[0],))
    with pytest.MonkeyPatch.context() as patch:
        transposed = count_transpositions(patch)
        for s in subsets:
            assert degree(fam, s) == sum(1 for e in edges if set(s) <= set(e))
            assert degree(fam, s) == degree(fam, s)
    assert transposed == ([fam] if any(subsets) else [])


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


def test_min_degree_when_every_subset_is_covered():
    # each pair of [6] lies in the C(4,1) = 4 triples that add one more vertex
    assert min_degree(complete(6, 3), 2) == 4


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
            assert profile.maximum() <= cap
    full = complete(7, 3)
    assert all(c == binomial(5, 1) for c in degree_profile(full, 2).degrees.values())
    assert degree_profile(full, 2).maximum() == binomial(5, 1)
    assert degree_profile(Family.empty(7, 3), 1).maximum() == 0


def test_intersecting_iff_no_disjoint_pairs():
    rng = random.Random(4)
    for _ in range(50):
        fam = random_family(rng, 6, 3, 0.4)
        assert is_intersecting(fam) == (disjoint_pairs(fam) == 0)


def test_incidence_and_meets_of_a_small_family():
    fam = Family.from_edges(5, 2, [(1, 2), (2, 3), (4, 5)])  # colex: 12, 23, 45
    assert list(fam.through.items()) == [(1, 0b001), (2, 0b011), (3, 0b010), (4, 0b100), (5, 0b100)]
    assert list(meet_rows(fam.through, fam.edge_tuples())) == [0b011, 0b011, 0b100]
    # the complete family's incidence bitsets are the stars
    full = complete(6, 3)
    assert list(full.through.items()) == [(v, star(6, 3, v).edges) for v in range(1, 7)]
    assert Family.empty(3, 3).through == {}
    assert list(meet_rows({}, [])) == []


@st.composite
def small_rank_sets(draw):
    """(n, k, ranks): any uniformity on at most 12 vertices, k = 0 and the
    empty family included."""
    k = draw(st.integers(min_value=0, max_value=6))
    n = draw(st.integers(min_value=k, max_value=12))
    ranks = draw(st.sets(st.integers(min_value=0, max_value=binomial(n, k) - 1), max_size=40))
    return n, k, sorted(ranks)


@settings(max_examples=150, deadline=None)
@given(small_rank_sets())
@example((0, 0, []))
@example((0, 0, [0]))
@example((4, 0, [0]))
@example((5, 3, []))
def test_through_matches_the_transposed_masks(nkr):
    n, k, ranks = nkr
    fam = Family.from_ranks(n, k, sum(1 << r for r in ranks))
    masks = transposed_masks(fam.edge_tuples(), n)
    assert list(fam.through.items()) == [(v, row) for v, row in enumerate(masks, 1) if row]


@pytest.mark.parametrize("width", range(1, 7))
@pytest.mark.parametrize("edges", [
    [], [()], [(3,)], [(1, 2), (2, 5), (1, 5), (3, 4)],
    random_family_edge_count(random.Random(9), 9, 3, 20).edge_tuples(),
], ids=["none", "k0", "k1", "k2", "random93"])
def test_digit_rows_match_a_per_bit_oracle(edges, width):
    # bit b of edge i's field is set iff b = 0 and edge i holds the vertex
    rows = _digit_rows(edges, width)
    assert sorted(rows) == sorted({v for e in edges for v in e})
    for v, row in rows.items():
        bits = [row >> b & 1 for b in range(width * len(edges) + width)]
        assert bits == [int(b % width == 0 and b < width * len(edges) and v in edges[b // width])
                        for b in range(width * len(edges) + width)]


@st.composite
def same_shape_pairs(draw):
    """Two families of one (n, k), drawn independently, so their supports
    usually differ; isolated vertices, empty families, n = 0 and k = 1 included."""
    k = draw(st.integers(min_value=0, max_value=4))
    n = draw(st.integers(min_value=k, max_value=10))
    return draw(small_families(n=n, k=k)), draw(small_families(n=n, k=k))


def _check_support_keyed_state(fam: Family) -> None:
    edges, n = fam.edge_tuples(), fam.n
    counts = [sum(v in e for e in edges) for v in range(1, n + 1)]
    masks = transposed_masks(edges, n)
    support = [v for v in range(1, n + 1) if counts[v - 1]]
    assert list(fam.through) == support == sorted(fam._degrees)
    assert list(fam.through.values()) == [masks[v - 1] for v in support]
    assert vertex_degrees(fam) == counts
    assert ekrlab.families._delta1(fam) == min(counts, default=0)
    if fam.k >= 2:
        assert min_degree(fam, 1) == min(counts, default=0)
        assert [degree(fam, (v,)) for v in range(1, n + 1)] == counts


@settings(max_examples=200, deadline=None)
@given(same_shape_pairs())
@example((Family.empty(0, 0), Family.from_ranks(0, 0, 1)))
@example((Family.from_edges(6, 1, [(1,), (4,)]), Family.from_edges(6, 1, [(2,)])))
@example((Family.from_edges(5, 2, [(1, 2)]), Family.from_edges(5, 2, [(1, 3), (1, 4)])))
@example((Family.from_edges(5, 2, [(1, 3), (1, 4)]), Family.from_edges(5, 2, [(1, 2)])))
@example((Family.empty(7, 3), Family.from_edges(7, 3, [(2, 3, 4)])))
@example((Family.from_edges(7, 3, [(1, 2, 3)]), Family.from_edges(7, 3, [(4, 5, 6)])))
def test_per_vertex_state_is_keyed_by_the_support(pair):
    # rows and degrees are kept for the vertices on some edge only; every
    # reader treats a vertex off the support as degree 0 with an empty row
    left, right = pair
    _check_support_keyed_state(left)
    _check_support_keyed_state(right)
    cross = pairwise_are_cross_intersecting(left.edge_tuples(), right.edge_tuples())
    assert are_cross_intersecting(left, right) == cross
    if left.k >= 2 and left.n >= 2 * left.k + 1:
        if not cross:
            with pytest.raises(DomainError, match="not cross-intersecting"):
                cross_certificate(left, right)
        else:
            cert = cross_certificate(left, right)
            assert (cert.delta1_b, cert.delta1_c) == (min_degree(left, 1), min_degree(right, 1))


def test_per_vertex_state_of_a_wide_ground_set_has_one_entry_per_edge_vertex():
    # five singletons on n = 1.6 * 10^7: no row or degree for the other vertices
    fam = Family.from_edges(16_000_000, 1, [(1,), (5,), (777,), (12345,), (16_000_000,)])
    assert len(fam.through) == len(fam._degrees) == 5


def test_cross_intersecting_transposes_the_left_family_only(monkeypatch):
    # within the star rule (11,4) neither side is decoded or transposed: the
    # one edge off the hub is checked against the stars; past it (30,4) the
    # left family is transposed and no other
    left, right = hilton_milner(11, 4), hilton_milner(11, 4)
    wide_left, wide_right = hilton_milner(30, 4), hilton_milner(30, 4)
    assert _star_table(left) is not None and _star_table(wide_left) is None
    transposed, decodes = count_transpositions(monkeypatch), count_decodes(monkeypatch)
    assert are_cross_intersecting(left, right)
    assert transposed == decodes == []
    assert are_cross_intersecting(wide_left, wide_right)
    assert len(transposed) == 1 and transposed[0] is wide_left  # equal families: test identity


def _star_sub(n: int, k: int, center: int, keep: float, seed: int) -> Family:
    rng = random.Random(seed)
    return Family.from_edges(n, k, [e for e in star(n, k, center) if rng.random() < keep])


def test_is_intersecting_decides_a_star_from_its_degrees(monkeypatch):
    transposed = count_transpositions(monkeypatch)
    assert is_intersecting(_star_sub(14, 5, 1, 0.9, 14))
    assert transposed == []


def test_same_center_pairs_are_decided_from_the_degrees(monkeypatch):
    # a vertex on every edge of both sides, also when one side has no edges:
    # within the star rule (14,5) the degrees are popcounts and no edge is off
    # the hub, so nothing is decoded; past it (40,4) each side is decoded once
    # for its degrees; neither transposes
    left, right = _star_sub(14, 5, 3, 0.7, 1), _star_sub(14, 5, 3, 0.7, 2)
    wide_left, wide_right = _star_sub(40, 4, 3, 0.7, 1), _star_sub(40, 4, 3, 0.7, 2)
    assert _star_table(left) is not None and _star_table(wide_left) is None
    empty = Family.empty(14, 5)
    transposed, decodes = count_transpositions(monkeypatch), count_decodes(monkeypatch)
    for pair in ((left, right), (right, left), (left, empty), (empty, right)):
        assert are_cross_intersecting(*pair)
    assert transposed == decodes == []
    assert are_cross_intersecting(wide_left, wide_right)
    assert transposed == [] and decodes == [wide_left, wide_right]


@pytest.mark.parametrize("pair", [
    lambda n: (_star_sub(n, 4, 1, 0.7, 3), _star_sub(n, 4, 2, 0.7, 4)),
    lambda n: (star(n, 4, 1), star(n, 4, 2)),
], ids=["star-subfamilies", "stars"])
def test_stars_at_two_centers_transpose_the_left_family(monkeypatch, pair):
    # Hilton-Milner pairs: test_cross_intersecting_transposes_the_left_family_only;
    # within the star rule (11,4) the edges off the hub are checked against
    # the stars and nothing is transposed; past it (40,4) the left family is
    (left, right), (wide_left, wide_right) = pair(11), pair(40)
    assert _star_table(left) is not None and _star_table(wide_left) is None
    transposed = count_transpositions(monkeypatch)
    assert not are_cross_intersecting(left, right)
    assert transposed == []
    assert not are_cross_intersecting(wide_left, wide_right)
    assert transposed == [wide_left]


def test_unequal_shapes_raise_before_transposing(monkeypatch):
    transposed = count_transpositions(monkeypatch)
    # one center on every edge of both sides does not pass two shapes
    for left, right in ((star(9, 3), star(10, 3)), (star(10, 4), star(10, 3)),
                        (star(9, 3), Family.empty(10, 3))):
        with pytest.raises(DomainError, match="requires matching"):
            are_cross_intersecting(left, right)
    assert transposed == []


@pytest.mark.parametrize("n", [0, 10**12])
def test_k0_pairs_read_no_ground_set(n):
    # one empty edge meets nothing; an empty side passes vacuously; no walk over [n]
    code = (
        "from ekrlab import Family, are_cross_intersecting as x, is_intersecting as i; "
        f"one, none = Family.from_ranks({n}, 0, 1), Family.empty({n}, 0); "
        "print(x(one, one), x(one, none), x(none, one), x(none, none), i(one), i(none))"
    )
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True, timeout=20)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == "False True True True True True\n"


def test_meet_questions_on_one_family_transpose_once(monkeypatch):
    transposed = count_transpositions(monkeypatch)
    fam = random_family_edge_count(random.Random(14), 9, 3, 30)
    is_intersecting(fam)
    disjoint_pairs(fam)
    matching_number(fam)
    assert len(transposed) == 1


def _check_meet_predicates(fam: Family, other: Family) -> None:
    edges, other_edges = fam.edge_tuples(), other.edge_tuples()
    assert is_intersecting(fam) == pairwise_is_intersecting(edges)
    assert disjoint_pairs(fam) == pairwise_disjoint_pairs(edges)
    assert are_cross_intersecting(fam, other) == pairwise_are_cross_intersecting(edges, other_edges)
    assert are_cross_intersecting(other, fam) == pairwise_are_cross_intersecting(other_edges, edges)


@settings(max_examples=300, deadline=None)
@given(same_shape_pairs())
@example((star(6, 3, 2), Family.from_edges(6, 3, [(1, 2, 3), (2, 4, 5)])))
@example((star(6, 3, 1), star(6, 3, 2)))
@example((Family.empty(6, 3), star(6, 3, 4)))
@example((Family.from_edges(6, 3, [(1, 2, 3), (4, 5, 6)]), Family.empty(6, 3)))
def test_meet_predicates_match_pairwise_oracles(pair):
    # meet rows and the common-vertex shortcut against the pairwise loops:
    # same-center, different-center and empty-side pairs pinned
    _check_meet_predicates(*pair)


def test_stars_are_the_rows_of_the_complete_family():
    for n in range(1, 13):
        for k in range(1, n + 1):
            assert _stars(n, k) == Family.from_ranks(n, k, (1 << binomial(n, k)) - 1).through


def _threshold(n: int, k: int) -> int:
    """The fewest edges inside the star rule n C(n,k) <= STAR_RATIO k e."""
    return -(-n * binomial(n, k) // (STAR_RATIO * k))


@st.composite
def star_rule_pairs(draw):
    """Two families of one shape, k = 1..5: each a subfamily of a star plus up
    to three k-sets off its center, sized near the star rule's threshold, or
    empty, or with every k-set.  Centers often coincide, so hubs hold most
    edges of both sides and sometimes tie."""
    k = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.integers(min_value=k, max_value=12))
    ksets = list(combinations(range(1, n + 1), k))
    edge = _threshold(n, k)
    rng = draw(st.randoms(use_true_random=False))
    sides = []
    for _ in range(2):
        center = draw(st.integers(min_value=1, max_value=min(n, 3)))
        size = draw(st.sampled_from([edge, max(edge - 1, 1), edge + 1, 2 * edge, len(ksets), 0]))
        off = [s for s in ksets if center not in s]
        extra = rng.sample(off, min(draw(st.integers(min_value=0, max_value=3)), len(off), size))
        through = [s for s in ksets if center in s]
        edges = extra + rng.sample(through, min(max(size - len(extra), 0), len(through)))
        sides.append(Family.from_edges(n, k, edges))
    return tuple(sides)


@settings(max_examples=400, deadline=None)
@given(star_rule_pairs())
@example((Family.from_edges(7, 3, [(1, 2, 3), (1, 4, 5)]),  # hub tie at 1 and 2
          Family.from_edges(7, 3, [(2, 4, 6), (1, 2, 7)])))
@example((Family.from_edges(7, 3, [(1, 2, 3), (1, 4, 5)]),  # an off-hub edge misses
          Family.from_edges(7, 3, [(2, 4, 6), (1, 6, 7)])))
def test_star_rule_matches_the_count_and_the_pair_oracle(pair):
    # degrees against a Counter over the decoded edges, and both pair
    # predicates, in both argument orders, against the pairwise loops, on
    # both sides of the star rule
    left, right = pair
    oracle = [Counter(chain.from_iterable(fam.edge_tuples())) for fam in pair]
    edges = [fam.edge_tuples() for fam in pair]
    assert [Family.from_ranks(f.n, f.k, f.edges)._degrees for f in pair] == oracle
    assert is_intersecting(left) == pairwise_is_intersecting(edges[0])
    assert are_cross_intersecting(left, right) == pairwise_are_cross_intersecting(*edges)
    assert are_cross_intersecting(right, left) == pairwise_are_cross_intersecting(*edges[::-1])


@pytest.mark.parametrize("n, k", [(7, 3), (11, 4), (13, 5), (12, 2), (16, 2), (9, 1)])
def test_star_rule_holds_from_its_threshold(n, k):
    # one edge short of the rule and at it, where (16,2) meets it with
    # equality: an edge off the hub, which meets every other edge or misses
    # the first, and edges through vertex 1
    edge = _threshold(n, k)
    through = [s for s in combinations(range(1, n + 1), k) if 1 in s]
    for off in (tuple(range(2, k + 2)), tuple(range(n - k + 1, n + 1))):
        ordered = sorted(through, key=lambda s: not set(s) & set(off))  # meeting ones first
        for size, inside in ((edge - 1, False), (edge, True)):
            fam = Family.from_edges(n, k, [off] + ordered[:size - 1])
            assert fam.edge_count == size and (_star_table(fam) is not None) == inside
            assert fam._degrees == Counter(chain.from_iterable(fam.edge_tuples()))
            assert is_intersecting(fam) == pairwise_is_intersecting(fam.edge_tuples())


@pytest.mark.parametrize("n", [11, 30])
def test_an_empty_side_needs_no_check(monkeypatch, n):
    # on both sides of the star rule, nothing of the other side is read
    fam, empty = hilton_milner(n, 4), Family.empty(n, 4)
    transposed, decodes = count_transpositions(monkeypatch), count_decodes(monkeypatch)
    assert are_cross_intersecting(fam, empty) and are_cross_intersecting(empty, fam)
    assert transposed == decodes == [] and "_degrees" not in vars(fam)


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


@settings(max_examples=100, deadline=None)
@given(small_families(), st.randoms(use_true_random=False))
def test_from_edges_matches_the_or_loop(fam, rnd):
    # any edge order and vertex order gives the bitset of one |= per edge
    edges = [tuple(rnd.sample(edge, len(edge))) for edge in fam.edge_tuples()]
    rnd.shuffle(edges)
    built = Family.from_edges(fam.n, fam.k, edges)
    assert built == fam and built.edges == or_loop_edge_bits(edges)
    if edges:
        edges.insert(rnd.randrange(len(edges) + 1), rnd.choice(edges))
        with pytest.raises(DomainError, match="^duplicate edge ") as library:
            Family.from_edges(fam.n, fam.k, edges)
        with pytest.raises(DomainError) as oracle:
            or_loop_edge_bits(edges)
        assert str(library.value) == str(oracle.value)


def test_edge_count_is_derived_from_the_bitset():
    assert [field.name for field in dataclasses.fields(Family)] == ["n", "k", "edges"]
    fam = Family.from_ranks(7, 3, 0b1011)
    assert len(fam) == fam.edge_count == 3 and "edge_count" in vars(fam)
    assert fam == Family.from_edges(7, 3, fam.edge_tuples())
    assert Family.empty(7, 3).edge_count == 0
    # the rank range ends at C(7,3) = 35: rank 34 is the last k-set
    Family.from_ranks(7, 3, 1 << 34)
    with pytest.raises(DomainError, match="outside the valid rank range"):
        Family.from_ranks(7, 3, 1 << 35)


def test_kset_count_is_exact_up_to_its_cap():
    for n in range(14):
        for k in range(n + 1):
            assert kset_count(n, k) == binomial(n, k)
    assert kset_count(13_000, 6_500) == binomial(13_000, 6_500)  # 3912 digits
    assert kset_count(14_000, 7_000) is None  # 4213 digits
    # math.comb takes seconds here; the count stops once it passes 2^13288
    assert kset_count(4 * 10**6, 2 * 10**6) is None
    assert kset_count(10**12, 5 * 10**11) is None
    Family.from_ranks(10**6, 5 * 10**5, 1 << 10**6)  # no full count for the rank check
    with pytest.raises(ResourceLimitError) as huge:
        Family.from_edges(100000, 50000, [])
    assert str(huge.value) == "C(n,k) = C(100000,50000) k-sets exceed FAMILY_KSET_LIMIT = 16777216"


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
    if binomial(n, k) > limits.FAMILY_KSET_LIMIT:
        with pytest.raises(ResourceLimitError):
            unrank_colex(r, k, n)
        return
    s = unrank_colex(r, k, n)
    assert s == linear_unrank(r, k, n)
    assert len(s) == k
    assert all(1 <= a < b <= n for a, b in zip(s, s[1:]))
    assert not s or 1 <= s[0] and s[-1] <= n
    assert rank_colex(s) == r


@st.composite
def decodable_ranks(draw):
    """(n, k, sorted ranks): dense draws up to (18,5), k = 0 and empty sets
    included; at k = 3..8, one edge per about 32 ranks, on either side of
    the cutoff between the scan and the walk; or a few ranks on a wide
    shape, where the bitset holds up to 2^24 bits and the walk must drop
    empty ranges, or at k >= n - 1."""
    rng = draw(st.randoms(use_true_random=False))
    branch = draw(st.integers(min_value=0, max_value=2))
    if branch == 0:
        k = draw(st.integers(min_value=0, max_value=5))
        n = draw(st.integers(min_value=k, max_value=18))
        density = draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))
        return n, k, [r for r in range(binomial(n, k)) if rng.random() < density]
    if branch == 1:
        k = draw(st.integers(min_value=3, max_value=8))
        n = draw(st.integers(min_value=k, max_value=k + 10))
        total = binomial(n, k)
        dense = -(-total // DENSE_RATIO)  # the fewest edges the scan takes
        e = min(total, max(0, dense + draw(st.integers(min_value=-2, max_value=2))))
        return n, k, sorted(rng.sample(range(total), e))
    # the oracle walks down from n: about 0.2 s per rank at (10^6, 1)
    shape = [(465, 3, 40), (5793, 2, 40), (10**6, 1, 3), (5000, 4999, 40), (5000, 5000, 1)]
    n, k, most = draw(st.sampled_from(shape))
    total = binomial(n, k)
    return n, k, sorted(rng.sample(range(total), draw(st.integers(0, most))))


@settings(max_examples=100, deadline=None)
@given(decodable_ranks())
@example((465, 3, []))
@example((5000, 4999, [0]))
@example((5000, 4999, [4999]))
@example((5000, 5000, [0]))
@example((32, 3, list(range(0, 4960, 32))))  # C(n,k) = 32 e: scanned
@example((21, 4, list(range(1, 5985, 32))))  # C(n,k) = 32 e + 1: walked
@example((6, 3, [7]))
@example((10, 4, list(range(210))))
@example((5000, 4999, sorted(random.Random(23).sample(range(5000), 200))))
def test_decode_matches_linear_unrank(nkr):
    n, k, ranks = nkr
    bits = 0
    for r in ranks:
        bits |= 1 << r
    tuples = tuple(linear_unrank(r, k, n) for r in ranks)
    masks = [sum(1 << (v - 1) for v in e) for e in tuples]
    fam = Family.from_ranks(n, k, bits)
    assert fam._decoded == tuples
    assert fam.vertex_masks() == masks


def count_scans(monkeypatch) -> list:
    """Record each ``compress`` of the dense scan from now on."""
    scans = []

    def counted(*args):
        scans.append(args)
        return compress(*args)

    monkeypatch.setattr(ekrlab.families, "compress", counted)
    return scans


@pytest.mark.parametrize("n,k,e,scanned", [
    (32, 3, 155, True), (21, 4, 187, False), (6, 3, 1, True), (10, 4, 210, True),
    (5000, 4999, 200, True), (5000, 4999, 156, False), (40, 37, 400, True),
    (18, 2, 153, False),
])
def test_families_with_at_most_32_ranks_per_edge_are_scanned(n, k, e, scanned, monkeypatch):
    total = binomial(n, k)
    fam = Family.from_ranks(n, k, sum(1 << j * total // e for j in range(e)))
    assert fam.edge_count == e
    scans = count_scans(monkeypatch)
    fam.edge_tuples()
    assert len(scans) == (1 if scanned else 0)


def test_a_family_past_half_the_ground_set_is_scanned(monkeypatch):
    # the scan holds no per-vertex data, so 2k > n needs no guard
    n = 10**5
    fam = complete(n, n)
    scans = count_scans(monkeypatch)
    assert fam._decoded == (tuple(range(1, n + 1)),)
    assert fam.vertex_masks() == [(1 << n) - 1]
    assert len(scans) == 1


def test_a_million_singletons_decode_in_linear_time():
    n = 10**6
    fam = complete(n, 1)
    assert fam.edge_count == n
    edges = fam.edge_tuples()
    assert len(edges) == n
    assert edges[0] == (1,) and edges[-1] == (n,)
    assert all(edge == (v,) for v, edge in enumerate(edges, start=1))


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


def test_ekr_certificate_decodes_each_edge_once(monkeypatch):
    # within the star rule nothing is decoded: the degrees are popcounts and a
    # star has no edge off its hub; past it (41 edges) the family is decoded
    # once, by one scan
    rng = random.Random(1305)
    whole = star(13, 5, 1).edge_tuples()
    fam = Family.from_edges(13, 5, rng.sample(whole, len(whole) * 9 // 10))
    sparse = Family.from_edges(13, 5, rng.sample(whole, 41))
    assert _star_table(fam) is not None and _star_table(sparse) is None
    decodes, scans = count_decodes(monkeypatch), count_scans(monkeypatch)
    ekr_certificate(fam)
    assert decodes == scans == []
    ekr_certificate(sparse)
    assert decodes == [sparse]
    assert len(scans) == 1  # 31.4 ranks per edge: one scan
    assert (fam.edge_count, sparse.edge_count) == (445, 41)


def test_fractional_cover_decodes_each_edge_once(monkeypatch):
    fam = random_family_edge_count(random.Random(93), 9, 3, 24)
    decodes = count_decodes(monkeypatch)
    fractional_cover(fam)
    assert decodes == [fam]
    assert fam.edge_count == 24


def test_edges_are_validated_once(monkeypatch):
    calls = [0]
    original = ekrlab.families.validate_ksubset

    def counting(*args):
        calls[0] += 1
        return original(*args)

    edges = complete(9, 3).edge_tuples()
    monkeypatch.setattr(ekrlab.families, "validate_ksubset", counting)
    fam = Family.from_edges(9, 3, edges)
    assert calls[0] == len(edges) == 84
    assert fam.has_edge((7, 8, 9)) and calls[0] == 85
    assert fam.without_rank(0).with_edge((1, 2, 3)) == fam and calls[0] == 86
    assert rank_colex((7, 8, 9)) == 83 and calls[0] == 87


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


@pytest.mark.parametrize("call, message", [
    (lambda: Family(3, 4, 0), "invalid uniformity (n=3, k=4)"),
    (lambda: Family(3, -1, 0), "invalid uniformity (n=3, k=-1)"),
    (lambda: Family.empty(5, 3).with_edge((1, 2)), "edge (1, 2) has size 2, expected 3"),
    (lambda: degree_profile(complete(5, 3), 3), "degree profile needs 0 <= d < k, got d=3, k=3"),
    (lambda: degree_profile(complete(5, 3), -1), "degree profile needs 0 <= d < k, got d=-1, k=3"),
    (lambda: link(complete(5, 3), 0), "vertex 0 outside ground set [1, 5]"),
    (lambda: link(complete(5, 3), 6), "vertex 6 outside ground set [1, 5]"),
], ids=["k-above-n", "k-negative", "with-edge-size", "profile-d-k", "profile-d-negative",
        "link-vertex-0", "link-vertex-above-n"])
def test_family_refusals_name_their_bound(call, message):
    with pytest.raises(DomainError) as raised:
        call()
    assert str(raised.value) == message


def test_an_edge_of_another_size_is_not_in_the_family():
    fam = complete(5, 3)
    assert not fam.has_edge((1, 2)) and not fam.has_edge((1, 2, 3, 4))
    assert fam.has_edge((1, 2, 3))
