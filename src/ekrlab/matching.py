"""Exact matchings: branch-and-bound, the rainbow step, and the
degree-driven constructive algorithm for matchings of prescribed size.

The constructive algorithm realizes an inductive argument as code.  Given
minimum degree above C(n-1,k-1) - C(n-s,k-1) on n >= 3 k^2 s vertices, a
matching of size s is assembled by one of three moves per level:

  (a) some vertex v has degree above k(s-1) C(n-2,k-2): solve at s-1 in
      the family without v, then extend through v by counting;
  (b) the s largest degrees all exceed 2(s-1) C(n-2,k-2): a complete
      backtracking search places one edge through each of the top s
      vertices (a rainbow matching);
  (c) otherwise every degree is moderate, so a size-(s-1) matching found
      recursively misses some edge entirely, by an edge-count comparison.

Exhaustion of any complete sub-search would falsify the counting argument
behind it; it raises ContradictionError and tests treat it as failure.
Edge sets are bitsets over edge indices; degrees are popcounts against
the per-vertex incidence bitsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from . import limits
from .errors import ContradictionError, DomainError, ResourceLimitError
from .families import Family, KSubset, binomial, incidence, iter_bits, min_degree, vertex_degrees
from .lp import FractionalSolution, fractional_matching


@dataclass(frozen=True)
class Matching:
    """Pairwise disjoint edges taken from one family."""

    edges: tuple[KSubset, ...]

    def __len__(self) -> int:
        return len(self.edges)

    @classmethod
    def from_family(cls, family: Family, edges: Iterable[KSubset]) -> "Matching":
        chosen = tuple(tuple(e) for e in edges)
        used: set[int] = set()
        for e in chosen:
            if not family.has_edge(e):
                raise DomainError(f"{e} is not an edge of the family")
            if used.intersection(e):
                raise DomainError(f"edge {e} overlaps the rest of the matching")
            used.update(e)
        return cls(chosen)


def _greedy_cover_bound(avail: int, through: Sequence[int]) -> int:
    """Size of a greedy vertex cover of the edge-index bitset ``avail``, taking
    the lowest vertex of maximum degree each step; bounds the matching number."""
    size = 0
    while avail:
        degrees = [(avail & star).bit_count() for star in through]
        avail &= ~through[degrees.index(max(degrees))]
        size += 1
    return size


def matching_number(
    family: Family,
    at_least: int | None = None,
    node_limit: int | None = None,
) -> tuple[int, Matching]:
    """Exact matching number with a witness, by branch and bound.

    Edge sets are bitsets over the edge indices.  Branches on the
    minimum-positive-degree vertex: either one of its edges is matched, or
    none is and all of them are discarded.  Pruned by support-size/k and
    by a greedy cover bound.  With ``at_least`` the search stops as soon as
    a matching of that size is found (the result is then a certified lower
    bound; it is exact whenever it is smaller).
    """
    cap = limits.resolve(node_limit, limits.MATCHING_NODE_LIMIT)
    edges = family.edge_tuples()
    through = incidence(family.vertex_masks(), family.n)
    k = max(family.k, 1)
    best: list[int] = []
    current: list[int] = []
    nodes = 0

    def recurse(avail: int) -> bool:
        """Returns True when the search can stop early."""
        nonlocal nodes, best
        nodes += 1
        if nodes > cap:
            raise ResourceLimitError(f"matching search exceeded {cap} nodes")
        if len(current) > len(best):
            best = current.copy()
            if at_least is not None and len(best) >= at_least:
                return True
        degrees = [(avail & star).bit_count() for star in through]
        cheap = (len(degrees) - degrees.count(0)) // k  # support size / k
        if len(current) + cheap <= len(best) or (
            len(current) + _greedy_cover_bound(avail, through) <= len(best)
        ):
            return False
        # branch vertex: minimum positive degree, lowest id on ties
        _, v = min((d, v) for v, d in enumerate(degrees) if d)
        for i in iter_bits(avail & through[v]):
            rest = avail
            for u in edges[i]:
                rest &= ~through[u - 1]
            current.append(i)
            if recurse(rest):
                return True
            current.pop()
        return recurse(avail & ~through[v])

    recurse((1 << len(edges)) - 1)
    return len(best), Matching.from_family(family, [edges[i] for i in best])


def rainbow_extension(family: Family, vertices: Sequence[int]) -> Matching:
    """Disjoint edges e_1..e_s with v_i in e_i, by complete backtracking.

    Requires deg(v_i) > 2(s-1) C(n-2,k-2) for every i and ks < n; under
    those hypotheses a system of distinct representatives exists, and the
    search is complete, so exhaustion raises ContradictionError.
    """
    n, k = family.n, family.k
    vs = list(vertices)
    s = len(vs)
    if len(set(vs)) != s:
        raise DomainError("rainbow vertices must be distinct")
    if any(v < 1 or v > n for v in vs):
        raise DomainError(f"rainbow vertices must lie in [1, {n}]")
    if k * s >= n:
        raise DomainError(f"rainbow step needs ks < n, got ks={k * s}, n={n}")
    deg = vertex_degrees(family)
    need = 2 * (s - 1) * binomial(n - 2, k - 2)
    for v in vs:
        if deg[v - 1] <= need:
            raise DomainError(
                f"vertex {v} has degree {deg[v - 1]} <= 2(s-1)C(n-2,k-2) = {need}"
            )

    edges = family.edge_tuples()
    masks = family.vertex_masks()
    inc = incidence(masks, n)
    seen = shared = 0  # shared: edges through two or more of the vertices
    for v in vs:
        shared |= seen & inc[v - 1]
        seen |= inc[v - 1]
    through = [list(iter_bits(inc[v - 1] & ~shared)) for v in vs]

    chosen: list[int] = []

    def place(level: int, used: int) -> bool:
        if level == s:
            return True
        for i in through[level]:
            if not masks[i] & used:
                chosen.append(i)
                if place(level + 1, used | masks[i]):
                    return True
                chosen.pop()
        return False

    if not place(0, 0):
        raise ContradictionError(
            "complete rainbow search exhausted although the degree hypothesis holds"
        )
    return Matching.from_family(family, [edges[i] for i in chosen])


def _degree_threshold(n: int, k: int, s: int) -> int:
    return binomial(n - 1, k - 1) - binomial(n - s, k - 1)


def _delete_vertex(family: Family, v: int) -> Family:
    """Edges avoiding v, relabeled onto [n-1] order-preservingly."""
    kept = []
    for e in family.edge_tuples():
        if v not in e:
            kept.append(tuple(u if u < v else u - 1 for u in e))
    return Family.from_edges(family.n - 1, family.k, kept)


def find_matching_by_degree(
    family: Family, s: int, strict: bool = True
) -> tuple[Matching, list[dict]]:
    """Construct a matching of size s from the minimum-degree hypothesis.

    Requires s >= 0, n >= 3 k^2 s and delta_1 > C(n-1,k-1) - C(n-s,k-1).
    Returns the matching together with a trace listing, per recursion
    level, which branch fired and on what threshold evidence.  With
    ``strict=False`` an input outside the hypothesis region falls back to
    the exact branch-and-bound solver and the trace carries an
    ``outside-guarantee`` marker instead of raising; a negative s raises
    DomainError either way.
    """
    if s < 0:
        raise DomainError(f"matching size must be nonnegative, got s={s}")
    n, k = family.n, family.k
    threshold = _degree_threshold(n, k, s)
    inside = n >= 3 * k * k * s and min_degree(family, 1) > threshold
    if not inside:
        if strict:
            raise DomainError(
                f"hypothesis violated: need n >= 3k^2 s = {3 * k * k * s} and "
                f"delta_1 > {threshold}"
            )
        nu, witness = matching_number(family, at_least=s)
        if nu < s:
            raise DomainError(f"no matching of size {s} exists (nu = {nu})")
        trace = [{"s": s, "branch": "outside-guarantee", "nu": nu}]
        return Matching.from_family(family, witness.edges[:s]), trace

    edges, trace = _construct(family, s)
    return Matching.from_family(family, edges), trace


def _first_disjoint_pair(family: Family) -> list[KSubset] | None:
    masks = family.vertex_masks()
    edges = family.edge_tuples()
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            if not masks[i] & masks[j]:
                return [edges[i], edges[j]]
    return None


def _construct(family: Family, s: int) -> tuple[list[KSubset], list[dict]]:
    n, k = family.n, family.k
    if s <= 0:
        return [], [{"s": s, "branch": "empty"}]
    edges = family.edge_tuples()
    if s == 1:
        if not edges:
            raise ContradictionError("positive minimum degree but no edges")
        return [edges[0]], [{"s": 1, "branch": "single-edge"}]
    if s == 2:
        pair = _first_disjoint_pair(family)
        if pair is None:
            raise ContradictionError(
                "no two disjoint edges although the degree hypothesis holds"
            )
        return pair, [{"s": 2, "branch": "pair-scan"}]

    deg = vertex_degrees(family)
    pair_bound = binomial(n - 2, k - 2)
    high = k * (s - 1) * pair_bound
    vmax = 1 + max(range(n), key=lambda i: deg[i])
    if deg[vmax - 1] > high:
        sub = _delete_vertex(family, vmax)
        if min_degree(sub, 1) <= _degree_threshold(n - 1, k, s - 1):
            raise ContradictionError("vertex deletion lost the degree hypothesis")
        sub_edges, sub_trace = _construct(sub, s - 1)
        lifted = [tuple(u if u < vmax else u + 1 for u in e) for e in sub_edges]
        used = {v for e in lifted for v in e}
        extension = next(
            (e for e in edges if vmax in e and not used.intersection(e)), None
        )
        if extension is None:
            raise ContradictionError(
                "high-degree vertex could not be extended past the partial matching"
            )
        entry = {"s": s, "branch": "high-degree-vertex", "vertex": vmax,
                 "degree": deg[vmax - 1], "threshold": high}
        return lifted + [extension], [entry] + sub_trace

    order = sorted(range(n), key=lambda i: (-deg[i], i))
    top = [i + 1 for i in order[:s]]
    rainbow_bound = 2 * (s - 1) * pair_bound
    if deg[top[-1] - 1] > rainbow_bound:
        matching = rainbow_extension(family, top)
        entry = {"s": s, "branch": "rainbow", "vertices": top,
                 "threshold": rainbow_bound}
        return list(matching.edges), [entry]

    sub_edges, sub_trace = _construct(family, s - 1)
    used = {v for e in sub_edges for v in e}
    extension = next((e for e in edges if not used.intersection(e)), None)
    if extension is None:
        raise ContradictionError(
            "edge count comparison failed: no edge avoids the partial matching"
        )
    entry = {"s": s, "branch": "greedy-extension", "threshold": rainbow_bound}
    return sub_edges + [extension], [entry] + sub_trace


def reduce_cover(family: Family, cover: FractionalSolution) -> Family:
    """Shrink a fractionally covered k-family to a (k-1)-family on n-1 vertices.

    Vertices are sorted by cover weight, non-increasing and stable by id.
    The result contains every (k-1)-set of the first n-1 sorted positions
    whose weight sum plus the last (smallest) weight reaches 1; in
    particular it contains the relabeled link of the last-sorted vertex,
    so its edge count is at least delta_1 of the input.
    """
    n, k = family.n, family.k
    if k < 3:
        raise DomainError(f"reduce_cover needs k >= 3, got k={k}")
    if cover.kind != "cover":
        raise DomainError("reduce_cover expects a fractional cover")
    weights = {v: cover.weights.get(v, 0) for v in range(1, n + 1)}
    for edge in family.edge_tuples():
        if sum(weights[v] for v in edge) < 1:
            raise DomainError(f"cover is infeasible: edge {edge} uncovered")
    order = sorted(range(1, n + 1), key=lambda v: (-weights[v], v))
    x = [weights[v] for v in order]
    last = x[-1]
    kept = [
        ksub
        for ksub in combinations(range(1, n), k - 1)
        if sum(x[p - 1] for p in ksub) + last >= 1
    ]
    return Family.from_edges(n - 1, k - 1, kept)


@dataclass(frozen=True)
class ThresholdReport:
    """Instance evidence for a minimum-degree-forces-fractional-matching claim.

    ``threshold`` is C(n-1,k-1) - C(n-s,k-1), the value of the meet-S
    extremal family; ``hypothesis_met`` records whether delta_d exceeds it
    and ``nu_star`` the exact LP optimum found.
    """

    n: int
    k: int
    d: int
    s: int
    threshold: int
    delta: int
    hypothesis_met: bool
    nu_star: Fraction
    conclusion_holds: bool


def threshold_report(family: Family, s: int, limit: int | None = None) -> ThresholdReport:
    """Evaluate the d = 1 degree threshold against the exact nu* of a family."""
    n, k = family.n, family.k
    threshold = _degree_threshold(n, k, s)
    delta = min_degree(family, 1)
    nu_star = fractional_matching(family, limit=limit).objective
    return ThresholdReport(
        n=n, k=k, d=1, s=s, threshold=threshold, delta=delta,
        hypothesis_met=delta > threshold, nu_star=nu_star,
        conclusion_holds=nu_star >= s,
    )


def corollary33_check(family: Family, s: int, limit: int | None = None) -> bool:
    """Exact LP check that the degree hypothesis forces nu* >= s.

    Requires n >= (2s-1)(k-1) - s + 2 and delta_1 > C(n-1,k-1) - C(n-s,k-1).
    """
    n, k = family.n, family.k
    floor = (2 * s - 1) * (k - 1) - s + 2
    if n < floor:
        raise DomainError(f"need n >= (2s-1)(k-1) - s + 2 = {floor}, got n={n}")
    report = threshold_report(family, s, limit=limit)
    if not report.hypothesis_met:
        raise DomainError(f"need delta_1 > {report.threshold}, got {report.delta}")
    return report.conclusion_holds
