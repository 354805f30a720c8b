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
Edge sets are bitsets over edge indices and ``through[v]`` holds the edges
through v, for each vertex v on some edge: the family's own or, in the scans,
the complete family's over colex ranks.  Degrees are popcounts, and the OR of
an edge's rows, the edges that meet it, decides every disjointness test.
The constructive algorithm decodes and transposes its family once and
deletes a vertex by clearing its bitset; no edge is relabelled.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heapreplace
from itertools import combinations, count
from typing import Iterable, Mapping, Sequence

from . import limits
from .errors import ContradictionError, DomainError, ResourceLimitError
from .families import Family, KSubset, _delta1, _meeting, binomial, iter_bits, vertex_degrees
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


def _greedy_cover_bound(avail: int, rows: Sequence[int], degrees: Sequence[int]) -> int:
    """Size of a greedy vertex cover of the edge-index bitset ``avail``, taking
    the lowest vertex of maximum degree each step; bounds the matching number.

    Lazy greedy (Minoux 1978): degrees only fall as ``avail`` shrinks, so a
    heap of stale degrees bounds them from above.  It holds i - degree * n,
    which sorts as (-degree, i), for each positive entry of ``degrees``, the
    node's one count on ``rows`` (the root's nonzero rows in vertex order).
    The top is recounted; if its degree fell it is re-sorted, and if not it
    sorts before every other bound: the lowest vertex of maximum degree.
    """
    n, size = len(rows), 0
    heap = [i - d * n for i, d in enumerate(degrees) if d]
    heapify(heap)
    while avail:
        stale = heap[0]
        i = stale % n
        fresh = i - (avail & rows[i]).bit_count() * n
        if fresh != stale:
            heapreplace(heap, fresh)
        else:
            heappop(heap)
            avail &= ~rows[i]
            size += 1
    return size


def matching_number(family: Family, at_least: int | None = None) -> tuple[int, Matching]:
    """Exact matching number with a witness, by branch and bound
    (:func:`_max_matching` on the whole family), re-validated against the
    family.  Stops once a matching reaches ``at_least`` (then a certified
    lower bound, exact whenever smaller).  At k = 0 the only edge is the
    empty one, a matching by itself, so nu is the edge count.
    """
    edges, k = family.edge_tuples(), family.k
    if k == 0:
        return len(edges), Matching.from_family(family, edges)
    best = _max_matching((1 << len(edges)) - 1, family.through, edges, k, at_least)
    return len(best), Matching.from_family(family, [edges[i] for i in best])


def _max_matching(
    avail: int, through: Mapping[int, int], edges: Sequence[KSubset], k: int, at_least: int | None
) -> list[int]:
    """Indices of a maximum matching among the edge indices in ``avail``.

    ``edges[i]`` is the k-set of index i and ``through[v]`` the indices
    through v, for a family or for all k-sets of a shape (then indices are
    colex ranks).  Branches on the minimum-positive-degree vertex: either
    one of its edges is matched, or none is and all of them are discarded.
    Pruned by support-size/k and by a greedy cover bound; stops once a
    matching reaches the lower of the two at the root, or ``at_least``.
    Each node counts its degrees once, on the rows nonzero at the root
    (``avail`` only shrinks); both bounds and the branch vertex read them.

    Depth-first on an explicit stack of [avail, row, candidate iterator,
    matched count] frames, one per branched node, so the depth is not
    bounded by Python's recursion limit: a frame yields its matched
    children in index order, then gives way to its discard child.
    """
    cap, rows = limits.MATCHING_NODE_LIMIT, [row for row in through.values() if row & avail]
    best: list[int] = []
    current: list[int] = []
    frames: list[list] = []
    for nodes in count(1):
        if nodes > cap:
            raise ResourceLimitError(f"{nodes} search nodes exceed MATCHING_NODE_LIMIT = {cap}")
        if len(current) > len(best):
            best = current.copy()
            if len(best) >= goal:
                return best
        degrees = [(avail & row).bit_count() for row in rows]
        cheap = (len(degrees) - degrees.count(0)) // k  # support size / k
        if len(current) + cheap > len(best):
            cover = _greedy_cover_bound(avail, rows, degrees)
            if nodes == 1:  # the root's bounds cap nu: reaching them ends the search
                goal = min(cheap, cover, avail.bit_count() if at_least is None else at_least)
            if len(current) + cover > len(best):
                _, i = min((d, i) for i, d in enumerate(degrees) if d)  # lowest id on ties
                frames.append([avail, rows[i], iter_bits(avail & rows[i]), len(current)])
        if not frames:
            return best
        avail, row, candidates, depth = frames[-1]
        del current[depth:]
        i = next(candidates, None)
        if i is None:  # every edge through the branch vertex tried: discard them
            frames.pop()
            avail &= ~row
        else:
            avail &= ~_meeting(through, edges[i])
            current.append(i)


def rainbow_extension(family: Family, vertices: Sequence[int]) -> Matching:
    """Disjoint edges e_1..e_s with v_i in e_i, by complete backtracking.

    Requires deg(v_i) > 2(s-1) C(n-2,k-2) for every i and ks < n; under
    those hypotheses a system of distinct representatives exists, and the
    search is complete, so exhaustion raises ContradictionError.
    """
    n, k, vs = family.n, family.k, list(vertices)
    s = len(vs)
    if len(set(vs)) != s:
        raise DomainError("rainbow vertices must be distinct")
    if any(v < 1 or v > n for v in vs):
        raise DomainError(f"rainbow vertices must lie in [1, {n}]")
    if k * s >= n:
        raise DomainError(f"rainbow step needs ks < n, got ks={k * s}, n={n}")
    deg = family._degrees
    need = 2 * (s - 1) * binomial(n - 2, k - 2)
    for v in vs:
        if deg[v] <= need:
            raise DomainError(f"vertex {v} has degree {deg[v]} <= 2(s-1)C(n-2,k-2) = {need}")
    edges = family.edge_tuples()
    chosen = _rainbow(family.through, edges, (1 << len(edges)) - 1, vs)
    return Matching.from_family(family, [edges[i] for i in chosen])


def _rainbow(through: Mapping[int, int], edges: Sequence[KSubset], avail: int,
             vertices: Sequence[int]) -> list[int]:
    """Indices of disjoint edges of ``avail``, the i-th through ``vertices[i]``
    and no other of them; exhaustion raises ContradictionError."""
    seen = shared = 0
    for v in vertices:
        shared |= seen & through[v]
        seen |= through[v]
    candidates = [avail & through[v] & ~shared for v in vertices]
    chosen: list[int] = []

    def place(level: int, free: int) -> bool:
        if level == len(candidates):
            return True
        for i in iter_bits(candidates[level] & free):
            chosen.append(i)
            if place(level + 1, free & ~_meeting(through, edges[i])):
                return True
            chosen.pop()
        return False

    if not place(0, avail):
        raise ContradictionError("complete rainbow search exhausted although the degree "
                                 "hypothesis holds")
    return chosen


def _degree_threshold(n: int, k: int, s: int) -> int:
    return binomial(n - 1, k - 1) - binomial(n - s, k - 1)


def find_matching_by_degree(
    family: Family, s: int, strict: bool = True
) -> tuple[Matching, list[dict]]:
    """Construct a matching of size s from the minimum-degree hypothesis.

    Requires s >= 0, n >= 3 k^2 s and delta_1 > C(n-1,k-1) - C(n-s,k-1).
    Returns the matching together with a trace listing, per recursion
    level, which branch fired and on what threshold evidence.  With
    ``strict=False`` an input outside the hypothesis region falls back to
    the exact branch-and-bound solver and the trace carries an
    ``outside-guarantee`` marker instead of raising; a negative s, and
    ks > n or k = 0 with s >= 2, where no s disjoint k-sets fit, raise
    DomainError either way.
    """
    if s < 0:
        raise DomainError(f"matching size must be nonnegative, got s={s}")
    n, k = family.n, family.k
    if n == 0:
        raise DomainError("the degree hypothesis needs a nonempty ground set, got n = 0")
    if k * s > n or (k == 0 and s >= 2):
        why = f"ks = {k * s} > n" if k else "a 0-uniform family has at most one edge"
        raise DomainError(f"no {s} disjoint {k}-sets fit on n = {n} vertices: {why}")
    threshold = _degree_threshold(n, k, s)
    inside = n >= 3 * k * k * s and _delta1(family) > threshold
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

    edges = family.edge_tuples()
    chosen, trace = _construct(family, edges, s)
    return Matching.from_family(family, [edges[i] for i in chosen]), trace


def _construct(family: Family, edges: Sequence[KSubset], s: int) -> tuple[list[int], list[dict]]:
    """Edge indices of the matching and the trace, top level first.

    A level is an edge-index bitset ``avail`` on the sorted surviving
    vertices ``alive``; the trace names a vertex by its position in
    ``alive``, the order-preserving relabelling, which keeps colex order.
    """
    if s <= 0:
        return [], [{"s": s, "branch": "empty"}]
    if s == 1:
        if not edges:
            raise ContradictionError("positive minimum degree but no edges")
        return [0], [{"s": 1, "branch": "single-edge"}]
    k, avail, through = family.k, (1 << len(edges)) - 1, family.through
    alive, deg = list(range(1, family.n + 1)), vertex_degrees(family)
    trace: list[dict] = []
    pending: list[int] = []  # candidate edges of each level that extends, top first
    while s >= 3:
        n = len(alive)
        pair_bound = binomial(n - 2, k - 2)
        high = k * (s - 1) * pair_bound
        p = deg.index(max(deg))
        if deg[p] > high:
            star = through[alive[p]]
            pending.append(avail & star)
            trace.append({"s": s, "branch": "high-degree-vertex", "vertex": p + 1,
                          "degree": deg[p], "threshold": high})
            avail &= ~star
            del alive[p]
            deg = [(avail & through[u]).bit_count() for u in alive]
            s -= 1
            if min(deg, default=0) <= _degree_threshold(n - 1, k, s):
                raise ContradictionError("vertex deletion lost the degree hypothesis")
            continue
        order = sorted(range(n), key=lambda i: (-deg[i], i))
        rainbow_bound = 2 * (s - 1) * pair_bound
        if deg[order[s - 1]] > rainbow_bound:
            chosen = _rainbow(through, edges, avail, [alive[i] for i in order[:s]])
            trace.append({"s": s, "branch": "rainbow", "vertices": [i + 1 for i in order[:s]],
                          "threshold": rainbow_bound})
            break
        pending.append(avail)
        trace.append({"s": s, "branch": "greedy-extension", "threshold": rainbow_bound})
        s -= 1
    else:  # early exit: on a family this dense the first edges meet a partner
        # (avail & -(2 << i) keeps the edges after edge i; x & -x is x's lowest bit)
        chosen = next(([i, (later & -later).bit_length() - 1] for i in iter_bits(avail)
                       if (later := avail & -(2 << i) & ~_meeting(through, edges[i]))), None)
        if chosen is None:
            raise ContradictionError("no two disjoint edges although the degree hypothesis holds")
        trace.append({"s": 2, "branch": "pair-scan"})
    for candidates, entry in zip(reversed(pending), trace[-2::-1]):
        free = candidates & ~_meeting(through, [v for i in chosen for v in edges[i]])
        if not free:
            raise ContradictionError(f"{entry['branch']}: no edge avoids the partial matching")
        chosen.append((free & -free).bit_length() - 1)
    return chosen, trace


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


def _check_matching_size(name: str, s: int, n: int) -> None:
    if not 1 <= s <= n:
        raise DomainError(f"{name}: need 1 <= s <= n = {n}, got s={s}")


def threshold_report(family: Family, s: int) -> ThresholdReport:
    """Evaluate the d = 1 degree threshold against the exact nu* of a family."""
    n, k = family.n, family.k
    _check_matching_size("threshold_report", s, n)
    threshold = _degree_threshold(n, k, s)
    delta = _delta1(family)
    nu_star = fractional_matching(family).objective
    return ThresholdReport(
        n=n, k=k, d=1, s=s, threshold=threshold, delta=delta,
        hypothesis_met=delta > threshold, nu_star=nu_star,
        conclusion_holds=nu_star >= s,
    )


def corollary33_check(family: Family, s: int) -> bool:
    """Exact LP check that the degree hypothesis forces nu* >= s.

    Requires n >= (2s-1)(k-1) - s + 2 and delta_1 > C(n-1,k-1) - C(n-s,k-1).
    """
    n, k = family.n, family.k
    _check_matching_size("corollary33_check", s, n)
    floor = (2 * s - 1) * (k - 1) - s + 2
    if n < floor:
        raise DomainError(f"need n >= (2s-1)(k-1) - s + 2 = {floor}, got n={n}")
    report = threshold_report(family, s)
    if not report.hypothesis_met:
        raise DomainError(f"need delta_1 > {report.threshold}, got {report.delta}")
    return report.conclusion_holds
