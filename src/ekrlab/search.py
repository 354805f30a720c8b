"""Exhaustive and heuristic searches over intersecting families.

Maximal intersecting families are the maximal cliques of the meet graph on
k-subsets (two k-sets adjacent iff they share a vertex), enumerated as rank
bitsets by Bron-Kerbosch with pivoting; the exhaustive scans read those ints.
Adding edges never decreases any degree, so scanning only maximal families
suffices to bound minimum degrees over all intersecting families.  The scans
read a family's vertex degrees and the OR of its disjointness rows through
the byte tables of one gated, cached object per shape (:func:`_shape`), one
lookup per byte instead of one pass per vertex or per rank.

The conjecture scan is exploration tooling, not proof: a seeded
simulated-annealing walk over families with matching number below s,
hill-climbing on the minimum vertex degree.  Temperature decays
geometrically from 2.0 to 0.05 across the budget; every quarter of the
budget the walk restarts from a random perturbation of the meet-S-in-one-
vertex extremal family.  Reported candidates are always re-verified
against the exact matching solver.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from operator import getitem, or_

from .errors import ContradictionError, DomainError
from .families import Family, _stars, binomial, gated_kset_count, iter_bits, meet_rows
from .matching import _degree_threshold, _max_matching, matching_number

from .constructions import erdos_extremal


@dataclass(frozen=True)
class ScanReport:
    """Outcome container for one scan run; equality is exact field equality."""

    kind: str
    parameters: dict
    families_examined: int
    best: dict
    violations: tuple = ()
    records: tuple = ()
    notes: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.violations


class _Shape:
    """The scans' tables over the colex ranks of the k-subsets of [n].

    ``stars`` is the shape's :func:`families._stars` (``stars[v]`` holds the
    ranks containing v, for v in [n]) and ``ksets[r]`` the k-set of rank r;
    :func:`meet_rows` ORs the stars into the ranks meeting rank r, ``meet[r]``
    leaves r itself out and ``disjoint[r]`` holds the ranks disjoint from r.

    For byte position i and byte value b, ``packed[i][b]`` is the packed
    degree vector of the ranks 8i + j with bit j of b set (vertex v's count
    in field v - 1, each field ``width`` bytes, wide enough for C(n-1,k-1),
    so no field carries into the next) and ``forbid[i][b]`` is the OR of
    their disjointness rows.  A family's degree vector is the sum of one
    ``packed`` entry per byte of its bitset, and F^perp's complement the OR
    of one ``forbid`` entry per byte.
    """

    __slots__ = ("stars", "meet", "disjoint", "ksets", "size", "width", "packed", "forbid")

    def __init__(self, n: int, k: int) -> None:
        full = (1 << binomial(n, k)) - 1
        self.stars = stars = _stars(n, k)
        self.ksets = ksets = tuple(Family.from_ranks(n, k, full).edge_tuples())
        reach = tuple(meet_rows(stars, ksets))
        self.meet = tuple(m & ~(1 << r) for r, m in enumerate(reach))
        self.disjoint = disjoint = tuple(full ^ m for m in reach)
        self.size = (len(ksets) + 7) // 8
        self.width = width = (binomial(n - 1, k - 1).bit_length() + 7) // 8
        pad = [0] * (8 * self.size - len(ksets))  # the last byte's missing ranks
        columns = [sum(1 << 8 * width * (v - 1) for v in edge) for edge in ksets] + pad
        rows = [*disjoint, *pad]
        packed, forbid = [], []
        for start in range(0, len(columns), 8):
            sums, ors = [0], [0]
            for r in range(start, start + 8):  # entry b | 1 << j is entry b plus rank start + j
                sums += [x + columns[r] for x in sums]
                ors += [x | rows[r] for x in ors]
            packed.append(tuple(sums))
            forbid.append(tuple(ors))
        self.packed, self.forbid = tuple(packed), tuple(forbid)

    def vector(self, bits: int) -> int:
        """The packed degree vector of the family with rank bitset ``bits``."""
        return sum(map(getitem, self.packed, bits.to_bytes(self.size, "little")))

    def column(self, r: int) -> int:
        """The packed degree vector of the single rank r."""
        return self.packed[r >> 3][1 << (r & 7)]

    def degrees(self, vector: int) -> bytes | list[int]:
        """The n vertex degrees of a packed vector (its bytes at width 1)."""
        width = self.width
        data = vector.to_bytes(len(self.stars) * width, "little")
        if width == 1:
            return data
        return [int.from_bytes(data[i:i + width], "little") for i in range(0, len(data), width)]

    def forbidden(self, bits: int) -> int:
        """The ranks disjoint from some rank of ``bits``: F^perp's complement."""
        return reduce(or_, map(getitem, self.forbid, bits.to_bytes(self.size, "little")), 0)


_shapes = lru_cache(maxsize=None)(_Shape)  # read only through _shape, which gates every call


def _shape(n: int, k: int) -> _Shape:
    """The tables of shape (n, k), built once; the gates run on every call,
    before the cache is read, so a lowered limit refuses a cached shape."""
    if k < 1 or k > n:
        raise DomainError(f"enumeration needs 1 <= k <= n, got k={k}, n={n}")
    gated_kset_count(n, k, "ENUM_KSET_LIMIT")
    return _shapes(n, k)


def _maximal_cliques(meet: tuple):
    """Yield the maximal cliques of the graph on ranks 0..len(meet)-1, in which
    ``meet[u]`` is the adjacency bitset of u (u left out), as rank bitsets:
    on :func:`_shape`'s ``meet``, the maximal intersecting families.

    Bron-Kerbosch with pivoting on an explicit stack of [r, p, x, candidates]
    frames; the pivot maximizes the candidate coverage (lowest rank on ties)
    and candidates leave lowest bit first.  The bitsets are at most
    ``ENUM_KSET_LIMIT`` bits wide, so their bits are popped inline
    (``c & -c``): a generator per node costs more than the work it yields.
    """
    frames = []
    r, p, x = 0, (1 << len(meet)) - 1, 0
    while True:
        if p:
            best, rest = -1, p | x
            while rest:
                low = rest & -rest
                rest ^= low
                cover = (p & meet[low.bit_length() - 1]).bit_count()
                if cover > best:
                    best, pivot = cover, low
            frames.append([r, p, x, p & ~meet[pivot.bit_length() - 1]])
        elif not x:
            yield r
        while frames and not frames[-1][3]:
            frames.pop()
        if not frames:
            return
        frame = frames[-1]
        r, p, x, candidates = frame
        low = candidates & -candidates
        adjacent = meet[low.bit_length() - 1]
        frame[1], frame[2], frame[3] = p ^ low, x | low, candidates ^ low  # the candidate leaves p for x
        r, p, x = r | low, p & adjacent, x & adjacent


def maximal_intersecting(n: int, k: int):
    """Yield every maximal intersecting family on [n] exactly once.

    The maximal cliques of the meet graph, in the emission order of
    :func:`_maximal_cliques`, each as a :class:`Family`.  Size gating
    happens before the generator is returned.
    """
    return (Family.from_ranks(n, k, r) for r in _maximal_cliques(_shape(n, k).meet))


def greedy_complete(family: Family) -> Family:
    """Extend an intersecting family to a maximal one, in rank order; refuse any other."""
    shape = _shape(family.n, family.k)
    bits = family.edges
    if bits & shape.forbidden(bits):
        raise DomainError("greedy completion needs an intersecting family")
    for r in iter_bits(((1 << len(shape.ksets)) - 1) & ~bits):
        if not bits & shape.disjoint[r]:
            bits |= 1 << r
    return Family.from_ranks(family.n, family.k, bits)


def ekr_degree_scan(n: int, k: int) -> ScanReport:
    """Exhaustively check the degree dichotomy over maximal families.

    Asserts that the maximum minimum-degree equals C(n-2,k-2), attained
    exactly by the n stars, and that every non-star maximal family stays
    strictly below.  Any violation is reported as a counterexample record.
    """
    if n < 2 * k + 1:
        raise DomainError(f"ekr scan needs n >= 2k+1 = {2 * k + 1}, got n={n}")
    shape = _shape(n, k)
    star_size = binomial(n - 1, k - 1)
    expected_max = binomial(n - 2, k - 2)

    stars_seen = 0
    max_delta = -1
    at_max: list[int] = []
    nonstar_max = -1
    violations = []
    records = []
    for examined, bits in enumerate(_maximal_cliques(shape.meet)):
        e, degrees = bits.bit_count(), shape.degrees(shape.vector(bits))
        delta = min(degrees)
        is_star = e == star_size and e in degrees
        records.append({"edges": e, "delta1": delta, "is_star": is_star})
        if is_star:
            stars_seen += 1
        else:
            nonstar_max = max(nonstar_max, delta)
        if delta > max_delta:
            max_delta = delta
            at_max = [examined]
        elif delta == max_delta:
            at_max.append(examined)
        if delta >= expected_max and not is_star:
            edges = Family.from_ranks(n, k, bits).edge_tuples()
            violations.append({"delta1": delta, "edges": edges, "reason": "non-star at or above C(n-2,k-2)"})

    best = {
        "max_delta1": max_delta,
        "expected_max": expected_max,
        "num_at_max": len(at_max),
        "stars_seen": stars_seen,
        "all_at_max_are_stars": len(at_max) == stars_seen == n and max_delta == expected_max,
        "nonstar_max_delta1": nonstar_max,
    }
    return ScanReport(
        kind="ekr-degree-scan",
        parameters={"n": n, "k": k},
        families_examined=len(records),
        best=best,
        violations=tuple(violations),
        records=tuple(records),
    )


def cross_pair_scan(n: int, k: int) -> ScanReport:
    """Check the degree product bound over cross-intersecting ordered pairs of
    maximal intersecting families.

    With F^perp the k-sets meeting every edge of F, each of the m families
    is certified to satisfy F^perp = F (the OR of its edges' disjointness
    bitsets is exactly its complement) and to differ from all the others.
    Then F_j within F_i^perp forces j = i, so the cross-intersecting ordered
    pairs are exactly the m diagonal ones, and the degree products and
    maximizers come from them; a failed certificate raises
    ContradictionError.  Notes: ``ordered_pairs_total`` = m^2,
    ``ordered_pairs_cross`` = m, ``ordered_pairs_skipped`` = m^2 - m.
    """
    if n < 2 * k + 1:
        raise DomainError(f"cross scan needs n >= 2k+1 = {2 * k + 1}, got n={n}")
    shape = _shape(n, k)
    full = (1 << len(shape.ksets)) - 1
    star_size = binomial(n - 1, k - 1)
    bound = binomial(n - 2, k - 2) ** 2

    seen: set[int] = set()
    deltas: list[int] = []
    centers: list[int] = []  # common vertex of a full star, else 0
    for i, bits in enumerate(_maximal_cliques(shape.meet)):
        if shape.forbidden(bits) != full & ~bits:
            raise ContradictionError(f"maximal family {i} is not self-dual: F^perp != F")
        if bits in seen:
            raise ContradictionError(f"maximal family {i} repeats an earlier one")
        seen.add(bits)
        e, degrees = bits.bit_count(), shape.degrees(shape.vector(bits))
        deltas.append(min(degrees))
        # a star's center: the highest vertex on every edge
        centers.append(len(degrees) - degrees[::-1].index(e) if e == star_size and e in degrees else 0)

    m = len(deltas)
    max_product = max((d * d for d in deltas), default=-1)
    maximizers = [i for i, d in enumerate(deltas) if d * d == max_product][:1000]
    best = {
        "max_product": max_product,
        "bound": bound,
        "maximizers": tuple(
            {"left_index": i, "right_index": i,
             "left_star_center": centers[i], "right_star_center": centers[i]}
            for i in maximizers
        ),
        "maximizers_all_same_center_stars": all(centers[i] != 0 for i in maximizers),
    }
    violations = tuple(
        {"product": d * d, "left_delta1": d, "right_delta1": d, "left_index": i, "right_index": i}
        for i, d in enumerate(deltas) if d * d > bound
    )
    notes = {
        "ordered_pairs_total": m * m,
        "ordered_pairs_cross": m,
        "ordered_pairs_skipped": m * m - m,
    }
    return ScanReport(
        kind="cross-pair-scan",
        parameters={"n": n, "k": k},
        families_examined=m,
        best=best,
        violations=violations,
        notes=notes,
    )


def conjecture_scan(n: int, k: int, s: int, budget: int, seed: int) -> ScanReport:
    """Hill-climb the minimum degree over families with matching number < s.

    Compares the best value found against C(n-1,k-1) - C(n-s,k-1), the
    value of the meet-S extremal family.  At n = ks the comparison is
    report-only (regular halved families beat the bound there); for
    n > ks any family exceeding the bound is re-verified with the exact
    matching solver and serialized as a counterexample candidate.
    """
    if k < 1 or s < 1:
        raise DomainError(f"need k >= 1 and s >= 1, got k={k}, s={s}")
    if k * s > n:
        raise DomainError(f"need s <= n/k, got s={s}, n/k={n}/{k}")
    if budget < 0:
        raise DomainError(f"need budget >= 0, got {budget}")
    shape = _shape(n, k)
    full = (1 << len(shape.ksets)) - 1

    threshold = _degree_threshold(n, k, s)
    assert_mode = n > k * s
    rng = random.Random(seed)
    base = erdos_extremal(n, k, s, 1).edges

    def delta1(vector: int) -> int:
        return min(shape.degrees(vector))

    def draw_rank(bits: int) -> int:
        # set bit j for one draw of j bounded by the popcount, as indexing the
        # list of ranks was; the bitsets are narrow, so their bits pop inline
        for _ in range(rng.randrange(bits.bit_count())):
            bits &= bits - 1
        return (bits & -bits).bit_length() - 1

    def perturb(bits: int) -> int:
        out = bits
        for r in iter_bits(bits):
            if rng.random() < 0.2:
                out &= ~(1 << r)
        return out

    current = base
    cur_vector = shape.vector(current)
    cur_delta = delta1(cur_vector)
    best_bits, best_delta = current, cur_delta
    violations = []
    over_bound: list[dict] = []
    recorded: set[int] = set()  # over-bound bitsets already re-verified
    restart_every = max(1, budget // 4)
    t0, t1 = 2.0, 0.05

    for it in range(budget):
        if it and it % restart_every == 0:
            current = perturb(base)
            cur_vector = shape.vector(current)
            cur_delta = delta1(cur_vector)
        temp = t0 * (t1 / t0) ** (it / max(1, budget))
        add_move = rng.random() < 0.5
        candidate = None
        if add_move:
            if current != full:
                r = draw_rank(full ^ current)
                # an s-matching could only appear through r: with s - 1 edges
                # of the family disjoint from it
                if s > 1 and len(_max_matching(current & shape.disjoint[r], shape.stars,
                                               shape.ksets, k, s - 1)) < s - 1:
                    candidate, new_vector = current | (1 << r), cur_vector + shape.column(r)
        elif current:
            r = draw_rank(current)
            candidate, new_vector = current & ~(1 << r), cur_vector - shape.column(r)
        if candidate is None:
            continue
        new_delta = delta1(new_vector)
        gain = new_delta - cur_delta
        if gain >= 0 or rng.random() < math.exp(gain / temp):
            current, cur_vector, cur_delta = candidate, new_vector, new_delta
        if cur_delta > best_delta:
            best_bits, best_delta = current, cur_delta
        if cur_delta > threshold and current not in recorded:
            recorded.add(current)
            fam = Family.from_ranks(n, k, current)
            nu, _ = matching_number(fam, at_least=s)
            if nu >= s:
                raise ContradictionError("scan state invariant broken: matching of size s appeared")
            entry = {"delta1": cur_delta, "edges": fam.edge_tuples(), "nu": nu}
            (violations if assert_mode else over_bound).append(entry)

    best_family = Family.from_ranks(n, k, best_bits)
    nu_best, _ = matching_number(best_family, at_least=s)
    if nu_best >= s:
        raise ContradictionError("reported family has a matching of size s")
    best = {
        "delta1": best_delta,
        "threshold": threshold,
        "edges": best_family.edge_tuples(),
        "nu": nu_best,
    }
    return ScanReport(
        kind="conjecture-scan",
        parameters={"n": n, "k": k, "s": s, "budget": budget, "seed": seed},
        families_examined=budget,
        best=best,
        violations=tuple(violations),
        notes={"assert_mode": assert_mode, "over_bound_examples": tuple(over_bound)},
    )
