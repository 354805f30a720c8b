"""Exhaustive and heuristic searches over intersecting families.

Maximal intersecting families are the maximal cliques of the meet graph on
k-subsets (two k-sets adjacent iff they share a vertex), enumerated by
Bron-Kerbosch with pivoting.  Adding edges never decreases any degree, so
scanning only maximal families suffices to bound minimum degrees over all
intersecting families.

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
from functools import lru_cache

from . import limits
from .errors import ContradictionError, DomainError, ResourceLimitError
from .families import Family, binomial, incidence, iter_bits, meets
from .matching import matching_number

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


@lru_cache(maxsize=None)
def _kneser_tables(n: int, k: int) -> tuple[tuple, tuple, tuple]:
    """(stars, meet-adjacency bitsets, disjointness bitsets) over the colex
    ranks of the k-subsets of [n].

    ``stars[v-1]`` is the incidence bitset of vertex v in the complete
    family; the ranks meeting rank r are the OR of the stars of its
    vertices, and ``meet[r]`` leaves r itself out.
    """
    full = (1 << binomial(n, k)) - 1
    masks = Family.from_ranks(n, k, full).vertex_masks()
    stars = incidence(masks, n)
    reach = meets(stars, masks)
    meet = tuple(m & ~(1 << r) for r, m in enumerate(reach))
    return tuple(stars), meet, tuple(full ^ m for m in reach)


def _check_enum_size(n: int, k: int, limit: int | None) -> int:
    if k < 1 or k > n:
        raise DomainError(f"enumeration needs 1 <= k <= n, got k={k}, n={n}")
    cap = limits.resolve(limit, limits.ENUM_KSET_LIMIT)
    count = binomial(n, k)
    if count > cap:
        raise ResourceLimitError(f"C({n},{k}) = {count} k-sets exceeds enumeration limit {cap}")
    return count


def maximal_intersecting(n: int, k: int, limit: int | None = None):
    """Yield every maximal intersecting family on [n] exactly once.

    Bron-Kerbosch over the meet graph; the pivot maximizes the candidate
    coverage (lowest rank on ties), and candidates are visited in rank
    order, so the emission order is deterministic.  The recursion runs on
    an explicit stack of [r, p, x, candidates] frames.  Size gating happens
    before the generator is returned.
    """
    count = _check_enum_size(n, k, limit)
    _, meet, _ = _kneser_tables(n, k)

    def bron_kerbosch():
        frames = []
        r, p, x = 0, (1 << count) - 1, 0
        while True:
            if p:
                best = -1
                for u in iter_bits(p | x):
                    cover = (p & meet[u]).bit_count()
                    if cover > best:
                        best, pivot = cover, u
                frames.append([r, p, x, iter_bits(p & ~meet[pivot])])
            elif not x:
                yield Family.from_ranks(n, k, r)
            while frames and (v := next(frames[-1][3], None)) is None:
                frames.pop()
            if not frames:
                return
            frame = frames[-1]
            r, p, x, _ = frame
            frame[1], frame[2] = p & ~(1 << v), x | 1 << v  # v leaves p for x
            r, p, x = r | 1 << v, p & meet[v], x & meet[v]

    return bron_kerbosch()


def _family_stats(bits: int, stars: tuple) -> tuple[int, int, int]:
    """(edge count, delta_1, mask of the vertices in every edge) from the rank bitset."""
    count = bits.bit_count()
    degrees = [(bits & star).bit_count() for star in stars]
    common = sum(1 << v for v, d in enumerate(degrees) if d == count)
    return count, min(degrees), common


def greedy_complete(family: Family) -> Family:
    """Extend a pairwise-intersecting family to a maximal one, in rank order."""
    count = _check_enum_size(family.n, family.k, None)
    _, meet, _ = _kneser_tables(family.n, family.k)
    bits = family.edges
    for r in iter_bits(((1 << count) - 1) & ~bits):
        if bits & ~meet[r] == 0:
            bits |= 1 << r
    return Family.from_ranks(family.n, family.k, bits)


def ekr_degree_scan(n: int, k: int, limit: int | None = None) -> ScanReport:
    """Exhaustively check the degree dichotomy over maximal families.

    Asserts that the maximum minimum-degree equals C(n-2,k-2), attained
    exactly by the n stars, and that every non-star maximal family stays
    strictly below.  Any violation is reported as a counterexample record.
    """
    if n < 2 * k + 1:
        raise DomainError(f"ekr scan needs n >= 2k+1 = {2 * k + 1}, got n={n}")
    _check_enum_size(n, k, limit)
    stars = _kneser_tables(n, k)[0]
    star_size = binomial(n - 1, k - 1)
    expected_max = binomial(n - 2, k - 2)

    stars_seen = 0
    max_delta = -1
    at_max: list[int] = []
    nonstar_max = -1
    violations = []
    records = []
    for examined, fam in enumerate(maximal_intersecting(n, k, limit=limit)):
        e, delta, common = _family_stats(fam.edges, stars)
        is_star = e == star_size and common != 0
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
            violations.append(
                {"delta1": delta, "edges": fam.edge_tuples(), "reason": "non-star at or above C(n-2,k-2)"}
            )

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


def cross_pair_scan(n: int, k: int, limit: int | None = None) -> ScanReport:
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
    full = (1 << _check_enum_size(n, k, limit)) - 1
    stars, _, disjoint = _kneser_tables(n, k)
    star_size = binomial(n - 1, k - 1)
    bound = binomial(n - 2, k - 2) ** 2

    seen: set[int] = set()
    deltas: list[int] = []
    centers: list[int] = []  # common vertex of a full star, else 0
    for i, fam in enumerate(maximal_intersecting(n, k, limit=limit)):
        forb = 0
        for r in iter_bits(fam.edges):
            forb |= disjoint[r]
        if forb != full & ~fam.edges:
            raise ContradictionError(f"maximal family {i} is not self-dual: F^perp != F")
        if fam.edges in seen:
            raise ContradictionError(f"maximal family {i} repeats an earlier one")
        seen.add(fam.edges)
        e, delta, common = _family_stats(fam.edges, stars)
        deltas.append(delta)
        centers.append(common.bit_length() if (e == star_size and common) else 0)

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


def _nu_below(bits: int, new_rank: int, s: int, disjoint: tuple, n: int, k: int) -> bool:
    """True iff adding new_rank keeps every matching below size s.

    Since the current family has no s-matching, one could only appear
    through the new edge; that needs an (s-1)-matching among current edges
    disjoint from it.
    """
    if s <= 1:
        return False
    away = bits & disjoint[new_rank]
    if not away:
        return True
    nu, _ = matching_number(Family.from_ranks(n, k, away), at_least=s - 1)
    return nu < s - 1


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
    full = (1 << _check_enum_size(n, k, None)) - 1
    stars, _, disjoint = _kneser_tables(n, k)

    threshold = binomial(n - 1, k - 1) - binomial(n - s, k - 1)
    assert_mode = n > k * s
    rng = random.Random(seed)
    base = erdos_extremal(n, k, s, 1).edges

    def delta1(bits: int) -> int:
        return _family_stats(bits, stars)[1]

    def perturb(bits: int) -> int:
        out = bits
        for r in iter_bits(bits):
            if rng.random() < 0.2:
                out &= ~(1 << r)
        return out

    current = base
    cur_delta = delta1(current)
    best_bits, best_delta = current, cur_delta
    violations = []
    over_bound: list[dict] = []
    restart_every = max(1, budget // 4)
    t0, t1 = 2.0, 0.05

    for it in range(budget):
        if it and it % restart_every == 0:
            current = perturb(base)
            cur_delta = delta1(current)
        temp = t0 * (t1 / t0) ** (it / max(1, budget))
        add_move = rng.random() < 0.5
        candidate = None
        if add_move:
            absent = list(iter_bits(full ^ current))
            if absent:
                r = absent[rng.randrange(len(absent))]
                if _nu_below(current, r, s, disjoint, n, k):
                    candidate = current | (1 << r)
        else:
            present = list(iter_bits(current))
            if present:
                r = present[rng.randrange(len(present))]
                candidate = current & ~(1 << r)
        if candidate is None:
            continue
        new_delta = delta1(candidate)
        gain = new_delta - cur_delta
        if gain >= 0 or rng.random() < math.exp(gain / temp):
            current = candidate
            cur_delta = new_delta
        if cur_delta > best_delta:
            best_bits, best_delta = current, cur_delta
        if cur_delta > threshold:
            fam = Family.from_ranks(n, k, current)
            nu, _ = matching_number(fam, at_least=s)
            if nu >= s:
                raise ContradictionError("scan state invariant broken: matching of size s appeared")
            entry = {"delta1": cur_delta, "edges": fam.edge_tuples(), "nu": nu}
            if assert_mode:
                if entry not in violations:
                    violations.append(entry)
            elif entry not in over_bound:
                over_bound.append(entry)

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
