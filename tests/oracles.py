"""Independent oracles used to freeze expected values.

Everything here is deliberately naive: Pascal recursion for binomials,
a linear walk down the ground set for colex unranking,
exhaustive recursion for matchings, dense floating-point linear algebra
for eigenspace masses, a floating-point QR simplex frame for the simplex
lemma, full powerset filtering for maximal families, a ``Fraction``
tableau simplex for the packing LP, pair-by-pair loops for the meet
predicates and the Kneser tables, per-edge degree counts, and a
branch-and-bound matching search on lists of vertex masks.
None of it shares code with the library paths it checks.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations
from math import comb

import numpy as np


def pascal_binomial(n: int, r: int) -> int:
    """Binomial via Pascal's triangle only."""
    if r < 0 or r > n:
        return 0
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[r]


def linear_unrank(r: int, k: int, n: int) -> tuple[int, ...]:
    """The k-subset of [n] of colex rank r, walking a down from n and
    taking the largest a with C(a-1, i) <= r at each level i = k..1."""
    out = []
    a = n
    for i in range(k, 0, -1):
        while comb(a - 1, i) > r:
            a -= 1
        out.append(a)
        r -= comb(a - 1, i)
    return tuple(reversed(out))


def brute_matching_number(edges: list[tuple[int, ...]]) -> int:
    """Maximum number of pairwise disjoint edges, by exhaustive recursion."""
    sets = [frozenset(e) for e in edges]

    def go(i: int, used: frozenset) -> int:
        if i == len(sets):
            return 0
        best = go(i + 1, used)
        if not sets[i] & used:
            best = max(best, 1 + go(i + 1, used | sets[i]))
        return best

    return go(0, frozenset())


def kneser_adjacency(n: int, k: int) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Dense disjointness adjacency over all k-subsets of [n]."""
    ksets = list(combinations(range(1, n + 1), k))
    size = len(ksets)
    adj = np.zeros((size, size))
    for i in range(size):
        si = set(ksets[i])
        for j in range(i + 1, size):
            if not si.intersection(ksets[j]):
                adj[i, j] = adj[j, i] = 1.0
    return ksets, adj


def eigenspace_masses_dense(
    n: int, k: int, char_vectors: np.ndarray, eigenvalues: list[int]
) -> np.ndarray:
    """Masses by dense eigendecomposition, grouping eigenvectors by eigenvalue.

    Valid only when the k+1 predicted eigenvalues are pairwise distinct.
    ``char_vectors`` has one family characteristic vector per row; returns
    one row of masses F_0..F_k per family.
    """
    assert len(set(eigenvalues)) == len(eigenvalues), "eigenvalues must be distinct"
    _, adj = kneser_adjacency(n, k)
    w, vecs = np.linalg.eigh(adj)
    masses = np.zeros((char_vectors.shape[0], len(eigenvalues)))
    for j, lam in enumerate(eigenvalues):
        cols = np.abs(w - lam) < 1e-8
        proj = char_vectors @ vecs[:, cols]
        masses[:, j] = (proj ** 2).sum(axis=1)
    return masses


def eigenspace_masses_incidence(n: int, k: int, char_vectors: np.ndarray) -> np.ndarray:
    """Masses via QR-orthonormalized incidence spans (handles repeated
    eigenvalues, e.g. n = 2k)."""
    ksets = list(combinations(range(1, n + 1), k))
    prev = np.zeros(char_vectors.shape[0])
    out = []
    for d in range(k + 1):
        dsets = list(combinations(range(1, n + 1), d))
        inc = np.zeros((len(ksets), len(dsets)))
        for col, s in enumerate(dsets):
            ss = set(s)
            for row, e in enumerate(ksets):
                if ss.issubset(e):
                    inc[row, col] = 1.0
        q, _ = np.linalg.qr(inc)
        # guard against rank deficiency of the incidence span
        keep = (np.abs(q.T @ inc).max(axis=1) > 1e-8)
        proj = char_vectors @ q[:, keep]
        norm = (proj ** 2).sum(axis=1)
        out.append(norm - prev)
        prev = norm
    return np.array(out).T


def star_span_mass(n: int, k: int, char_vectors: np.ndarray) -> np.ndarray:
    """F_0 + F_1 per family: the squared norm of the least-squares projection
    of each characteristic vector onto the span of the n star vectors."""
    ksets = list(combinations(range(1, n + 1), k))
    stars = np.array([[1.0 if v in e else 0.0 for v in range(1, n + 1)] for e in ksets])
    coef, *_ = np.linalg.lstsq(stars, char_vectors.T, rcond=None)
    return ((stars @ coef) ** 2).sum(axis=0)


def char_vector(n: int, k: int, edges: set[tuple[int, ...]]) -> np.ndarray:
    ksets = list(combinations(range(1, n + 1), k))
    return np.array([1.0 if e in edges else 0.0 for e in ksets])


@cache
def qr_simplex_frame(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(q, frame) for the sum-zero hyperplane of R^n, n >= 2, in floats.

    Cached per n; callers only read the arrays.

    The columns of q are an orthonormal basis of the hyperplane, from QR of
    the columns e_i - e_n.  The rows of frame are the centered basis
    vectors e_i - 1/n in q coordinates, scaled to unit length: n unit
    vectors of R^(n-1) with pairwise inner products -1/(n-1).
    """
    basis = np.zeros((n, n - 1))
    basis[:-1, :] = np.eye(n - 1)
    basis[-1, :] = -1.0
    q, _ = np.linalg.qr(basis)
    centered = np.eye(n) - np.full((n, n), 1.0 / n)
    return q, centered @ q / np.sqrt((n - 1) / n)


def float_simplex_min(v) -> tuple[int, float]:
    """(1-based index, value) minimizing <v, u_i> over the unit QR frame.

    v lies in the sum-zero hyperplane of R^n and is taken to q coordinates
    first; numpy's argmin keeps the lowest index on ties.
    """
    q, frame = qr_simplex_frame(len(v))
    products = frame @ (q.T @ np.asarray(v, dtype=float))
    idx = int(np.argmin(products))
    return idx + 1, float(products[idx])


def brute_maximal_intersecting(n: int, k: int) -> list[frozenset]:
    """All maximal intersecting families by filtering the full powerset."""
    ksets = [frozenset(e) for e in combinations(range(1, n + 1), k)]
    size = len(ksets)
    intersecting = []
    for bits in range(1, 1 << size):
        members = [ksets[i] for i in range(size) if bits >> i & 1]
        if all(a & b for a, b in combinations(members, 2)):
            intersecting.append(bits)
    good = set(intersecting)
    maximal = []
    for bits in intersecting:
        if not any(other != bits and other & bits == bits for other in good):
            maximal.append(frozenset(ksets[i] for i in range(size) if bits >> i & 1))
    return maximal


def fractional_matching_value(n: int, edges: list[tuple[int, ...]]) -> float:
    """Fractional matching number by scipy's floating-point LP solver."""
    from scipy.optimize import linprog

    if not edges:
        return 0.0
    incidence = np.array([[1.0 if v in e else 0.0 for e in edges] for v in range(1, n + 1)])
    result = linprog(-np.ones(len(edges)), A_ub=incidence, b_ub=np.ones(n),
                     bounds=(0, None), method="highs")
    assert result.status == 0, result.message
    return -result.fun


def _fraction_pivot(tableau: list[list[Fraction]], obj: list[Fraction], row: int, col: int) -> None:
    piv = tableau[row][col]
    prow = [x / piv for x in tableau[row]]
    tableau[row] = prow
    for r, line in enumerate(tableau):
        if r != row and line[col]:
            factor = line[col]
            tableau[r] = [x - factor * y for x, y in zip(line, prow)]
    if obj[col]:
        factor = obj[col]
        obj[:] = [x - factor * y for x, y in zip(obj, prow)]


def fraction_packing(edges: list[tuple[int, ...]], n: int) -> tuple[list[Fraction], list[Fraction]]:
    """The packing LP max sum(x), vertex loads <= 1, by a ``Fraction`` tableau.

    Same columns, all-slack start and Bland's rule as ``lp._solve_packing``,
    but every entry is a reduced ``Fraction``.  Returns the optimal x (one
    entry per edge) and the dual y (one entry per vertex), read off the
    objective row at the slack columns.
    """
    e = len(edges)
    width = e + n
    zero, one = Fraction(0), Fraction(1)
    tableau = []
    for v in range(1, n + 1):
        line = [one if v in edge else zero for edge in edges] + [zero] * n + [one]
        line[e + v - 1] = one
        tableau.append(line)
    basis = list(range(e, width))
    obj = [-one] * e + [zero] * (n + 1)
    while True:
        entering = next((j for j in range(width) if obj[j] < 0), -1)
        if entering < 0:
            break
        leaving = -1
        best_ratio: Fraction | None = None
        for i, line in enumerate(tableau):
            coef = line[entering]
            if coef > 0:
                ratio = line[-1] / coef
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            raise AssertionError("packing LP unbounded, but every x_e is at most 1")
        _fraction_pivot(tableau, obj, leaving, entering)
        basis[leaving] = entering
    x = [zero] * e
    for i, b in enumerate(basis):
        if b < e:
            x[b] = tableau[i][-1]
    return x, obj[e:width]


def quadratic_cross_pair_scan(n: int, k: int, families: list[list[tuple[int, ...]]]) -> dict:
    """The cross-pair scan by testing every ordered pair of families.

    ``families`` lists edge tuples in emission order.  A pair (i, j) is
    cross-intersecting iff no edge of F_j is disjoint from an edge of F_i,
    decided on bitsets over the lexicographic k-sets.  Returns the report
    fields families_examined, best, violations and notes.
    """
    ksets = list(combinations(range(1, n + 1), k))
    index = {e: i for i, e in enumerate(ksets)}
    sets = [set(e) for e in ksets]
    disjoint = [sum(1 << j for j, t in enumerate(sets) if not s & t) for s in sets]
    star_size = pascal_binomial(n - 1, k - 1)
    bound = pascal_binomial(n - 2, k - 2) ** 2
    ebits, forb, deltas, stars = [], [], [], []
    for edges in families:
        ebits.append(sum(1 << index[e] for e in edges))
        mask = 0
        for e in edges:
            mask |= disjoint[index[e]]
        forb.append(mask)
        deltas.append(min(sum(1 for e in edges if v in e) for v in range(1, n + 1)))
        common = set(range(1, n + 1)).intersection(*edges) if edges else set()
        stars.append(max(common) if len(edges) == star_size and common else 0)

    m = len(ebits)
    cross_unordered = cross_diagonal = 0
    max_product = -1
    maximizers: list[tuple[int, int]] = []
    violations = []
    for i in range(m):
        for j in range(i, m):
            if ebits[j] & forb[i]:
                continue
            cross_diagonal += i == j
            cross_unordered += 1
            product = deltas[i] * deltas[j]
            if product > max_product:
                max_product = product
                maximizers = [(i, j)]
            elif product == max_product and len(maximizers) < 1000:
                maximizers.append((i, j))
            if product > bound:
                violations.append(
                    {"product": product, "left_delta1": deltas[i], "right_delta1": deltas[j],
                     "left_index": i, "right_index": j}
                )
    ordered_cross = 2 * cross_unordered - cross_diagonal
    best = {
        "max_product": max_product,
        "bound": bound,
        "maximizers": tuple(
            {"left_index": i, "right_index": j,
             "left_star_center": stars[i], "right_star_center": stars[j]}
            for i, j in maximizers
        ),
        "maximizers_all_same_center_stars": all(
            stars[i] != 0 and stars[i] == stars[j] for i, j in maximizers
        ),
    }
    notes = {
        "ordered_pairs_total": m * m,
        "ordered_pairs_cross": ordered_cross,
        "ordered_pairs_skipped": m * m - ordered_cross,
    }
    return {"families_examined": m, "best": best, "violations": tuple(violations), "notes": notes}


def _mask(edge: tuple[int, ...]) -> int:
    return sum(1 << (v - 1) for v in edge)


def pairwise_is_intersecting(edges: list[tuple[int, ...]]) -> bool:
    """True iff every two edges share a vertex, by testing every pair."""
    masks = [_mask(e) for e in edges]
    return all(masks[i] & masks[j] for i in range(len(masks)) for j in range(i + 1, len(masks)))


def pairwise_are_cross_intersecting(left: list[tuple[int, ...]], right: list[tuple[int, ...]]) -> bool:
    """True iff every edge of ``left`` meets every edge of ``right``, pair by pair."""
    return all(_mask(a) & _mask(b) for a in left for b in right)


def pairwise_disjoint_pairs(edges: list[tuple[int, ...]]) -> int:
    """Unordered pairs of disjoint edges, by testing every pair."""
    masks = [_mask(e) for e in edges]
    return sum(
        1 for i in range(len(masks)) for j in range(i + 1, len(masks)) if not masks[i] & masks[j]
    )


def quadratic_kneser_tables(n: int, k: int) -> tuple[tuple, tuple, tuple]:
    """(stars, meet, disjoint) over the colex ranks of the k-subsets of [n],
    by testing every pair of k-sets; ``meet[r]`` leaves r out."""
    ksets = sorted(combinations(range(1, n + 1), k), key=lambda s: s[::-1])
    masks = [_mask(e) for e in ksets]
    count = len(ksets)
    meet = [0] * count
    for i in range(count):
        for j in range(i + 1, count):
            if masks[i] & masks[j]:
                meet[i] |= 1 << j
                meet[j] |= 1 << i
    full = (1 << count) - 1
    disjoint = tuple(full & ~meet[r] & ~(1 << r) for r in range(count))
    stars = tuple(sum(1 << r for r, e in enumerate(ksets) if v in e) for v in range(1, n + 1))
    return stars, tuple(meet), disjoint


def per_edge_family_stats(edges: list[tuple[int, ...]], n: int) -> tuple[int, int, int]:
    """(edge count, delta_1, common-vertex mask) by counting edge by edge."""
    deg = [0] * n
    common = (1 << n) - 1
    for e in edges:
        for v in e:
            deg[v - 1] += 1
        common &= _mask(e)
    return len(edges), min(deg), common


def mask_list_matching_number(
    edges: list[tuple[int, ...]], k: int, at_least: int | None = None
) -> tuple[int, list[tuple[int, ...]], int]:
    """(nu, witness edges, branch-and-bound nodes) on lists of vertex masks.

    The same branching, bounds and tie-breaks as ``matching.matching_number``
    (minimum-positive-degree branch vertex, lowest id on ties; support/k and
    greedy cover bounds), with every degree recounted from the mask list at
    each node.  ``edges`` must be in colex order, as ``Family.edge_tuples``.
    """
    masks = [_mask(e) for e in edges]
    k = max(k, 1)
    best: list[int] = []
    current: list[int] = []
    nodes = 0

    def counts(avail: list[int]) -> dict[int, int]:
        out: dict[int, int] = {}
        for m in avail:
            v = 0
            while m >> v:
                if m >> v & 1:
                    out[v] = out.get(v, 0) + 1
                v += 1
        return out

    def greedy(avail: list[int]) -> int:
        remaining, size = list(avail), 0
        while remaining:
            c = counts(remaining)
            top = max(sorted(c), key=lambda v: c[v])
            remaining = [m for m in remaining if not m >> top & 1]
            size += 1
        return size

    def recurse(avail: list[int]) -> bool:
        nonlocal nodes, best
        nodes += 1
        if len(current) > len(best):
            best = current.copy()
            if at_least is not None and len(best) >= at_least:
                return True
        if not avail:
            return False
        support = 0
        for m in avail:
            support |= m
        cheap = bin(support).count("1") // k
        if len(current) + cheap <= len(best) or len(current) + greedy(avail) <= len(best):
            return False
        c = counts(avail)
        v = min(c, key=lambda u: (c[u], u))
        for m in [m for m in avail if m >> v & 1]:
            current.append(m)
            if recurse([o for o in avail if not o & m]):
                return True
            current.pop()
        return recurse([m for m in avail if not m >> v & 1])

    recurse(masks)
    lookup = dict(zip(masks, edges))
    return len(best), [lookup[m] for m in best], nodes
