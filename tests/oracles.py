"""Independent oracles used to freeze expected values.

Everything here is deliberately naive: Pascal recursion for binomials, a
linear walk down the ground set and reversed lex order for colex
unranking, exhaustive recursion for matchings, dense floating-point
linear algebra for eigenspace masses, the 2^k submasks of every edge
counted into a ``Counter`` for the squared subset degrees, the
intersection of every ordered pair of edges for the inner distribution, a
floating-point QR simplex frame for the simplex lemma, full powerset
filtering for maximal families and maximal cliques, a ``Fraction``
tableau simplex and the dense integer tableau (every edge column stored)
for the packing LP, pair-by-pair loops for the meet predicates and the
scans' shape tables (``search._shape``), the edges through each vertex read off the columns of the
edge masks written as binary rows, one ``|=`` into a growing int per
edge for a family's colex bitset, per-edge degree counts, one ``|=``
per rank for the OR of disjointness rows, a
branch-and-bound matching search on lists of vertex masks, a greedy
vertex cover that recounts every degree at every step, the
degree-driven constructive matching that rebuilds and relabels each
level, its rainbow placement on tuple sets, and the hand-derived
sign-and-squaring comparators for the square-root inequalities of the
certificates, and the certificate chain and mass recurrence evaluated one
``Fraction`` operation at a time on degrees counted from edge tuples.
None of it shares code with the library paths it checks.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import comb

import numpy as np

from ekrlab.errors import ContradictionError, DomainError
from ekrlab.families import Family


def pascal_binomial(n: int, r: int) -> int:
    """Binomial via Pascal's triangle only."""
    if r < 0 or r > n:
        return 0
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[r]


def colex_list(n: int, k: int) -> list[tuple[int, ...]]:
    """The k-subsets of [n] in colex order: lex order on the vertices taken
    from n down is colex order reversed."""
    return [tuple(sorted(c)) for c in combinations(range(n, 0, -1), k)][::-1]


def or_loop_edge_bits(edges: list[tuple[int, ...]]) -> int:
    """The colex bitset of distinct edges, OR-ed in one edge at a time (each
    ``|=`` copies the growing int); a repeated edge is a DomainError."""
    bits = 0
    for edge in edges:
        s = tuple(sorted(edge))
        bit = 1 << sum(pascal_binomial(a - 1, i) for i, a in enumerate(s, start=1))
        if bits & bit:
            raise DomainError(f"duplicate edge {s}")
        bits |= bit
    return bits


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


def subset_degree_sums_by_submasks(family: Family) -> list[int]:
    """N_t = sum of deg(U)^2 over the t-subsets U of [n], t = 0..k.

    Each edge adds one to the degree of each of its 2^k vertex submasks.
    """
    deg: Counter[int] = Counter()
    for edge in family.edge_tuples():
        subsets = [0]
        for v in edge:
            bit = 1 << (v - 1)
            subsets += [s | bit for s in subsets]
        deg.update(subsets)
    sums = [0] * (family.k + 1)
    for subset, d in deg.items():
        sums[subset.bit_count()] += d * d
    return sums


def inner_distribution_by_pairs(family: Family) -> list[int]:
    """N_t = sum_j C(j, t) P_j, t = 0..k, where P_j counts the ordered edge
    pairs (E, F), E = F included, whose tuples share j vertices (the
    popcount of the AND of their vertex masks, built here from the tuples).
    """
    masks = [sum(1 << v for v in edge) for edge in family.edge_tuples()]
    inner: Counter[int] = Counter()
    for a in masks:
        inner.update([(a & b).bit_count() for b in masks])
    return [sum(comb(j, t) * p for j, p in inner.items()) for t in range(family.k + 1)]


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


def brute_maximal_cliques(count: int, edges: set[tuple[int, int]]) -> list[int]:
    """Maximal cliques of the graph on 0..count-1 with the given (u, v)
    pairs, as vertex bitsets, by filtering every vertex subset."""
    cliques = [
        bits for bits in range(1 << count)
        if all((u, v) in edges or (v, u) in edges
               for u, v in combinations([i for i in range(count) if bits >> i & 1], 2))
    ]
    return [c for c in cliques if not any(d != c and d & c == c for d in cliques)]


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


def _dense_pivot(tableau: list[list[int]], obj: list[int], row: int, col: int, d: int) -> None:
    """Fraction-free (Bareiss) pivot: every other row, objective included,
    becomes (p*a - f*b) // d, exact by Sylvester's identity, so no gcd is
    taken.  The pivot row stays; the pivot p is the next determinant."""
    prow = tableau[row]
    p = prow[col]
    for r, line in enumerate(tableau):
        if r != row:
            f = line[col]
            tableau[r] = [(p * a - f * b) // d for a, b in zip(line, prow)]
    f = obj[col]
    obj[:] = [(p * a - f * b) // d for a, b in zip(obj, prow)]


def dense_packing(edges: list[tuple[int, ...]], n: int) -> tuple[list[int], list[int], int]:
    """The packing LP on the full fraction-free tableau: every edge column,
    every slack column and the right-hand side, over the basis determinant d.

    Same columns, all-slack start and Bland's rule as ``lp._solve_packing``,
    which stores only the slack columns; both return the numerators of x
    and y and their shared denominator d, so the triples must be identical.
    """
    e = len(edges)
    width = e + n
    tableau = []
    for v in range(1, n + 1):
        line = [1 if v in edge else 0 for edge in edges] + [0] * n + [1]
        line[e + v - 1] = 1
        tableau.append(line)
    basis = list(range(e, width))
    obj = [-1] * e + [0] * (n + 1)
    d = 1
    while True:
        entering = next((j for j in range(width) if obj[j] < 0), -1)
        if entering < 0:
            break
        # minimum ratio rhs/coef by cross-multiplying; num/den starts at 1/0
        leaving, num, den = -1, 1, 0
        for i, line in enumerate(tableau):
            coef = line[entering]
            if coef > 0:
                lhs, rhs = line[-1] * den, num * coef
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                    leaving, num, den = i, line[-1], coef
        if leaving < 0:
            raise ContradictionError("packing LP unbounded, but every x_e is at most 1")
        _dense_pivot(tableau, obj, leaving, entering, d)
        d = tableau[leaving][entering]
        basis[leaving] = entering
    x = [0] * e
    for i, b in enumerate(basis):
        if b < e:
            x[b] = tableau[i][-1]
    return x, obj[e:width], d


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


def transposed_masks(edges: list[tuple[int, ...]], n: int) -> tuple[int, ...]:
    """Entry v-1 has bit i set iff edge i contains v: column v of the edge
    masks written as n-digit binary rows, last edge first."""
    rows = "".join(format(_mask(edge), f"0{n}b") for edge in reversed(edges))
    return tuple(int(rows[n - 1 - v :: n] or "0", 2) for v in range(n))


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


def per_edge_family_stats(edges: list[tuple[int, ...]], n: int) -> tuple[int, list[int], int]:
    """(edge count, vertex degrees, common-vertex mask) by counting edge by edge."""
    deg = [0] * n
    common = (1 << n) - 1
    for e in edges:
        for v in e:
            deg[v - 1] += 1
        common &= _mask(e)
    return len(edges), deg, common


def per_rank_forbidden(bits: int, disjoint: tuple) -> int:
    """The OR of the disjointness rows of the ranks in ``bits``, rank by rank."""
    out = 0
    for r in range(bits.bit_length()):
        if bits >> r & 1:
            out |= disjoint[r]
    return out


def rescanning_greedy_cover(avail: int, through: tuple[int, ...]) -> int:
    """Size of the greedy vertex cover of the edge-index bitset ``avail``:
    each step recounts every vertex's degree and takes the lowest vertex of
    maximum degree (the loop ``matching._greedy_cover_bound`` replaced)."""
    size = 0
    while avail:
        degrees = [(avail & star).bit_count() for star in through]
        avail &= ~through[degrees.index(max(degrees))]
        size += 1
    return size


def mask_list_matching_number(
    edges: list[tuple[int, ...]], k: int, at_least: int | None = None
) -> tuple[int, list[tuple[int, ...]], int]:
    """(nu, witness edges, branch-and-bound nodes) on lists of vertex masks.

    The same branching, bounds and tie-breaks as ``matching.matching_number``
    (minimum-positive-degree branch vertex, lowest id on ties; support/k and
    greedy cover bounds, and the stop once a matching reaches their minimum
    at the root), with every degree recounted from the mask list at each
    node.  ``edges`` must be in colex order, as ``Family.edge_tuples``.
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

    # nu is at most min(support/k, greedy cover) at the root: reaching it ends the search
    support = 0
    for m in masks:
        support |= m
    goal = min(bin(support).count("1") // k, greedy(masks))
    if at_least is not None:
        goal = min(goal, at_least)

    def recurse(avail: list[int]) -> bool:
        nonlocal nodes, best
        nodes += 1
        if len(current) > len(best):
            best = current.copy()
            if len(best) >= goal:
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


def _extended_comb(n: int, r: int) -> int:
    return comb(n, r) if 0 <= r <= n else 0


def tuple_rainbow(edges: list[tuple[int, ...]], vertices: list[int]) -> list[tuple[int, ...]]:
    """Disjoint edges, the i-th through ``vertices[i]`` and no other of them,
    by complete backtracking on tuple sets: each level tries its edges in the
    order of ``edges`` and keeps the first that misses the edges placed so
    far.  Exhaustion raises AssertionError."""
    only = [[e for e in edges if v in e and not any(w in e for w in vertices if w != v)]
            for v in vertices]
    chosen: list[tuple[int, ...]] = []

    def place(level: int, used: set[int]) -> bool:
        if level == len(vertices):
            return True
        for e in only[level]:
            if not used.intersection(e):
                chosen.append(e)
                if place(level + 1, used | set(e)):
                    return True
                chosen.pop()
        return False

    assert place(0, set()), "rainbow search exhausted"
    return chosen


def tuple_matching_by_degree(
    edges: list[tuple[int, ...]], n: int, k: int, s: int
) -> tuple[list[tuple[int, ...]], list[dict]]:
    """(matching edges, trace) of the degree-driven constructive matching,
    on edge-tuple lists.

    The same branches, thresholds, tie-breaks and trace entries as
    ``matching.find_matching_by_degree`` inside its hypothesis region, but
    every level rebuilds the family without the deleted vertex, relabels
    it onto [n-1] and lifts the sub-matching back, the rainbow placement
    runs on tuple sets, and the pair scan tests pair by pair.  ``edges``
    must be in colex order, as ``Family.edge_tuples``; an order-preserving
    relabelling keeps that order.  A failed step raises AssertionError.
    """
    if s <= 0:
        return [], [{"s": s, "branch": "empty"}]
    if s == 1:
        assert edges, "positive minimum degree but no edges"
        return [edges[0]], [{"s": 1, "branch": "single-edge"}]
    if s == 2:
        for i in range(len(edges)):
            for j in range(i + 1, len(edges)):
                if not set(edges[i]).intersection(edges[j]):
                    return [edges[i], edges[j]], [{"s": 2, "branch": "pair-scan"}]
        raise AssertionError("no two disjoint edges")

    deg = [0] * n
    for e in edges:
        for v in e:
            deg[v - 1] += 1
    pair_bound = _extended_comb(n - 2, k - 2)
    high = k * (s - 1) * pair_bound
    vmax = 1 + max(range(n), key=lambda i: deg[i])
    if deg[vmax - 1] > high:
        sub = [tuple(u if u < vmax else u - 1 for u in e) for e in edges if vmax not in e]
        sub_deg = [0] * (n - 1)
        for e in sub:
            for v in e:
                sub_deg[v - 1] += 1
        lost = _extended_comb(n - 2, k - 1) - _extended_comb(n - s, k - 1)
        assert min(sub_deg, default=0) > lost, "vertex deletion lost the degree hypothesis"
        sub_edges, sub_trace = tuple_matching_by_degree(sub, n - 1, k, s - 1)
        lifted = [tuple(u if u < vmax else u + 1 for u in e) for e in sub_edges]
        used = {v for e in lifted for v in e}
        extension = next(e for e in edges if vmax in e and not used.intersection(e))
        entry = {"s": s, "branch": "high-degree-vertex", "vertex": vmax,
                 "degree": deg[vmax - 1], "threshold": high}
        return lifted + [extension], [entry] + sub_trace

    order = sorted(range(n), key=lambda i: (-deg[i], i))
    top = [i + 1 for i in order[:s]]
    rainbow_bound = 2 * (s - 1) * pair_bound
    if deg[top[-1] - 1] > rainbow_bound:
        entry = {"s": s, "branch": "rainbow", "vertices": top, "threshold": rainbow_bound}
        return tuple_rainbow(edges, top), [entry]

    sub_edges, sub_trace = tuple_matching_by_degree(edges, n, k, s - 1)
    used = {v for e in sub_edges for v in e}
    extension = next(e for e in edges if not used.intersection(e))
    entry = {"s": s, "branch": "greedy-extension", "threshold": rainbow_bound}
    return sub_edges + [extension], [entry] + sub_trace


def leq_neg_sqrt(lhs: Fraction, rhs_sq: Fraction) -> tuple[bool, bool]:
    """Decide lhs <= -sqrt(rhs_sq) exactly; returns (holds, equality)."""
    if rhs_sq < 0:
        raise DomainError("comparison needs a nonnegative radicand")
    if lhs > 0:
        return False, False
    sq = lhs * lhs
    return sq >= rhs_sq, sq == rhs_sq


def geq_sqrt_gap(lhs_sq: Fraction, alpha: Fraction, p: int, t: Fraction) -> tuple[bool, bool]:
    """Decide sqrt(lhs_sq) >= alpha * sqrt(p) * (sqrt(p) - t) exactly.

    lhs_sq >= 0, alpha >= 0, p >= 0 integer, t >= 0; returns
    (holds, equality).  sqrt(p) is eliminated by sign analysis plus one
    more squaring, so irrational sizes are handled exactly.
    """
    if lhs_sq < 0 or alpha < 0 or p < 0 or t < 0:
        raise DomainError("sqrt-gap comparison needs nonnegative inputs")
    if alpha == 0 or p == 0:
        return True, lhs_sq == 0
    if p <= t * t:
        # right side is <= 0 while the left side is >= 0
        return True, lhs_sq == 0 and p == t * t
    # both sides positive: square once; sqrt(p) survives linearly
    x = lhs_sq - alpha * alpha * p * (p + t * t)
    y = 2 * alpha * alpha * p * t
    if x >= 0:
        return True, x == 0 and y == 0
    # x < 0: need x >= -y sqrt(p), i.e. x^2 <= y^2 p
    return x * x <= y * y * p, x * x == y * y * p


def squared_sqrt_product_check(
    x1: Fraction | int, y1: Fraction | int, x2: Fraction | int, y2: Fraction | int
) -> bool:
    """Exactly verify sqrt((x1-y1)(x2-y2)) <= sqrt(x1 x2) - sqrt(y1 y2).

    Requires x1 >= y1 >= 0 and x2 >= y2 >= 0.  Both sides are nonnegative,
    so squaring twice with sign tracking reduces the claim to
    (x1 y2 + y1 x2)^2 >= 4 x1 y2 y1 x2, an exact rational comparison.
    """
    x1, y1, x2, y2 = Fraction(x1), Fraction(y1), Fraction(x2), Fraction(y2)
    if not (x1 >= y1 >= 0 and x2 >= y2 >= 0):
        raise DomainError("need x1 >= y1 >= 0 and x2 >= y2 >= 0")
    if x1 * x2 < y1 * y2:
        return False
    a = x1 * y2
    b = y1 * x2
    return (a + b) ** 2 >= 4 * a * b


# The certificate chain and the mass recurrence one ``Fraction`` operation
# at a time, as the library computed them before it decided in integers
# over known denominators.  Degrees are read from the edge tuples and
# binomials come from ``math.comb``, so none of it calls the library; each
# chain returns the fields of the library's report as a dict, the
# dichotomy by its value.


def edge_degrees(n: int, edges: list[tuple[int, ...]]) -> list[int]:
    """Degree of every vertex 1..n, one count per edge vertex."""
    deg = [0] * n
    for edge in edges:
        for v in edge:
            deg[v - 1] += 1
    return deg


def fraction_masses(n: int, k: int, sums: list[int]) -> list[Fraction]:
    """F_0..F_t from the squared subset degrees N_0..N_t, by forward substitution.

    The diagonal C(n-2t, k-t) is positive whenever n >= k + t.
    """
    masses: list[Fraction] = []
    for t, n_t in enumerate(sums):
        below = sum(
            _extended_comb(k - j, t - j) * _extended_comb(n - t - j, k - t) * f
            for j, f in enumerate(masses)
        )
        masses.append(Fraction(n_t - below, _extended_comb(n - 2 * t, k - t)))
    return masses


def fraction_level_masses(n: int, k: int, edges: list[tuple[int, ...]]) -> tuple[Fraction, ...]:
    """(F_0, F_1, residual) from N_0 = e^2 and N_1 = sum_v deg(v)^2."""
    e = len(edges)
    f0, f1 = fraction_masses(n, k, [e * e, sum(d * d for d in edge_degrees(n, edges))])
    residual = e - f0 - f1
    return f0, f1, residual


def fraction_sign(a: Fraction, b: Fraction, c: Fraction) -> int:
    """Sign of a + b sqrt(c) for rationals a, b and c >= 0, decided exactly.

    When a and b sqrt(c) have opposite signs the term of larger magnitude
    wins, so the sign is sign(a) sign(a^2 - b^2 c); otherwise it is the
    sign of whichever term is nonzero.
    """
    if c < 0:
        raise DomainError("comparison needs a nonnegative radicand")
    sa, sb = (a > 0) - (a < 0), ((b > 0) - (b < 0)) * (c > 0)
    if sa * sb >= 0:
        return sa or sb
    d = a * a - b * b * c
    return sa * ((d > 0) - (d < 0))


def fraction_simplex_min_index(v) -> dict:
    """The simplex lemma min_i v_i <= -||v|| / sqrt(n(n-1)) on Fractions."""
    v = [Fraction(x) for x in v]
    n = len(v)
    if n < 2:
        raise DomainError(f"simplex lemma needs n >= 2, got n={n}")
    if sum(v) != 0:
        raise DomainError("simplex lemma needs a vector with coordinate sum 0")
    lhs = min(v)
    rhs_sq = sum(x * x for x in v) / (n * (n - 1))
    g = fraction_sign(lhs, 1, rhs_sq)
    return dict(vertex=1 + v.index(lhs), lhs=lhs, rhs_squared=rhs_sq,
                holds=g <= 0, equality=g == 0)


def fraction_degree_witness(n: int, k: int, edges: list[tuple[int, ...]], f1: Fraction) -> dict:
    """The simplex lemma on deg - ke/n, checked against F_1 of the family."""
    shift = Fraction(k * len(edges), n)
    report = fraction_simplex_min_index([d - shift for d in edge_degrees(n, edges)])
    if report["rhs_squared"] * (n * (n - 1)) ** 2 != _extended_comb(n, k) * k * (n - k) * f1:
        raise ContradictionError("degree deviation norm disagrees with the mass F_1")
    return report


def fraction_ekr_certificate(n: int, k: int, edges: list[tuple[int, ...]]) -> dict:
    """The two-sided mass chain and the dichotomy of an intersecting family."""
    e = len(edges)
    deg = edge_degrees(n, edges)
    delta1 = min(deg)
    f0, f1, residual = fraction_level_masses(n, k, edges)
    nk = _extended_comb(n, k)
    threshold = Fraction(n, k) * _extended_comb(n - 2, k - 2)
    star_count = _extended_comb(n - 1, k - 1)

    lower_rhs = Fraction(n - 1, nk) * e * (e - threshold)
    eq4_holds = f1 >= lower_rhs

    witness = fraction_degree_witness(n, k, edges, f1)

    if delta1 >= _extended_comb(n - 2, k - 2):
        upper_rhs = (e - threshold) ** 2 * Fraction((n - 1) ** 2 * k, (n - k) * nk)
        eq6_holds = f1 <= upper_rhs
    else:
        upper_rhs = None
        eq6_holds = None

    if e <= threshold:
        dichotomy = "AtMostThreshold"
    elif e >= star_count:
        dichotomy = "AtLeastStarCount"
    else:
        dichotomy = "Inconclusive"

    is_star = e == star_count and max(deg) == e

    return dict(
        n=n, k=k, e=e, delta1=delta1, f0=f0, f1=f1, residual=residual,
        lower_bound_rhs=lower_rhs, upper_bound_rhs=upper_rhs, witness=witness,
        eq4_holds=eq4_holds, eq6_holds=eq6_holds, dichotomy=dichotomy, is_star=is_star,
    )


def fraction_cross_certificate(
    n: int, k: int, left: list[tuple[int, ...]], right: list[tuple[int, ...]]
) -> dict:
    """The mass and degree-product bounds of a cross-intersecting pair."""
    _, b1, _ = fraction_level_masses(n, k, left)
    _, c1, _ = fraction_level_masses(n, k, right)
    db, dc = min(edge_degrees(n, left)), min(edge_degrees(n, right))
    p = len(left) * len(right)
    alpha = Fraction(n - 1, _extended_comb(n, k))
    t = Fraction(n, k) * _extended_comb(n - 2, k - 2)
    if b1 * c1 < 0:
        raise DomainError("sqrt-gap comparison needs nonnegative inputs")
    g = fraction_sign(alpha * p, -alpha * t, p)  # the right side, alpha p - alpha t sqrt(p)
    if g <= 0:
        holds, equality = True, g == 0 and b1 * c1 == 0
    else:  # square both positive sides once; sqrt(p) survives linearly
        h = fraction_sign(b1 * c1 - alpha * alpha * p * (p + t * t), 2 * alpha * alpha * p * t, p)
        holds, equality = h >= 0, h == 0
    bound = _extended_comb(n - 2, k - 2) ** 2
    return dict(
        n=n, k=k, size_b=len(left), size_c=len(right),
        delta1_b=db, delta1_c=dc, b1=b1, c1=c1,
        ineq10_holds=holds, ineq10_equality=equality,
        product_bound_holds=db * dc <= bound,
    )
