"""Kneser-graph spectrum and exact eigenspace masses of a family.

The disjointness graph on the k-subsets of [n] has adjacency eigenvalues
(-1)^j * C(n-k-j, k-j) with multiplicity m_j = C(n,j) - C(n,j-1), j = 0..k.
The j-th eigenspace E_j is the orthogonal complement of E_0 + ... + E_{j-1}
inside the span of the incidence vectors of all j-subsets (the vector of a
j-set S marks the k-sets containing S).  For a family with characteristic
vector h, the mass F_j = ||P_{E_j} h||^2 is computed here exactly from
the squared subset degrees

  N_t = sum_{|U|=t} deg(U)^2 = ||W_t h||^2,

where W_t is the inclusion matrix of t-subsets against k-subsets.  By
Wilson (1990), W_t^T W_t acts on E_j as the scalar
C(k-j, t-j) C(n-t-j, k-t) for j <= t and as 0 for j > t, so

  N_t = sum_{j<=t} C(k-j, t-j) C(n-t-j, k-t) F_j

is lower triangular in F with diagonal C(n-2t, k-t), and forward
substitution gives F_0..F_t from N_0..N_t, in integers over the running
product of the diagonals, with one ``Fraction`` per reported mass:

* :func:`level_masses` uses N_0 = e^2 and N_1 = sum_v deg(v)^2 for F_0
  and F_1;
* :func:`eigen_mass_full` returns every F_j from N_0..N_k, which come by
  one of two paths, picked by a closed-form cost rule
  (:func:`_packed_is_cheaper`): a depth-first walk over the vertex subsets
  of nonzero degree, each degree the popcount of an AND of rows of the
  family's cached transposition :attr:`Family.through`; or the family's
  inner distribution (Delsarte 1973), since N_t also counts the ordered
  edge pairs (E, F) with weight C(|E & F|, t), read off bit-sliced sums of
  packed per-vertex rows.  By inclusion-exclusion h^T A h =
  sum_t (-1)^t N_t counts the ordered disjoint edge pairs, checked
  against sum_t lambda_t F_t in integers.

Floating point appears nowhere: the verdicts downstream hinge on exact
sign comparisons at equality boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm

from .errors import ContradictionError, DomainError
from .families import Family, _digit_rows, binomial, meet_rows


@dataclass(frozen=True)
class KneserSpectrum:
    """Eigenvalue ladder (level, eigenvalue, multiplicity) for j = 0..k."""

    n: int
    k: int
    levels: tuple[tuple[int, int, int], ...]

    def eigenvalues(self) -> list[int]:
        return [lam for _, lam, _ in self.levels]


def kneser_spectrum(n: int, k: int) -> KneserSpectrum:
    """Exact spectrum of the disjointness adjacency on k-subsets of [n]."""
    if k > n or k < 0:
        raise DomainError(f"kneser_spectrum needs 0 <= k <= n, got k={k}, n={n}")
    levels = []
    for j in range(k + 1):
        lam = (-1) ** j * (binomial(n - k - j, k - j) if n - k - j >= 0 else 0)
        mult = binomial(n, j) - (binomial(n, j - 1) if j >= 1 else 0)
        levels.append((j, lam, mult))
    return KneserSpectrum(n, k, tuple(levels))


def disjoint_pairs(family: Family) -> int:
    """Number of unordered pairs of disjoint edges.

    For k >= 1 each edge meets itself, so edge i is disjoint from
    e - |meet_i| others, and the sum counts every pair twice.  At k = 0
    there is at most the one empty edge, and 1 // 2 = 0.
    """
    e = family.edge_count
    rows = meet_rows(family.through, family.edge_tuples())
    return sum(e - row.bit_count() for row in rows) // 2


def quadratic_form(family: Family) -> int:
    """h^T A h for the family's characteristic vector: 2x the disjoint pairs."""
    return 2 * disjoint_pairs(family)


def _mass_numerators(n: int, k: int, sums: list[int]) -> tuple[list[int], int]:
    """Numerators of F_0..F_t over D_t, the product of the diagonals C(n-2s, k-s),
    s <= t (positive whenever n >= k + t), by forward substitution."""
    nums: list[int] = []
    den = 1
    for t, n_t in enumerate(sums):
        below = (comb(k - j, t - j) * comb(n - t - j, k - t) * g for j, g in enumerate(nums))
        d = comb(n - 2 * t, k - t)
        nums, den = [g * d for g in nums] + [n_t * den - sum(below)], den * d
    return nums, den


def _masses(n: int, k: int, sums: list[int]) -> list[Fraction]:
    """F_0..F_t from the squared subset degrees N_0..N_t, one Fraction each."""
    nums, den = _mass_numerators(n, k, sums)
    return [Fraction(g, den) for g in nums]


def level_masses(family: Family) -> tuple[Fraction, Fraction, Fraction]:
    """(F_0, F_1, residual): mass on E_0, on E_1, and on everything above.

    F_0 = e^2 / C(n,k); F_1 comes from the vertex degrees by the recurrence
    of the module docstring; the residual e - F_0 - F_1 is nonnegative.
    """
    n, k = family.n, family.k
    if k < 1:
        raise DomainError(f"level_masses needs k >= 1, got k={k}")
    if n == k:
        raise DomainError(f"level_masses needs n > k: E_1 is empty at n = k = {n}")
    e = family.edge_count
    (g0, g1), den = _mass_numerators(n, k, [e * e, sum(d * d for d in family._degrees.values())])
    return Fraction(g0, den), Fraction(g1, den), Fraction(e * den - g0 - g1, den)


@dataclass(frozen=True)
class SpectralMass:
    """Masses F_0..F_k of a family's characteristic vector, all exact."""

    n: int
    k: int
    masses: tuple[Fraction, ...]
    quad_form: int
    total: Fraction

    def __post_init__(self) -> None:
        if any(f < 0 for f in self.masses):
            raise ContradictionError(f"negative eigenspace mass: {self.masses}")
        if sum(self.masses) != self.total:
            raise ContradictionError("eigenspace masses do not sum to the edge count")


def _subset_degree_sums(family: Family) -> list[int]:
    """N_t = sum of deg(U)^2 over the t-subsets U of [n], t = 0..k.

    N_0 = e^2, and N_k = e since every k-set has degree 0 or 1.  Sizes
    1..k-1 come from a depth-first walk over the vertex subsets U of
    nonzero degree, in increasing vertex order: the edges through U are
    the AND of U's rows of ``family.through``, a child adds one vertex of
    the support above U's last, and a zero AND ends the branch.  A U of
    degree 1 lies in one edge E; its extensions by j of the m vertices of
    E above its last add C(m, j) to N_{|U|+j}, so the walk stops there.
    """
    k, e = family.k, family.edge_count
    sums = [0] * (k + 1)
    sums[0], sums[k] = e * e, e
    if k < 2 or not e:
        return sums
    support, rows = list(family.through), list(family.through.values())
    tuples, top = family.edge_tuples(), k - 1
    pascal = [[comb(m, j) for j in range(m + 1)] for m in range(k)]

    def walk(size: int, edges: int, start: int) -> None:
        for p in range(start, len(rows)):
            below = edges & rows[p]
            if not below:
                continue
            if below & (below - 1):
                sums[size] += below.bit_count() ** 2
                if size < top:
                    walk(size + 1, below, p + 1)
            else:
                m = top - tuples[below.bit_length() - 1].index(support[p])  # its vertices above
                for j, c in enumerate(pascal[m][: top - size + 1]):
                    sums[size + j] += c

    walk(1, (1 << e) - 1, 0)
    return sums


def _packed_degree_sums(family: Family) -> list[int]:
    """N_t = sum over ordered edge pairs (E, F) of C(|E & F|, t), t = 0..k.

    Each E = F adds C(k, t); the pairs F != E meet in x <= k - 1 < 2^w
    vertices, w = (k-1).bit_length().  Every vertex gets one packed row
    with a w-bit field per edge holding 1 iff the edge holds
    the vertex.  The sum of E's k rows holds x in field F; masked to the
    fields F < E, which no carry out of field E reaches, and split into w
    bit-planes, the AND of the planes of m's set bits marks the F whose x
    is a bit-superset of m.  A Moebius transform over the bits turns the
    k - 1 totals into the pairs at each x.
    """
    k, e = family.k, family.edge_count
    sums = [0] * (k + 1)
    sums[0], sums[k] = e * e, e
    if k < 2 or not e:
        return sums
    w = (k - 1).bit_length()
    tuples = family.edge_tuples()
    rows = _digit_rows(tuples, w)
    ones = int(("0" * (w - 1) + "1") * e, 2)  # bit 0 of every field
    pairs = [e * (e - 1) // 2] + [0] * ((1 << w) - 1)  # pairs F < E, x a superset of m
    for i, edge in enumerate(tuples):
        low = ones >> w * (e - i)  # bit 0 of every field F < E
        total = 0
        for v in edge:
            total += rows[v]
        planes = [total >> b & low for b in range(w)]
        ands = [low]
        for m in range(1, k):
            top = m.bit_length() - 1
            ands.append(ands[m - (1 << top)] & planes[top])
            pairs[m] += ands[m].bit_count()
    for b in range(w):  # supersets to exact counts: pairs[x] is the pairs at x
        for m in range(1 << w):
            if not m >> b & 1:
                pairs[m] -= pairs[m | 1 << b]
    for t in range(1, k):
        sums[t] = 2 * sum(comb(x, t) * pairs[x] for x in range(t, k)) + e * comb(k, t)
    return sums


# The walk visits at most sum_{t=1}^{k-1} min(C(n,t), e C(k,t)) subsets; the
# packed pairs cost about e k big-int steps of e fields.  Take them when that
# bound exceeds 2 e k.  Walk (with its transposition) against packed, ms, best
# of 15 in process on a shared 2-CPU VM (CPython 3.11), and bound / (e k):
#   (18,5,1500) 2.01 / 5.33, 0.5   (18,6,1500) 5.50 / 6.08, 1.4
#   (13,5,445)  0.46 / 1.05, 0.5   (40,4,400)  1.50 / 0.74, 1.5
#   (14,5,400)  0.58 / 0.85, 0.7   (16,6,300)  1.79 / 0.71, 2.4
#   (18,5,800)  1.61 / 2.14, 1.0   (60,4,100)  0.50 / 0.20, 2.6
#   (15,7,300)  2.77 / 0.79, 3.4   (20,6,250)  2.32 / 0.59, 4.4
#   (30,8,400)  20.2 / 1.26, 21.5  (24,12,250) 154 / 0.97, 195
_PACKED_RATIO = 2


def _packed_is_cheaper(n: int, k: int, e: int) -> bool:
    """The cost rule of the table above."""
    return sum(min(comb(n, t), e * comb(k, t)) for t in range(1, k)) > _PACKED_RATIO * e * k


def eigen_mass_full(family: Family) -> SpectralMass:
    """All eigenspace masses F_0..F_k of the family, exactly.

    Uses the triangular recurrence of the module docstring on N_0..N_k:
    from the walk over ``family.through``, which visits at most e * 2^k
    subsets, or from the packed pair counts, which never transpose, when
    the walk's bound on its subsets exceeds 2 e k.  Needs n >= 2k so that
    the k+1 level decomposition exists.  Neither path has a gate of its
    own: both read the decoded edges, which FAMILY_KSET_LIMIT gates, and
    at its default C(2k,k) <= 2^24 holds only for k <= 13.
    """
    n, k = family.n, family.k
    if k < 1:
        raise DomainError(f"eigen_mass_full needs k >= 1, got k={k}")
    if n < 2 * k:
        raise DomainError(f"eigen_mass_full needs n >= 2k, got n={n}, k={k}")
    e = family.edge_count
    cheaper = _packed_degree_sums if _packed_is_cheaper(n, k, e) else _subset_degree_sums
    sums = cheaper(family)
    masses = _masses(n, k, sums)
    quad = sum((-1) ** t * n_t for t, n_t in enumerate(sums))
    lams = kneser_spectrum(n, k).eigenvalues()
    result = SpectralMass(n, k, tuple(masses), quad, Fraction(e))
    den = lcm(*(f.denominator for f in masses))  # a divisor of D_k
    if sum(l * f.numerator * (den // f.denominator) for l, f in zip(lams, masses)) != quad * den:
        raise ContradictionError("eigenspace masses violate the quadratic-form identity")
    return result
