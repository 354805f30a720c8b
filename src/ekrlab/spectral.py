"""Kneser-graph spectrum and exact eigenspace masses of a family.

The disjointness graph on the k-subsets of [n] has adjacency eigenvalues
(-1)^j * C(n-k-j, k-j) with multiplicity m_j = C(n,j) - C(n,j-1), j = 0..k.
The j-th eigenspace E_j is the orthogonal complement of E_0 + ... + E_{j-1}
inside the span of the incidence vectors of all j-subsets (the vector of a
j-set S marks the k-sets containing S).  For a family with characteristic
vector h, the mass F_j = ||P_{E_j} h||^2 is computed here in exact
rational arithmetic:

* :func:`level_masses` gives F_0 = e(H)^2 / C(n,k) and F_1 from the
  closed-form inverse of the star Gram matrix a*I + b*J;
* :func:`eigen_mass_full` gives every F_j by Delsarte's MacWilliams
  transform on the Johnson scheme.  P_{E_j} = (1/C(n,k)) sum_i Q_j(i) A_i,
  where A_i relates k-sets that meet in k-i points, so
  F_j = (1/C(n,k)) sum_i Q_j(i) b_{k-i} with b_r the number of ordered
  edge pairs meeting in r points.  Here Q_j(i) = m_j P_i(j) / v_i, with
  valency v_i = C(k,i) C(n-k,i) and Eberlein polynomial
  P_i(j) = sum_t (-1)^t C(j,t) C(k-j,i-t) C(n-k-j,i-t).
  The b_r need no pair loop: the squared subset degrees
  N_j = sum_{|U|=j} deg(U)^2 satisfy N_j = sum_r C(r,j) b_r, which
  binomial inversion undoes; h^T A h = b_0.

Floating point appears nowhere: the verdicts downstream hinge on exact
sign comparisons at equality boundaries.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import limits
from .errors import DomainError, ResourceLimitError
from .families import Family, binomial, vertex_degrees


def _comb_nonneg(n: int, r: int) -> int:
    """Binomial that treats a negative upper index as an empty count."""
    if n < 0:
        return 0
    return binomial(n, r)


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
        lam = (-1) ** j * _comb_nonneg(n - k - j, k - j)
        mult = binomial(n, j) - (binomial(n, j - 1) if j >= 1 else 0)
        levels.append((j, lam, mult))
    return KneserSpectrum(n, k, tuple(levels))


def disjoint_pairs(family: Family) -> int:
    """Number of unordered pairs of disjoint edges."""
    masks = family.vertex_masks()
    count = 0
    for i in range(len(masks)):
        mi = masks[i]
        for j in range(i + 1, len(masks)):
            if not mi & masks[j]:
                count += 1
    return count


def quadratic_form(family: Family) -> int:
    """h^T A h for the family's characteristic vector: 2x the disjoint pairs."""
    return 2 * disjoint_pairs(family)


def _star_span_norm_sq(family: Family) -> Fraction:
    """||P_{U_1} h||^2 via the closed-form inverse of the star Gram a*I + b*J."""
    n, k = family.n, family.k
    a = binomial(n - 1, k - 1) - binomial(n - 2, k - 2)
    b = binomial(n - 2, k - 2)
    if a == 0:
        raise DomainError(f"star Gram degenerate at n = k = {n}")
    deg = vertex_degrees(family)
    sum_sq = sum(d * d for d in deg)
    total = sum(deg)
    # (a*I + b*J)^-1 = (1/a) * (I - b/(a + n*b) * J)
    return Fraction(sum_sq, a) - Fraction(b * total * total, a * (a + n * b))


def level_masses(family: Family) -> tuple[Fraction, Fraction, Fraction]:
    """(F_0, F_1, residual): mass on E_0, on E_1, and on everything above.

    F_0 = e^2 / C(n,k); F_1 is the squared norm of h's projection onto the
    star span minus F_0; the residual e - F_0 - F_1 is nonnegative.
    """
    n, k = family.n, family.k
    if k < 1:
        raise DomainError(f"level_masses needs k >= 1, got k={k}")
    e = family.edge_count
    f0 = Fraction(e * e, binomial(n, k))
    f1 = _star_span_norm_sq(family) - f0
    residual = e - f0 - f1
    return f0, f1, residual


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
            raise ArithmeticError(f"negative eigenspace mass: {self.masses}")
        if sum(self.masses) != self.total:
            raise ArithmeticError("eigenspace masses do not sum to the edge count")


def _pair_intersection_counts(family: Family) -> list[int]:
    """b_r = number of ordered edge pairs (e, f) with |e n f| = r, r = 0..k.

    Each edge adds one to the degree of each of its 2^k vertex submasks;
    sq[j] = N_j sums the squared degrees of the j-subsets and binomial
    inversion turns N into b.
    """
    k = family.k
    deg: Counter[int] = Counter()
    for edge in family.edge_tuples():
        subsets = [0]
        for v in edge:
            bit = 1 << (v - 1)
            subsets += [s | bit for s in subsets]
        deg.update(subsets)
    sq = [0] * (k + 1)
    for subset, d in deg.items():
        sq[subset.bit_count()] += d * d
    return [
        sum((-1) ** (j - r) * binomial(j, r) * sq[j] for j in range(r, k + 1))
        for r in range(k + 1)
    ]


def _eberlein(n: int, k: int, i: int, j: int) -> int:
    """P_i(j): eigenvalue on E_j of the relation |e n f| = k - i."""
    return sum(
        (-1) ** t * binomial(j, t) * binomial(k - j, i - t) * binomial(n - k - j, i - t)
        for t in range(i + 1)
    )


def eigen_mass_full(family: Family, limit: int | None = None) -> SpectralMass:
    """All eigenspace masses F_0..F_k of the family, exactly.

    Uses the Johnson-scheme closed form of the module docstring, at a cost
    of e * 2^k subset-degree updates.  Needs n >= 2k so that the k+1 level
    decomposition exists; raises ResourceLimitError when e * 2^k exceeds
    the subset limit.
    """
    n, k = family.n, family.k
    if k < 1:
        raise DomainError(f"eigen_mass_full needs k >= 1, got k={k}")
    if n < 2 * k:
        raise DomainError(f"eigen_mass_full needs n >= 2k, got n={n}, k={k}")
    e = family.edge_count
    cap = limits.resolve(limit, limits.EIGEN_SUBSET_LIMIT)
    if e << k > cap:
        raise ResourceLimitError(
            f"subset-degree updates e * 2^k = {e} * 2^{k} = {e << k} exceed limit {cap}"
        )
    pairs = _pair_intersection_counts(family)
    total = binomial(n, k)
    masses = []
    for j in range(k + 1):
        mult = binomial(n, j) - binomial(n, j - 1)
        inner = sum(
            Fraction(_eberlein(n, k, i, j) * pairs[k - i], binomial(k, i) * binomial(n - k, i))
            for i in range(k + 1)
        )
        masses.append(inner * mult / total)
    quad = pairs[0]
    lams = kneser_spectrum(n, k).eigenvalues()
    result = SpectralMass(n, k, tuple(masses), quad, Fraction(e))
    if sum(l * f for l, f in zip(lams, result.masses)) != quad:
        raise ArithmeticError("eigenspace masses violate the quadratic-form identity")
    return result
