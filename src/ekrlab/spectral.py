"""Kneser-graph spectrum and exact eigenspace masses of a family.

The disjointness graph on the k-subsets of [n] has adjacency eigenvalues
(-1)^j * C(n-k-j, k-j) with multiplicity m_j = C(n,j) - C(n,j-1), j = 0..k.
The j-th eigenspace E_j is the orthogonal complement of E_0 + ... + E_{j-1}
inside the span of the incidence vectors of all j-subsets (the vector of a
j-set S marks the k-sets containing S).  For a family with characteristic
vector h, the mass F_j = ||P_{E_j} h||^2 is computed here in exact
rational arithmetic from the squared subset degrees

  N_t = sum_{|U|=t} deg(U)^2 = ||W_t h||^2,

where W_t is the inclusion matrix of t-subsets against k-subsets.  By
Wilson (1990), W_t^T W_t acts on E_j as the scalar
C(k-j, t-j) C(n-t-j, k-t) for j <= t and as 0 for j > t, so

  N_t = sum_{j<=t} C(k-j, t-j) C(n-t-j, k-t) F_j

is lower triangular in F with diagonal C(n-2t, k-t), and forward
substitution gives F_0..F_t from N_0..N_t:

* :func:`level_masses` uses N_0 = e^2 and N_1 = sum_v deg(v)^2 for F_0
  and F_1;
* :func:`eigen_mass_full` gets N_0..N_k from the 2^k subsets of each edge
  and returns every F_j; by inclusion-exclusion h^T A h = sum_t (-1)^t N_t
  counts the ordered disjoint edge pairs.

Floating point appears nowhere: the verdicts downstream hinge on exact
sign comparisons at equality boundaries.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import limits
from .errors import ContradictionError, DomainError, ResourceLimitError
from .families import Family, binomial, incidence, meets, vertex_degrees


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
    """Number of unordered pairs of disjoint edges.

    For k >= 1 each edge meets itself, so edge i is disjoint from
    e - |meet_i| others, and the sum counts every pair twice.  At k = 0
    there is at most the one empty edge, and 1 // 2 = 0.
    """
    columns = incidence(family.vertex_masks(), family.n)
    e = family.edge_count
    return sum(e - m.bit_count() for m in meets(columns, columns, e)) // 2


def quadratic_form(family: Family) -> int:
    """h^T A h for the family's characteristic vector: 2x the disjoint pairs."""
    return 2 * disjoint_pairs(family)


def _masses(n: int, k: int, sums: list[int]) -> list[Fraction]:
    """F_0..F_t from the squared subset degrees N_0..N_t, by forward substitution.

    The diagonal C(n-2t, k-t) is positive whenever n >= k + t.
    """
    masses: list[Fraction] = []
    for t, n_t in enumerate(sums):
        below = sum(
            binomial(k - j, t - j) * binomial(n - t - j, k - t) * f for j, f in enumerate(masses)
        )
        masses.append(Fraction(n_t - below, binomial(n - 2 * t, k - t)))
    return masses


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
    f0, f1 = _masses(n, k, [e * e, sum(d * d for d in vertex_degrees(family))])
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
            raise ContradictionError(f"negative eigenspace mass: {self.masses}")
        if sum(self.masses) != self.total:
            raise ContradictionError("eigenspace masses do not sum to the edge count")


def _subset_degree_sums(family: Family) -> list[int]:
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


def eigen_mass_full(family: Family, limit: int | None = None) -> SpectralMass:
    """All eigenspace masses F_0..F_k of the family, exactly.

    Uses the triangular recurrence of the module docstring, at a cost
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
    sums = _subset_degree_sums(family)
    masses = _masses(n, k, sums)
    quad = sum((-1) ** t * n_t for t, n_t in enumerate(sums))
    lams = kneser_spectrum(n, k).eigenvalues()
    result = SpectralMass(n, k, tuple(masses), quad, Fraction(e))
    if sum(l * f for l, f in zip(lams, result.masses)) != quad:
        raise ContradictionError("eigenspace masses violate the quadratic-form identity")
    return result
