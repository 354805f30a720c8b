"""Machine-checkable evaluation of the spectral inequality chains.

For an intersecting family on n >= 2k+1 vertices the chain bounds the
eigenspace mass F_1 from both sides:

  lower:  F_1 >= (n-1)/C(n,k) * e * (e - (n/k) C(n-2,k-2))
  upper:  F_1 <= (e - (n/k) C(n-2,k-2))^2 * (n-1)^2 k / ((n-k) C(n,k))

(the upper branch needs minimum degree >= C(n-2,k-2) so the witness
inequality can be squared).  Combining the two factors as

  (e - (n/k) C(n-2,k-2)) * (e - C(n-1,k-1)) >= 0

which forces every qualifying family to be small or a full star.  The
cross-family variant bounds sqrt(F_1(B) F_1(C)) the same way and yields
the product bound delta_1(B) * delta_1(C) <= C(n-2,k-2)^2.

Every inequality involving a square root of a rational is decided by sign
analysis plus squaring, never by floating point: the extremal families sit
exactly on the boundary.  That includes the one geometric step of the
witness inequality, the simplex lemma, which is decided in the sum-zero
hyperplane of Q^n (:func:`simplex_min_index`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import ContradictionError, DomainError
from .families import (
    Family,
    are_cross_intersecting,
    binomial,
    is_intersecting,
    vertex_degrees,
)
from .spectral import level_masses


@dataclass(frozen=True)
class StarFrameReport:
    """Exact check that the star residual vectors form a scaled simplex frame."""

    n: int
    k: int
    norm_sq: Fraction
    cross: Fraction
    formulas_match: bool
    simplex_identity_holds: bool


def star_frame_checks(n: int, k: int) -> StarFrameReport:
    """Verify <u_i,u_i> = k(n-k)/n^2 * C(n,k), <u_i,u_j> = -<u_i,u_i>/(n-1).

    u_i is the component of the star-at-i characteristic vector orthogonal
    to the all-ones direction; both closed forms are checked against the
    raw Gram entries in exact rationals.
    """
    nk = binomial(n, k)
    s_norm = binomial(n - 1, k - 1)
    norm_sq = s_norm - Fraction(s_norm * s_norm, nk)
    cross = binomial(n - 2, k - 2) - Fraction(s_norm * s_norm, nk)
    closed_norm = Fraction((n - k) * k, n * n) * nk
    closed_cross = -Fraction(k * (n - k), n * n * (n - 1)) * nk
    return StarFrameReport(
        n=n,
        k=k,
        norm_sq=norm_sq,
        cross=cross,
        formulas_match=(norm_sq == closed_norm and cross == closed_cross),
        simplex_identity_holds=(cross == -norm_sq / (n - 1)),
    )


def _leq_neg_sqrt(lhs: Fraction, rhs_sq: Fraction) -> tuple[bool, bool]:
    """Decide lhs <= -sqrt(rhs_sq) exactly; returns (holds, equality)."""
    if rhs_sq < 0:
        raise DomainError("comparison needs a nonnegative radicand")
    if lhs > 0:
        return False, False
    sq = lhs * lhs
    return sq >= rhs_sq, sq == rhs_sq


@dataclass(frozen=True)
class WitnessReport:
    """min_i v_i against the simplex-lemma bound -sqrt(rhs_squared)."""

    vertex: int
    lhs: Fraction
    rhs_squared: Fraction
    holds: bool
    equality: bool


def simplex_min_index(v: Sequence[Fraction | int]) -> WitnessReport:
    """The simplex lemma min_i v_i <= -||v|| / sqrt(n(n-1)), decided exactly.

    v is a rational vector in the sum-zero hyperplane of Q^n, n >= 2.
    There u_i = e_i - 1/n is a regular simplex frame (|u_i|^2 = (n-1)/n,
    <u_i,u_j> = -1/n), so <v, u_i/|u_i|> = v_i sqrt(n/(n-1)) and the lemma
    min_i <v, u_i/|u_i|> <= -||v||/(n-1) takes the form above.  Reports the
    1-based argmin (lowest index on ties), lhs = min_i v_i and
    rhs_squared = ||v||^2 / (n(n-1)); equality marks the extremal vectors.
    """
    v = [Fraction(x) for x in v]
    n = len(v)
    if n < 2:
        raise DomainError(f"simplex lemma needs n >= 2, got n={n}")
    if sum(v) != 0:
        raise DomainError("simplex lemma needs a vector with coordinate sum 0")
    lhs = min(v)
    rhs_sq = sum(x * x for x in v) / (n * (n - 1))
    holds, equality = _leq_neg_sqrt(lhs, rhs_sq)
    return WitnessReport(vertex=1 + v.index(lhs), lhs=lhs, rhs_squared=rhs_sq,
                         holds=holds, equality=equality)


def simplex_witness(family: Family) -> WitnessReport:
    """Certify min_i (deg(i) - ke/n) <= -(1/(n-1)) sqrt(C(n,k) k(n-k)/n^2 * F_1).

    Holds for every family, intersecting or not: it is the simplex lemma on
    the degree-deviation vector v = deg - ke/n, whose squared norm is
    C(n-2,k-1) F_1 because v is the image of the E_1 component of the
    characteristic vector under the vertex-incidence map.
    """
    n, k = family.n, family.k
    if k < 2 or n < k:
        raise DomainError(f"simplex_witness needs n >= k >= 2, got n={n}, k={k}")
    _, f1, _ = level_masses(family)
    return _degree_witness(family, f1)


def _degree_witness(family: Family, f1: Fraction) -> WitnessReport:
    """The simplex lemma on deg - ke/n, checked against F_1 of the family."""
    n, k = family.n, family.k
    shift = Fraction(k * family.edge_count, n)
    report = simplex_min_index([d - shift for d in vertex_degrees(family)])
    if report.rhs_squared * (n * (n - 1)) ** 2 != binomial(n, k) * k * (n - k) * f1:
        raise ContradictionError("degree deviation norm disagrees with the mass F_1")
    return report


class Dichotomy(enum.Enum):
    AT_MOST_THRESHOLD = "AtMostThreshold"
    AT_LEAST_STAR_COUNT = "AtLeastStarCount"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class EkrCertificate:
    """Evaluated sides of the degree dichotomy chain for one family."""

    n: int
    k: int
    e: int
    delta1: int
    f0: Fraction
    f1: Fraction
    residual: Fraction
    lower_bound_rhs: Fraction
    upper_bound_rhs: Fraction | None
    witness: WitnessReport
    eq4_holds: bool
    eq6_holds: bool | None
    dichotomy: Dichotomy
    is_star: bool


def ekr_certificate(family: Family) -> EkrCertificate:
    """Evaluate the full chain on an intersecting family with n >= 2k+1.

    The upper branch is evaluated only when delta_1 >= C(n-2,k-2) (the
    hypothesis needed to square the witness inequality); otherwise it is
    reported as inconclusive rather than failing.
    """
    n, k = family.n, family.k
    if k < 2:
        raise DomainError(f"ekr_certificate needs k >= 2, got k={k}")
    if n < 2 * k + 1:
        raise DomainError(f"ekr_certificate needs n >= 2k+1 = {2 * k + 1}, got n={n}")
    if not is_intersecting(family):
        raise DomainError("ekr_certificate requires an intersecting family")

    e = family.edge_count
    deg = vertex_degrees(family)
    delta1 = min(deg) if deg else 0
    f0, f1, residual = level_masses(family)
    nk = binomial(n, k)
    threshold = Fraction(n, k) * binomial(n - 2, k - 2)
    star_count = binomial(n - 1, k - 1)

    lower_rhs = Fraction(n - 1, nk) * e * (e - threshold)
    eq4_holds = f1 >= lower_rhs

    witness = _degree_witness(family, f1)

    if delta1 >= binomial(n - 2, k - 2):
        upper_rhs: Fraction | None = (e - threshold) ** 2 * Fraction((n - 1) ** 2 * k, (n - k) * nk)
        eq6_holds: bool | None = f1 <= upper_rhs
    else:
        upper_rhs = None
        eq6_holds = None

    if e <= threshold:
        dichotomy = Dichotomy.AT_MOST_THRESHOLD
    elif e >= star_count:
        dichotomy = Dichotomy.AT_LEAST_STAR_COUNT
    else:
        dichotomy = Dichotomy.INCONCLUSIVE

    is_star = e == star_count and e > 0 and max(deg) == e

    return EkrCertificate(
        n=n, k=k, e=e, delta1=delta1, f0=f0, f1=f1, residual=residual,
        lower_bound_rhs=lower_rhs, upper_bound_rhs=upper_rhs, witness=witness,
        eq4_holds=eq4_holds, eq6_holds=eq6_holds, dichotomy=dichotomy, is_star=is_star,
    )


def sqrt_product_inequality_check(
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


def _geq_sqrt_gap(lhs_sq: Fraction, alpha: Fraction, p: int, t: Fraction) -> tuple[bool, bool]:
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


@dataclass(frozen=True)
class CrossCertificate:
    """Mass and degree-product bounds for a cross-intersecting pair."""

    n: int
    k: int
    size_b: int
    size_c: int
    delta1_b: int
    delta1_c: int
    b1: Fraction
    c1: Fraction
    ineq10_holds: bool
    ineq10_equality: bool
    product_bound_holds: bool


def cross_certificate(left: Family, right: Family) -> CrossCertificate:
    """Certify the cross-intersecting mass bound and the degree product bound.

    Checks sqrt(B_1 C_1) >= (n-1)/C(n,k) * sqrt(|B||C|) (sqrt(|B||C|) -
    (n/k) C(n-2,k-2)) by exact square comparison, and
    delta_1(B) delta_1(C) <= C(n-2,k-2)^2 as integers.
    """
    n, k = left.n, left.k
    if not are_cross_intersecting(left, right):
        raise DomainError("families are not cross-intersecting")
    if k < 2:
        raise DomainError(f"cross_certificate needs k >= 2, got k={k}")
    if n < 2 * k + 1:
        raise DomainError(f"cross_certificate needs n >= 2k+1 = {2 * k + 1}, got n={n}")

    _, b1, _ = level_masses(left)
    _, c1, _ = level_masses(right)
    db = min(vertex_degrees(left), default=0)
    dc = min(vertex_degrees(right), default=0)
    p = left.edge_count * right.edge_count
    alpha = Fraction(n - 1, binomial(n, k))
    t = Fraction(n, k) * binomial(n - 2, k - 2)
    holds, equality = _geq_sqrt_gap(b1 * c1, alpha, p, t)
    bound = binomial(n - 2, k - 2) ** 2
    return CrossCertificate(
        n=n, k=k, size_b=left.edge_count, size_c=right.edge_count,
        delta1_b=db, delta1_c=dc, b1=b1, c1=c1,
        ineq10_holds=holds, ineq10_equality=equality,
        product_bound_holds=db * dc <= bound,
    )
