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

Every inequality involving a square root of a rational is brought to the
form a + b sqrt(c) against 0 and decided by one exact sign test (:func:`_sign`),
never by floating point: the extremal families sit exactly on the boundary.
That includes the one geometric step of the witness inequality, the simplex
lemma, which is decided in the sum-zero hyperplane of Q^n
(:func:`simplex_min_index`).  Every denominator is known in advance (k C(n,k)
and k(n-k) C(n,k) for the mass bounds, n for deg - ke/n), so every decision
is an integer comparison over them, and a ``Fraction`` is built only for a
reported value.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import ContradictionError, DomainError
from .families import (
    Family,
    _delta1,
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
    raw Gram entries, in integers times C(n,k).
    """
    if n < 2 or k < 0 or k > n:
        raise DomainError(f"star_frame_checks needs n >= 2 and 0 <= k <= n, got k={k}, n={n}")
    nk = binomial(n, k)
    s = binomial(n - 1, k - 1)
    norm, cross = s * nk - s * s, binomial(n - 2, k - 2) * nk - s * s
    closed = k * (n - k) * nk * nk  # the closed forms times n^2 C(n,k) and n^2 (n-1) C(n,k)
    return StarFrameReport(
        n=n, k=k, norm_sq=Fraction(norm, nk), cross=Fraction(cross, nk),
        formulas_match=norm * n * n == closed and cross * n * n * (n - 1) == -closed,
        simplex_identity_holds=cross * (n - 1) == -norm,
    )


def _sign(a: int | Fraction, b: int | Fraction, c: int | Fraction) -> int:
    """Sign of a + b sqrt(c) for integers or rationals a, b and c >= 0, exactly.

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
    scale = lcm(*(x.denominator for x in v))
    return _witness([x.numerator * (scale // x.denominator) for x in v], scale)


def _witness(w: list[int], scale: int) -> WitnessReport:
    """The lemma on v = w / scale, in integers: with m = n(n-1), times scale m > 0
    the sign of min v + sqrt(|v|^2 / m) is that of min(w) m + sqrt(m |w|^2)."""
    if sum(w):
        raise DomainError("simplex lemma needs a vector with coordinate sum 0")
    m, low, sq = len(w) * (len(w) - 1), min(w), sum(x * x for x in w)
    g = _sign(low * m, 1, sq * m)
    return WitnessReport(vertex=1 + w.index(low), lhs=Fraction(low, scale),
                         rhs_squared=Fraction(sq, scale * scale * m), holds=g <= 0, equality=g == 0)


def simplex_witness(family: Family) -> WitnessReport:
    """Certify min_i (deg(i) - ke/n) <= -(1/(n-1)) sqrt(C(n,k) k(n-k)/n^2 * F_1).

    Holds for every family, intersecting or not: it is the simplex lemma on
    the degree-deviation vector v = deg - ke/n, whose squared norm is
    C(n-2,k-1) F_1 because v is the image of the E_1 component of the
    characteristic vector under the vertex-incidence map.
    """
    n, k = family.n, family.k
    if k < 2 or n <= k:  # at n = k, E_1 is empty
        raise DomainError(f"simplex_witness needs n > k >= 2, got n={n}, k={k}")
    _, f1, _ = level_masses(family)
    return _degree_witness(family, f1)


def _degree_witness(family: Family, f1: Fraction) -> WitnessReport:
    """The simplex lemma on deg - ke/n, checked against F_1 of the family."""
    n, k, ke = family.n, family.k, family.k * family.edge_count
    report = _witness([n * d - ke for d in vertex_degrees(family)], n)
    r, m, c = report.rhs_squared, n * (n - 1), binomial(n, k) * k * (n - k)
    if r.numerator * m * m * f1.denominator != c * f1.numerator * r.denominator:  # r m^2 = c F_1
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
    e = family.edge_count
    if not is_intersecting(family):
        raise DomainError("ekr_certificate requires an intersecting family")

    delta1 = _delta1(family)
    f0, f1, residual = level_masses(family)
    nk, low, star_count = binomial(n, k), binomial(n - 2, k - 2), binomial(n - 1, k - 1)
    gap = k * e - n * low  # k (e - (n/k) C(n-2,k-2))
    a, b = f1.numerator, f1.denominator

    lower = (n - 1) * e * gap  # the lower bound times k C(n,k)
    lower_rhs = Fraction(lower, k * nk)
    eq4_holds = a * k * nk >= lower * b

    witness = _degree_witness(family, f1)

    if delta1 >= low:
        upper, den = (gap * (n - 1)) ** 2, k * (n - k) * nk  # the upper bound is upper / den
        upper_rhs: Fraction | None = Fraction(upper, den)
        eq6_holds: bool | None = a * den <= upper * b
    else:
        upper_rhs = None
        eq6_holds = None

    if gap <= 0:
        dichotomy = Dichotomy.AT_MOST_THRESHOLD
    elif e >= star_count:
        dichotomy = Dichotomy.AT_LEAST_STAR_COUNT
    else:
        dichotomy = Dichotomy.INCONCLUSIVE

    is_star = e == star_count and max(family._degrees.values()) == e

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
    so squaring once reduces the claim to x1 y2 + y1 x2 - 2 sqrt(x1 y2 y1 x2)
    >= 0, decided by the exact sign test.
    """
    x1, y1, x2, y2 = v = [Fraction(x) for x in (x1, y1, x2, y2)]
    if not (x1 >= y1 >= 0 and x2 >= y2 >= 0):
        raise DomainError("need x1 >= y1 >= 0 and x2 >= y2 >= 0")
    d = lcm(*(x.denominator for x in v))  # both sides scale by d: decide in integers
    x1, y1, x2, y2 = (x.numerator * (d // x.denominator) for x in v)
    return _sign(x1 * y2 + y1 * x2, -2, x1 * y2 * y1 * x2) >= 0


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
    (n/k) C(n-2,k-2)) by the exact sign test, and
    delta_1(B) delta_1(C) <= C(n-2,k-2)^2 as integers.
    """
    n, k = left.n, left.k
    if k < 2:
        raise DomainError(f"cross_certificate needs k >= 2, got k={k}")
    if n < 2 * k + 1:
        raise DomainError(f"cross_certificate needs n >= 2k+1 = {2 * k + 1}, got n={n}")
    if not are_cross_intersecting(left, right):  # refuses unequal shapes too
        raise DomainError("families are not cross-intersecting")

    _, b1, _ = level_masses(left)
    _, c1, _ = level_masses(right)
    db, dc = _delta1(left), _delta1(right)
    p = left.edge_count * right.edge_count
    nk, low = binomial(n, k), binomial(n - 2, k - 2)
    bc = b1.numerator * c1.numerator  # B_1 C_1 times its positive denominator
    if bc < 0:
        raise DomainError("sqrt-gap comparison needs nonnegative inputs")
    # alpha = (n-1)/C(n,k), t = (n/k) C(n-2,k-2): alpha p - alpha t sqrt(p), times k C(n,k)/(n-1)
    g = _sign(k * p, -n * low, p)
    if g <= 0:
        holds, equality = True, g == 0 and bc == 0
    else:  # square both positive sides once; sqrt(p) survives linearly
        # B_1 C_1 - alpha^2 p (p + t^2) + 2 alpha^2 p t sqrt(p), times b1.den c1.den (k C(n,k))^2
        s = b1.denominator * c1.denominator * (n - 1) ** 2 * p
        h = _sign(bc * (k * nk) ** 2 - s * (k * k * p + (n * low) ** 2), 2 * s * k * n * low, p)
        holds, equality = h >= 0, h == 0
    return CrossCertificate(
        n=n, k=k, size_b=left.edge_count, size_c=right.edge_count,
        delta1_b=db, delta1_c=dc, b1=b1, c1=c1,
        ineq10_holds=holds, ineq10_equality=equality,
        product_bound_holds=db * dc <= low * low,
    )
