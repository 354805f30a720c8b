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
exactly on the boundary.  The only float surface in this module is the
regular simplex frame, which exists to test the geometry lemma driving the
witness step; numpy is imported inside its helpers only, so importing the
library does not load it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .errors import DomainError
from .families import (
    Family,
    are_cross_intersecting,
    binomial,
    is_intersecting,
    vertex_degrees,
)
from .spectral import level_masses

if TYPE_CHECKING:
    import numpy as np

FRAME_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class SimplexFrame:
    """n unit vectors in R^{n-1} with pairwise inner products -1/(n-1)."""

    n: int
    vectors: np.ndarray

    def __post_init__(self) -> None:
        import numpy as np
        n = self.n
        if n < 2:
            raise DomainError(f"simplex frame needs n >= 2, got {n}")
        if self.vectors.shape != (n, n - 1):
            raise DomainError(f"frame shape {self.vectors.shape} != ({n}, {n - 1})")
        gram = self.vectors @ self.vectors.T
        target = np.full((n, n), -1.0 / (n - 1))
        np.fill_diagonal(target, 1.0)
        if not np.allclose(gram, target, atol=FRAME_TOL, rtol=0.0):
            raise DomainError("vectors do not form a unit regular simplex frame")
        if not np.allclose(self.vectors.sum(axis=0), 0.0, atol=n * FRAME_TOL):
            raise DomainError("frame vectors do not sum to zero")

    @classmethod
    def from_vectors(cls, vectors: Sequence[Sequence[float]]) -> "SimplexFrame":
        import numpy as np
        arr = np.asarray(vectors, dtype=float)
        return cls(arr.shape[0], arr)


def canonical_simplex_frame(n: int) -> SimplexFrame:
    """Deterministic frame: centered standard basis vectors of R^n, expressed
    in the orthonormal hyperplane basis produced by QR of e_i - e_n columns.

    The float frame helpers need numpy, which the ``ekrlab[frame]`` extra
    installs; nothing else in the library imports it.
    """
    import numpy as np
    if n < 2:
        raise DomainError(f"simplex frame needs n >= 2, got {n}")
    basis = np.zeros((n, n - 1))
    basis[:-1, :] = np.eye(n - 1)
    basis[-1, :] = -1.0
    q, _ = np.linalg.qr(basis)
    centered = np.eye(n) - np.full((n, n), 1.0 / n)
    vectors = centered @ q / np.sqrt((n - 1) / n)
    return SimplexFrame(n, vectors)


def simplex_min_index(v: Sequence[float], frame: SimplexFrame) -> tuple[int, float]:
    """(1-based index, value) minimizing <v, u_i>; lowest index wins ties.

    The minimum is guaranteed to be at most -||v|| / (n-1).
    """
    import numpy as np
    vec = np.asarray(v, dtype=float)
    if vec.shape != (frame.n - 1,):
        raise DomainError(f"vector dimension {vec.shape} != ({frame.n - 1},)")
    products = frame.vectors @ vec
    idx = int(np.argmin(products))
    return idx + 1, float(products[idx])


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
    """min_i (deg(i) - k e / n) against the simplex-geometry lower envelope."""

    vertex: int
    lhs: Fraction
    rhs_squared: Fraction
    holds: bool
    equality: bool


def simplex_witness(family: Family) -> WitnessReport:
    """Certify min_i (deg(i) - ke/n) <= -(1/(n-1)) sqrt(C(n,k) k(n-k)/n^2 * F_1).

    Holds for every family, intersecting or not: the left side is the
    smallest inner product of the degree-deviation vector with the star
    residual frame, and the frame is a scaled regular simplex.  Decided by
    exact square comparison; equality marks the extremal configurations.
    """
    n, k = family.n, family.k
    if k < 2 or n < k:
        raise DomainError(f"simplex_witness needs n >= k >= 2, got n={n}, k={k}")
    _, f1, _ = level_masses(family)
    return _witness(n, k, family.edge_count, vertex_degrees(family), f1)


def _witness(n: int, k: int, e: int, deg: list[int], f1: Fraction) -> WitnessReport:
    """The witness comparison from the vertex degrees and F_1 of a family."""
    shift = Fraction(k * e, n)
    lhs = min(d - shift for d in deg)
    vertex = 1 + min(range(n), key=lambda i: deg[i])
    rhs_sq = Fraction(binomial(n, k) * k * (n - k), n * n * (n - 1) * (n - 1)) * f1
    holds, equality = _leq_neg_sqrt(lhs, rhs_sq)
    return WitnessReport(vertex=vertex, lhs=lhs, rhs_squared=rhs_sq, holds=holds, equality=equality)


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

    witness = _witness(n, k, e, deg, f1)

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
