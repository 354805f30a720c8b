"""Exact fractional matchings and covers from one rational simplex solve.

The only program solved is the packing LP of a family: maximize the sum
of edge weights x subject to a load of at most 1 on every vertex.  Its
all-slack basis is feasible, so a one-phase dense tableau simplex
suffices, with Bland's anti-cycling rule (entering: lowest eligible
column index; leaving: lowest basic variable index among minimum-ratio
rows), which terminates on every input.  The tableau is fraction-free
(Edmonds 1967; Bareiss 1968): integer entries over one running
denominator, the basis determinant, so pivots take no gcd.  The
fractional cover is the LP dual: its vertex weights y are the final
objective-row entries at the slack columns.  Every solve is checked by a
primal–dual certificate (x a feasible matching, y a feasible cover,
sum x = sum y), which by weak duality proves both optimal; it is checked
on the integer numerators over the final denominator, and only the
weights of a checked solve become Fractions.  Problem sizes here are
desk scale; no sparsity tricks are attempted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import limits
from .errors import ContradictionError, DomainError, ResourceLimitError
from .families import Family, KSubset


def _pivot(tableau: list[list[int]], obj: list[int], row: int, col: int, d: int) -> None:
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


def _solve_packing(edges: list[KSubset], n: int) -> tuple[list[int], list[int], int]:
    """Maximize sum(x) subject to sum of x_e over e containing v <= 1, x >= 0.

    Columns are the edges in the given order, then one slack per vertex
    1..n.  The tableau holds integers; divided by d, the determinant of
    the current basis (the last pivot, 1 at the all-slack start), they
    give the true tableau.  d stays positive because every pivot is.
    Returns the numerators of the optimal x (one entry per edge) and of
    the dual y (one entry per vertex) over their shared denominator d:
    obj[j] / d = y.A_j - c_j at the optimum, so y sits at the slack columns.
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
        _pivot(tableau, obj, leaving, entering, d)
        d = tableau[leaving][entering]
        basis[leaving] = entering
    x = [0] * e
    for i, b in enumerate(basis):
        if b < e:
            x[b] = tableau[i][-1]
    return x, obj[e:width], d


@dataclass(frozen=True)
class FractionalSolution:
    """Optimal fractional matching (edge weights) or cover (vertex weights)."""

    kind: str  # "matching" or "cover"
    weights: dict[int, Fraction]
    objective: Fraction


def _check_certificate(family: Family, x: dict[int, int], y: dict[int, int], d: int) -> None:
    """The primal–dual certificate, in integers over the shared denominator
    d > 0: x (numerators by edge rank) is a feasible matching, 0 <= x_e <= d
    and every vertex load <= d; y (numerators by vertex) is a feasible
    cover, 0 <= y_v <= d and every edge sum >= d; and sum x = sum y."""
    load = [0] * (family.n + 1)
    for rank, edge in zip(family.edge_ranks(), family.edge_tuples()):
        w = x[rank]
        if not 0 <= w <= d:
            raise ContradictionError(f"matching weight {Fraction(w, d)} outside [0, 1]")
        for v in edge:
            load[v] += w
    if any(total > d for total in load):
        raise ContradictionError("fractional matching overloads a vertex")
    for v, w in y.items():
        if not 0 <= w <= d:
            raise ContradictionError(f"cover weight {Fraction(w, d)} at vertex {v} outside [0, 1]")
    for edge in family.edge_tuples():
        if sum(y[v] for v in edge) < d:
            raise ContradictionError(f"edge {edge} is not covered")
    nu, tau = sum(x.values()), sum(y.values())
    if nu != tau:
        raise ContradictionError(
            f"duality gap: matching {Fraction(nu, d)} != cover {Fraction(tau, d)}"
        )


def _check_lp_size(family: Family, limit: int | None) -> None:
    cap = limits.resolve(limit, limits.LP_EDGE_LIMIT)
    if family.edge_count > cap:
        raise ResourceLimitError(f"edge count {family.edge_count} exceeds LP limit {cap}")
    if family.k < 1:
        raise DomainError("fractional programs need k >= 1")


def fractional_pair(
    family: Family, limit: int | None = None
) -> tuple[FractionalSolution, FractionalSolution]:
    """(maximum fractional matching, minimum fractional cover) from one
    packing LP solve, returned only once their primal–dual certificate holds."""
    _check_lp_size(family, limit)
    x, y, d = _solve_packing(family.edge_tuples(), family.n)
    xs = dict(zip(family.edge_ranks(), x))
    ys = dict(zip(range(1, family.n + 1), y))
    _check_certificate(family, xs, ys, d)
    return _over("matching", xs, d), _over("cover", ys, d)


def _over(kind: str, numerators: dict[int, int], d: int) -> FractionalSolution:
    """The checked numerators as weights over d."""
    weights = {key: Fraction(a, d) for key, a in numerators.items()}
    return FractionalSolution(kind, weights, Fraction(sum(numerators.values()), d))


def fractional_matching(family: Family, limit: int | None = None) -> FractionalSolution:
    """Maximum fractional matching: max sum w(e), per-vertex load <= 1."""
    return fractional_pair(family, limit)[0]


def fractional_cover(family: Family, limit: int | None = None) -> FractionalSolution:
    """Minimum fractional cover: min sum f(v), per-edge load >= 1.

    Read off the dual of the matching solve; vertices on no edge weigh 0.
    """
    return fractional_pair(family, limit)[1]


def verify_duality(family: Family, limit: int | None = None) -> bool:
    """Check nu* = tau* by a primal–dual certificate from one solve.

    The solve yields a fractional matching x and a fractional cover y; the
    certificate holds when x is feasible, y is feasible and sum x = sum y.
    By weak duality that proves both optimal, so nu* = tau*.  Returns True;
    a failed certificate raises ContradictionError.
    """
    fractional_pair(family, limit)
    return True
