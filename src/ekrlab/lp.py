"""Exact fractional matchings and covers from one rational simplex solve.

The only program solved is the packing LP of a family: maximize the sum
of edge weights x subject to a load of at most 1 on every vertex.  Its
all-slack basis is feasible, so a one-phase dense tableau simplex over
``Fraction`` entries suffices, with Bland's anti-cycling rule (entering:
lowest eligible column index; leaving: lowest basic variable index among
minimum-ratio rows), which terminates on every input.  The fractional
cover is the LP dual: its vertex weights y are the final objective-row
entries at the slack columns.  Every solve is checked by a primal–dual
certificate (x a feasible matching, y a feasible cover, sum x = sum y),
which by weak duality proves both optimal.  Problem sizes here are desk
scale; no sparsity tricks are attempted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import limits
from .errors import ContradictionError, DomainError, ResourceLimitError
from .families import Family, KSubset


def _pivot(tableau: list[list[Fraction]], obj: list[Fraction], row: int, col: int) -> None:
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


def _solve_packing(edges: list[KSubset], n: int) -> tuple[list[Fraction], list[Fraction]]:
    """Maximize sum(x) subject to sum of x_e over e containing v <= 1, x >= 0.

    Columns are the edges in the given order, then one slack per vertex
    1..n.  Returns the optimal x (one entry per edge) and the dual y (one
    entry per vertex): obj[j] = y.A_j - c_j at the optimum, so y sits at
    the slack columns.
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
            raise ContradictionError("packing LP unbounded, but every x_e is at most 1")
        _pivot(tableau, obj, leaving, entering)
        basis[leaving] = entering
    x = [zero] * e
    for i, b in enumerate(basis):
        if b < e:
            x[b] = tableau[i][-1]
    return x, obj[e:width]


@dataclass(frozen=True)
class FractionalSolution:
    """Optimal fractional matching (edge weights) or cover (vertex weights)."""

    kind: str  # "matching" or "cover"
    weights: dict[int, Fraction]
    objective: Fraction


def _validate_matching_weights(family: Family, weights: dict[int, Fraction]) -> None:
    load: dict[int, Fraction] = {}
    for rank, edge in zip(family.edge_ranks(), family.edge_tuples()):
        w = weights.get(rank, Fraction(0))
        if not 0 <= w <= 1:
            raise ContradictionError(f"matching weight {w} outside [0, 1]")
        for v in edge:
            load[v] = load.get(v, Fraction(0)) + w
    if any(total > 1 for total in load.values()):
        raise ContradictionError("fractional matching overloads a vertex")


def _validate_cover_weights(family: Family, weights: dict[int, Fraction]) -> None:
    for v, w in weights.items():
        if not 0 <= w <= 1:
            raise ContradictionError(f"cover weight {w} at vertex {v} outside [0, 1]")
    for edge in family.edge_tuples():
        if sum(weights.get(v, Fraction(0)) for v in edge) < 1:
            raise ContradictionError(f"edge {edge} is not covered")


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
    x, y = _solve_packing(family.edge_tuples(), family.n)
    matching = FractionalSolution(
        "matching", dict(zip(family.edge_ranks(), x)), sum(x, Fraction(0))
    )
    cover = FractionalSolution(
        "cover", {v: y[v - 1] for v in range(1, family.n + 1)}, sum(y, Fraction(0))
    )
    _validate_matching_weights(family, matching.weights)
    _validate_cover_weights(family, cover.weights)
    if matching.objective != cover.objective:
        raise ContradictionError(
            f"duality gap: matching {matching.objective} != cover {cover.objective}"
        )
    return matching, cover


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
