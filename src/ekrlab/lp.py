"""Exact fractional matchings and covers from one rational simplex solve.

The only program solved is the packing LP of a family: maximize the sum
of edge weights x subject to a load of at most 1 on every vertex.  Its
all-slack basis is feasible, so a one-phase simplex suffices, with
Bland's anti-cycling rule (entering: lowest eligible column index;
leaving: lowest basic variable index among minimum-ratio rows), which
terminates on every input.  The tableau is fraction-free (Edmonds 1967;
Bareiss 1968): integer entries d*B^-1[A | I | b] over one running
denominator d, the basis determinant, so pivots take no gcd.  Only the
slack columns and b are stored, as in the revised simplex method: edge
j's column is the sum of the slack columns of its vertices, since A_j is;
a vertex on no edge takes no part in any pivot and gets no row.
The fractional cover is the LP dual: its vertex weights y are the final
objective-row entries at the slack columns, one per vertex on some edge.
Every solve is checked by a primal–dual certificate (x a feasible
matching, y a feasible cover, sum x = sum y), which by weak duality proves
both optimal; it is checked on the integer numerators over the final
denominator, and only the weights of a checked solve become Fractions.  A
family instance is solved and checked once: its numerators stay in its
instance dict as the solve lays them out (x in edge order, y by vertex of
the support), and each entry point below builds its own side from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

from . import limits
from .errors import ContradictionError, DomainError, ResourceLimitError
from .families import Family, KSubset


def _pivot(tableau: list[list[int]], obj: list[int], column: list[int], f_obj: int,
           row: int, d: int) -> None:
    """Fraction-free (Bareiss) pivot on the entering column, given by its
    entries ``column`` (one per row) and ``f_obj`` (objective row): every
    other row, objective included, becomes (p*a - f*b) // d, exact by
    Sylvester's identity, so no gcd is taken; a row with f = 0 is only
    scaled by p/d.  The pivot row stays; p is the next determinant."""
    prow = tableau[row]
    p = column[row]
    for r, f in enumerate(column):
        if f and r != row:
            tableau[r] = [(p * a - f * b) // d for a, b in zip(tableau[r], prow)]
        elif r != row and p != d:
            tableau[r] = [p * a // d for a in tableau[r]]
    obj[:] = [(p * a - f_obj * b) // d for a, b in zip(obj, prow)]


def _solve_packing(edges: list[KSubset]) -> tuple[list[int], dict[int, int], int]:
    """Maximize sum(x) subject to sum of x_e over e containing v <= 1, x >= 0.

    Columns are the edges in the given order, then one slack per vertex
    of the support (the vertices on some edge), ascending.  A vertex on no
    edge has a zero row in every edge column, so its slack never leaves
    the basis, and its objective entry stays 0, so it never enters: it is
    left out, and its y is 0.  Row i holds only the integers d*B^-1[I | b],
    d being the determinant of the current basis (the last pivot, 1 at the
    all-slack start), positive because every pivot is.  Edge j's column is
    the sum of its vertices' slack columns, and its objective entry the sum
    of the objective at those slacks, less d.  Bland's rule prices the edge
    columns first, in order, then the slacks.  Returns the numerators of
    the optimal x (a list in edge order) and of the dual y (a dict by vertex
    of the support) over their shared denominator d.
    """
    e, support = len(edges), sorted({v for edge in edges for v in edge})
    m, row_of = len(support), {v: i for i, v in enumerate(support)}
    tableau = [[int(i == j) for j in range(m)] + [1] for i in range(m)]
    basis = list(range(e, e + m))
    obj = [0] * m
    picks = [itemgetter(*(row_of[v] for v in edge)) for edge in edges]
    # an itemgetter of one index returns the entry itself, not a 1-tuple
    total = sum if e and len(edges[0]) > 1 else int
    d = 1
    while True:
        for entering, pick in enumerate(picks):
            f_obj = total(pick(obj)) - d
            if f_obj < 0:
                column = [total(pick(line)) for line in tableau]
                break
        else:
            v = next((v for v in range(m) if obj[v] < 0), -1)
            if v < 0:
                break
            entering, f_obj, column = e + v, obj[v], [line[v] for line in tableau]
        # minimum ratio rhs/coef by cross-multiplying; num/den starts at 1/0
        leaving, num, den = -1, 1, 0
        for i, coef in enumerate(column):
            if coef > 0:
                lhs, rhs = tableau[i][-1] * den, num * coef
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                    leaving, num, den = i, tableau[i][-1], coef
        if leaving < 0:
            raise ContradictionError("packing LP unbounded, but every x_e is at most 1")
        _pivot(tableau, obj, column, f_obj, leaving, d)
        d = column[leaving]
        basis[leaving] = entering
    x = [0] * e
    for i, b in enumerate(basis):
        if b < e:
            x[b] = tableau[i][-1]
    return x, dict(zip(support, obj)), d


@dataclass(frozen=True)
class FractionalSolution:
    """Optimal fractional matching (edge weights) or cover (vertex weights)."""

    kind: str  # "matching" or "cover"
    weights: dict[int, Fraction]
    objective: Fraction


def _check_certificate(family: Family, x: list[int], y: dict[int, int], d: int) -> None:
    """The primal–dual certificate, in integers over the shared denominator
    d > 0: x (numerators in edge order) is a feasible matching, 0 <= x_e <= d
    and every vertex load <= d; y (numerators by vertex of the support) is a
    feasible cover, 0 <= y_v <= d and every edge sum >= d; and sum x = sum y.
    Loads are counted on the support only, so nothing is kept per vertex of [n]."""
    edges, load = family.edge_tuples(), dict.fromkeys(y, 0)
    for w, edge in zip(x, edges):
        if not 0 <= w <= d:
            raise ContradictionError(f"matching weight {Fraction(w, d)} outside [0, 1]")
        for v in edge:
            load[v] += w
    if any(total > d for total in load.values()):
        raise ContradictionError("fractional matching overloads a vertex")
    for v, w in y.items():
        if not 0 <= w <= d:
            raise ContradictionError(f"cover weight {Fraction(w, d)} at vertex {v} outside [0, 1]")
    for edge in edges:
        if sum(y[v] for v in edge) < d:
            raise ContradictionError(f"edge {edge} is not covered")
    nu, tau = sum(x), sum(y.values())
    if nu != tau:
        raise ContradictionError(
            f"duality gap: matching {Fraction(nu, d)} != cover {Fraction(tau, d)}"
        )


def _checked_packing(family: Family) -> tuple[list[int], dict[int, int], int]:
    """The checked numerators (x in edge order, y by vertex of the support, d)
    of the family's packing LP, as the solve returns them, once per instance.

    The gates run on every call, before the cache is read.  Only a triple
    whose certificate holds is kept, in the instance dict beside
    ``_decoded``, so equality and hashing still see only (n, k, edges) and
    an equal family built elsewhere solves again.  Callers must not mutate it.
    """
    if family.edge_count > limits.LP_EDGE_LIMIT:
        raise ResourceLimitError(
            f"{family.edge_count} edges exceed LP_EDGE_LIMIT = {limits.LP_EDGE_LIMIT}")
    if family.k < 1:
        raise DomainError("fractional programs need k >= 1")
    packing = family.__dict__.get("_packing")
    if packing is None:
        packing = _solve_packing(family.edge_tuples())
        _check_certificate(family, *packing)
        family.__dict__["_packing"] = packing
    return packing


def _over(kind: str, numerators: dict[int, int], d: int) -> FractionalSolution:
    """The checked numerators as weights over d, in fresh Fractions."""
    weights = {key: Fraction(a, d) for key, a in numerators.items()}
    return FractionalSolution(kind, weights, Fraction(sum(numerators.values()), d))


def fractional_matching(family: Family) -> FractionalSolution:
    """Maximum fractional matching: max sum w(e), per-vertex load <= 1."""
    x, _, d = _checked_packing(family)
    return _over("matching", dict(zip(family.edge_ranks(), x)), d)


def fractional_cover(family: Family) -> FractionalSolution:
    """Minimum fractional cover: min sum f(v), per-edge load >= 1.

    Read off the dual of the matching solve: one weight per vertex on some
    edge, zeros included, as the matching has one per edge rank.
    """
    _, y, d = _checked_packing(family)
    return _over("cover", y, d)


def fractional_pair(family: Family) -> tuple[FractionalSolution, FractionalSolution]:
    """(maximum fractional matching, minimum fractional cover) from the
    family's one checked packing LP solve."""
    return fractional_matching(family), fractional_cover(family)


def verify_duality(family: Family) -> bool:
    """Check nu* = tau* by the primal–dual certificate of the family's solve.

    The solve yields a fractional matching x and a fractional cover y; the
    certificate holds when x is feasible, y is feasible and sum x = sum y.
    By weak duality that proves both optimal, so nu* = tau*.  The first LP
    call on a family instance solves and checks; later calls on the same
    instance reuse that checked solve, and the gates run every time.
    Returns True; a failed certificate raises ContradictionError.
    """
    _checked_packing(family)
    return True
