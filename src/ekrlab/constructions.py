"""Generators for the named extremal families used as fixtures and baselines.

Placements are canonical so golden tests are deterministic: stars default to
center 1, the meet-in-at-least-i families pin S = {1, ..., s*i - 1}, and the
star-plus-blocker family pins the outside vertex at 1 with S = {2, ..., k+1}.
Isomorphic variants are obtained by relabeling.
"""

from __future__ import annotations

import random
from itertools import combinations

from .errors import DomainError
from .families import Family, binomial


def star(n: int, k: int, center: int = 1) -> Family:
    """All k-subsets of [n] containing ``center``: binomial(n-1, k-1) edges."""
    if k < 1 or k > n:
        raise DomainError(f"star needs 1 <= k <= n, got k={k}, n={n}")
    if center < 1 or center > n:
        raise DomainError(f"star center {center} outside [1, {n}]")
    rest = [v for v in range(1, n + 1) if v != center]
    edges = [tuple(sorted((center,) + c)) for c in combinations(rest, k - 1)]
    return Family.from_edges(n, k, edges)


def erdos_extremal(n: int, k: int, s: int, i: int) -> Family:
    """All k-sets meeting S = {1, ..., s*i - 1} in at least i vertices.

    The family has no matching of size s: any s pairwise disjoint edges
    would use s*i distinct vertices of the (s*i - 1)-set S.
    """
    if not 1 <= i <= k:
        raise DomainError(f"need 1 <= i <= k, got i={i}, k={k}")
    if s < 1:
        raise DomainError(f"need s >= 1, got s={s}")
    if s * i - 1 > n:
        raise DomainError(f"need s*i - 1 <= n, got s*i-1={s * i - 1}, n={n}")
    if k > n:
        raise DomainError(f"need k <= n, got k={k}, n={n}")
    bound = s * i - 1
    edges = [e for e in combinations(range(1, n + 1), k) if sum(1 for v in e if v <= bound) >= i]
    return Family.from_edges(n, k, edges)


def hilton_milner(n: int, k: int) -> Family:
    """The blocker k-set S = {2,...,k+1} plus all k-sets through 1 meeting S.

    Intersecting with empty common intersection; the extremal non-star
    intersecting family.
    """
    if n <= k:
        raise DomainError(f"need n >= k + 1, got n={n}, k={k}")
    blocker = set(range(2, k + 2))
    edges = [tuple(sorted(blocker))]
    for c in combinations(range(2, n + 1), k - 1):
        if blocker.intersection(c):
            edges.append((1,) + c)
    return Family.from_edges(n, k, edges)


REMARK_EDGES = (
    (1, 2, 3), (2, 3, 4), (3, 4, 5), (1, 4, 5), (1, 2, 5),
    (1, 3, 6), (2, 4, 6), (3, 5, 6), (2, 5, 6), (1, 4, 6),
)


def remark_family() -> Family:
    """The 10-edge 5-regular intersecting 3-family on 6 vertices.

    Every vertex degree is 5 > binomial(4, 1) = 4, yet the family is not a
    star; it witnesses that the degree dichotomy fails at n = 2k.
    """
    return Family.from_edges(6, 3, REMARK_EDGES)


def random_halved(k: int, seed: int) -> Family:
    """One k-set chosen per complementary pair of [2k], by a seeded fair coin.

    Complementary pairs are visited in colex order of their member that
    contains vertex 1, so equal seeds give identical families.  Any two
    non-complementary k-subsets of [2k] intersect, so the result is always
    intersecting with binomial(2k, k) / 2 edges.
    """
    if k < 2:
        raise DomainError(f"need k >= 2, got k={k}")
    n = 2 * k
    rng = random.Random(seed)
    full = frozenset(range(1, n + 1))
    edges = []
    for c in combinations(range(2, n + 1), k - 1):
        e = (1,) + c
        edges.append(e if rng.getrandbits(1) else tuple(sorted(full.difference(e))))
    return Family.from_edges(n, k, edges)


def complete(n: int, k: int) -> Family:
    """All k-subsets of [n]."""
    if k < 0 or k > n:
        raise DomainError(f"complete needs 0 <= k <= n, got k={k}, n={n}")
    return Family.from_edges(n, k, combinations(range(1, n + 1), k))


FANO_EDGES = (
    (1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 5, 6),
)


def fano() -> Family:
    """The 7-edge triple system on 7 points; every vertex has degree 3.

    Intersecting, and its fractional matching number is 7/3 (weight 1/3 on
    every edge), which makes it the standard LP fixture here.
    """
    return Family.from_edges(7, 3, FANO_EDGES)


KINDS = ("star", "erdos-extremal", "hilton-milner", "remark", "random-halved", "complete", "fano")


def build_construction(
    kind: str,
    n: int | None = None,
    k: int | None = None,
    s: int | None = None,
    i: int | None = None,
    center: int = 1,
    seed: int = 0,
) -> Family:
    """Dispatch a construction by kind name, validating required parameters."""

    def need(**params: int | None) -> list[int]:
        missing = [name for name, value in params.items() if value is None]
        if missing:
            raise DomainError(f"construction '{kind}' requires --{', --'.join(missing)}")
        return [v for v in params.values() if v is not None]

    if kind == "star":
        need(n=n, k=k)
        return star(n, k, center)
    if kind == "erdos-extremal":
        need(n=n, k=k, s=s, i=i)
        return erdos_extremal(n, k, s, i)
    if kind == "hilton-milner":
        need(n=n, k=k)
        return hilton_milner(n, k)
    if kind == "remark":
        return remark_family()
    if kind == "random-halved":
        need(k=k)
        return random_halved(k, seed)
    if kind == "complete":
        need(n=n, k=k)
        return complete(n, k)
    if kind == "fano":
        return fano()
    raise DomainError(f"unknown construction kind '{kind}' (choose from {', '.join(KINDS)})")
