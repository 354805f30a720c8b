"""Generators for the named extremal families used as fixtures and baselines.

Placements are canonical so golden tests are deterministic: stars default to
center 1, the meet-in-at-least-i families pin S = {1, ..., s*i - 1}, and the
star-plus-blocker family pins the outside vertex at 1 with S = {2, ..., k+1}.
Isomorphic variants are obtained by relabeling.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Callable, Iterator, Sequence

from .errors import DomainError
from .families import Family, gated_kset_count


def _junta(
    n: int, k: int, core: Sequence[int], keep: Callable[[tuple[int, ...]], bool]
) -> Iterator[tuple[int, ...]]:
    """Every k-set of [n] whose trace A on ``core`` passes ``keep``: each kept
    A joined to every (k - |A|)-set of the vertices outside the core.

    A generator function, so nothing runs before ``Family.from_edges`` has
    gated C(n,k).  A trace of size k reads no outside vertex: combinations
    copies its whole pool, all of [n] at k = 1, where the gate lets n reach 2^24.
    """
    for j in range(max(0, k - n + len(core)), min(k, len(core)) + 1):
        for a in filter(keep, combinations(core, j)):
            outside = (v for v in range(1, n + 1) if v not in core) if j < k else ()
            for b in combinations(outside, k - j):
                yield a + b


def star(n: int, k: int, center: int = 1) -> Family:
    """All k-subsets of [n] containing ``center``: binomial(n-1, k-1) edges."""
    if k < 1 or k > n:
        raise DomainError(f"star needs 1 <= k <= n, got k={k}, n={n}")
    if center < 1 or center > n:
        raise DomainError(f"star center {center} outside [1, {n}]")
    return Family.from_edges(n, k, _junta(n, k, (center,), bool))


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
    return Family.from_edges(n, k, _junta(n, k, range(1, s * i), lambda a: len(a) >= i))


def hilton_milner(n: int, k: int) -> Family:
    """The blocker k-set S = {2,...,k+1} plus all k-sets through 1 meeting S.

    Intersecting with empty common intersection; the extremal non-star
    intersecting family.  On the core {1,...,k+1} the kept traces are S
    itself (the k-set missing 1) and every trace holding 1 and a vertex of S.
    """
    if n <= k:
        raise DomainError(f"need n >= k + 1, got n={n}, k={k}")
    if k < 1:
        raise DomainError(f"hilton-milner needs k >= 1, got k={k}")
    return Family.from_edges(
        n, k, _junta(n, k, range(1, k + 2), lambda a: len(a) > 1 if 1 in a else len(a) == k)
    )


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
    gated_kset_count(n, k)
    rng = random.Random(seed)
    full = frozenset(range(1, n + 1))
    edges = (
        (1,) + c if rng.getrandbits(1) else tuple(sorted(full.difference((1,) + c)))
        for c in combinations(range(2, n + 1), k - 1)
    )
    return Family.from_edges(n, k, edges)


def complete(n: int, k: int) -> Family:
    """All k-subsets of [n]: every colex rank below C(n,k), with no edge built."""
    if k < 0 or k > n:
        raise DomainError(f"complete needs 0 <= k <= n, got k={k}, n={n}")
    return Family(n, k, (1 << gated_kset_count(n, k)) - 1)


FANO_EDGES = (
    (1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 5, 6),
)


def fano() -> Family:
    """The 7-edge triple system on 7 points; every vertex has degree 3.

    Intersecting, and its fractional matching number is 7/3 (weight 1/3 on
    every edge), which makes it the standard LP fixture here.
    """
    return Family.from_edges(7, 3, FANO_EDGES)


# kind -> (builder, required parameters, parameters passed through), in the
# builder's argument order
_BUILDERS = {
    "star": (star, ("n", "k"), ("center",)),
    "erdos-extremal": (erdos_extremal, ("n", "k", "s", "i"), ()),
    "hilton-milner": (hilton_milner, ("n", "k"), ()),
    "remark": (remark_family, (), ()),
    "random-halved": (random_halved, ("k",), ("seed",)),
    "complete": (complete, ("n", "k"), ()),
    "fano": (fano, (), ()),
}
KINDS = tuple(_BUILDERS)


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
    if kind not in _BUILDERS:
        raise DomainError(f"unknown construction kind '{kind}' (choose from {', '.join(KINDS)})")
    build, required, passed = _BUILDERS[kind]
    params = {"n": n, "k": k, "s": s, "i": i, "center": center, "seed": seed}
    missing = [name for name in required if params[name] is None]
    if missing:
        raise DomainError(f"construction '{kind}' requires --{', --'.join(missing)}")
    if kind == "random-halved" and n is not None and n != 2 * k:
        raise DomainError(f"random-halved lives on [2k], got n={n} for k={k}")
    return build(*(params[name] for name in required + passed))
