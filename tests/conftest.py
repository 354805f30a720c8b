"""Shared test helpers: seeded family generators."""

from __future__ import annotations

import os
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from hypothesis import strategies as st

from ekrlab.families import Family, binomial

# Child processes (CLI and demo runs) import the same checkout as the tests.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
if _SRC not in os.environ.get("PYTHONPATH", "").split(os.pathsep):
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
    )


def random_family(rng: random.Random, n: int, k: int, density: float = 0.5) -> Family:
    """Each k-set included independently; deterministic given the rng state."""
    bits = 0
    for r in range(binomial(n, k)):
        if rng.random() < density:
            bits |= 1 << r
    return Family.from_ranks(n, k, bits)


def random_family_edge_count(rng: random.Random, n: int, k: int, m: int) -> Family:
    """Uniform random family with exactly min(m, C(n,k)) edges."""
    total = binomial(n, k)
    m = min(m, total)
    ranks = rng.sample(range(total), m)
    bits = 0
    for r in ranks:
        bits |= 1 << r
    return Family.from_ranks(n, k, bits)


def random_sum_zero(rng: random.Random, n: int, unit: Fraction | int = 1) -> list[Fraction]:
    """n multiples of ``unit`` with coordinate sum 0: n-1 drawn from [-50, 50]."""
    head = [Fraction(rng.randint(-50, 50)) * unit for _ in range(n - 1)]
    return head + [-sum(head, Fraction(0))]


def random_family_min_degree(rng: random.Random, n: int, k: int, target: int) -> Family:
    """Random family topped up until every vertex degree reaches ``target``."""
    all_by_vertex = {
        v: [e for e in combinations(range(1, n + 1), k) if v in e] for v in range(1, n + 1)
    }
    chosen: set[tuple[int, ...]] = set()
    deg = {v: 0 for v in range(1, n + 1)}

    def add(edge: tuple[int, ...]) -> None:
        if edge not in chosen:
            chosen.add(edge)
            for u in edge:
                deg[u] += 1

    while True:
        deficient = [v for v in range(1, n + 1) if deg[v] < target]
        if not deficient:
            break
        v = deficient[rng.randrange(len(deficient))]
        pool = all_by_vertex[v]
        add(pool[rng.randrange(len(pool))])
    return Family.from_edges(n, k, sorted(chosen))


def random_family_near_regular(rng: random.Random, n: int, k: int, target: int) -> Family:
    """Random family in which every vertex degree reaches ``target`` and few pass it.

    Each new edge takes a random vertex below ``target`` and k - 1 more from
    the other vertices below it; once fewer than 2k are below, or every k-set
    of them is already chosen, from all other vertices, so the last deficits
    can always be filled.
    """
    chosen: set[tuple[int, ...]] = set()
    deg = [0] * (n + 1)
    wide = False
    while True:
        low = [v for v in range(1, n + 1) if deg[v] < target]
        if not low:
            break
        v = rng.choice(low)
        pool = low if len(low) >= 2 * k and not wide else range(1, n + 1)
        edge = tuple(sorted([v] + rng.sample([u for u in pool if u != v], k - 1)))
        if edge not in chosen:
            chosen.add(edge)
            for u in edge:
                deg[u] += 1
        elif pool is low and all(e in chosen for e in combinations(low, k)):
            wide = True  # no draw inside low can add an edge: it would loop forever
    return Family.from_edges(n, k, sorted(chosen))


@st.composite
def small_families(draw, n: int | None = None, k: int | None = None, max_edges: int = 14):
    """Families with n <= 10 and k <= 4, k = 0 and empty families included.

    Passing ``n`` and ``k`` pins the uniformity, so two draws can be compared.
    """
    if k is None:
        k = draw(st.integers(min_value=0, max_value=4))
    if n is None:
        n = draw(st.integers(min_value=k, max_value=10))
    ranks = draw(st.sets(st.integers(min_value=0, max_value=binomial(n, k) - 1), max_size=max_edges))
    return Family.from_ranks(n, k, sum(1 << r for r in ranks))


def _count_computations(monkeypatch, name: str) -> list[Family]:
    """Record every family whose cached ``Family.<name>`` is computed from now on."""
    computed: list[Family] = []
    cached = Family.__dict__[name]
    original = cached.func

    def counting(family):
        computed.append(family)
        return original(family)

    monkeypatch.setattr(cached, "func", counting)
    return computed


def count_transpositions(monkeypatch) -> list[Family]:
    """Record every family whose ``Family.through`` is computed from now on."""
    return _count_computations(monkeypatch, "through")


def count_decodes(monkeypatch) -> list[Family]:
    """Record every family whose ``Family._decoded`` is computed from now on."""
    return _count_computations(monkeypatch, "_decoded")
