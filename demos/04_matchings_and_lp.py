#!/usr/bin/env python3
"""Exact matchings, fractional LPs with verified duality, and the
degree-driven constructive algorithm.

Run: python demos/04_matchings_and_lp.py
"""

import random

from ekrlab import (
    complete,
    corollary33_check,
    erdos_extremal,
    fano,
    find_matching_by_degree,
    fractional_cover,
    fractional_matching,
    fractional_pair,
    matching_number,
    min_degree,
    reduce_cover,
    star,
    verify_duality,
)
from ekrlab.families import Family, binomial

print("=" * 72)
print("  EXACT AND FRACTIONAL MATCHING NUMBERS")
print("=" * 72)
for name, fam in (
    ("star(7,3,1)", star(7, 3, 1)),
    ("fano()", fano()),
    ("complete(6,3)", complete(6, 3)),
    ("erdos_extremal(12,3,3,1)", erdos_extremal(12, 3, 3, 1)),
):
    nu, witness = matching_number(fam)
    matching, cover = fractional_pair(fam)
    nu_star, tau_star = matching.objective, cover.objective
    print(f"  {name:<26} nu = {nu}   nu* = {nu_star}   tau* = {tau_star}   "
          f"duality: {'ok' if nu_star == tau_star else 'FAIL'}")

print()
print("The 7-point triple system has nu = 1 but nu* = 7/3 (weight 1/3 on")
print("every edge): the integrality gap of intersecting families.")

print()
print("=" * 72)
print("  THE MEET-S EXTREMAL FAMILY IS TIGHT FOR BOTH PROBLEMS")
print("=" * 72)
for n, k, s in ((9, 2, 3), (12, 3, 3), (8, 3, 2)):
    fam = erdos_extremal(n, k, s, 1)
    print(f"  H^1({n},{k},{s}): delta_1 = {min_degree(fam, 1)} "
          f"= C({n - 1},{k - 1}) - C({n - s},{k - 1}); "
          f"nu = {matching_number(fam)[0]} = nu* = {fractional_matching(fam).objective}")

print()
print("=" * 72)
print("  DEGREE-DRIVEN CONSTRUCTION OF A MATCHING, WITH TRACE")
print("=" * 72)
rng = random.Random(12)
edges = set()
deg = [0] * 38
while min(deg[1:]) < 3:
    v = min(range(1, 38), key=lambda u: deg[u])
    u = rng.randrange(1, 38)
    if u != v and (min(u, v), max(u, v)) not in edges:
        edges.add((min(u, v), max(u, v)))
        deg[u] += 1
        deg[v] += 1
graph = Family.from_edges(37, 2, sorted(edges))
matching, trace = find_matching_by_degree(graph, 3)
print(f"  random graph on 37 vertices, {graph.edge_count} edges, "
      f"delta_1 = {min_degree(graph, 1)} > C(36,1) - C(34,1) = 2")
print(f"  matching: {' '.join(str(set(e)) for e in matching.edges)}")
for step in trace:
    print(f"    level s={step['s']}: {step['branch']}")

print()
print("=" * 72)
print("  COVER REDUCTION AND THE LP COROLLARY")
print("=" * 72)
s73 = star(7, 3, 1)
reduced = reduce_cover(s73, fractional_cover(s73))
print(f"  reduce_cover(star(7,3,1)) is 2-uniform on 6 vertices with "
      f"{reduced.edge_count} edges >= delta_1 = {min_degree(s73, 1)}")
print(f"  corollary check on complete(7,3) at s=2: {corollary33_check(complete(7, 3), 2)}")

rng = random.Random(5)
count = sum(
    1 for _ in range(25)
    if verify_duality(Family.from_ranks(8, 3, rng.getrandbits(binomial(8, 3))))
)
print(f"  strong duality verified exactly on {count}/25 random families at (8,3)")
