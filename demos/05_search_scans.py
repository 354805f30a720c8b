#!/usr/bin/env python3
"""Exhaustive scans at desk scale and the annealed conjecture search.

Run: python demos/05_search_scans.py
"""

import time

from ekrlab import (
    binomial,
    conjecture_scan,
    cross_pair_scan,
    ekr_degree_scan,
    maximal_intersecting,
)

print("=" * 72)
print("  MAXIMAL INTERSECTING FAMILIES")
print("=" * 72)
fams = list(maximal_intersecting(5, 2))
sizes = sorted(len(f) for f in fams)
print(f"  (5,2): {len(fams)} families; sizes {sizes}")
print("         (5 stars of size 4 and 10 triangles of size 3)")

t0 = time.time()
report = ekr_degree_scan(7, 3)
print(f"  (7,3): {report.families_examined} families enumerated "
      f"in {time.time() - t0:.2f}s")

print()
print("=" * 72)
print("  DEGREE DICHOTOMY SCAN  (max delta_1 must be C(n-2,k-2), stars only)")
print("=" * 72)
for n, k in ((5, 2), (7, 3)):
    rep = ekr_degree_scan(n, k)
    print(f"  ({n},{k}): max delta_1 = {rep.best['max_delta1']} "
          f"(expected {binomial(n - 2, k - 2)}), attained by "
          f"{rep.best['num_at_max']} families, all stars: "
          f"{rep.best['all_at_max_are_stars']}; "
          f"best non-star delta_1 = {rep.best['nonstar_max_delta1']}")

print()
print("=" * 72)
print("  CROSS-PAIR SCAN  (delta_1 products over cross-intersecting pairs)")
print("=" * 72)
for n, k in ((5, 2), (7, 3)):
    rep = cross_pair_scan(n, k)
    print(f"  ({n},{k}): {rep.notes['ordered_pairs_cross']} cross ordered pairs "
          f"of {rep.notes['ordered_pairs_total']}; max product "
          f"{rep.best['max_product']} <= {rep.best['bound']}; "
          f"maximizers all same-center star pairs: "
          f"{rep.best['maximizers_all_same_center_stars']}")
# The scan does not assume this: it checks F^perp = F for every maximal
# family (F^perp = the k-sets meeting every edge of F) and that no family
# repeats, which together rule out every off-diagonal pair in O(m).
print("  (two distinct maximal families are never cross-intersecting: their")
print("   union would stay intersecting, contradicting maximality)")

print()
print("=" * 72)
print("  ANNEALED SEARCH FOR HIGH-DEGREE FAMILIES WITHOUT AN s-MATCHING")
print("=" * 72)
for n, k, s in ((7, 3, 2), (9, 2, 3)):
    rep = conjecture_scan(n, k, s, budget=800, seed=1)
    print(f"  ({n},{k},{s}): best delta_1 = {rep.best['delta1']} vs threshold "
          f"{rep.best['threshold']}; counterexamples: {len(rep.violations)}")

rep = conjecture_scan(6, 3, 2, budget=2000, seed=1)
print(f"  (6,3,2) boundary n = ks (report-only): best delta_1 = "
      f"{rep.best['delta1']} vs threshold {rep.best['threshold']}; "
      f"over-bound families seen: {len(rep.notes['over_bound_examples'])}")
print("  (at n = 2k the walk rediscovers 5-regular intersecting families above")
print("   the threshold, like remark_family(); the boundary carries no assertion)")
