#!/usr/bin/env python3
"""Kneser spectra and exact eigenspace masses of family vectors.

Run: python demos/02_spectral_masses.py
"""

from ekrlab import (
    complete,
    eigen_mass_full,
    fano,
    kneser_spectrum,
    level_masses,
    quadratic_form,
    remark_family,
    star,
)


print("=" * 72)
print("  KNESER SPECTRA  (eigenvalue, multiplicity) per level")
print("=" * 72)
for n, k in ((5, 2), (6, 3), (7, 3), (9, 4)):
    spec = kneser_spectrum(n, k)
    ladder = ", ".join(f"j={j}: ({lam}, {mult})" for j, lam, mult in spec.levels)
    print(f"  ({n},{k}):  {ladder}")
print("\n(5,2) is the Petersen graph; at (6,3) the values 1 and -1 repeat,")
print("which is why masses come from the Johnson-scheme idempotents (applied")
print("to counts of edge pairs by intersection size) rather than from")
print("eigenvalue grouping.")

print()
print("=" * 72)
print("  EXACT EIGENSPACE MASSES F_0..F_k")
print("=" * 72)
for name, fam in (
    ("star(7,3,1)", star(7, 3, 1)),
    ("remark_family()", remark_family()),
    ("complete(6,3)", complete(6, 3)),
    ("fano()", fano()),
):
    sm = eigen_mass_full(fam)
    masses = ", ".join(str(f) for f in sm.masses)
    print(f"  {name:<18} masses = ({masses})")
    print(f"  {'':<18} sum = {sum(sm.masses)} = e(H); "
          f"sum of lambda_j F_j = {sm.quad_form} = h^T A h")

print()
print("The star puts everything in E_0 + E_1 (the span of the one-vertex")
print("incidence vectors); a regular family has F_1 = 0 because its degree")
print("vector is constant.  level_masses gives the (F_0, F_1, rest) split:")
for name, fam in (("star(7,3,1)", star(7, 3, 1)), ("remark", remark_family())):
    f0, f1, rest = level_masses(fam)
    print(f"  {name:<14} F_0 = {f0},  F_1 = {f1},  residual = {rest}")

print()
print("Intersecting families are exactly the independent sets of the")
print("disjointness graph, so their quadratic form vanishes:")
for name, fam in (("star", star(7, 3, 1)), ("complete(6,3)", complete(6, 3))):
    print(f"  h^T A h for {name:<13} = {quadratic_form(fam)}")
