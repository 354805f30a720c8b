#!/usr/bin/env python3
"""The inequality-chain certificates, shown at their equality boundaries.

Run: python demos/03_certificates.py
"""

from fractions import Fraction

from ekrlab import (
    Family,
    cross_certificate,
    ekr_certificate,
    hilton_milner,
    simplex_min_index,
    simplex_witness,
    sqrt_product_inequality_check,
    star,
    star_frame_checks,
)

print("=" * 72)
print("  STAR RESIDUAL FRAME: scaled regular simplex, verified exactly")
print("=" * 72)
for n, k in ((7, 3), (9, 4), (11, 5)):
    rep = star_frame_checks(n, k)
    print(f"  ({n},{k}): |u|^2 = {rep.norm_sq},  <u_i,u_j> = {rep.cross} "
          f"= -|u|^2/(n-1): {'ok' if rep.simplex_identity_holds else 'FAIL'}")

print()
print("The geometry driving the witness step: in the sum-zero hyperplane")
print("of Q^n the frame e_i - 1/n is a regular simplex, so every v with")
print("sum 0 has min_i v_i <= -|v|/sqrt(n(n-1)), decided by exact squaring.")
for v in ([3, -1, -1, -1], [Fraction(3, 10), Fraction(-1, 5), Fraction(9, 10), -1]):
    w = simplex_min_index(v)
    shown = ", ".join(str(x) for x in v)
    print(f"  v = ({shown}): min at index {w.vertex}, value {w.lhs}, "
          f"bound^2 = {w.rhs_squared}, equality = {w.equality}")

print()
print("=" * 72)
print("  WITNESS INEQUALITY  min_i (deg(i) - ke/n) <= -sqrt(scaled F_1)")
print("=" * 72)
s = star(7, 3, 1)
w = simplex_witness(s)
print(f"  star(7,3,1): lhs = {w.lhs}, rhs^2 = {w.rhs_squared}, "
      f"equality = {w.equality}  (both sides are -10/7)")

print()
print("=" * 72)
print("  DEGREE DICHOTOMY CERTIFICATE")
print("=" * 72)
cert = ekr_certificate(s)
print(f"  star(7,3,1): e = {cert.e}, delta_1 = {cert.delta1}")
print(f"    F_1 = {cert.f1}; lower bound {cert.lower_bound_rhs}, "
      f"upper bound {cert.upper_bound_rhs} (chain is tight on stars)")
print(f"    dichotomy: {cert.dichotomy.value}; is_star: {cert.is_star}")

sub = Family.from_edges(7, 3, [e for e in s if e != (1, 2, 3)])
cert = ekr_certificate(sub)
print(f"  star minus one edge: delta_1 = {cert.delta1} < 5, so the upper")
print(f"    branch is inconclusive: upper bound = {cert.upper_bound_rhs}; "
      f"dichotomy = {cert.dichotomy.value}")

print()
print("=" * 72)
print("  CROSS-INTERSECTING PAIRS")
print("=" * 72)
cert = cross_certificate(s, s)
print(f"  star x star:   delta_1 product = {cert.delta1_b * cert.delta1_c} "
      f"= C(5,1)^2 (equality); mass bound equality = {cert.ineq10_equality}")
hm = hilton_milner(7, 3)
cert = cross_certificate(hm, hm)
print(f"  HM x HM:       delta_1 product = {cert.delta1_b * cert.delta1_c} <= 25; "
      f"mass bound holds = {cert.ineq10_holds}")

print()
print("Utility inequality used when splitting mixed radicals, checked by")
print("squaring twice with sign tracking:")
print(f"  sqrt(3*8) <= sqrt(4*9) - sqrt(1*1): "
      f"{sqrt_product_inequality_check(4, 1, 9, 1)}")
