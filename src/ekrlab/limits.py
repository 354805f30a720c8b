"""Resource limits for the exact solvers and enumerators, one constant each.

The eigenspace masses have no limit of their own: they read a family's
edges, which FAMILY_KSET_LIMIT bounds.
A limit is its constant here and nothing else.  The gates read it as
``limits.NAME`` when they run, so a Python caller moves one limit by
assigning it, e.g. ``ekrlab.limits.ENUM_KSET_LIMIT = 200`` before a (9,3)
scan, and tests patch it the same way.
"""

# Largest C(n,k) for which a family's colex bitset is built from edges:
# 2^24 k-sets is a 2 MB bitset, where one edge at (40,20) would need 17 GB.
FAMILY_KSET_LIMIT = 1 << 24

# Largest edge count accepted by the exact rational LP solver.
LP_EDGE_LIMIT = 5000
# Largest number of k-sets (Kneser vertices) for exhaustive enumeration.
ENUM_KSET_LIMIT = 64
# Branch-and-bound node budget for the exact matching solver.
MATCHING_NODE_LIMIT = 5_000_000
