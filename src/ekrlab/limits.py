"""Resource limits for the exact solvers and enumerators, one constant each.

The ``EKRLAB_LIMIT`` environment variable, one integer, overrides the four
solver limits at once.  ``FAMILY_KSET_LIMIT`` is fixed, since a value small
enough to exercise the solver limits (tests set ``EKRLAB_LIMIT`` to 10 or
119) would reject every family.
"""

from __future__ import annotations

import os

from .errors import DomainError

ENV_VAR = "EKRLAB_LIMIT"

# Largest C(n,k) for which a family's colex bitset is built from edges:
# 2^24 k-sets is a 2 MB bitset, where one edge at (40,20) would need 17 GB.
FAMILY_KSET_LIMIT = 1 << 24

# Largest e * 2^k for the eigenspace masses: it bounds the subsets of edges
# that the subset-degree walk can visit.
EIGEN_SUBSET_LIMIT = 1 << 20
# Largest edge count accepted by the exact rational LP solver.
LP_EDGE_LIMIT = 5000
# Largest number of k-sets (Kneser vertices) for exhaustive enumeration.
ENUM_KSET_LIMIT = 64
# Branch-and-bound node budget for the exact matching solver.
MATCHING_NODE_LIMIT = 5_000_000


def resolve(default: int) -> int:
    """Pick the effective limit: the env var if set, else ``default``."""
    env = os.environ.get(ENV_VAR)
    try:
        return default if env is None else int(env)
    except ValueError:
        raise DomainError(f"{ENV_VAR} must be an integer, got {env!r}") from None
