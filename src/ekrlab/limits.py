"""Resource limits for the exact solvers and enumerators.

Every limit can be overridden globally through the ``EKRLAB_LIMIT``
environment variable (one integer applied to all four limits below), or
per call via the ``limit=`` keyword accepted by the gated operations.
"""

from __future__ import annotations

import os

from .errors import DomainError

ENV_VAR = "EKRLAB_LIMIT"

# Largest e * 2^k subset-degree updates done by the eigenspace-mass code.
EIGEN_SUBSET_LIMIT = 1 << 20
# Largest edge count accepted by the exact rational LP solver.
LP_EDGE_LIMIT = 5000
# Largest number of k-sets (Kneser vertices) for exhaustive enumeration.
ENUM_KSET_LIMIT = 64
# Branch-and-bound node budget for the exact matching solver.
MATCHING_NODE_LIMIT = 5_000_000


def resolve(limit: int | None, default: int) -> int:
    """Pick the effective limit: explicit argument, then env var, then default."""
    if limit is not None:
        return limit
    env = os.environ.get(ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise DomainError(f"{ENV_VAR} must be an integer, got {env!r}") from None
    return default
