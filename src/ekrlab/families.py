"""Exact combinatorics substrate: k-uniform set families on [n].

A family is stored as a bitset over the colexicographic ranks of its edges,
so membership tests and set algebra on whole families are single big-int
operations; per-vertex incidence bitsets (:func:`incidence`, :func:`meets`)
make degrees popcounts and meets ORs.  Vertices are 1-based integers, edges
are strictly increasing tuples of vertices, and all counting is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb
from typing import Iterable, Iterator, Sequence

from . import limits
from .errors import DomainError, ResourceLimitError

# An edge / k-subset is a strictly increasing tuple of 1-based vertex ids.
KSubset = tuple[int, ...]


def binomial(n: int, r: int) -> int:
    """Binomial coefficient, extended to return 0 for r < 0 or r > n."""
    if n < 0:
        raise DomainError(f"binomial: n must be nonnegative, got {n}")
    if r < 0 or r > n:
        return 0
    return comb(n, r)


def validate_ksubset(elements: Iterable[int], n: int | None = None) -> KSubset:
    """Normalize ``elements`` into a strictly increasing vertex tuple.

    Raises DomainError on repeats, non-positive vertices, or vertices
    above ``n`` when a ground-set size is given.
    """
    s = tuple(int(v) for v in elements)
    if any(b <= a for a, b in zip(s, s[1:])):
        t = tuple(sorted(s))
        if any(b <= a for a, b in zip(t, t[1:])):
            raise DomainError(f"repeated vertex in {s}")
        s = t
    if s and s[0] < 1:
        raise DomainError(f"vertices are 1-based, got {s[0]}")
    if n is not None and s and s[-1] > n:
        raise DomainError(f"vertex {s[-1]} outside ground set [1, {n}]")
    return s


def iter_bits(x: int) -> Iterator[int]:
    """Set bit positions of a nonnegative int, ascending.

    Scans the int once, a byte at a time, so listing the b set bits of a
    W-bit int costs O(W/8 + b) rather than O(b * W/64) for clearing bits
    of the whole int once per bit.
    """
    data = x.to_bytes((x.bit_length() + 7) // 8, "little")
    for index, byte in enumerate(data):
        while byte:
            low = byte & -byte
            yield 8 * index + low.bit_length() - 1
            byte ^= low


def rank_colex(s: KSubset) -> int:
    """Colexicographic rank of a strictly increasing k-subset.

    The rank of {a_1 < ... < a_k} is sum_i C(a_i - 1, i); it does not
    depend on the ground-set size.  {1, ..., k} has rank 0.
    """
    s = validate_ksubset(s)
    return sum(binomial(a - 1, i) for i, a in enumerate(s, start=1))


def unrank_colex(r: int, k: int, n: int) -> KSubset:
    """Inverse of :func:`rank_colex` on the k-subsets of [n]."""
    if k < 0 or k > n:
        raise DomainError(f"unrank_colex: need 0 <= k <= n, got k={k}, n={n}")
    if r < 0 or r >= binomial(n, k):
        raise DomainError(f"rank {r} out of range [0, {binomial(n, k)}) at (n={n}, k={k})")
    out = []
    a = n
    for i in range(k, 0, -1):
        # largest a with C(a-1, i) <= r
        while binomial(a - 1, i) > r:
            a -= 1
        out.append(a)
        r -= binomial(a - 1, i)
    return tuple(reversed(out))


@dataclass(frozen=True)
class Family:
    """A k-uniform family on ground set [1, n].

    ``edges`` is a bitset: bit i is set iff the k-subset of colex rank i
    is an edge.  Instances are immutable; every operation below is a pure
    function of its inputs.
    """

    n: int
    k: int
    edges: int
    edge_count: int

    def __post_init__(self) -> None:
        if self.k < 0 or self.k > self.n or self.n < 0:
            raise DomainError(f"invalid uniformity (n={self.n}, k={self.k})")
        if self.edges < 0 or self.edges.bit_length() > binomial(self.n, self.k):
            raise DomainError("edge bitset has bits outside the valid rank range")
        if self.edge_count != self.edges.bit_count():
            raise DomainError("edge_count does not match the bitset popcount")

    @classmethod
    def from_ranks(cls, n: int, k: int, bits: int) -> "Family":
        return cls(n, k, bits, bits.bit_count())

    @classmethod
    def from_edges(cls, n: int, k: int, edges: Iterable[Iterable[int]]) -> "Family":
        """The family of the given edges; C(n,k) is gated before any bit is set."""
        if n >= 0 and binomial(n, k) > limits.FAMILY_KSET_LIMIT:
            raise ResourceLimitError(
                f"C(n,k) = C({n},{k}) = {binomial(n, k)} k-sets exceed "
                f"FAMILY_KSET_LIMIT = {limits.FAMILY_KSET_LIMIT}"
            )
        bits = 0
        count = 0
        for e in edges:
            s = validate_ksubset(e, n)
            if len(s) != k:
                raise DomainError(f"edge {s} has size {len(s)}, expected {k}")
            bit = 1 << rank_colex(s)
            if bits & bit:
                raise DomainError(f"duplicate edge {s}")
            bits |= bit
            count += 1
        return cls(n, k, bits, count)

    @classmethod
    def empty(cls, n: int, k: int) -> "Family":
        return cls(n, k, 0, 0)

    def __len__(self) -> int:
        return self.edge_count

    def __iter__(self) -> Iterator[KSubset]:
        return iter(self.edge_tuples())

    def edge_ranks(self) -> Iterator[int]:
        """Set bit positions of the edge bitset, ascending."""
        return iter_bits(self.edges)

    @cached_property
    def _decoded(self) -> tuple[tuple[KSubset, ...], tuple[int, ...]]:
        """(edge tuples, vertex masks) in colex-rank order, decoded once.

        Kept in the instance dict, not in a field, so equality and hashing
        still see only (n, k, edges, edge_count).
        """
        tuples = tuple(unrank_colex(r, self.k, self.n) for r in self.edge_ranks())
        return tuples, tuple(_vertex_mask(e) for e in tuples)

    @cached_property
    def _degrees(self) -> tuple[int, ...]:
        """Degree of every vertex 1..n, counted once from the decoded edges."""
        deg = [0] * self.n
        for e in self._decoded[0]:
            for v in e:
                deg[v - 1] += 1
        return tuple(deg)

    def edge_tuples(self) -> list[KSubset]:
        """Edges as vertex tuples, in colex-rank order (a fresh list)."""
        return list(self._decoded[0])

    def vertex_masks(self) -> list[int]:
        """Each edge as an n-bit vertex mask (bit v-1 set iff v in edge)."""
        return list(self._decoded[1])

    def has_edge(self, elements: Iterable[int]) -> bool:
        s = validate_ksubset(elements, self.n)
        if len(s) != self.k:
            return False
        return bool(self.edges >> rank_colex(s) & 1)

    def with_edge(self, elements: Iterable[int]) -> "Family":
        s = validate_ksubset(elements, self.n)
        if len(s) != self.k:
            raise DomainError(f"edge {s} has size {len(s)}, expected {self.k}")
        return Family.from_ranks(self.n, self.k, self.edges | (1 << rank_colex(s)))

    def without_rank(self, rank: int) -> "Family":
        return Family.from_ranks(self.n, self.k, self.edges & ~(1 << rank))


def _vertex_mask(edge: KSubset) -> int:
    m = 0
    for v in edge:
        m |= 1 << (v - 1)
    return m


def incidence(masks: Sequence[int], n: int) -> list[int]:
    """Incidence bitsets: bit i of entry v-1 is set iff ``masks[i]`` contains v.

    For the complete family in colex-rank order, entry v-1 is the star of v.
    With the masks written as rows of n binary digits, last mask first, the
    column of vertex v, read as a binary numeral, is its bitset.
    """
    rows = "".join(format(m, f"0{n}b") for m in reversed(masks))
    return [int(rows[n - 1 - v :: n] or "0", 2) for v in range(n)]


def meets(through: Sequence[int], masks: Sequence[int]) -> list[int]:
    """For each mask, the OR of its vertices' incidence bitsets in ``through``."""
    out = [0] * len(masks)
    for star, column in zip(through, incidence(masks, len(through))):
        for i in iter_bits(column):
            out[i] |= star
    return out


def is_intersecting(family: Family) -> bool:
    """True iff every two edges share a vertex (vacuously for <= 1 edge)."""
    return family.edge_count <= 1 or are_cross_intersecting(family, family)


def are_cross_intersecting(left: Family, right: Family) -> bool:
    """True iff every edge of ``left`` meets every edge of ``right``."""
    if (left.n, left.k) != (right.n, right.k):
        raise DomainError(
            f"cross-intersecting requires matching (n, k); "
            f"got ({left.n}, {left.k}) vs ({right.n}, {right.k})"
        )
    lmasks = left.vertex_masks()
    full = (1 << len(lmasks)) - 1
    return all(m == full for m in meets(incidence(lmasks, left.n), right.vertex_masks()))


def degree(family: Family, subset: Iterable[int]) -> int:
    """Number of edges containing ``subset``; requires |subset| < k."""
    s = validate_ksubset(subset, family.n)
    if len(s) >= family.k:
        raise DomainError(f"degree: |S| = {len(s)} must be smaller than k = {family.k}")
    smask = _vertex_mask(s)
    return sum(1 for m in family.vertex_masks() if m & smask == smask)


@dataclass(frozen=True)
class DegreeProfile:
    """Degrees of every d-subset of [n]; absent keys have degree 0."""

    n: int
    d: int
    degrees: dict[KSubset, int]

    def minimum(self) -> int:
        if len(self.degrees) < binomial(self.n, self.d):
            return 0
        return min(self.degrees.values())

    def maximum(self) -> int:
        return max(self.degrees.values(), default=0)


def degree_profile(family: Family, d: int) -> DegreeProfile:
    """Degrees of all d-subsets, computed by expanding each edge once."""
    if d < 0 or d >= family.k:
        raise DomainError(f"degree profile needs 0 <= d < k, got d={d}, k={family.k}")
    counts: dict[KSubset, int] = {}
    for e in family.edge_tuples():
        for s in combinations(e, d):
            counts[s] = counts.get(s, 0) + 1
    return DegreeProfile(family.n, d, counts)


def vertex_degrees(family: Family) -> list[int]:
    """Degree of every vertex 1..n, as a fresh list indexed by v-1."""
    return list(family._degrees)


def min_degree(family: Family, d: int) -> int:
    """Minimum degree over all d-subsets of [n]; d = 0 gives the edge count."""
    if d < 0 or d >= family.k:
        raise DomainError(f"min_degree needs 0 <= d < k, got d={d}, k={family.k}")
    if d == 0:
        return family.edge_count
    if d == 1:
        return min(vertex_degrees(family), default=0)
    return degree_profile(family, d).minimum()


def link(family: Family, v: int) -> Family:
    """Link of vertex v: edges through v with v removed.

    The result is (k-1)-uniform on [n-1]; vertices above v shift down by
    one so the relabeling is order-preserving.
    """
    if v < 1 or v > family.n:
        raise DomainError(f"vertex {v} outside ground set [1, {family.n}]")
    relabeled = []
    for e in family.edge_tuples():
        if v in e:
            relabeled.append(tuple(u if u < v else u - 1 for u in e if u != v))
    return Family.from_edges(family.n - 1, family.k - 1, relabeled)
