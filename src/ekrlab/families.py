"""Exact combinatorics substrate: k-uniform set families on [n].

A family is stored as a bitset over the colexicographic ranks of its edges,
so membership tests and set algebra on whole families are single big-int
operations.  Where a shape's rank-space stars (:func:`_stars`, the ranks
through each vertex) cost at most ``_STAR_RATIO`` bits per edge vertex, a
family's degrees are n popcounts of its bitset ANDed with them, and a meet
question decodes only the edges off one hub vertex.  Elsewhere
:attr:`Family.through`, transposed once, maps each vertex on some edge to the
edges through it, and :func:`meet_rows` streams meets as its ORs, edge by
edge.  Per-vertex state is keyed by the support alone: a vertex on no edge
has degree 0 and an empty row.  Vertices are 1-based, edges are increasing
vertex tuples, counting is exact.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, combinations, compress
from math import comb
from typing import Iterable, Iterator, Mapping, Sequence

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
    of the whole int once per bit.  Meant for family-wide bitsets: the
    clique enumeration and the conjecture scan's rank draws pop the bits of
    their at most 64-bit ones inline, and the exhaustive scans read whole
    bytes of a family's bitset through per-shape lookup tables.
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
    return _rank_validated(validate_ksubset(s))


def _rank_validated(s: KSubset) -> int:
    return sum(comb(a - 1, i) for i, a in enumerate(s, start=1))


@lru_cache(maxsize=256)
def kset_count(n: int, k: int) -> int | None:
    """C(n,k) for 0 <= k <= n, or None above 2^13288, a 4001-digit cap
    (CPython prints no int of over 4300 digits).  C(n,i) grows up to i =
    min(k, n-k) and is at least 2^i there, so stopping past the cap takes at
    most about 13,300 steps, where math.comb takes seconds at (10^6, 5*10^5)."""
    cap, total, i = 1 << 13_288, 1, 0
    while total <= cap and i < min(k, n - k):
        i += 1
        total = total * (n + 1 - i) // i
    return total if total <= cap else None


def gated_kset_count(n: int, k: int, limit: str = "FAMILY_KSET_LIMIT") -> int:
    """C(n,k) for 0 <= k <= n; above ``limits.<limit>``, a ResourceLimitError naming it."""
    total, cap = kset_count(n, k), getattr(limits, limit)
    if total is None or total > cap:
        count = "" if total is None else f" = {total}"  # too large to print: shape only
        raise ResourceLimitError(f"C(n,k) = C({n},{k}){count} k-sets exceed {limit} = {cap}")
    return total


# Scan every rank when C(n,k) <= 32 e.  Walk / scan time at C/e = 16, 32, 48, 64
# and 128, one random family per (k, n), best of 25 in process, shared 2-CPU VM:
#   k=3 n=24: 1.41 1.16 1.05 0.80 0.54   n=40: 1.24 1.02 0.92 0.72 0.56
#   k=4 n=18: 1.66 1.48 1.25 1.05 0.69   n=24: 1.64 1.31 1.12 0.94 0.64
#   k=5 n=16: 1.60 1.70 1.40 1.14 0.72   n=20: 1.86 1.53 1.36 1.16 0.71
#   k=6 n=16: 2.27 1.74 1.38 1.27 0.82   n=18: 2.01 1.69 1.40 1.30 0.80
#   k=7 n=16: 1.86 2.82 1.56 1.34 0.87   n=17: 2.41 1.83 1.51 1.27 0.88
#   k=8 n=17: 2.51 1.97 1.53 1.41 0.92   n=18: 2.31 1.92 1.56 1.33 0.88
# At k = 2 it is 0.39-0.82 at C/e = 32 (n = 8..100), so k = 2 stays on the walk.
_DENSE_RATIO = 32
_BITS_TO_BYTES = bytes.maketrans(b"01", b"\0\1")


def _decode_blocks(bits: int, k: int, n: int, e: int) -> tuple[KSubset, ...]:
    """Edge tuples at the e set bits of ``bits``, each below C(n,k), in
    colex-rank order.  At k = 1 rank r is {r+1}.  A dense family at k >= 3 is
    one scan: ``combinations`` of [n] listed downwards run in descending colex
    order, as do the bitset's binary digits.  Otherwise a walk: ranks
    [C(t-1,i), C(t,i)) are the i-sets with top vertex t, offset by the rank of
    the rest in [t-1] (Knuth, TAOCP 4A, 7.2.1.3).  A frame holds the bits of
    ranks [C(a-1,i), C(b-1,i)), top vertex in [a, b), shifted down by
    C(a-1,i), and halves them by top vertex with one comb until one is left;
    at level 1 bit j is vertex j+1.  ``top[i:]`` holds the frame's upper
    vertices, so an edge costs O(k), not O(k^2), beyond its level-1 pop.
    """
    if k == 0:
        return ((),) if bits else ()
    if k == 1:
        return tuple((r + 1,) for r in iter_bits(bits))
    if k >= 3 and (total := comb(n, k)) <= _DENSE_RATIO * e:
        picks = format(bits, f"0{total}b").encode().translate(_BITS_TO_BYTES)
        tuples = [s[::-1] for s in compress(combinations(range(n, 0, -1), k), picks)]
        return tuple(reversed(tuples))
    tuples, top = [], [0] * k
    stack = [(bits, k, k, n + 1, 0)]
    while stack:
        x, i, a, b, base = stack.pop()
        if i == 1:
            while x:
                bit = x & -x
                top[0] = bit.bit_length()
                tuples.append(tuple(top))
                x ^= bit
        elif b - a > 1:
            mid = (a + b) // 2
            cut = comb(mid - 1, i) - base
            if x.bit_length() > cut:  # else no mask as wide as the rank range
                stack.append((x >> cut, i, mid, b, base + cut))
                x &= (1 << cut) - 1
            if x:
                stack.append((x, i, a, mid, base))
        else:
            top[i - 1] = a
            stack.append((x, i - 1, i - 1, a, 0))
    return tuple(tuples)


def _digit_rows(edges: Sequence[KSubset], width: int) -> dict[int, int]:
    """For each vertex on some edge, a binary row with a field of ``width``
    bits per edge, edge 0 lowest: edge i's field holds 1 iff edge i holds the
    vertex, else 0.  Each edge, last first, writes a "1" into the low bit of
    its field in the row of each of its vertices; one ``int`` per row.
    """
    blank, rows = b"0" * (len(edges) * width), defaultdict(lambda: bytearray(blank))
    for i, edge in zip(range(width - 1, len(blank), width), reversed(edges)):
        for v in edge:
            rows[v][i] = 49  # ord("1")
    return {v: int(row, 2) for v, row in rows.items()}


def unrank_colex(r: int, k: int, n: int) -> KSubset:
    """Inverse of :func:`rank_colex` on the k-subsets of [n].

    The combinatorial number system (Knuth, TAOCP 4A, 7.2.1.3): from level
    k down, a_i - 1 is the largest b below the previous coordinate with
    C(b, i) <= r, stepping C(b-1, i) = C(b, i)(b-i)/b down, and C(b, i) is
    taken off r; level 1 is r.  Gated by FAMILY_KSET_LIMIT on every call.
    """
    if k < 0 or k > n:
        raise DomainError(f"unrank_colex: need 0 <= k <= n, got k={k}, n={n}")
    total = gated_kset_count(n, k)
    if r < 0 or r >= total:
        raise DomainError(f"rank {r} out of range [0, {total}) at (n={n}, k={k})")
    out, b = [], n
    for i in range(k, 1, -1):
        b, c = b - 1, comb(b - 1, i)
        while c > r:
            b, c = b - 1, c * (b - i) // b
        r -= c
        out.append(b + 1)
    return (r + 1, *out[::-1]) if k else ()


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

    def __post_init__(self) -> None:
        if self.k < 0 or self.k > self.n or self.n < 0:
            raise DomainError(f"invalid uniformity (n={self.n}, k={self.k})")
        total = kset_count(self.n, self.k)  # None: more ranks than any bitset holds
        if self.edges < 0 or total is not None and self.edges.bit_length() > total:
            raise DomainError("edge bitset has bits outside the valid rank range")

    @classmethod
    def from_ranks(cls, n: int, k: int, bits: int) -> "Family":
        return cls(n, k, bits)

    @classmethod
    def from_edges(cls, n: int, k: int, edges: Iterable[Iterable[int]]) -> "Family":
        """The family of the given edges; C(n,k) is gated before any bit is set.
        The bits go into one bytearray, converted once: O(e + C(n,k)/8)."""
        # at n < 0 no gate runs and only () validates: one byte holds its rank 0
        buf = bytearray((gated_kset_count(n, k) + 7) // 8 if n >= 0 else 1)
        for e in edges:
            s = validate_ksubset(e, n)
            if len(s) != k:
                raise DomainError(f"edge {s} has size {len(s)}, expected {k}")
            byte, bit = divmod(_rank_validated(s), 8)
            if buf[byte] >> bit & 1:
                raise DomainError(f"duplicate edge {s}")
            buf[byte] |= 1 << bit
        return cls(n, k, int.from_bytes(buf, "little"))

    @classmethod
    def empty(cls, n: int, k: int) -> "Family":
        return cls(n, k, 0)

    @cached_property
    def edge_count(self) -> int:
        """Popcount of the edge bitset, cached in the instance dict."""
        return self.edges.bit_count()

    def __len__(self) -> int:
        return self.edge_count

    def __iter__(self) -> Iterator[KSubset]:
        return iter(self.edge_tuples())

    def edge_ranks(self) -> Iterator[int]:
        """Set bit positions of the edge bitset, ascending."""
        return iter_bits(self.edges)

    @cached_property
    def _decoded(self) -> tuple[KSubset, ...]:
        """Edge tuples in colex-rank order, decoded once.

        Kept in the instance dict, not in a field, so equality and hashing
        still see only (n, k, edges).  Gated once, like :func:`unrank_colex`.
        """
        gated_kset_count(self.n, self.k)
        return _decode_blocks(self.edges, self.k, self.n, self.edge_count)

    @cached_property
    def through(self) -> dict[int, int]:
        """Each vertex on some edge, ascending, to its row: bit i is set iff
        edge i contains the vertex (its star in the complete family), scattered
        as one-bit fields.  Cached in the instance dict."""
        rows = _digit_rows(self.edge_tuples(), 1)
        return {v: rows[v] for v in sorted(rows)}

    @cached_property
    def _degrees(self) -> Counter[int]:
        """Degree of each vertex on some edge, counted once; a vertex on no
        edge reads 0.  Within the star rule n popcounts of the bitset ANDed
        with the stars, with no decode; else a count over the decoded edges."""
        stars = _star_table(self)
        if stars is None:
            return Counter(chain.from_iterable(self._decoded))
        edges = self.edges
        return Counter({v: d for v, star in stars.items() if (d := (edges & star).bit_count())})

    def edge_tuples(self) -> list[KSubset]:
        """Edges as vertex tuples, in colex-rank order (a fresh list)."""
        return list(self._decoded)

    def vertex_masks(self) -> list[int]:
        """Each edge as an n-bit vertex mask (bit v-1 set iff v in edge), built anew."""
        return [sum(1 << (v - 1) for v in edge) for edge in self.edge_tuples()]

    def has_edge(self, elements: Iterable[int]) -> bool:
        s = validate_ksubset(elements, self.n)
        if len(s) != self.k:
            return False
        return bool(self.edges >> _rank_validated(s) & 1)

    def with_edge(self, elements: Iterable[int]) -> "Family":
        s = validate_ksubset(elements, self.n)
        if len(s) != self.k:
            raise DomainError(f"edge {s} has size {len(s)}, expected {self.k}")
        return Family.from_ranks(self.n, self.k, self.edges | (1 << _rank_validated(s)))

    def without_rank(self, rank: int) -> "Family":
        return Family.from_ranks(self.n, self.k, self.edges & ~(1 << rank))


# Read degrees off the stars when n C(n,k) <= 64 k e: the table then holds at
# most 8 bytes per edge vertex, what the decoded tuples' pointers take.  Time of
# n popcounts over a decode and count at n C(n,k) / (k e) = 16, 64, 256, 1024 and
# 4096, with the table cached (warm) or built in the call (cold), one random
# family per (k, n), best of 15 in process, shared 2-CPU VM:
#   k=2 n=30: warm 0.05 0.19 0.28 0.48 0.80  cold 0.70 1.85 3.80 7.89 14.5
#   k=3 n=24: warm 0.03 0.09 0.10 0.21 0.54  cold 0.77 1.53 0.99 3.24 10.6
#   k=4 n=18: warm 0.03 0.07 0.07 0.19 0.43  cold 0.40 1.00 0.98 2.99 8.50
#   k=5 n=16: warm 0.02 0.06 0.06 0.16 0.43  cold 0.36 0.86 0.92 2.45 8.49
#   k=6 n=16: warm 0.02 0.05 0.05 0.14 0.25  cold 0.45 0.92 0.71 1.96 5.68
#   k=8 n=18: warm 0.02 0.05 0.05 0.15 0.36  cold 0.14 0.38 0.38 1.26 2.89
# At (12,3), (12,4) and (13,5) cold reads 3.7, 3.2 and 2.1 at 64.  A warm table
# wins at every ratio; within 64 a cold one costs at most a few decodes.
_STAR_RATIO = 64


@lru_cache(maxsize=8)
def _stars(n: int, k: int) -> dict[int, int]:
    """Each vertex v of [n], ascending, to its star: the bitset of the colex
    ranks of the k-subsets of [n] through v, for 1 <= k <= n.  Built level by
    level: the i-sets with top vertex t sit at C(t-1,i) plus the rank of the
    rest in [t-1], whatever n is, so the i-sets through v are one block, those
    with top v, and for each top t > v the (i-1)-sets of [t-1] through v
    shifted up by C(t-1,i).  Callers gate C(n,k) and apply the star rule."""
    rows = [1 << v for v in range(n)]  # level 1: {v+1} has rank v
    for i in range(2, k + 1):
        cuts = [((1 << comb(t, i - 1)) - 1, comb(t, i)) for t in range(n)]  # top t+1
        rows = [(cuts[v][0] << cuts[v][1])
                | sum((row & mask) << shift for mask, shift in cuts[v + 1:])
                for v, row in enumerate(rows)]
    return dict(enumerate(rows, start=1))


def _star_table(family: Family) -> dict[int, int] | None:
    """The stars of the family's shape if n C(n,k) <= _STAR_RATIO k e, else
    None.  As e <= C(n,k), n <= _STAR_RATIO k is read first; C(n,k) is then
    gated as a decode would gate it."""
    n, k, e = family.n, family.k, family.edge_count
    if k and n <= _STAR_RATIO * k and n * gated_kset_count(n, k) <= _STAR_RATIO * k * e:
        return _stars(n, k)
    return None


def _meeting(through: Mapping[int, int], vertices: Iterable[int]) -> int:
    """The edges through any of ``vertices``: the OR of their rows in
    ``through``, where a vertex off the support has none."""
    row = 0
    for v in vertices:
        row |= through.get(v, 0)
    return row


def meet_rows(through: Mapping[int, int], edges: Iterable[KSubset]) -> Iterator[int]:
    """For each edge, the OR of its vertices' bitsets in ``through``: the
    edges of the transposed family that meet it, one row at a time."""
    return (_meeting(through, edge) for edge in edges)


def is_intersecting(family: Family) -> bool:
    """True iff every two edges share a vertex (vacuously for <= 1 edge)."""
    return family.edge_count <= 1 or are_cross_intersecting(family, family)


def are_cross_intersecting(left: Family, right: Family) -> bool:
    """True iff every edge of ``left`` meets every edge of ``right``, at once
    if either side is empty.  The hub, the vertex of largest total degree
    (lowest on ties), meets every two edges through it.  Within the star rule
    only the edges of each side off the hub are decoded, and each must meet
    all of the other side: one AND with the OR of its vertices' stars.  Else a
    hub on every edge of both settles it, and otherwise ``left`` is transposed
    and the meet rows decide (with no support on either side, at k = 0)."""
    if (left.n, left.k) != (right.n, right.k):
        raise DomainError(
            f"cross-intersecting requires matching (n, k); "
            f"got ({left.n}, {left.k}) vs ({right.n}, {right.k})"
        )
    if not left.edges or not right.edges:
        return True
    ldeg, rdeg = left._degrees, right._degrees
    hub = max(ldeg.keys() | rdeg.keys(), key=lambda v: (ldeg[v] + rdeg[v], -v), default=None)
    stars = _star_table(left)
    if stars is not None and _star_table(right) is not None:
        return _off_hub_meet(left, right, stars, hub) and (
            left.edges == right.edges or _off_hub_meet(right, left, stars, hub))
    if (ldeg[hub], rdeg[hub]) == (left.edge_count, right.edge_count):
        return True
    full = (1 << left.edge_count) - 1
    return all(row == full for row in meet_rows(left.through, right.edge_tuples()))


def _off_hub_meet(side: Family, other: Family, stars: Mapping[int, int], hub: int) -> bool:
    """True iff every edge of ``side`` off ``hub`` meets every edge of ``other``."""
    off, want = side.edges & ~stars[hub], other.edges
    return all(want & _meeting(stars, edge) == want
               for edge in _decode_blocks(off, side.k, side.n, off.bit_count()))


def degree(family: Family, subset: Iterable[int]) -> int:
    """Number of edges containing ``subset``; requires |subset| < k."""
    s = validate_ksubset(subset, family.n)
    if len(s) >= family.k:
        raise DomainError(f"degree: |S| = {len(s)} must be smaller than k = {family.k}")
    common = (1 << family.edge_count) - 1
    for v in s:
        common &= family.through.get(v, 0)
    return common.bit_count()


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
    counts = Counter(chain.from_iterable(combinations(e, d) for e in family._decoded))
    return DegreeProfile(family.n, d, counts)


def vertex_degrees(family: Family) -> list[int]:
    """Degree of every vertex 1..n, as a fresh list indexed by v-1."""
    deg = family._degrees
    return [deg.get(v, 0) for v in range(1, family.n + 1)]


def _delta1(family: Family) -> int:
    """Minimum vertex degree over [n], 0 unless every vertex is on an edge."""
    deg = family._degrees
    return min(deg.values()) if family.n and len(deg) == family.n else 0


def min_degree(family: Family, d: int) -> int:
    """Minimum degree over all d-subsets of [n]; d = 0 gives the edge count."""
    if d < 0 or d >= family.k:
        raise DomainError(f"min_degree needs 0 <= d < k, got d={d}, k={family.k}")
    if d == 0:
        return family.edge_count
    if d == 1:
        return _delta1(family)
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
