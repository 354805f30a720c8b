"""Workloads of the ekrlab benchmark: seeded rounds of jobs and their checks.

Every workload is a closed loop with a single client.  A run executes whole
rounds.  A round has a fixed composition, so every run measures the same
input mix, and fresh inputs drawn from the seed and the round number, so the
same seed gives the same inputs.  A job is one call sequence through
ekrlab's public API, or one ``python -m ekrlab`` process.  ``Family``
objects are built inside the timed call from rank bitsets, so no job sees a
family object an earlier job has touched.

Checks use the benchmark's own combinatorics (colex ranks, vertex degrees,
disjoint-pair counts), never the library's, and return the verdict values
that go into the workload digest.  Witnesses and LP weight vectors are
validated but left out of the digest: another optimal cover or maximum
matching is as correct as the one found today.
"""

from __future__ import annotations

import csv
import hashlib
import io as _io
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Any, Callable

# Round-0 verdict digest of each workload at the default seed.
DEFAULT_SEED = 0
PINNED_DIGESTS = {
    "certify": "3c8e57629edf8a90",
    "matchings": "27518a2116617333",
    "scans": "9dd09abdf2de5462",
    "cli-cold": "ff9f2e01813f7e7b",
}


class CheckFailed(Exception):
    """A job's output violates an invariant."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Job:
    """One timed unit of work; ``families`` counts the families passed in."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple]
    families: int = 0
    after: Callable[[Any], None] | None = None


def digest(verdicts: list[tuple]) -> str:
    return hashlib.sha256(repr(verdicts).encode()).hexdigest()[:16]


# --- combinatorics owned by the benchmark ---------------------------------

def colex_rank(edge: tuple[int, ...]) -> int:
    return sum(comb(v - 1, i) for i, v in enumerate(edge, start=1))


def colex_unrank(r: int, n: int, k: int) -> tuple[int, ...]:
    out = []
    a = n
    for i in range(k, 0, -1):
        while comb(a - 1, i) > r:
            a -= 1
        out.append(a)
        r -= comb(a - 1, i)
    return tuple(reversed(out))


def to_bits(edges) -> int:
    bits = 0
    for e in edges:
        bits |= 1 << colex_rank(e)
    return bits


def random_edges(rng: random.Random, n: int, k: int, e: int) -> list[tuple[int, ...]]:
    return [colex_unrank(r, n, k) for r in sorted(rng.sample(range(comb(n, k)), e))]


def degrees(edges, n: int) -> list[int]:
    deg = [0] * n
    for e in edges:
        for v in e:
            deg[v - 1] += 1
    return deg


def mask(edge) -> int:
    m = 0
    for v in edge:
        m |= 1 << (v - 1)
    return m


def ordered_disjoint_pairs(edges) -> int:
    """h^T A h by inclusion-exclusion: sum over vertex sets T of (-1)^|T| deg(T)^2."""
    deg: dict[int, int] = {}
    for e in edges:
        m = mask(e)
        sub = m
        while True:
            deg[sub] = deg.get(sub, 0) + 1
            if not sub:
                break
            sub = (sub - 1) & m
    return sum((-1) ** t.bit_count() * d * d for t, d in deg.items())


def is_matching_of(witness_edges, edge_set) -> bool:
    used = 0
    for e in witness_edges:
        m = mask(e)
        if tuple(e) not in edge_set or used & m:
            return False
        used |= m
    return True


def star_edges(n: int, k: int) -> list[tuple[int, ...]]:
    return [(1,) + c for c in combinations(range(2, n + 1), k - 1)]


def hilton_milner_edges(n: int, k: int) -> list[tuple[int, ...]]:
    blocker = set(range(2, k + 2))
    return [tuple(range(2, k + 2))] + [
        (1,) + c for c in combinations(range(2, n + 1), k - 1) if blocker.intersection(c)
    ]


def meet_edges(n: int, k: int, s: int) -> list[tuple[int, ...]]:
    """k-sets meeting {1, ..., s-1}: the i = 1 extremal family with no s-matching."""
    return [e for e in combinations(range(1, n + 1), k) if e[0] <= s - 1]


def min_degree_family(rng: random.Random, n: int, k: int, floor: int) -> list[tuple[int, ...]]:
    """Random k-family on [n] in which every vertex has degree >= floor."""
    chosen: dict[tuple[int, ...], None] = {}
    deg = [0] * n
    for v in range(1, n + 1):
        others = [u for u in range(1, n + 1) if u != v]
        while deg[v - 1] < floor:
            e = tuple(sorted([v] + rng.sample(others, k - 1)))
            if e not in chosen:
                chosen[e] = None
                for u in e:
                    deg[u - 1] += 1
    return sorted(chosen, key=colex_rank)


def kneser_eigenvalues(n: int, k: int) -> list[int]:
    return [(-1) ** j * (comb(n - k - j, k - j) if n - k - j >= 0 else 0) for j in range(k + 1)]


def _frac(x) -> str:
    return str(Fraction(x))


# --- library checks --------------------------------------------------------

def check_masses(masses, e: int) -> None:
    expect(all(m >= 0 for m in masses), f"negative mass in {masses}")
    expect(sum(masses) == e, f"masses sum to {sum(masses)}, not e = {e}")


def check_ekr(cert, edges, n: int, k: int) -> tuple:
    e = len(edges)
    deg = degrees(edges, n)
    threshold = Fraction(n, k) * comb(n - 2, k - 2)
    star_count = comb(n - 1, k - 1)
    expect(cert.e == e and cert.delta1 == min(deg), "edge count or delta_1 wrong")
    expect(cert.f0 == Fraction(e * e, comb(n, k)), "F_0 differs from e^2 / C(n,k)")
    check_masses((cert.f0, cert.f1, cert.residual), e)
    expect(cert.lower_bound_rhs == Fraction(n - 1, comb(n, k)) * e * (e - threshold),
           "mass lower bound evaluated wrongly")
    expect(cert.eq4_holds is True, "mass lower bound fails on an intersecting family")
    expect(cert.witness.holds is True, "simplex witness inequality fails")
    if min(deg) >= comb(n - 2, k - 2):
        expect(cert.eq6_holds is True, "mass upper bound fails")
    else:
        expect(cert.eq6_holds is None, "upper branch evaluated outside its hypothesis")
    want = ("AtMostThreshold" if e <= threshold
            else "AtLeastStarCount" if e >= star_count else "Inconclusive")
    expect(cert.dichotomy.value == want, f"dichotomy {cert.dichotomy.value}, expected {want}")
    expect(cert.is_star == (e == star_count and max(deg) == e), "star verdict wrong")
    return ("ekr", n, k, e, cert.delta1, _frac(cert.f0), _frac(cert.f1), _frac(cert.residual),
            cert.eq4_holds, cert.eq6_holds, cert.dichotomy.value, cert.is_star,
            _frac(cert.witness.lhs), _frac(cert.witness.rhs_squared),
            cert.witness.holds, cert.witness.equality)


def check_witness(rep, edges, n: int, k: int) -> tuple:
    deg = degrees(edges, n)
    expect(rep.lhs == min(deg) - Fraction(k * len(edges), n), "witness left side wrong")
    expect(rep.rhs_squared >= 0 and rep.holds is True, "simplex witness inequality fails")
    return ("witness", n, k, len(edges), _frac(rep.lhs), _frac(rep.rhs_squared),
            rep.holds, rep.equality)


def check_cross(cert, left, right, n: int, k: int) -> tuple:
    db, dc = min(degrees(left, n)), min(degrees(right, n))
    expect((cert.size_b, cert.size_c, cert.delta1_b, cert.delta1_c)
           == (len(left), len(right), db, dc), "cross sizes or degrees wrong")
    expect(cert.b1 >= 0 and cert.c1 >= 0, "negative F_1 mass")
    expect(cert.ineq10_holds is True, "cross mass bound fails")
    expect(cert.product_bound_holds is True and db * dc <= comb(n - 2, k - 2) ** 2,
           "degree product bound fails")
    return ("cross", n, k, len(left), len(right), db, dc, _frac(cert.b1), _frac(cert.c1),
            cert.ineq10_holds, cert.ineq10_equality, cert.product_bound_holds)


def check_spectral(sm, edges, n: int, k: int) -> tuple:
    e = len(edges)
    expect(len(sm.masses) == k + 1, "wrong number of eigenspace masses")
    check_masses(sm.masses, e)
    expect(sm.masses[0] == Fraction(e * e, comb(n, k)), "F_0 differs from e^2 / C(n,k)")
    quad = ordered_disjoint_pairs(edges)
    expect(sm.quad_form == quad, f"quadratic form {sm.quad_form}, expected {quad}")
    lams = kneser_eigenvalues(n, k)
    expect(sum(l * f for l, f in zip(lams, sm.masses)) == quad, "masses violate h^T A h")
    return ("masses", n, k, e, sm.quad_form) + tuple(_frac(m) for m in sm.masses)


def check_lp_triple(result, edges, n: int, k: int) -> tuple:
    """nu <= nu* = tau*, with every witness and weight vector validated."""
    (nu, witness), frac_m, frac_c = result
    edge_set = set(edges)
    expect(len(witness.edges) == nu and is_matching_of(witness.edges, edge_set),
           "matching witness is not a set of disjoint family edges")
    ranks = {colex_rank(e): e for e in edges}
    expect(set(frac_m.weights) <= set(ranks), "matching weight on a non-edge")
    load = [Fraction(0)] * (n + 1)
    for r, w in frac_m.weights.items():
        expect(0 <= w <= 1, f"matching weight {w} outside [0, 1]")
        for v in ranks[r]:
            load[v] += w
    expect(max(load) <= 1, "fractional matching overloads a vertex")
    expect(sum(frac_m.weights.values()) == frac_m.objective, "matching objective wrong")
    cover = frac_c.weights
    expect(all(0 <= w <= 1 for w in cover.values()), "cover weight outside [0, 1]")
    expect(all(sum(cover.get(v, 0) for v in e) >= 1 for e in edges), "cover misses an edge")
    expect(sum(cover.values()) == frac_c.objective, "cover objective wrong")
    expect(frac_m.objective == frac_c.objective, "nu* != tau*")
    expect(nu <= frac_m.objective, "nu > nu*")
    return ("lp", n, k, len(edges), nu, _frac(frac_m.objective), _frac(frac_c.objective))


# --- library workloads -----------------------------------------------------

class LibraryWorkload:
    name = ""
    tracer = None  # set by the worker while it runs a traced round

    def __init__(self, seed: int):
        self.seed = seed
        import ekrlab
        self.lib = ekrlab

    def rng(self, r: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{r}")

    def _on_family(self, api: str, check, n: int, k: int, edges, tag: str = "") -> Job:
        """``ekrlab.<api>(family)``, looked up at call time so tracing sees it."""
        bits = to_bits(edges)
        lib = self.lib
        return Job(f"{api}({n},{k}{tag})",
                   lambda: getattr(lib, api)(lib.Family.from_ranks(n, k, bits)),
                   lambda out: check(out, edges, n, k), 1)


class Certify(LibraryWorkload):
    """Certificates and eigenspace masses: spectral, certificates, families."""

    name = "certify"
    EKR = [((11, 4), "star"), ((11, 4), "hm"), ((13, 5), "star"), ((13, 5), "hm"),
           ((14, 5), "star"), ((14, 5), "hm")]
    # One subfamily of each base at (11,4), three at (13,5) and (14,5): the
    # median latency then falls inside the six ekr_certificate(13,5) jobs,
    # not on the edge between two groups of different cost.
    EKR_COUNTS = (1, 1, 3, 3, 3, 3)
    CROSS = [(11, 4)] * 4 + [(13, 5)] * 4
    WITNESS = [(11, 4, 100), (12, 4, 200), (13, 5, 300), (14, 5, 400)]
    MASSES = [(9, 4, 60)] * 2 + [(12, 5, 200)] * 2 + [(14, 5, 400)] * 2 + \
        [(18, 5, 800), (18, 5, 1150), (18, 5, 1500)] + [(16, 6, 300)] * 3 + \
        [(20, 6, 250), (15, 7, 300)]

    def setup(self) -> None:
        self.bases = {}
        for (n, k), kind in self.EKR:
            built = self.lib.star(n, k) if kind == "star" else self.lib.hilton_milner(n, k)
            edges = star_edges(n, k) if kind == "star" else hilton_milner_edges(n, k)
            expect(built.edges == to_bits(edges), f"{kind}({n},{k}) differs from its definition")
            self.bases[(n, k, kind)] = sorted(edges, key=colex_rank)

    def _ekr(self, n, k, edges) -> Job:
        return self._on_family("ekr_certificate", check_ekr, n, k, edges)

    def _cross(self, n, k, left, right) -> Job:
        lb, rb = to_bits(left), to_bits(right)
        fam = self.lib.Family.from_ranks
        return Job(f"cross_certificate({n},{k})",
                   lambda: self.lib.cross_certificate(fam(n, k, lb), fam(n, k, rb)),
                   lambda out: check_cross(out, left, right, n, k), 2)

    def _witness(self, n, k, edges) -> Job:
        return self._on_family("simplex_witness", check_witness, n, k, edges)

    def _masses(self, n, k, edges) -> Job:
        return self._on_family("eigen_mass_full", check_spectral, n, k, edges, f",e={len(edges)}")

    def round(self, r: int) -> list[Job]:
        rng = self.rng(r)
        jobs = []
        for ((n, k), kind), count in zip(self.EKR, self.EKR_COUNTS):
            base = self.bases[(n, k, kind)]
            for _ in range(count):
                jobs.append(self._ekr(n, k, [e for e in base if rng.random() < 0.9]))
        for n, k in self.CROSS:
            base = self.bases[(n, k, "star")]
            jobs.append(self._cross(n, k, [e for e in base if rng.random() < 0.7],
                                    [e for e in base if rng.random() < 0.7]))
        for n, k, e in self.WITNESS:
            jobs.append(self._witness(n, k, random_edges(rng, n, k, e)))
        for n, k, e in self.MASSES:
            jobs.append(self._masses(n, k, random_edges(rng, n, k, e)))
        rng.shuffle(jobs)
        return jobs

    def warmups(self) -> list[Job]:
        rng = self.rng(-1)
        jobs = [self._ekr(n, k, self.bases[(n, k, kind)][:12]) for (n, k), kind in self.EKR]
        jobs += [self._cross(n, k, *[self.bases[(n, k, "star")][:8]] * 2)
                 for n, k in sorted(set(self.CROSS))]
        jobs += [self._witness(n, k, random_edges(rng, n, k, 12)) for n, k, _ in self.WITNESS]
        configs = sorted({(n, k) for n, k, _ in self.MASSES})
        jobs += [self._masses(n, k, random_edges(rng, n, k, 20)) for n, k in configs]
        return jobs


class Matchings(LibraryWorkload):
    """Exact matchings and the two rational LPs: lp, matching, families."""

    name = "matchings"
    # (n, k, e) slots of the random families.  The cover LP's cost climbs
    # steeply with n, k and e, so every round takes the same slots.  k = 3
    # stops at 32 edges: at 40 one random instance costs 0.7-2 s and a run's
    # cost would hang on a handful of them.  Ten jobs of a round cost less
    # than the fixed erdos_extremal(8,3,2) job (about 60 ms) and ten cost
    # more, and that job runs four times, so the median latency is always
    # one of its runs and does not depend on which random families the seed
    # draws.
    RANDOM = [(7, 2, 10), (8, 2, 15), (10, 2, 25), (11, 2, 27), (11, 2, 30), (12, 2, 35),
              (12, 2, 40), (7, 3, 10), (8, 3, 13), (9, 3, 14), (10, 3, 21), (11, 3, 24),
              (11, 3, 27), (12, 3, 28), (12, 3, 32)]
    MEDIAN_REPEATS = 4

    def setup(self) -> None:
        lib = self.lib
        rng = self.rng(-1)
        self.fixed = []
        for built, edges, nu, nu_star in (
                (lib.fano(), [tuple(e) for e in lib.constructions.FANO_EDGES], 1, Fraction(7, 3)),
                (lib.erdos_extremal(9, 2, 3, 1), meet_edges(9, 2, 3), 2, 2),
                (lib.erdos_extremal(8, 3, 2, 1), meet_edges(8, 3, 2), 1, 1)):
            expect(built.edges == to_bits(edges), "fixture differs from its definition")
            self.fixed.append((built.n, built.k, sorted(edges, key=colex_rank), nu, nu_star))
        # Minimum degree above C(n-1,k-1) - C(n-s,k-1) on n >= 3 k^2 s vertices.
        self.by_degree = [(37, 2, 3, min_degree_family(rng, 37, 2, 3)),
                          (54, 3, 2, min_degree_family(rng, 54, 3, 53))]
        # Corollary 3.3 at (7,3), s = 2: delta_1 > C(6,2) - C(5,2) = 5.
        self.cor33 = min_degree_family(rng, 7, 3, 6)

    def _lp(self, n, k, edges, expected=None) -> Job:
        bits = to_bits(edges)
        lib = self.lib

        def run():
            fam = lib.Family.from_ranks(n, k, bits)
            return (lib.matching_number(fam), lib.fractional_matching(fam),
                    lib.fractional_cover(fam))

        def check(out):
            verdict = check_lp_triple(out, edges, n, k)
            if expected is not None:
                expect((verdict[4], Fraction(verdict[5])) == expected,
                       f"(nu, nu*) = {verdict[4:6]}, expected {expected}")
            return verdict
        return Job(f"matching+LPs({n},{k},e={len(edges)})", run, check, 1)

    def _by_degree(self, n, k, s, edges) -> Job:
        bits = to_bits(edges)
        edge_set = set(edges)

        def check(out):
            matching, _ = out
            expect(len(matching) == s and is_matching_of(matching.edges, edge_set),
                   "constructed matching is not s disjoint family edges")
            return ("by-degree", n, k, s, len(edges), len(matching))
        return Job(f"find_matching_by_degree({n},{k},s={s})",
                   lambda: self.lib.find_matching_by_degree(
                       self.lib.Family.from_ranks(n, k, bits), s), check, 1)

    def _cor33(self) -> Job:
        bits = to_bits(self.cor33)

        def check(out):
            expect(out is True, "corollary 3.3 check did not certify nu* >= 2")
            return ("cor33", len(self.cor33), out)
        return Job("corollary33_check(7,3)",
                   lambda: self.lib.corollary33_check(self.lib.Family.from_ranks(7, 3, bits), 2),
                   check, 1)

    def _specials(self) -> list[Job]:
        jobs = [self._lp(n, k, edges, (nu, nu_star)) for n, k, edges, nu, nu_star in self.fixed]
        jobs += [self._by_degree(*spec) for spec in self.by_degree]
        return jobs + [self._cor33()]

    def round(self, r: int) -> list[Job]:
        rng = self.rng(r)
        n, k, edges, nu, nu_star = self.fixed[2]
        jobs = self._specials() + [self._lp(n, k, edges, (nu, nu_star))
                                   for _ in range(self.MEDIAN_REPEATS - 1)]
        for n, k, e in self.RANDOM:
            jobs.append(self._lp(n, k, random_edges(rng, n, k, e)))
        rng.shuffle(jobs)
        return jobs

    def warmups(self) -> list[Job]:
        rng = self.rng(-2)
        jobs = [self._lp(n, k, random_edges(rng, n, k, 6)) for k in (2, 3) for n in range(7, 13)]
        return jobs + self._specials()


def _scan_ekr_check(n, k):
    def check(rep):
        best = rep.best
        expect(rep.families_examined == SCAN_FAMILIES[(n, k)],
               f"{rep.families_examined} maximal families, expected {SCAN_FAMILIES[(n, k)]}")
        expect(best["max_delta1"] == comb(n - 2, k - 2) and best["all_at_max_are_stars"] is True,
               "maximum minimum degree not attained by stars only")
        expect(best["stars_seen"] == n and not rep.violations, "star count or violations wrong")
        return ("ekr-scan", n, k, rep.families_examined) + tuple(sorted(best.items()))
    return check


def _scan_cross_check(n, k):
    def check(rep):
        best, notes = rep.best, rep.notes
        m = SCAN_FAMILIES[(n, k)]
        expect(rep.families_examined == m, "wrong number of maximal families")
        expect(best["max_product"] == comb(n - 2, k - 2) ** 2 == best["bound"],
               "max product differs from C(n-2,k-2)^2")
        expect(best["maximizers_all_same_center_stars"] is True and not rep.violations,
               "a maximizer is not a pair of equal stars")
        expect(notes["ordered_pairs_total"] == m * m and notes["ordered_pairs_cross"] == m,
               "ordered pair counts wrong")
        return ("cross-scan", n, k, m, best["max_product"], len(best["maximizers"]),
                tuple(sorted(notes.items())))
    return check


def _scan_conjecture_check(n, k, s):
    def check(rep):
        best = rep.best
        threshold = comb(n - 1, k - 1) - comb(n - s, k - 1)
        expect(best["threshold"] == threshold, "conjecture threshold wrong")
        expect(n > k * s and not rep.violations, "conjecture violation reported for n > ks")
        expect(best["delta1"] <= threshold and best["nu"] < s, "best family breaks nu < s")
        edges = [tuple(e) for e in best["edges"]]
        expect(min(degrees(edges, n)) == best["delta1"], "best family delta_1 wrong")
        return ("conjecture-scan", n, k, s, best["delta1"], best["nu"],
                len(rep.notes["over_bound_examples"]))
    return check


# Maximal intersecting families: 6127 at (7,3); for k = 2 the n stars plus
# the C(n,3) triangles.
SCAN_FAMILIES = {(7, 3): 6127, (8, 3): 23936, (9, 2): 9 + 84, (11, 2): 11 + 165}


class Scans(LibraryWorkload):
    """Exhaustive and annealed scans: search (Bron-Kerbosch, pair loops), matching."""

    name = "scans"
    # 18 jobs.  Seven cost less than ekr_degree_scan(7,3) (the k = 2 scans
    # and the three cheaper conjecture scans), five cost more, and it runs
    # six times, so the median latency is always one of its runs.  The 90th
    # percentile falls inside the three cross_pair_scan(7,3) jobs.  The
    # conjecture scans' costs move with their seeds, and none of them
    # reaches the cost of ekr_degree_scan(7,3) from either side.
    EKR = [(7, 3)] * 6 + [(8, 3), (9, 2), (11, 2)]
    CROSS = [(7, 3)] * 3 + [(9, 2), (11, 2)]
    # Budgets spread over 1000-3000 and fixed per configuration; only the
    # annealing seed comes from the workload seed.
    CONJECTURE = [(9, 2, 3, 1000), (10, 2, 3, 1667), (8, 3, 2, 2333), (11, 2, 4, 3000)]

    def setup(self) -> None:
        pass

    def round(self, r: int) -> list[Job]:
        rng = self.rng(r)
        lib = self.lib
        jobs = [Job(f"ekr_degree_scan({n},{k})", lambda n=n, k=k: lib.ekr_degree_scan(n, k),
                    _scan_ekr_check(n, k)) for n, k in self.EKR]
        jobs += [Job(f"cross_pair_scan({n},{k})", lambda n=n, k=k: lib.cross_pair_scan(n, k),
                     _scan_cross_check(n, k), after=self._count_pairs) for n, k in self.CROSS]
        for n, k, s, budget in self.CONJECTURE:
            seed = rng.randrange(2 ** 31)
            jobs.append(Job(f"conjecture_scan({n},{k},{s})",
                            lambda n=n, k=k, s=s, b=budget, sd=seed:
                            lib.conjecture_scan(n, k, s, b, sd),
                            _scan_conjecture_check(n, k, s)))
        rng.shuffle(jobs)
        return jobs

    def _count_pairs(self, rep) -> None:
        if self.tracer is not None:
            self.tracer.count("search.cross_pairs.tested", rep.notes["ordered_pairs_total"])
            self.tracer.count("search.cross_pairs.found", rep.notes["ordered_pairs_cross"])

    def warmups(self) -> list[Job]:
        """Fill the per-(n,k) Kneser tables with one cheap call each."""
        configs = sorted(set(self.EKR) | set(self.CROSS) | {c[:2] for c in self.CONJECTURE})
        lib = self.lib

        def job(n, k):
            def check(fam):
                expect(fam.edge_count > 0, "greedy completion of the empty family is empty")
                return ("warm", n, k, fam.edge_count)
            return Job(f"greedy_complete({n},{k})",
                       lambda: lib.greedy_complete(lib.Family.empty(n, k)), check, 1)
        return [job(n, k) for n, k in configs]


# --- cli-cold --------------------------------------------------------------

_TEXT_FIELD = re.compile(r"^  (\S+)\s+(.*)$")
# Fields that carry witnesses; the advisory ``*_decimal`` twins are dropped too.
_NOT_VERDICTS = {"witness", "matching", "trace", "witness_vertex"}


def parse_report(stdout: bytes, fmt: str) -> tuple[dict, list[dict]]:
    """(fields, rows) of an emitted report, every value as display text."""
    text = stdout.decode()
    if fmt == "json":
        payload = json.loads(text)
        show = lambda v: ("yes" if v else "no") if isinstance(v, bool) else str(v)
        return ({k: show(v) for k, v in payload["fields"].items()},
                [{k: show(v) for k, v in row.items()} for row in payload.get("rows", [])])
    if fmt == "csv":
        rows = list(csv.DictReader(_io.StringIO(text)))
        return (rows[0] if len(rows) == 1 else {}), rows
    fields = {}
    for line in text.splitlines()[1:]:
        m = _TEXT_FIELD.match(line)
        if m and m.group(1) != "rows:":
            fields[m.group(1)] = m.group(2)
    return fields, []


def verdict_fields(fields: dict) -> tuple:
    return tuple(sorted((k, v) for k, v in fields.items()
                        if k not in _NOT_VERDICTS and not k.endswith("_decimal")))


class CliCold:
    """One fresh ``python -m ekrlab`` process per job: import, io, cli."""

    name = "cli-cold"

    def __init__(self, seed: int, root: str, workdir: str):
        self.seed = seed
        self.root = root
        self.workdir = workdir
        self.env = {k: v for k, v in os.environ.items() if k != "EKRLAB_LIMIT"}
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.tracer = None

    def setup(self) -> None:
        import ekrlab as lib
        rng = random.Random(f"{self.name}:{self.seed}:-1")
        self.files = {}
        self.edges = {
            "hm11_4": (11, 4, hilton_milner_edges(11, 4)),
            "star9_4": (9, 4, star_edges(9, 4)),
            "star14_5": (14, 5, star_edges(14, 5)),
            "ee12_3_3": (12, 3, meet_edges(12, 3, 3)),
            "ee8_3_2": (8, 3, meet_edges(8, 3, 2)),
            "deg37_2": (37, 2, min_degree_family(rng, 37, 2, 3)),
        }
        for name, (n, k, edges) in self.edges.items():
            path = os.path.join(self.workdir, f"{name}.json")
            with open(path, "wb") as handle:
                handle.write(lib.serialize_family(lib.Family.from_edges(n, k, edges)))
            self.files[name] = path

    def _command(self, argv: list[str], fmt: str, check, families: int = 0) -> Job:
        traced = self.tracer is not None
        out_path = os.path.join(self.workdir, "trace.json")
        if traced:
            cmd = [sys.executable, os.path.join(self.root, "perfbench", "clishim.py"), out_path]
        else:
            cmd = [sys.executable, "-m", "ekrlab"]
        cmd += argv + {"json": ["--json"], "csv": ["--csv"]}.get(fmt, [])

        def run():
            return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  env=self.env, cwd=self.root, timeout=120)

        def after(proc):
            if traced and os.path.exists(out_path):
                with open(out_path) as handle:
                    child = json.load(handle)
                os.remove(out_path)
                self.tracer.merge(child["trace"])
                self.tracer.count("cli.import_s", child["import_s"])
                self.tracer.count("cli.dispatch_s", child["dispatch_s"])

        def checked(proc):
            expect(proc.returncode == 0,
                   f"exit {proc.returncode}: {proc.stderr.decode(errors='replace')[-300:]}")
            return (label, fmt) + check(proc.stdout, fmt)
        label = "ekrlab " + " ".join(os.path.basename(a) for a in argv)
        return Job(label, run, checked, families, after)

    def _construct(self, argv, n, k, edges) -> Job:
        want = (json.dumps({"edges": [list(e) for e in sorted(edges)], "k": k, "n": n},
                           sort_keys=True) + "\n").encode()

        def check(out, fmt):
            expect(out == want, "constructed family differs from its definition")
            return (hashlib.sha256(out).hexdigest()[:16],)
        return self._command(["construct"] + argv, "text", check)

    def round(self, r: int) -> list[Job]:
        rng = random.Random(f"{self.name}:{self.seed}:{r}")
        f = self.files
        n, k, ee12 = self.edges["ee12_3_3"]
        ee8 = self.edges["ee8_3_2"][2]
        deg37 = self.edges["deg37_2"][2]
        star14 = len(self.edges["star14_5"][2])

        def fields_check(predicate):
            def check(out, fmt):
                fields, rows = parse_report(out, fmt)
                predicate(fields, rows)
                return verdict_fields(fields)
            return check

        hm = len(self.edges["hm11_4"][2])
        hm_dichotomy = ("AtMostThreshold" if hm <= Fraction(11, 4) * comb(9, 2)
                        else "AtLeastStarCount" if hm >= comb(10, 3) else "Inconclusive")

        def ekr_ok(fl, _):
            expect(fl["edges"] == str(hm) and fl["dichotomy"] == hm_dichotomy
                   and fl["is_star"] == "no", "Hilton-Milner (11,4) verdict wrong")
            expect(fl["mass_lower_bound_holds"] == "yes" and fl["witness_holds"] == "yes"
                   and fl["mass_upper_bound_holds"] in ("yes", "not-applicable"),
                   "certificate inequality fails")

        def star_masses(fl, rows):
            e = int(fl["edges"])
            f0 = Fraction(e * e, comb(14, 5))
            if rows and "mass" in rows[0]:
                masses = [Fraction(row["mass"]) for row in rows]
                check_masses(masses, e)
                expect(masses[:2] == [f0, e - f0] and not any(masses[2:]),
                       "star masses are not (F_0, e - F_0, 0, ...)")
            else:
                expect(fl["quadratic_form"] == "0" and Fraction(fl["F0"]) == f0
                       and Fraction(fl["F1"]) == e - f0 and fl["residual"] == "0",
                       "star level masses wrong")

        def spectrum_check(out, fmt):
            fields, rows = parse_report(out, fmt)
            if fmt == "csv":
                fields = {"edges": str(star14)}
            star_masses(fields, rows)
            expect(len(rows) in (0, 6), "spectrum rows are not levels 0..5")
            return verdict_fields(fields) + tuple(verdict_fields(row) for row in rows)

        def matching_ok(fl, _):
            witness = [tuple(int(v) for v in part.strip("{}").split(","))
                       for part in fl["witness"].split()]
            expect(fl["matching_number"] == "2" and is_matching_of(witness, set(ee12)),
                   "matching number of the (12,3,3) extremal family is not 2")

        def fractional_check(out, fmt):
            _, rows = parse_report(out, fmt)
            ranks = {colex_rank(e): e for e in ee12}
            load = [Fraction(0)] * 13
            for row in rows:
                for v in ranks[int(row["edge_rank"])]:
                    load[v] += Fraction(row["weight"])
            expect(max(load) <= 1, "fractional matching overloads a vertex")
            expect(sum(Fraction(row["weight"]) for row in rows) == 2, "nu* of (12,3,3) is not 2")
            return ("nu*", "2")

        def cover_check(out, fmt):
            fields, rows = parse_report(out, fmt)
            weight = {int(row["vertex"]): Fraction(row["weight"]) for row in rows}
            expect(all(sum(weight.get(v, 0) for v in e) >= 1 for e in ee8), "cover misses an edge")
            expect(Fraction(fields["objective"]) == 1 == sum(weight.values()),
                   "tau* of (8,3,2) is not 1")
            return verdict_fields({k: v for k, v in fields.items() if k != "support_size"})

        def by_degree_ok(fl, _):
            edges = [tuple(int(v) for v in part.strip("{}").split(","))
                     for part in fl["matching"].split()]
            expect(len(edges) == 3 and is_matching_of(edges, set(deg37)),
                   "constructed matching is not 3 disjoint family edges")

        def scan_ekr_ok(fl, _):
            expect(fl["families_examined"] == "6127" and fl["all_at_max_are_stars"] == "yes"
                   and fl["violations"] == "0", "scan ekr 7 3 constants wrong")

        def conjecture_check(out, fmt):
            fl, _ = parse_report(out, fmt)
            expect(fl["violations"] == "0" and int(fl["delta1"]) <= int(fl["threshold"])
                   and int(fl["nu"]) < 3, "conjecture scan at (9,2,3) reports a violation")
            # "edges" is the best family found, a witness.
            return verdict_fields({k: v for k, v in fl.items() if k != "edges"})

        def witness_ok(fl, _):
            expect(fl["holds"] == "yes", "simplex witness fails on Hilton-Milner (11,4)")

        def cross_ok(fl, _):
            expect(fl["mass_product_bound_holds"] == "yes"
                   and fl["degree_product_bound_holds"] == "yes"
                   and fl["degree_product"] == str(comb(7, 2) ** 2), "star x star bounds wrong")

        # A fixed budget: only the annealing seed comes from the workload seed.
        budget, conj_seed = 2000, rng.randrange(2 ** 31)
        cmd = self._command
        jobs = [
            self._construct(["star", "--n", "14", "--k", "5"], 14, 5, self.edges["star14_5"][2]),
            self._construct(["hilton-milner", "--n", "11", "--k", "4"], 11, 4,
                            self.edges["hm11_4"][2]),
            self._construct(["erdos-extremal", "--n", "12", "--k", "3", "--s", "3", "--i", "1"],
                            n, k, ee12),
            cmd(["certify", "ekr", f["hm11_4"]], "text", fields_check(ekr_ok), 1),
            cmd(["certify", "ekr", f["hm11_4"]], "json", fields_check(ekr_ok), 1),
            cmd(["certify", "witness", f["hm11_4"]], "csv", fields_check(witness_ok), 1),
            cmd(["certify", "cross", f["star9_4"], f["star9_4"]], "json", fields_check(cross_ok), 2),
            cmd(["spectrum", f["star14_5"]], "text", spectrum_check, 1),
            cmd(["spectrum", f["star14_5"], "--full"], "json", spectrum_check, 1),
            cmd(["spectrum", f["star14_5"], "--full"], "csv", spectrum_check, 1),
            cmd(["matching", f["ee12_3_3"]], "json", fields_check(matching_ok), 1),
            cmd(["matching", f["ee12_3_3"], "--fractional"], "csv", fractional_check, 1),
            cmd(["matching", f["ee8_3_2"], "--cover"], "json", cover_check, 1),
            cmd(["matching", f["deg37_2"], "--construct-degree", "3"], "text",
                fields_check(by_degree_ok), 1),
            cmd(["scan", "ekr", "--n", "7", "--k", "3"], "text", fields_check(scan_ekr_ok)),
            cmd(["scan", "conjecture", "--n", "9", "--k", "2", "--s", "3", "--seed",
                 str(conj_seed), "--budget", str(budget)], "json", conjecture_check),
        ]
        rng.shuffle(jobs)
        return jobs

    def warmups(self) -> list[Job]:
        """One process, so the interpreter and the compiled modules are on disk."""
        return self.round(0)[:1]


WORKLOADS = {"certify": Certify, "matchings": Matchings, "scans": Scans, "cli-cold": CliCold}
