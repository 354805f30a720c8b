"""The integer certificate chain and mass recurrence against their Fraction oracles.

The library decides the chain in integers over known denominators and
builds a ``Fraction`` only for a reported value; ``tests/oracles.py`` keeps
the same chain one ``Fraction`` operation at a time.  Every report here
must equal the oracle's as a whole dataclass, and print the same repr.
"""

from fractions import Fraction
from math import comb
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from ekrlab import spectral
from ekrlab.certificates import (
    CrossCertificate,
    Dichotomy,
    EkrCertificate,
    WitnessReport,
    cross_certificate,
    ekr_certificate,
    simplex_min_index,
    simplex_witness,
)
from ekrlab.constructions import hilton_milner, star
from ekrlab.errors import DomainError
from ekrlab.families import Family
from ekrlab.spectral import SpectralMass, eigen_mass_full, level_masses

from conftest import small_families
from oracles import (
    fraction_cross_certificate,
    fraction_degree_witness,
    fraction_ekr_certificate,
    fraction_level_masses,
    fraction_masses,
    fraction_simplex_min_index,
    pairwise_disjoint_pairs,
    subset_degree_sums_by_submasks,
)


def same(got, want) -> None:
    assert got == want
    assert repr(got) == repr(want)


def ekr_from_oracle(fields: dict) -> EkrCertificate:
    return EkrCertificate(**{**fields, "witness": WitnessReport(**fields["witness"]),
                             "dichotomy": Dichotomy(fields["dichotomy"])})


def threshold_size(n: int, k: int) -> int | None:
    """e = (n/k) C(n-2,k-2) when it is an integer a star can hold, else None."""
    t = Fraction(n, k) * comb(n - 2, k - 2)
    return int(t) if t.denominator == 1 and t <= comb(n - 1, k - 1) else None


@st.composite
def intersecting_bases(draw, max_k: int = 6):
    """(n, k, edges) of a star or a Hilton-Milner family, n >= 2k+1, k = 2..max_k."""
    k = draw(st.integers(2, max_k))
    n = draw(st.integers(2 * k + 1, 2 * k + 3 if k <= 4 else 2 * k + 1))
    base = star(n, k) if draw(st.booleans()) else hilton_milner(n, k)
    return n, k, base.edge_tuples()


@st.composite
def subfamily(draw, edges: list[tuple[int, ...]], n: int, k: int):
    """The whole list, none of it, a colex prefix (the threshold size among
    them), or a random subset; the Hilton-Milner blocker is kept or dropped."""
    kind = draw(st.sampled_from(["whole", "empty", "prefix", "threshold", "random"]))
    if kind == "whole":
        return list(edges)
    if kind == "empty":
        return []
    if kind == "threshold" and (t := threshold_size(n, k)) is not None and t <= len(edges):
        return list(edges[:t])
    if kind in ("prefix", "threshold"):
        return list(edges[: draw(st.integers(0, len(edges)))])
    rng = draw(st.randoms(use_true_random=False))
    density = draw(st.sampled_from([0.2, 0.6, 0.9, 0.98]))
    return [e for e in edges if rng.random() < density]


@settings(max_examples=150, deadline=None)
@given(intersecting_bases(), st.data())
def test_ekr_certificate_equals_the_fraction_chain(base, data):
    n, k, edges = base
    sub = data.draw(subfamily(edges, n, k))
    same(ekr_certificate(Family.from_edges(n, k, sub)),
         ekr_from_oracle(fraction_ekr_certificate(n, k, sub)))


def test_ekr_oracle_draws_reach_every_branch():
    # stars reach equality on both bounds and the witness; the threshold
    # family sits on e = (n/k) C(n-2,k-2); sub-stars miss the upper branch
    full = ekr_certificate(star(9, 4))
    assert full.lower_bound_rhs == full.f1 == full.upper_bound_rhs and full.witness.equality
    cut = star(9, 3).edge_tuples()[: threshold_size(9, 3)]
    assert ekr_certificate(Family.from_edges(9, 3, cut)).lower_bound_rhs == 0
    assert ekr_certificate(hilton_milner(11, 4)).upper_bound_rhs is None
    for n, k, edges in ((9, 4, star(9, 4).edge_tuples()), (9, 3, cut), (11, 4, []),
                        (11, 4, hilton_milner(11, 4).edge_tuples())):
        same(ekr_certificate(Family.from_edges(n, k, edges)),
             ekr_from_oracle(fraction_ekr_certificate(n, k, edges)))


@settings(max_examples=150, deadline=None)
@given(intersecting_bases(max_k=5), st.data())
def test_cross_certificate_equals_the_fraction_chain(base, data):
    # two subfamilies of one intersecting family cross-intersect; the sizes
    # reach both branches of the right side's sign, p = t^2 where t is an
    # integer, and an empty side, where B_1 C_1 = 0
    n, k, edges = base
    left, right = data.draw(subfamily(edges, n, k)), data.draw(subfamily(edges, n, k))
    got = cross_certificate(Family.from_edges(n, k, left), Family.from_edges(n, k, right))
    same(got, CrossCertificate(**fraction_cross_certificate(n, k, left, right)))


def test_cross_oracle_pairs_reach_both_signs_and_the_boundary():
    # t = (n/k) C(n-2,k-2) = 21 at (9,3): sizes 21 and 21 put the right side at 0
    edges = star(9, 3).edge_tuples()
    for a, b in ((21, 21), (3, 5), (28, 28), (0, 28), (0, 0), (28, 1)):
        left, right = edges[:a], edges[:b]
        got = cross_certificate(Family.from_edges(9, 3, left), Family.from_edges(9, 3, right))
        same(got, CrossCertificate(**fraction_cross_certificate(9, 3, left, right)))
    assert cross_certificate(star(9, 4), star(9, 4)).ineq10_equality


@settings(max_examples=150, deadline=None)
@given(small_families(max_edges=20))
def test_level_masses_and_simplex_witness_equal_the_fraction_recurrence(fam):
    n, k, edges = fam.n, fam.k, fam.edge_tuples()
    if k < 1 or n == k:
        return
    f0, f1, residual = fraction_level_masses(n, k, edges)
    same(level_masses(fam), (f0, f1, residual))
    if k >= 2:
        same(simplex_witness(fam), WitnessReport(**fraction_degree_witness(n, k, edges, f1)))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2), st.booleans(), st.data())
def test_eigen_mass_full_equals_the_fraction_recurrence(k, extra, packed, data):
    # both N_t paths: the cost rule is overridden either way
    n = 2 * k + extra
    fam = data.draw(small_families(n=n, k=k, max_edges=24))
    with mock.patch.object(spectral, "_packed_is_cheaper", lambda n, k, e: packed):
        got = eigen_mass_full(fam)
    sums = subset_degree_sums_by_submasks(fam)
    quad = 2 * pairwise_disjoint_pairs(fam.edge_tuples())
    same(got, SpectralMass(n, k, tuple(fraction_masses(n, k, sums)), quad, Fraction(fam.edge_count)))


RATIONALS = st.fractions(min_value=-40, max_value=40, max_denominator=30)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 9), st.data())
def test_simplex_min_index_equals_the_fraction_lemma(n, data):
    # mixed denominators, plain ints, and star-shaped vectors on equality
    kind = data.draw(st.sampled_from(["mixed", "ints", "star"]))
    if kind == "star":
        scale = data.draw(RATIONALS.filter(bool))
        v = data.draw(st.permutations([scale * (n - 1)] + [-scale] * (n - 1)))
    else:
        entries = st.integers(-50, 50) if kind == "ints" else RATIONALS
        head = data.draw(st.lists(entries, min_size=n - 1, max_size=n - 1))
        v = head + [-sum(head)]
    same(simplex_min_index(v), WitnessReport(**fraction_simplex_min_index(v)))


def test_simplex_min_index_refuses_like_the_fraction_lemma():
    for v in ([Fraction(1, 3), Fraction(1, 6), Fraction(-1, 3)], [1, 2, -2], [Fraction(1, 2)], []):
        with pytest.raises(DomainError) as got:
            simplex_min_index(v)
        with pytest.raises(DomainError) as want:
            fraction_simplex_min_index(v)
        assert str(got.value) == str(want.value)


def count_fractions(monkeypatch) -> list[tuple]:
    """Record the arguments of every ``Fraction.__new__`` call from now on."""
    made: list[tuple] = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    return made


def test_the_chain_builds_only_its_reported_fractions(monkeypatch):
    # A Fraction per reported value: F_0, F_1 and the residual of each
    # level_masses call, the two witness fields, and each mass bound the
    # certificate reports.  Only these three functions are pinned: their
    # decisions make no Fraction arithmetic, so the counts hold on every
    # CPython.  Elsewhere (eigen_mass_full checks that its masses sum to e
    # in Fraction arithmetic) the count would depend on the version: from
    # CPython 3.12, Fraction arithmetic can skip __new__.
    full, hm = star(9, 4), hilton_milner(11, 4)
    made = count_fractions(monkeypatch)
    assert ekr_certificate(full).upper_bound_rhs is not None
    assert len(made) == 3 + 2 + 2
    made.clear()
    assert ekr_certificate(hm).upper_bound_rhs is None
    assert len(made) == 3 + 1 + 2
    made.clear()
    cross_certificate(full, full)
    assert len(made) == 3 + 3
    made.clear()
    simplex_witness(hm)
    assert len(made) == 3 + 2
