"""Certificate chain: frames, witness, dichotomy, cross bounds."""

import random
from fractions import Fraction
from math import isqrt, sqrt
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ekrlab import certificates
from ekrlab.certificates import (
    Dichotomy,
    cross_certificate,
    ekr_certificate,
    simplex_min_index,
    simplex_witness,
    sqrt_product_inequality_check,
    star_frame_checks,
)
from ekrlab.errors import ContradictionError, DomainError
from ekrlab.families import Family, binomial
from ekrlab.constructions import complete, hilton_milner, remark_family, star

from conftest import count_transpositions, random_family, random_sum_zero
from oracles import (
    float_simplex_min,
    geq_sqrt_gap,
    leq_neg_sqrt,
    qr_simplex_frame,
    squared_sqrt_product_check,
)


@pytest.mark.parametrize("n", range(3, 13))
def test_canonical_frame_valid(n):
    # the float oracle's frame is a unit regular simplex in the hyperplane
    q, frame = qr_simplex_frame(n)
    assert np.allclose(q.T @ q, np.eye(n - 1), atol=1e-12)
    assert np.allclose(q.sum(axis=0), 0.0, atol=1e-12)
    gram = frame @ frame.T
    assert np.allclose(np.diag(gram), 1.0, atol=1e-12)
    off = gram - np.diag(np.diag(gram))
    assert np.allclose(off + np.eye(n) * (-1 / (n - 1)), -1 / (n - 1), atol=1e-12)
    assert np.allclose(frame.sum(axis=0), 0.0, atol=1e-10)


def test_frame_rejects_bad_vectors():
    # the exact frame spans the sum-zero hyperplane of Q^n, n >= 2
    for v in ([1, 0, 0], [Fraction(1, 3), Fraction(1, 3), Fraction(-1, 2)], [0], []):
        with pytest.raises(DomainError):
            simplex_min_index(v)


def test_simplex_min_index_explicit_triangle():
    w = simplex_min_index([2, -1, -1])
    assert w.vertex == 2  # tie with index 3 broken downward
    assert w.lhs == -1 and w.rhs_squared == 1  # ||v||^2 / (n(n-1)) = 6/6
    assert w.holds and w.equality
    assert float_simplex_min([2, -1, -1])[0] == 2
    w0 = simplex_min_index([0, 0, 0])
    assert (w0.vertex, w0.lhs, w0.rhs_squared) == (1, 0, 0)
    assert w0.holds and w0.equality


def test_simplex_min_bound_random_vectors():
    rng = random.Random(5)
    for n in range(3, 13):
        for _ in range(200):
            v = random_sum_zero(rng, n, Fraction(1, rng.randrange(1, 30)))
            w = simplex_min_index(v)
            assert w.lhs == min(v) == v[w.vertex - 1]
            assert w.rhs_squared * n * (n - 1) == sum(x * x for x in v)
            assert w.holds


def test_simplex_min_index_scale_invariance():
    rng = random.Random(6)
    for _ in range(50):
        v = random_sum_zero(rng, 7)
        w = simplex_min_index(v)
        for scale in (Fraction(1, 4), Fraction(3), Fraction(1000), Fraction(7, 3)):
            scaled = simplex_min_index([scale * x for x in v])
            assert scaled.vertex == w.vertex
            assert scaled.lhs == scale * w.lhs
            assert scaled.rhs_squared == scale * scale * w.rhs_squared
            assert (scaled.holds, scaled.equality) == (w.holds, w.equality)


def test_star_frame_checks_values():
    report = star_frame_checks(7, 3)
    assert report.norm_sq == Fraction(60, 7)
    assert report.cross == Fraction(-10, 7)
    assert report.formulas_match and report.simplex_identity_holds
    report = star_frame_checks(9, 4)
    assert report.norm_sq == Fraction(280, 9)
    assert report.cross == Fraction(-35, 9)
    assert report.formulas_match and report.simplex_identity_holds


def test_star_frame_identity_grid():
    for n in range(2, 31):
        for k in range(n + 1):
            report = star_frame_checks(n, k)
            assert report.formulas_match and report.simplex_identity_holds


@pytest.mark.parametrize("n, k", [(3, 5), (1, 1), (0, 0), (-1, 2), (5, -1)])
def test_star_frame_checks_refuses_shapes_outside_its_domain(n, k):
    # (3, 5) and (5, -1) divided by C(n,k) = 0; the others failed inside binomial
    message = rf"^star_frame_checks needs n >= 2 and 0 <= k <= n, got k={k}, n={n}$"
    with pytest.raises(DomainError, match=message):
        star_frame_checks(n, k)


def test_simplex_witness_fixtures():
    w = simplex_witness(star(7, 3, 1))
    assert w.lhs == Fraction(-10, 7)
    assert w.rhs_squared == Fraction(100, 49)
    assert w.holds and w.equality
    assert w.vertex == 2  # lowest-index minimum-degree vertex

    w = simplex_witness(remark_family())
    assert w.lhs == 0 and w.rhs_squared == 0
    assert w.holds and w.equality

    w = simplex_witness(complete(6, 3))
    assert w.lhs == 0 and w.rhs_squared == 0
    assert w.holds and w.equality


@pytest.mark.parametrize("n, k", [(3, 3), (6, 6), (5, 1), (4, 0)])
def test_simplex_witness_refuses_by_its_own_name(n, k):
    # at n = k, E_1 is empty: the refusal is the witness's, not level_masses'
    message = rf"^simplex_witness needs n > k >= 2, got n={n}, k={k}$"
    with pytest.raises(DomainError, match=message):
        simplex_witness(complete(n, k))


def test_simplex_witness_every_family():
    rng = random.Random(30)
    for n, k in ((7, 3), (9, 4)):
        for _ in range(100):
            fam = random_family(rng, n, k, rng.choice([0.15, 0.5, 0.85]))
            assert simplex_witness(fam).holds


def test_witness_checks_its_norm_against_f1(monkeypatch, tmp_path, capsys):
    # ||deg - ke/n||^2 = C(n-2,k-1) F_1; stage an F_1 that breaks it
    from ekrlab.cli import dispatch
    from ekrlab.io import serialize_family

    original = certificates.level_masses

    def shifted(family):
        f0, f1, residual = original(family)
        return f0, f1 + 1, residual - 1

    monkeypatch.setattr(certificates, "level_masses", shifted)
    with pytest.raises(ContradictionError):
        simplex_witness(star(7, 3, 1))
    with pytest.raises(ContradictionError):
        ekr_certificate(hilton_milner(11, 4))
    path = tmp_path / "star.json"
    path.write_bytes(serialize_family(star(7, 3, 1)))
    assert dispatch(["certify", "witness", str(path)]) == 1
    assert capsys.readouterr().err.startswith("contradiction: ")


def test_ekr_certificate_star():
    cert = ekr_certificate(star(7, 3, 1))
    assert cert.e == 15 == binomial(6, 2)
    assert cert.f1 == Fraction(60, 7)
    # the chain is tight on stars: both bounds meet F_1 exactly
    assert cert.lower_bound_rhs == Fraction(60, 7)
    assert cert.upper_bound_rhs == Fraction(60, 7)
    assert cert.eq4_holds and cert.eq6_holds and cert.witness.holds
    assert cert.dichotomy is Dichotomy.AT_LEAST_STAR_COUNT
    assert cert.is_star


def test_ekr_certificate_star_9_4():
    cert = ekr_certificate(star(9, 4, 1))
    assert cert.eq4_holds and cert.eq6_holds and cert.witness.holds
    assert cert.dichotomy is Dichotomy.AT_LEAST_STAR_COUNT
    assert cert.is_star


def test_ekr_certificate_and_witness_take_k_2():
    # k = 2 is the smallest uniformity either accepts; the star(5,2) chain is tight
    cert = ekr_certificate(star(5, 2))
    assert (cert.e, cert.delta1) == (4, 1)
    assert cert.lower_bound_rhs == cert.f1 == cert.upper_bound_rhs == Fraction(12, 5)
    assert cert.eq4_holds and cert.eq6_holds and cert.is_star
    assert cert.dichotomy is Dichotomy.AT_LEAST_STAR_COUNT
    w = simplex_witness(star(5, 2))
    assert w == cert.witness
    assert w.holds and w.equality and (w.lhs, w.rhs_squared) == (Fraction(-3, 5), Fraction(9, 25))


def test_dichotomy_at_exactly_the_threshold_edge_count():
    # 21 edges of the star at (9,3) sit on e = (n/k) C(n-2,k-2) = 3 * 7
    sub = Family.from_edges(9, 3, star(9, 3).edge_tuples()[:21])
    cert = ekr_certificate(sub)
    assert cert.e == 21 == Fraction(9, 3) * binomial(7, 1)
    assert cert.lower_bound_rhs == 0 and cert.eq4_holds
    assert cert.dichotomy is Dichotomy.AT_MOST_THRESHOLD


def test_ekr_certificate_evaluates_level_masses_once(monkeypatch):
    calls = []
    original = certificates.level_masses

    def counting(family):
        calls.append(family)
        return original(family)

    monkeypatch.setattr(certificates, "level_masses", counting)
    cert = ekr_certificate(hilton_milner(11, 4))
    assert len(calls) == 1
    assert cert.witness.holds


def test_ekr_certificate_rejects_remark():
    with pytest.raises(DomainError):
        ekr_certificate(remark_family())


def test_ekr_certificate_rejects_non_intersecting():
    with pytest.raises(DomainError):
        ekr_certificate(complete(7, 3))


def test_ekr_certificate_low_degree_branch_inconclusive():
    sub = Family.from_edges(7, 3, [e for e in star(7, 3, 1) if e != (1, 2, 3)])
    cert = ekr_certificate(sub)
    assert cert.delta1 < binomial(5, 1)
    assert cert.upper_bound_rhs is None and cert.eq6_holds is None
    assert cert.eq4_holds and cert.witness.holds
    assert not cert.is_star


def test_dichotomy_sign_consistency():
    rng = random.Random(31)
    threshold = Fraction(7, 3) * binomial(5, 1)
    star_count = binomial(6, 2)
    seen = set()
    for _ in range(300):
        fam = random_family(rng, 7, 3, 0.25)
        from ekrlab.families import is_intersecting

        if not is_intersecting(fam):
            continue
        cert = ekr_certificate(fam)
        product_sign = (cert.e - threshold) * (cert.e - star_count)
        if cert.dichotomy is Dichotomy.INCONCLUSIVE:
            assert product_sign < 0
        else:
            assert product_sign >= 0
        seen.add(cert.dichotomy)
    assert Dichotomy.AT_MOST_THRESHOLD in seen


def test_sqrt_product_inequality():
    assert sqrt_product_inequality_check(4, 1, 9, 1)  # sqrt(24) <= 5
    assert sqrt_product_inequality_check(3, 3, 5, 5)  # 0 <= 0
    assert sqrt_product_inequality_check(1, 0, 1, 0)  # 1 <= 1
    with pytest.raises(DomainError):
        sqrt_product_inequality_check(1, 2, 3, 1)
    with pytest.raises(DomainError):
        sqrt_product_inequality_check(-1, -2, 3, 1)


def test_sqrt_product_inequality_random():
    rng = random.Random(32)
    for _ in range(10000):
        y1 = Fraction(rng.randrange(0, 50), rng.randrange(1, 20))
        y2 = Fraction(rng.randrange(0, 50), rng.randrange(1, 20))
        x1 = y1 + Fraction(rng.randrange(0, 50), rng.randrange(1, 20))
        x2 = y2 + Fraction(rng.randrange(0, 50), rng.randrange(1, 20))
        assert sqrt_product_inequality_check(x1, y1, x2, y2)


def test_cross_certificate_star_star():
    s = star(7, 3, 1)
    cert = cross_certificate(s, s)
    assert cert.delta1_b * cert.delta1_c == 25 == binomial(5, 1) ** 2
    assert cert.product_bound_holds
    assert cert.ineq10_holds and cert.ineq10_equality


def test_cross_certificate_small_degree_side():
    s = star(7, 3, 1)
    through_12 = Family.from_edges(7, 3, [e for e in s if 2 in e])
    # every vertex outside {1,2} lies in exactly one edge {1,2,x}
    cert = cross_certificate(s, through_12)
    assert cert.delta1_c == 1
    assert cert.delta1_b * cert.delta1_c == 5 <= 25
    assert cert.product_bound_holds
    assert cert.ineq10_holds


def test_cross_certificate_hilton_milner():
    hm = hilton_milner(7, 3)
    cert = cross_certificate(hm, hm)
    assert cert.delta1_b == cert.delta1_c == 3
    assert cert.delta1_b * cert.delta1_c == 9 <= 25
    assert cert.product_bound_holds and cert.ineq10_holds


def test_cross_certificate_errors():
    b = Family.from_edges(7, 3, [(1, 2, 3)])
    c = Family.from_edges(7, 3, [(4, 5, 6)])
    with pytest.raises(DomainError):
        cross_certificate(b, c)
    with pytest.raises(DomainError):
        cross_certificate(remark_family(), remark_family())



@pytest.mark.parametrize("n, k, why", [(5, 1, "needs k >= 2"), (6, 3, "needs n >= 2k")])
def test_cross_certificate_checks_the_shape_before_transposing(monkeypatch, n, k, why):
    # the pair is not cross-intersecting either, but that test transposes left
    left = Family.from_edges(n, k, [tuple(range(1, k + 1))])
    right = Family.from_edges(n, k, [tuple(range(n - k + 1, n + 1))])
    transposed = count_transpositions(monkeypatch)
    with pytest.raises(DomainError, match=why):
        cross_certificate(left, right)
    assert transposed == []

def test_stars_skip_the_meet_checks(monkeypatch):
    # a vertex on every edge makes a family intersecting, and a vertex on
    # every edge of both families makes them cross-intersecting
    rng = random.Random(28)
    sub = Family.from_edges(14, 5, [e for e in star(14, 5) if rng.random() < 0.9])
    left, right = (Family.from_edges(11, 4, [e for e in star(11, 4) if rng.random() < 0.7])
                   for _ in range(2))
    transposed = count_transpositions(monkeypatch)
    assert ekr_certificate(sub).e == sub.edge_count
    assert cross_certificate(left, right).size_b == left.edge_count
    assert transposed == []
    # Hilton-Milner families: within the star rule (11,4) their one edge off
    # the hub is checked against the stars, past it (30,4) each is transposed
    hm, hm_again = hilton_milner(11, 4), hilton_milner(11, 4)
    ekr_certificate(hm)
    cross_certificate(hm_again, hm_again)
    assert transposed == []
    wide, wide_again = hilton_milner(30, 4), hilton_milner(30, 4)
    ekr_certificate(wide)
    assert transposed == [wide]
    cross_certificate(wide_again, wide_again)
    assert transposed == [wide, wide_again]


def test_star_refusals_are_unchanged():
    # stars at two centers do not cross-intersect, and a shared center does
    # not pass two shapes
    with pytest.raises(DomainError, match="^families are not cross-intersecting$"):
        cross_certificate(star(7, 3, 1), star(7, 3, 2))
    with pytest.raises(DomainError, match=r"got \(9, 3\) vs \(10, 3\)$"):
        cross_certificate(star(9, 3), star(10, 3))
    without = Family.from_edges(7, 3, [e for e in star(7, 3) if e != (1, 2, 3)] + [(4, 5, 6)])
    with pytest.raises(DomainError, match="^ekr_certificate requires an intersecting family$"):
        ekr_certificate(without)


SIGN_TABLE = [
    # (a, b, c, sign of a + b sqrt(c)); c = 0 leaves the sign of a
    (-3, -2, 0, -1), (-3, 0, 0, -1), (-3, 2, 0, -1),
    (0, -2, 0, 0), (0, 0, 0, 0), (0, 2, 0, 0),
    (3, -2, 0, 1), (3, 0, 0, 1), (3, 2, 0, 1),
    # c > 0: like signs add up, opposite signs go by a^2 against b^2 c
    (-3, -2, 2, -1), (-3, 0, 2, -1), (-3, 2, 3, 1), (-3, 2, 2, -1),
    (0, -2, 2, -1), (0, 0, 2, 0), (0, 2, 2, 1),
    (3, -2, 2, 1), (3, -2, 3, -1), (3, 0, 2, 1), (3, 2, 2, 1),
    # a^2 = b^2 c: zero for opposite signs, not for like ones
    (-3, 1, 9, 0), (3, -1, 9, 0), (Fraction(-1, 2), 2, Fraction(1, 16), 0),
    (Fraction(3, 4), Fraction(-3, 2), Fraction(1, 4), 0), (3, 1, 9, 1), (-3, -1, 9, -1),
]


@pytest.mark.parametrize("a,b,c,expected", SIGN_TABLE)
def test_sign_table(a, b, c, expected):
    assert certificates._sign(Fraction(a), Fraction(b), Fraction(c)) == expected


def test_sign_rejects_a_negative_radicand():
    with pytest.raises(DomainError, match="^comparison needs a nonnegative radicand$"):
        certificates._sign(Fraction(1), Fraction(1), Fraction(-1))


RATIONALS = st.fractions(min_value=-40, max_value=40, max_denominator=12)
NONNEG = st.fractions(min_value=0, max_value=40, max_denominator=12)


def near(draw, boundary: Fraction) -> Fraction:
    """The boundary itself, a step of 1/997 off it, or a free draw; never < 0."""
    step = draw(st.sampled_from([0, 0, 0, Fraction(1, 997), Fraction(-1, 997), None]))
    value = draw(NONNEG) if step is None else boundary + step
    return max(value, Fraction(0))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_witness_decision_matches_squaring_reference(data):
    # lhs <= -sqrt(r) is _sign(lhs, 1, r) <= 0, with equality at 0
    lhs = data.draw(RATIONALS)
    r = near(data.draw, lhs * lhs)
    g = certificates._sign(lhs, Fraction(1), r)
    assert (g <= 0, g == 0) == leq_neg_sqrt(lhs, r)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 9), st.integers(1, 20), st.data())
def test_simplex_min_index_matches_squaring_reference(n, scale, data):
    # star-shaped vectors (n-1, -1, ..., -1) sit exactly on equality
    if data.draw(st.booleans()):
        v = [Fraction(scale * (n - 1))] + [Fraction(-scale)] * (n - 1)
        v = data.draw(st.permutations(v))
    else:
        head = data.draw(st.lists(RATIONALS, min_size=n - 1, max_size=n - 1))
        v = head + [-sum(head, Fraction(0))]
    w = simplex_min_index(v)
    assert (w.holds, w.equality) == leq_neg_sqrt(w.lhs, w.rhs_squared)


# t = (n/k) C(n-2,k-2) is 3, 4 and 21 at (6,2), (8,2) and (9,3), so that
# p = |B||C| = t^2 puts the right side of the cross bound exactly at 0;
# at (5,2) and (7,3) t is not an integer
CROSS_SHAPES = [(5, 2), (6, 2), (8, 2), (7, 3), (9, 3)]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(CROSS_SHAPES), st.data())
def test_cross_decision_matches_squaring_reference(shape, data):
    n, k = shape
    edges = star(n, k, 1).edge_tuples()
    alpha = Fraction(n - 1, binomial(n, k))
    t = Fraction(n, k) * binomial(n - 2, k - 2)
    sizes = st.integers(1, len(edges))
    if t.denominator == 1 and t <= len(edges) and data.draw(st.booleans()):
        a = b = int(t)
    else:
        a, b = data.draw(sizes), data.draw(sizes)
    p = a * b
    root = isqrt(p)
    if root * root == p:  # the boundary (alpha sqrt(p) (sqrt(p) - t))^2 is rational
        boundary = (alpha * root * (root - t)) ** 2
    else:
        boundary = alpha * alpha * p * (p + t * t - 2 * t * Fraction(sqrt(p)))
    lhs_sq = near(data.draw, boundary)
    masses = iter([(0, lhs_sq, 0), (0, Fraction(1), 0)])
    left = Family.from_edges(n, k, edges[:a])
    right = Family.from_edges(n, k, edges[:b])
    with mock.patch.object(certificates, "level_masses", lambda family: next(masses)):
        cert = cross_certificate(left, right)
    assert (cert.ineq10_holds, cert.ineq10_equality) == geq_sqrt_gap(lhs_sq, alpha, p, t)


def test_cross_certificate_rejects_a_negative_mass_product(monkeypatch):
    s = star(7, 3, 1)
    masses = iter([(0, Fraction(-1), 0), (0, Fraction(1), 0)])
    monkeypatch.setattr(certificates, "level_masses", lambda family: next(masses))
    with pytest.raises(DomainError, match="^sqrt-gap comparison needs nonnegative inputs$"):
        cross_certificate(s, s)


@settings(max_examples=300, deadline=None)
@given(NONNEG, NONNEG, NONNEG, st.data())
def test_sqrt_product_matches_squaring_reference(y1, y2, gap1, data):
    # equality needs x1 y2 = y1 x2, i.e. x2 = x1 y2 / y1
    x1 = y1 + gap1
    if y1 > 0 and data.draw(st.booleans()):
        x2 = x1 * y2 / y1
    else:
        x2 = y2 + data.draw(NONNEG)
    assert sqrt_product_inequality_check(x1, y1, x2, y2) == squared_sqrt_product_check(
        x1, y1, x2, y2
    )
