"""Certificate chain: frames, witness, dichotomy, cross bounds."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from ekrlab import certificates
from ekrlab.certificates import (
    Dichotomy,
    SimplexFrame,
    canonical_simplex_frame,
    cross_certificate,
    ekr_certificate,
    simplex_min_index,
    simplex_witness,
    sqrt_product_inequality_check,
    star_frame_checks,
)
from ekrlab.errors import DomainError
from ekrlab.families import Family, binomial
from ekrlab.constructions import complete, hilton_milner, remark_family, star

from conftest import random_family


@pytest.mark.parametrize("n", range(3, 13))
def test_canonical_frame_valid(n):
    frame = canonical_simplex_frame(n)
    gram = frame.vectors @ frame.vectors.T
    assert np.allclose(np.diag(gram), 1.0, atol=1e-12)
    off = gram - np.diag(np.diag(gram))
    assert np.allclose(off + np.eye(n) * (-1 / (n - 1)), -1 / (n - 1), atol=1e-12)
    assert np.allclose(frame.vectors.sum(axis=0), 0.0, atol=1e-10)


def test_frame_rejects_bad_vectors():
    with pytest.raises(DomainError):
        SimplexFrame.from_vectors([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])


def test_simplex_min_index_explicit_triangle():
    frame = SimplexFrame.from_vectors(
        [[1.0, 0.0], [-0.5, math.sqrt(3) / 2], [-0.5, -math.sqrt(3) / 2]]
    )
    idx, value = simplex_min_index([1.0, 0.0], frame)
    assert idx == 2  # tie with index 3 broken downward
    assert value == pytest.approx(-0.5, abs=1e-15)
    idx0, value0 = simplex_min_index([0.0, 0.0], frame)
    assert value0 == 0.0


def test_simplex_min_bound_random_vectors():
    rng = np.random.default_rng(5)
    for n in range(3, 13):
        frame = canonical_simplex_frame(n)
        for _ in range(200):
            v = rng.normal(size=n - 1)
            _, value = simplex_min_index(v, frame)
            assert value <= -np.linalg.norm(v) / (n - 1) + 1e-10


def test_simplex_min_index_scale_invariance():
    rng = np.random.default_rng(6)
    frame = canonical_simplex_frame(7)
    for _ in range(50):
        v = rng.normal(size=6)
        idx, _ = simplex_min_index(v, frame)
        for scale in (0.25, 3.0, 1000.0):
            assert simplex_min_index(scale * v, frame)[0] == idx


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
    for k in range(2, 15):
        for n in range(2 * k + 1, 31):
            report = star_frame_checks(n, k)
            assert report.formulas_match and report.simplex_identity_holds


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


def test_simplex_witness_every_family():
    rng = random.Random(30)
    for n, k in ((7, 3), (9, 4)):
        for _ in range(100):
            fam = random_family(rng, n, k, rng.choice([0.15, 0.5, 0.85]))
            assert simplex_witness(fam).holds


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
