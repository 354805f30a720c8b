"""Certificate chain: frames, witness, dichotomy, cross bounds."""

import random
from fractions import Fraction

import numpy as np
import pytest

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

from conftest import random_family, random_sum_zero
from oracles import float_simplex_min, qr_simplex_frame


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
