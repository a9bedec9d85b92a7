"""Factorization driver: certificates, floors, certify, validation."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import oracles
from genchains import fixture_poly, random_qpoly
from omfactor import (
    ConfigError,
    PreconditionError,
    certify,
    factorize,
    ord_type,
    qpoly,
    run,
)
from omfactor.arith import content_vp, format_poly, gcd_monic


def test_quartic_fixture_p3() -> None:
    f = fixture_poly(3)
    result = run(f, 3)
    certs = result.certificates
    assert len(certs) == 1
    c = certs[0]
    assert (c.degree, c.e, c.f) == (4, 2, 2)
    assert c.okutsu_depth == 2
    assert [format_poly(g) for g in c.okutsu_frame] == ["x", "x^2 + 15"]
    assert list(c.slopes) == [Fraction(1, 2), Fraction(1), Fraction(1), Fraction(1)]
    assert c.approximation == f
    assert result.floor == 9
    assert certify(f, 3, certs, 9).ok


def test_quartic_fixture_p5_split() -> None:
    f = fixture_poly(5)
    result = run(f, 5)
    certs = result.certificates
    assert [c.degree for c in certs] == [2, 2]
    assert all((c.e, c.f, c.okutsu_depth) == (2, 1, 1) for c in certs)
    assert all([format_poly(g) for g in c.okutsu_frame] == ["x"] for c in certs)
    terms = sorted(int(c.approximation.coeff(0)) for c in certs)
    assert terms == [-1155, 1345]
    prod = certs[0].approximation * certs[1].approximation
    assert content_vp(f - prod, 5) == 9
    assert result.floor == 9
    assert certify(f, 5, certs, 9).ok


def test_quartic_fixture_larger_primes() -> None:
    for p, split in [(7, False), (11, False), (13, True), (17, True)]:
        f = fixture_poly(p)
        result = run(f, p)
        certs = result.certificates
        if split:
            assert [c.degree for c in certs] == [2, 2]
            prod = certs[0].approximation * certs[1].approximation
            assert content_vp(f - prod, p) >= 9
        else:
            assert len(certs) == 1
            assert certs[0].degree == 4
            assert (certs[0].e, certs[0].f) == (2, 2)
        assert certify(f, p, certs, result.floor).ok


def test_certificate_types_have_ord_one() -> None:
    rng = random.Random(191)
    for p in [3, 5, 7]:
        f = fixture_poly(p)
        for c in factorize(f, p):
            assert ord_type(c.final_type, f) == 1
    for _ in range(5):
        p = rng.choice([3, 5, 7])
        f = _random_squarefree(rng, p)
        for c in factorize(f, p):
            assert ord_type(c.final_type, f) == 1


def _random_squarefree(rng: random.Random, p: int, max_deg: int = 8):
    while True:
        g = random_qpoly(rng, max_deg, bound=60, monic=True)
        if g.degree < 2:
            continue
        if gcd_monic(g, g.derivative()).degree == 0:
            return g


def test_degree_conservation() -> None:
    rng = random.Random(193)
    for _ in range(100):
        p = rng.choice([3, 5, 7, 11, 13])
        f = _random_squarefree(rng, p)
        certs = factorize(f, p)
        assert sum(c.degree for c in certs) == f.degree
        for c in certs:
            assert c.approximation.degree == c.degree
            assert c.approximation.is_monic()
            assert c.degree % (c.e * c.f) == 0


def test_unramified_inputs_mirror_residual_factors() -> None:
    rng = random.Random(197)
    done = 0
    while done < 20:
        p = rng.choice([3, 5, 7])
        f = random_qpoly(rng, 6, bound=50, monic=True)
        if f.degree < 1:
            continue
        coeffs = [int(c) for c in f]
        if not oracles.modp_is_squarefree(coeffs, p):
            continue
        certs = factorize(f, p)
        want = oracles.modp_factors(coeffs, p)
        assert sorted(c.degree for c in certs) == [d for d, _ in want]
        assert all(c.e == 1 for c in certs)
        assert all(c.f == c.degree for c in certs)
        done += 1


def test_exact_divisor_shallow() -> None:
    g = qpoly([0, -9, 0, 1])
    result = run(g, 3)
    certs = result.certificates
    assert sorted(format_poly(c.approximation) for c in certs) == ["x", "x + 12", "x + 6"]
    assert result.floor == 5
    report = certify(g, 3, certs, 5)
    assert not report.ok
    failing = [c for c in report.checks if not c.ok]
    assert [c.name for c in failing] == ["approximation-product"]
    assert certify(g, 3, certs, 2).ok


def test_exact_divisor_deep() -> None:
    h = qpoly([-9, 0, 0, 0, 1])
    result = run(h, 3)
    certs = result.certificates
    assert {format_poly(c.approximation) for c in certs} == {"x^2 - 3", "x^2 + 3"}
    prod = certs[0].approximation * certs[1].approximation
    assert prod == h
    assert certify(h, 3, certs, result.floor).ok


def test_certify_check_names() -> None:
    f = fixture_poly(5)
    certs = factorize(f, 5)
    report = certify(f, 5, certs, 9)
    names = [c.name for c in report.checks]
    assert names[0] == "degree-sum"
    assert names[-1] == "approximation-product"
    assert "cert0-ord" in names and "cert1-ord" in names
    assert all(c.ok for c in report.checks)


def test_input_validation() -> None:
    with pytest.raises(ConfigError):
        factorize(qpoly([1, 0, 1]), 6)
    with pytest.raises(PreconditionError):
        factorize(qpoly([1, 2]), 3)
    with pytest.raises(PreconditionError):
        factorize(qpoly([Fraction(1, 2), 1]), 2)
    with pytest.raises(PreconditionError):
        factorize(qpoly([0, 0, 1]), 3)
    with pytest.raises(PreconditionError):
        factorize(qpoly([5]), 3)


def test_p_integral_rational_coefficients_accepted() -> None:
    certs = factorize(qpoly([Fraction(1, 2), 1]), 3)
    assert [c.degree for c in certs] == [1]
    assert format_poly(certs[0].approximation) == "x - 1"


def test_determinism_structural() -> None:
    for p in [3, 5]:
        f = fixture_poly(p)
        a = factorize(f, p)
        b = factorize(f, p)
        assert len(a) == len(b)
        for ca, cb in zip(a, b):
            assert ca.approximation == cb.approximation
            assert ca.slopes == cb.slopes
            assert (ca.degree, ca.e, ca.f, ca.okutsu_depth) == (
                cb.degree, cb.e, cb.f, cb.okutsu_depth)


def test_trace_event_stream_shape() -> None:
    from omfactor.montes import BranchStart, NodeClose, NodePolygon, NodeResidual, RootResidual

    f = fixture_poly(3)
    trace: list = []
    factorize(f, 3, trace=trace)
    kinds = [type(e).__name__ for e in trace]
    assert kinds[0] == "RootResidual"
    assert "BranchStart" in kinds
    assert kinds.count("NodeClose") == 1
    levels = [e.level for e in trace if isinstance(e, NodePolygon)]
    assert levels == [1, 2, 3, 4]
    res_levels = [e.level for e in trace if isinstance(e, NodeResidual)]
    assert res_levels == [1, 2, 3, 4]
    assert isinstance(trace[0], RootResidual)
    assert any(isinstance(e, BranchStart) and e.omega == 4 for e in trace)
    closes = [e for e in trace if isinstance(e, NodeClose)]
    assert closes[0].certificate.degree == 4
