"""Rational polynomial layer: valuations, division, expansions, parsing."""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import pytest

import oracles
from omfactor import (
    INF,
    ConfigError,
    ParseError,
    Poly,
    QQ,
    format_poly,
    parse_poly,
    qpoly,
    vp,
)
from omfactor.arith import (
    content_vp,
    gcd_monic,
    is_prime,
    phi_expansion,
)
from genchains import random_qpoly
from reference import expansion_sum
from omfactor.finitefield import Fq


def test_vp_basics() -> None:
    assert vp(0, 3) == INF
    assert vp(12, 2) == 2
    assert vp(12, 3) == 1
    assert vp(-27, 3) == 3
    assert vp(Fraction(1, 3), 3) == -1
    assert vp(Fraction(50, 9), 3) == -2
    assert vp(Fraction(50, 9), 5) == 2


def test_vp_requires_prime() -> None:
    with pytest.raises(ConfigError):
        vp(10, 4)
    with pytest.raises(ConfigError):
        vp(10, 1)


def test_vp_matches_oracle() -> None:
    rng = random.Random(11)
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7])
        n = rng.randrange(-10**6, 10**6)
        assert vp(n, p) == oracles.vp_int(n, p)


def test_is_prime_small() -> None:
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
    for n in range(-2, 25):
        assert is_prime(n) == (n in primes)


def test_is_prime_limit() -> None:
    """The witnesses decide primality below the least strong pseudoprime to
    all of them; from that number on is_prime refuses to answer."""
    pseudo = 3317044064679887385961981
    assert pseudo == 1287836182261 * 2575672364521
    assert is_prime(1287836182261) and is_prime(2575672364521)
    assert is_prime(2**61 - 1) and not is_prime(2**61 + 1)
    assert not is_prime(pseudo - 2)
    # The least strong pseudoprime to the twelve primes up to 37.
    assert not is_prime(318665857834031151167461)
    for n in (pseudo, pseudo + 2, 2**89 - 1):
        with pytest.raises(ConfigError, match="primality test limit"):
            is_prime(n)


def test_poly_ring_laws() -> None:
    rng = random.Random(23)
    for _ in range(60):
        f = random_qpoly(rng, 6)
        g = random_qpoly(rng, 6)
        h = random_qpoly(rng, 6)
        assert (f + g) * h == f * h + g * h
        assert f * g == g * f
        assert f - f == qpoly([])
        assert (f * g) * h == f * (g * h)


def test_poly_divmod_matches_oracle() -> None:
    rng = random.Random(29)
    for _ in range(60):
        f = random_qpoly(rng, 9)
        d = random_qpoly(rng, 5)
        if d.is_zero():
            continue
        q, r = divmod(f, d)
        assert q * d + r == f
        assert r.is_zero() or r.degree < d.degree
        oq, orr = oracles.sympy_divmod(list(f), list(d))
        assert list(q) == oq
        assert list(r) == orr


def _random_coeffs(rng: random.Random, sparse: bool, rational: bool) -> list:
    out = []
    for _ in range(rng.randrange(0, 30)):
        if sparse and rng.random() < 0.85:
            out.append(0)
        elif rational:
            out.append(Fraction(rng.randrange(-50, 51), rng.randrange(1, 20)))
        else:
            out.append(rng.randrange(-10**6, 10**6))
    return out


def test_poly_mul_matches_oracle() -> None:
    rng = random.Random(43)
    for _ in range(120):
        a = _random_coeffs(rng, rng.random() < 0.5, False)
        b = _random_coeffs(rng, rng.random() < 0.5, False)
        p = rng.choice([2, 3, 7, 2147483647])
        prod = Poly(Fq.prime(p), a) * Poly(Fq.prime(p), b)
        assert [c.rep for c in prod] == oracles.sympy_mul(a, b, p)
        a = _random_coeffs(rng, rng.random() < 0.5, True)
        b = _random_coeffs(rng, rng.random() < 0.5, True)
        assert list(qpoly(a) * qpoly(b)) == oracles.sympy_mul(a, b)


def test_poly_pow_and_compose() -> None:
    x = qpoly([0, 1])
    assert (x + qpoly([1])) ** 3 == qpoly([1, 3, 3, 1])
    f = qpoly([1, 0, 1])
    g = qpoly([-2, 1])
    assert f.compose(g) == qpoly([5, -4, 1])
    assert f.evaluate(Fraction(3)) == 10


def test_poly_scale_derivative() -> None:
    f = qpoly([2, 0, 5])
    assert f.scale(Fraction(1, 2)) == qpoly([1, 0, Fraction(5, 2)])
    assert f.derivative() == qpoly([0, 10])


def test_gcd_monic() -> None:
    f = qpoly([-1, 0, 1])
    g = qpoly([1, 1])
    assert gcd_monic(f * g, g * qpoly([7, 3])) == g.monic() * qpoly([Fraction(1)])
    rng = random.Random(31)
    for _ in range(30):
        a = random_qpoly(rng, 4)
        b = random_qpoly(rng, 4)
        if a.is_zero() or b.is_zero():
            continue
        got = gcd_monic(a, b)
        want = oracles.sympy_gcd(list(a), list(b))
        want_poly = Poly(QQ, want)
        if not want_poly.is_zero():
            want_poly = want_poly.monic()
        assert got == want_poly


def test_content_vp() -> None:
    assert content_vp(qpoly([18, 27, 9]), 3) == 2
    assert content_vp(qpoly([]), 3) == INF
    assert content_vp(qpoly([1, 3]), 3) == 0


def test_phi_expansion_roundtrip() -> None:
    rng = random.Random(37)
    for _ in range(60):
        g = random_qpoly(rng, 12)
        phi = random_qpoly(rng, rng.randrange(1, 4), monic=True)
        if phi.degree < 1:
            continue
        digits = phi_expansion(g, phi)
        assert all(d.is_zero() or d.degree < phi.degree for d in digits)
        assert expansion_sum(digits, phi) == g
        want = oracles.phi_expansion_oracle(list(g), list(phi))
        assert [list(d) for d in digits] == want


def test_phi_expansion_of_zero() -> None:
    assert phi_expansion(qpoly([]), qpoly([0, 1])) == []


def test_parse_format_roundtrip() -> None:
    rng = random.Random(41)
    for _ in range(60):
        g = random_qpoly(rng, 8)
        assert parse_poly(format_poly(g)) == g
    assert format_poly(qpoly([Fraction(-3, 2), Fraction(1, 2), -1])) == "-x^2 + 1/2*x - 3/2"
    assert format_poly(qpoly([0, -1, Fraction(2, 3)])) == "2/3*x^2 - x"


def test_parse_expression_grammar() -> None:
    got = parse_poly("x^4 - 2*(3 + 9 - 27)*x^2 + 6786")
    assert got == qpoly([6786, 0, 30, 0, 1])
    assert parse_poly("(x - 1)*(x + 1)") == qpoly([-1, 0, 1])
    assert parse_poly("-x") == qpoly([0, -1])
    assert parse_poly("2^3") == qpoly([8])
    assert parse_poly("y^2 + 1", var="y") == qpoly([1, 0, 1])
    assert parse_poly("x^1000 + 1") == qpoly([1] + [0] * 999 + [1])
    assert parse_poly("2^41") == qpoly([2**41])


def test_parse_rejects_garbage() -> None:
    for text in ["x + y", "x**2", "1/2", "x^", "(x", "x!", "", "x^\u00b2+1", "\u0663*x"]:
        with pytest.raises(ParseError):
            parse_poly(text)


def test_parse_size_limits() -> None:
    """Degree and coefficient size are bounded before a product or power is
    computed; an over-long literal is a parse error, not a ValueError."""
    for text in ["x^1001", "x^600*x^600", "(x^2+1)^501", "(2^1000)^1000",
                 "2^30000*2^30000*2^30000*2^30000",
                 "((2^1000)^1000)^1000", "x^99999999999", "2^99999999999"]:
        with pytest.raises(ParseError, match="exceeds the limit"):
            parse_poly(text)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        for text in ["x + " + "7" * (limit + 1), "x^" + "7" * (limit + 1)]:
            with pytest.raises(ParseError, match="too long"):
                parse_poly(text)

