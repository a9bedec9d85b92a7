"""Rational polynomial layer: valuations, division, expansions, parsing."""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import pytest
import sympy

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
from omfactor import arith
from omfactor.arith import (
    content_vp,
    is_prime,
    phi_expansion,
)
from omfactor.cli import main
from genchains import random_qpoly
from reference import (
    compose, expansion_sum, gcd_monic, phi_expansion_by_divmod, tokenize_by_chars)
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
    m = qpoly([Fraction(1, 2), -3, 0, 1])
    for g in (qpoly([2, Fraction(-1, 3), 1, 5, 0, 7]), x + qpoly([1]), qpoly([4])):
        for n in range(10):
            assert pow(g, n, m) == (g ** n) % m
        assert pow(g, 0, m) == qpoly([1])
    f = qpoly([1, 0, 1])
    g = qpoly([-2, 1])
    assert compose(f, g) == qpoly([5, -4, 1])
    assert f.evaluate(Fraction(3)) == 10


def test_poly_scale_derivative() -> None:
    f = qpoly([2, 0, 5])
    assert f.scale(Fraction(1, 2)) == qpoly([1, 0, Fraction(5, 2)])
    assert f.derivative() == qpoly([0, 10])


def test_coefficients_int_unless_a_real_denominator() -> None:
    assert qpoly([Fraction(3)]) == qpoly([3])
    assert hash(qpoly([Fraction(3)])) == hash(qpoly([3]))
    assert [type(c) for c in qpoly([Fraction(4, 2), Fraction(1, 2), True])] == [int, Fraction, int]
    assert qpoly([1, 2]).monic().coeffs == (Fraction(1, 2), 1)
    q, r = divmod(qpoly([1, 0, 1]), qpoly([1, 2]))
    assert (q.coeffs, r.coeffs) == ((Fraction(-1, 4), Fraction(1, 2)), (Fraction(5, 4),))
    assert [type(c) for c in q.coeffs + r.coeffs] == [Fraction] * 3
    q, r = divmod(qpoly([4, 0, 6]), qpoly([1, 2]))
    assert (q.coeffs, r.coeffs) == ((Fraction(-3, 2), 3), (Fraction(11, 2),))
    assert type(q.coeffs[1]) is int
    assert QQ.zero == 0 and type(QQ.zero) is int
    with pytest.raises(TypeError):
        qpoly([0.5])


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


def test_content_vp_tests_primality_once(monkeypatch) -> None:
    asked: list[int] = []

    def counting(n: int) -> bool:
        asked.append(n)
        return is_prime(n)

    monkeypatch.setattr(arith, "is_prime", counting)
    assert content_vp(qpoly([18, 27, 9, 3, 81]), 3) == 1
    assert asked == [3]
    with pytest.raises(ConfigError, match="4 is not prime"):
        content_vp(qpoly([18, 27, 9]), 4)
    with pytest.raises(ConfigError):
        vp(10, 4)


def test_phi_expansion_roundtrip() -> None:
    rng = random.Random(37)
    for _ in range(60):
        g = random_qpoly(rng, 12)
        phi = random_qpoly(rng, rng.randrange(1, 4), monic=True)
        if phi.degree < 1:
            continue
        digits = phi_expansion(g.coeffs, phi)
        assert all(len(d) < len(phi.coeffs) for d in digits)
        assert expansion_sum([qpoly(d) for d in digits], phi) == g
        want = oracles.phi_expansion_oracle(list(g), list(phi))
        assert [list(d) for d in digits] == want


def test_phi_expansion_of_zero() -> None:
    assert phi_expansion((), qpoly([0, 1])) == []


def _canonical(coeffs: tuple) -> bool:
    return all(type(c) is (int if Fraction(c).denominator == 1 else Fraction) for c in coeffs)


def test_phi_expansion_matches_repeated_division(monkeypatch) -> None:
    """One in-place division loop gives the coefficient tuples of the
    expansion that repeated divmod gives, each in Poly's canonical form,
    and calls no divmod."""
    rng = random.Random(43)
    cases = []
    for _ in range(150):
        m = rng.randrange(1, 6)
        phi = qpoly([rng.randrange(-30, 31) for _ in range(m)] + [1])
        deg = rng.choice([-1, rng.randrange(0, m), rng.randrange(0, 18)])
        coeffs = [rng.randrange(-50, 51) for _ in range(deg + 1)]
        if rng.random() < 0.5:  # denominators prime to p = 5
            coeffs = [Fraction(c, rng.choice([1, 2, 3, 7, 12])) for c in coeffs]
        cases.append((qpoly(coeffs), phi))
    cases.append((qpoly([Fraction(3, 2), 4]), qpoly([1, 1, 1])))
    # phi = x and phi = x^3, which divide by shifting alone.
    for m in (1, 3):
        for deg in (-1, 0, m - 1, m, 2 * m + 1, 17):
            coeffs = [rng.randrange(-50, 51) for _ in range(deg + 1)]
            coeffs[-1:] = [Fraction(7, 12)] if coeffs else []
            cases.append((qpoly(coeffs), qpoly([0] * m + [1])))
    want = [[a.coeffs for a in phi_expansion_by_divmod(g, phi)] for g, phi in cases]

    def no_division(a, b):
        raise AssertionError("phi_expansion divided with Poly.__divmod__")

    monkeypatch.setattr(Poly, "__divmod__", no_division)
    for (g, phi), expected in zip(cases, want):
        got = phi_expansion(g.coeffs, phi)
        assert got == expected
        assert all(type(a) is tuple and _canonical(a) for a in got)
        if g.is_zero():
            assert got == []
        elif g.degree < phi.degree:
            assert got == [g.coeffs]


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
    assert parse_poly("x^1000 + 1") == qpoly([1] + [0] * 999 + [1])
    assert parse_poly("x^1000 + x^1000") == qpoly([0] * 1000 + [2])
    assert parse_poly("2^41") == qpoly([2**41])
    assert parse_poly("(" * 100 + "x" + ")" * 100) == qpoly([0, 1])
    # Leading, trailing, tab and U+2003 (em space) whitespace is skipped.
    for text in [" x^2 + 1", "x^2 + 1 ", "x ", "  x^2+1  ", "\tx^2\t+\t1\t",
                 "\u2003x^2\u2003+\u20031\u2003", "x^2 +\n1\r\n"]:
        assert parse_poly(text) == qpoly([0, 1] if text.strip() == "x" else [1, 0, 1]), text


def test_tokenize_matches_the_character_loop() -> None:
    """The one-pattern tokenizer gives the tokens, or the ParseError
    message, of the character-at-a-time loop for every code point of the
    Basic Multilingual Plane, alone and in three contexts."""

    def outcome(tokenize, text: str):
        try:
            return ("tokens", tokenize(text))
        except ParseError as exc:
            return ("error", str(exc))

    for code in range(0x10000):
        ch = chr(code)
        for text in (ch, f"x{ch}1", f" {ch} ", f"12{ch}34"):
            assert outcome(arith._tokenize, text) == outcome(tokenize_by_chars, text), hex(code)


def test_parse_rejects_garbage() -> None:
    for text in ["x + y", "x**2", "1/2", "x^", "(x", "x!", "", "x^\u00b2+1", "\u0663*x",
                 "(" * 400 + "x" + ")" * 400]:
        with pytest.raises(ParseError):
            parse_poly(text)


def test_parse_size_limits() -> None:
    """Degree and coefficient size are bounded before a product or power is
    computed; an over-long literal is a parse error, not a ValueError."""
    for text in ["x^1001", "x^1000*x", "x^600*x^600", "(x^2+1)^501", "(2^1000)^1000",
                 "2^30000*2^30000*2^30000*2^30000",
                 "((2^1000)^1000)^1000", "x^99999999999", "2^99999999999"]:
        with pytest.raises(ParseError, match="exceeds the limit"):
            parse_poly(text)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        for text in ["x + " + "7" * (limit + 1), "x^" + "7" * (limit + 1)]:
            with pytest.raises(ParseError, match="too long"):
                parse_poly(text)


def test_parse_one_term_powers(capsys, monkeypatch) -> None:
    """A base with one term is raised directly, (c x^k)^n = c^n x^(kn): the
    same polynomial as the general product, x^0 and 0^0 stay 1, and x^1001
    exits 2 before any power is computed."""
    rng = random.Random(2503)
    for _ in range(40):
        c = rng.choice([-1, 1, rng.randrange(2, 51), -rng.randrange(2, 10**20)])
        k, n = rng.randrange(30), rng.randrange(30)
        product = "*".join([f"({c}*x^{k})"] * n) or "1"
        got = parse_poly(f"({c}*x^{k})^{n}")
        assert got == parse_poly(product) == qpoly([0] * (k * n) + [c**n]), (c, k, n)
    assert parse_poly("(-3*x^2)^5") == parse_poly("(-3*x^2)*" * 4 + "(-3*x^2)")
    assert parse_poly("(-3*x^2)^5") == qpoly([0] * 10 + [-243])
    assert parse_poly("x^0").coeffs == parse_poly("0^0").coeffs == (1,)

    def no_power(*args):
        raise AssertionError("a power was computed")

    monkeypatch.setattr(arith, "power", no_power)
    for text in ["x^1001", "(x + 1)^1001"]:
        assert main(["factor", "--prime", "3", "--poly", text]) == 2
        assert capsys.readouterr().err == "error: polynomial degree 1001 exceeds the limit 1000\n"


X = sympy.symbols("x")


def _sympy_coeffs(value) -> tuple:
    """Constant-first integer coefficients of a sympy expression in x."""
    expanded = sympy.expand(value)
    if expanded == 0:
        return ()
    return tuple(int(c) for c in reversed(sympy.Poly(expanded, X).all_coeffs()))


def _random_expr(rng: random.Random, depth: int) -> tuple[str, object]:
    """A random text in the parser's grammar and its value built in sympy:
    expr = term (+|- term)*, term = factor (* factor)*, factor = sign* atom
    [^ n], atom = integer | x | ( expr )."""

    def atom(d):
        kind = rng.randrange(4 if d else 2)
        if kind == 0:
            n = rng.choice([0, 1, 2, 3, 7, rng.randrange(10**25)])
            return str(n), sympy.Integer(n)
        if kind == 1:
            return "x", X
        text, value = expr(d - 1)
        return f"({text})", value

    def factor(d):
        signs = "".join(rng.choice("+-") for _ in range(rng.choice([0, 0, 1, 2])))
        text, value = atom(d)
        if rng.random() < 0.3:
            n = rng.randrange(4)
            text, value = f"{text}^{n}", value**n
        return signs + text, value * (-1) ** signs.count("-")

    def term(d):
        text, value = factor(d)
        for _ in range(rng.choice([0, 0, 1, 2])):
            t, v = factor(d)
            text, value = f"{text}*{t}", value * v
        return text, value

    def expr(d):
        text, value = term(d)
        for _ in range(rng.randrange(4)):
            op = rng.choice("+-")
            t, v = term(d)
            text, value = f"{text} {op} {t}", value + v if op == "+" else value - v
        return text, value

    return expr(depth)


def _expanded_text(coeffs: list[int]) -> str:
    """Constant-first coefficients as expanded text, highest power first:
    `x^48 - 2*x^47 + ... + 2`, the form of the benchmark's inputs."""
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if not c:
            continue
        mag = abs(c)
        head = "" if k == 0 else "x" if k == 1 else f"x^{k}"
        body = str(mag) if not head else head if mag == 1 else f"{mag}*{head}"
        if not parts:
            parts.append(f"-{body}" if c < 0 else body)
        else:
            parts.append(f"- {body}" if c < 0 else f"+ {body}")
    return " ".join(parts) or "0"


def test_parse_matches_sympy_oracle() -> None:
    """parse_poly against sympy.expand: random expression trees, sums that
    cancel, 0^0, and sparse expanded texts up to degree 1000."""
    rng = random.Random(1801)
    for _ in range(80):
        text, value = _random_expr(rng, rng.randrange(4))
        assert parse_poly(text).coeffs == _sympy_coeffs(value), text
    for _ in range(12):
        text, value = _random_expr(rng, 2)
        for cancel in [f"({text}) - ({text})", f"-({text}) + ({text})*1",
                       f"({text})*0", f"({text}) - ({text})^1"]:
            assert parse_poly(cancel).is_zero(), cancel
    for text, want in [("0^0", (1,)), ("0^3", ()), ("(x - x)^0", (1,)), ("(x - x)^2", ()),
                       ("x^5 + 3*x - x^5 - 3*x", ()), ("-(-x)^0", (-1,))]:
        oracle = _sympy_coeffs(sympy.sympify(text.replace("^", "**")))
        assert parse_poly(text).coeffs == want == oracle, text
    for deg in [1000] + [rng.randrange(1, 1001) for _ in range(14)]:
        coeffs = [0] * deg + [1]
        for k in rng.sample(range(deg), min(deg, rng.randrange(1, 60))):
            coeffs[k] = rng.choice([-1, 1, rng.randrange(-50, 51), rng.randrange(-10**40, 10**40)])
        text = _expanded_text(coeffs)
        got = parse_poly(text)
        assert got == qpoly(coeffs), text
        assert got.coeffs == _sympy_coeffs(sympy.sympify(text.replace("^", "**"))), text
