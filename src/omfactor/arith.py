"""Exact base arithmetic: p-adic valuations of rationals, dense polynomials
over an arbitrary coefficient ring, phi-adic expansion, and a small text
format for integer polynomials.

A rational coefficient is stored in one form, set by `RationalRing.coerce`:
an `int` when it is integral, a `fractions.Fraction` only when its
denominator is > 1. The valuation of 0 is the float infinity `INF`, the only
non-rational value ever produced; no coefficient is ever a float.
"""

from __future__ import annotations

import decimal
import re
from fractions import Fraction
from operator import not_
from typing import Iterable, Iterator, Sequence, Union

from .errors import ConfigError, ParseError, PreconditionError
from .record import Record, _set

INF = float("inf")

Val = Union[Fraction, float]


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for int n. The witnesses
    decide every n below 3317044064679887385961981, the least strong
    pseudoprime to all of them; from there on it raises ConfigError."""
    if n < 2:
        return False
    if n >= 3317044064679887385961981:
        raise ConfigError(f"{n} is at or above the primality test limit 3317044064679887385961981")
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for q in small:
        if n == q:
            return True
        if n % q == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def vp(q: int | Fraction, p: int) -> int | float:
    """p-adic valuation of a rational number; INF for 0."""
    if not is_prime(p):
        raise ConfigError(f"vp: {p} is not prime")
    return _vp(q, p)


def _vp(q: int | Fraction, p: int) -> int | float:
    """vp for a p already known to be prime."""
    if q == 0:
        return INF
    n, d, k = abs(q.numerator), q.denominator, 0
    while n % p == 0:
        n //= p
        k += 1
    while d % p == 0:
        d //= p
        k -= 1
    return k


class RationalRing:
    """Coefficient-ring adapter for rational polynomials. QQ is the only
    instance, compared by identity. `one` is a Fraction so that `one / c`
    divides exactly."""

    zero = 0
    one = Fraction(1)
    exact = int

    def coerce(self, v: int | Fraction) -> int | Fraction:
        """The canonical form of a rational: int when integral, else Fraction."""
        if not isinstance(v, (int, Fraction)):
            raise TypeError(f"{v!r} is not an exact rational")
        return v.numerator if v.denominator == 1 else v

    def __repr__(self) -> str:
        return "QQ"


QQ = RationalRing()


class Poly(Record):
    """Dense polynomial over a ring adapter: a record of ring and coeffs.

    The ring adapter provides `zero`, `one` and `coerce`, and `exact`, the
    element type that is stored without coercion; elements implement the
    usual arithmetic dunders. Coefficients are stored from the constant
    term upward with trailing zeros stripped; the zero polynomial has an
    empty coefficient tuple and degree -1.
    """

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs: Iterable) -> None:
        exact, coerce = ring.exact, ring.coerce
        cs = [c if type(c) is exact else coerce(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        _set(self, "ring", ring)
        _set(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, i: int) -> object:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.ring.zero

    def lc(self):
        if not self.coeffs:
            raise PreconditionError("leading coefficient of the zero polynomial")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.ring.one

    def __iter__(self) -> Iterator:
        return iter(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __neg__(self) -> "Poly":
        return Poly(self.ring, [-c for c in self.coeffs])

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.ring, [self.coeff(i) + other.coeff(i) for i in range(n)])

    def __sub__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.ring, [self.coeff(i) - other.coeff(i) for i in range(n)])

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly(self.ring, [])
        out = [self.ring.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        right = [(j, b) for j, b in enumerate(other.coeffs) if b]
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in right:
                out[i + j] = out[i + j] + a * b
        return Poly(self.ring, out)

    def scale(self, c) -> "Poly":
        return Poly(self.ring, [c * a for a in self.coeffs])

    def __pow__(self, n: int, modulus: "Poly | None" = None) -> "Poly":
        """self^n; pow(self, n, m) reduces every product mod m."""
        if n < 0:
            raise PreconditionError("negative polynomial power")
        one = Poly(self.ring, [self.ring.one])
        if modulus is None:
            return power(self, n, one, lambda a, b: a * b)
        return power(self % modulus, n, one, lambda a, b: a * b % modulus)

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise PreconditionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(self.coeffs) - len(other.coeffs)
        if dq < 0:
            return Poly(self.ring, []), self
        inv_lc = None if other.lc() == self.ring.one else self.ring.one / other.lc()
        quo = [self.ring.zero] * (dq + 1)
        for k in range(dq, -1, -1):
            c = rem[k + other.degree]
            if inv_lc is not None:
                c = c * inv_lc
            quo[k] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] = rem[k + j] - c * b
        return Poly(self.ring, quo), Poly(self.ring, rem[: other.degree])

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero():
            raise PreconditionError("monic scaling of the zero polynomial")
        return self.scale(self.ring.one / self.lc())

    def derivative(self) -> "Poly":
        return Poly(
            self.ring,
            [self.coeffs[i] * self.ring.coerce(i) for i in range(1, len(self.coeffs))],
        )

    def evaluate(self, x):
        acc = self.ring.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def power(x, n: int, one, mul):
    """x^n for n >= 0 by square-and-multiply, with product mul and unit one."""
    out = one
    while n:
        if n & 1:
            out = mul(out, x)
        n >>= 1
        if n:
            x = mul(x, x)
    return out


def qpoly(coeffs: Iterable[int | Fraction]) -> Poly:
    """Polynomial over the rationals from constant-first coefficients."""
    return Poly(QQ, coeffs)


def content_vp(g: Poly, p: int) -> int | float:
    """Minimum p-adic valuation over the coefficients of a rational polynomial."""
    if g.is_zero():
        return INF
    if not is_prime(p):
        raise ConfigError(f"content_vp: {p} is not prime")
    return _content_vp(g.coeffs, p)


def _content_vp(coeffs: tuple, p: int) -> int | float:
    """content_vp on a coefficient tuple, for a p already known to be prime:
    a direct loop on int coefficients, _vp for a Fraction."""
    u = INF
    for c in filter(None, coeffs):
        if type(c) is int:
            k = 0
            while k < u and c % p == 0:
                c //= p
                k += 1
        else:
            k = _vp(c, p)
        u = min(u, k)
    return u


def phi_expansion(coeffs: tuple, phi: Poly) -> list[tuple]:
    """Coefficients a_0..a_k of the phi-adic expansion g = sum a_s phi^s.

    Takes g's coefficient tuple; each a_s is a tuple of length < m = deg phi
    in Poly's canonical form, () expands to [], and phi is monic with m >= 1.
    Each step divides the coefficients from index lo up by phi in place: a_s
    is left below lo + m, the quotient, which the next step divides, above it.
    """
    m = len(phi.coeffs) - 1
    if m < 1 or phi.coeffs[-1] != 1:
        raise PreconditionError("phi_expansion: phi must be monic of degree >= 1")
    if (n := len(coeffs)) <= m:
        return [coeffs] if coeffs else []
    low = [(j, b) for j, b in enumerate(phi.coeffs[:m]) if b]
    rest, out = list(coeffs), []
    for lo in range(0, n - m if low else 0, m):  # phi = x^m divides by shifting alone
        for k in range(n - 1, lo + m - 1, -1):
            c = rest[k]
            if c:
                for j, b in low:
                    rest[k - m + j] -= c * b
    for lo in range(0, n, m):
        a = [c if type(c) is int or c.denominator > 1 else c.numerator for c in rest[lo:lo + m]]
        while a and not a[-1]:
            a.pop()
        out.append(tuple(a))
    return out


# Text format: integer literals, one variable, +, -, *, ^ and parentheses.

_TOKEN_OPS = set("+-*^()")

# Input size limits, checked before each product or power is computed.
_MAX_DEGREE = 1000
_MAX_COEFF_BITS = 100_000


def _size_bits(coeffs: Iterable[int]) -> int:
    """Bound on log2 of the l1 norm of g, given g's integer coefficients: the
    largest one's bit length plus the bit length of the nonzero-term count.
    The l1 norm is submultiplicative, so a product's coefficients have at
    most _size_bits(a) + _size_bits(b) bits and an n-th power's n * _size_bits(g)."""
    terms = list(filter(None, coeffs))
    return max(map(int.bit_length, map(abs, terms)), default=0) + len(terms).bit_length()


def _check_size(degree: int, bits: int) -> None:
    if degree > _MAX_DEGREE:
        raise ParseError(f"polynomial degree {degree} exceeds the limit {_MAX_DEGREE}")
    if bits > _MAX_COEFF_BITS:
        raise ParseError(f"coefficient size bound {bits} bits exceeds the limit {_MAX_COEFF_BITS}")


def _literal(tok: str) -> int:
    try:
        return int(tok)
    except ValueError as exc:  # the interpreter's digit limit for int(str)
        raise ParseError(f"integer literal of {len(tok)} digits is too long") from exc


# One token after optional whitespace (str.isspace): a run of ASCII digits,
# or any other single character, which _tokenize then checks.
_TOKEN = re.compile(r"\s*(?:([0-9]+)|(\S))")


def _tokenize(text: str) -> list[str]:
    toks: list[str] = []
    for digits, ch in _TOKEN.findall(text):
        if digits:
            toks.append(digits)
        elif ch in _TOKEN_OPS or ch.isalpha():
            toks.append(ch)
        else:
            raise ParseError(f"unexpected character {ch!r} in polynomial")
    return toks


def _sparse_mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Product of two parser values (exponent -> nonzero int): every pair of
    terms, summed into a list indexed from the lowest possible exponent."""
    if not a or not b:
        return {}
    lo = min(a) + min(b)
    out = [0] * (max(a) + max(b) - lo + 1)
    for i, x in a.items():
        i -= lo
        for j, y in b.items():
            out[i + j] += x * y
    return {k: c for k, c in enumerate(out, lo) if c}


class _Parser:
    def __init__(self, toks: list[str]) -> None:
        self.toks = toks
        self.pos = 0

    def peek(self) -> str | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of polynomial")
        self.pos += 1
        return tok

    def parse(self) -> Poly:
        out = self.expr()
        if self.peek() is not None:
            raise ParseError(f"unexpected token {self.peek()!r}")
        return qpoly([out.get(k, 0) for k in range(max(out, default=-1) + 1)])

    def expr(self) -> dict[int, int]:
        acc = self.term()
        while self.peek() in ("+", "-"):
            sign = 1 if self.next() == "+" else -1
            for k, c in self.term().items():
                if c := acc.pop(k, 0) + sign * c:
                    acc[k] = c
        return acc

    def term(self) -> dict[int, int]:
        acc = self.factor()
        while self.peek() == "*":
            self.next()
            rhs = self.factor()
            if len(acc) == len(rhs) == 1:  # two monomials: _sparse_mul's bound, direct
                ((i, x),), ((j, y),) = acc.items(), rhs.items()
                _check_size(i + j, x.bit_length() + y.bit_length() + 2)
                acc = {i + j: x * y}
            else:
                _check_size(max(acc, default=-1) + max(rhs, default=-1),
                            _size_bits(acc.values()) + _size_bits(rhs.values()))
                acc = _sparse_mul(acc, rhs)
        return acc

    def factor(self) -> dict[int, int]:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.next() == "-":
                sign = -sign
        base = self.atom()
        if self.peek() == "^":
            self.next()
            tok = self.next()
            if not tok.isdigit():
                raise ParseError(f"exponent must be a nonnegative integer, got {tok!r}")
            n = _literal(tok)
            _check_size(n * max(base, default=-1), n * _size_bits(base.values()))
            if len(base) == 1:  # (c x^k)^n = c^n x^(k n)
                ((k, c),) = base.items()
                base = {k * n: c ** n}
            else:
                base = power(base, n, {0: 1}, _sparse_mul)
        return base if sign == 1 else {k: -c for k, c in base.items()}

    def atom(self) -> dict[int, int]:
        tok = self.next()
        if tok.isdigit():
            return {0: c} if (c := _literal(tok)) else {}
        if tok == "x":
            return {1: 1}
        if tok == "(":
            inner = self.expr()
            if self.next() != ")":
                raise ParseError("missing closing parenthesis")
            return inner
        raise ParseError(f"unexpected token {tok!r}")


def parse_poly(text: str) -> Poly:
    """Parse an integer polynomial expression in x."""
    toks = _tokenize(text)
    if not toks:
        raise ParseError("empty polynomial")
    try:
        return _Parser(toks).parse()
    except RecursionError:
        raise ParseError("polynomial is nested too deeply") from None


def format_poly(g: Poly) -> str:
    """Render a rational polynomial as text.

    Integer polynomials round-trip through parse_poly; non-integer rational
    coefficients render as num/den, which the integer grammar does not accept.
    """
    return format_terms(g.coeffs, decimal_str, "x", not_)


def decimal_str(q: int | Fraction) -> str:
    """str(q) for an int or a Fraction, exact also past the interpreter's
    digit limit for str(int), which bounds only the literals read."""
    try:
        return str(q)
    except ValueError:
        num, den = (str(decimal.Decimal(n)) for n in (q.numerator, q.denominator))
        return num if den == "1" else f"{num}/{den}"


def format_terms(coeffs: Sequence, render, var: str, is_zero) -> str:
    """Render a polynomial, given its coefficients constant term first,
    highest power first, each coefficient c with is_zero(c) false as
    render(c); with none, "0". A coefficient rendered 1 or -1 prints as the
    bare power, a leading - joins as ' - ', and a rendering with a space is
    parenthesized."""
    parts: list[str] = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if is_zero(c):
            continue
        body = render(c)
        if " " in body:
            body = f"({body})"
        if k > 0:
            head = var if k == 1 else f"{var}^{k}"
            if body == "1":
                body = head
            elif body == "-1":
                body = f"-{head}"
            else:
                body = f"{body}*{head}"
        if not parts:
            parts.append(body)
        elif body.startswith("-"):
            parts.append(f"- {body[1:]}")
        else:
            parts.append(f"+ {body}")
    return " ".join(parts) if parts else "0"
