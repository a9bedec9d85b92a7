"""Exact base arithmetic: p-adic valuations of rationals, dense polynomials
over an arbitrary coefficient ring, phi-adic expansion, and a small text
format for integer polynomials.

Rational values are `fractions.Fraction` throughout; the valuation of 0 is
the float infinity `INF`, which is the only non-rational value ever produced.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Union

from .errors import ConfigError, ParseError, PreconditionError

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


def vp(q: int | Fraction, p: int) -> Val:
    """p-adic valuation of a rational number; INF for 0."""
    if not is_prime(p):
        raise ConfigError(f"vp: {p} is not prime")
    q = Fraction(q)
    if q == 0:
        return INF

    def ord_int(n: int) -> int:
        n = abs(n)
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        return k

    return Fraction(ord_int(q.numerator) - ord_int(q.denominator))


class RationalRing:
    """Coefficient-ring adapter for Fraction polynomials."""

    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, v: int | Fraction) -> Fraction:
        return v if isinstance(v, Fraction) else Fraction(v)

    def __repr__(self) -> str:
        return "QQ"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RationalRing)

    def __hash__(self) -> int:
        return hash("QQ")


QQ = RationalRing()


class Poly:
    """Immutable dense polynomial over a ring adapter.

    The ring adapter provides `zero`, `one` and `coerce`; elements implement
    the usual arithmetic dunders. Coefficients are stored from the constant
    term upward with trailing zeros stripped; the zero polynomial has an
    empty coefficient tuple and degree -1.
    """

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs: Iterable) -> None:
        cs = [ring.coerce(c) if isinstance(c, (int, Fraction)) else c for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value) -> None:
        raise AttributeError("Poly is immutable")

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

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Poly)
            and self.ring == other.ring
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.ring, self.coeffs))

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

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise PreconditionError("negative polynomial power")
        out = Poly(self.ring, [self.ring.one])
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

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

    def compose(self, other: "Poly") -> "Poly":
        acc = Poly(self.ring, [])
        for c in reversed(self.coeffs):
            acc = acc * other + Poly(self.ring, [c])
        return acc

    def __repr__(self) -> str:
        return f"Poly({self.ring!r}, {list(self.coeffs)!r})"


def qpoly(coeffs: Iterable[int | Fraction]) -> Poly:
    """Polynomial over the rationals from constant-first coefficients."""
    return Poly(QQ, coeffs)


def gcd_monic(a: Poly, b: Poly) -> Poly:
    """Monic gcd over a coefficient field."""
    while not b.is_zero():
        a, b = b, a % b
    if a.is_zero():
        return a
    return a.monic()


def content_vp(g: Poly, p: int) -> Val:
    """Minimum p-adic valuation over the coefficients of a rational polynomial."""
    if g.is_zero():
        return INF
    return min(vp(c, p) for c in g.coeffs if c)


def phi_expansion(g: Poly, phi: Poly) -> list[Poly]:
    """Coefficients a_0..a_k of the phi-adic expansion g = sum a_s phi^s.

    Requires phi monic of degree >= 1; every a_s has degree < deg phi.
    The zero polynomial expands to an empty list.
    """
    if phi.degree < 1 or not phi.is_monic():
        raise PreconditionError("phi_expansion: phi must be monic of degree >= 1")
    out: list[Poly] = []
    rest = g
    while not rest.is_zero():
        rest, a = divmod(rest, phi)
        out.append(a)
    return out


# Text format: integer literals, one variable, +, -, *, ^ and parentheses.

_TOKEN_OPS = set("+-*^()")

# Input size limits, checked before each product or power is computed.
_MAX_DEGREE = 1000
_MAX_COEFF_BITS = 100_000


def _size_bits(g: Poly) -> int:
    """Bound on log2 of g's l1 norm: the largest numerator's bit length plus
    the bit length of the term count. The l1 norm is submultiplicative, so a
    product's coefficients have at most _size_bits(a) + _size_bits(b) bits
    and an n-th power's at most n * _size_bits(g)."""
    terms = [c for c in g.coeffs if c]
    return max((abs(c.numerator).bit_length() for c in terms), default=0) + len(terms).bit_length()


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


def _tokenize(text: str) -> list[str]:
    toks: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in _TOKEN_OPS:
            toks.append(ch)
            i += 1
        elif "0" <= ch <= "9":
            j = i
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
            toks.append(text[i:j])
            i = j
        elif ch.isalpha():
            toks.append(ch)
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r} in polynomial")
    return toks


class _Parser:
    def __init__(self, toks: list[str], var: str) -> None:
        self.toks = toks
        self.pos = 0
        self.var = var

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
        return out

    def expr(self) -> Poly:
        acc = self.term()
        while self.peek() in ("+", "-"):
            op = self.next()
            rhs = self.term()
            acc = acc + rhs if op == "+" else acc - rhs
        return acc

    def term(self) -> Poly:
        acc = self.factor()
        while self.peek() == "*":
            self.next()
            rhs = self.factor()
            _check_size(acc.degree + rhs.degree, _size_bits(acc) + _size_bits(rhs))
            acc = acc * rhs
        return acc

    def factor(self) -> Poly:
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
            _check_size(n * base.degree, n * _size_bits(base))
            base = base ** n
        return base if sign == 1 else -base

    def atom(self) -> Poly:
        tok = self.next()
        if tok.isdigit():
            return qpoly([_literal(tok)])
        if tok == self.var:
            return qpoly([0, 1])
        if tok == "(":
            inner = self.expr()
            if self.next() != ")":
                raise ParseError("missing closing parenthesis")
            return inner
        raise ParseError(f"unexpected token {tok!r}")


def parse_poly(text: str, var: str = "x") -> Poly:
    """Parse an integer polynomial expression in the given variable."""
    toks = _tokenize(text)
    if not toks:
        raise ParseError("empty polynomial")
    return _Parser(toks, var).parse()


def format_poly(g: Poly, var: str = "x") -> str:
    """Render a rational polynomial as text.

    Integer polynomials round-trip through parse_poly; non-integer rational
    coefficients render as num/den, which the integer grammar does not accept.
    """
    return format_terms(g, str, var)


def format_terms(g: Poly, render, var: str) -> str:
    """Render a polynomial highest power first, each coefficient as
    render(c). A coefficient rendered 1 or -1 prints as the bare power, a
    leading - joins as ' - ', and a rendering with a space is parenthesized."""
    if g.is_zero():
        return "0"
    parts: list[str] = []
    for k in range(g.degree, -1, -1):
        c = g.coeff(k)
        if not c:
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
    return " ".join(parts)
