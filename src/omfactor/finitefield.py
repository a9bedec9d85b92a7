"""Finite-field towers and deterministic polynomial factorization.

A field is either a prime field or an extension of another tower field by a
monic irreducible modulus. An element is stored flat, as its coordinate
vector over F_p in the tower monomial basis (see FqElt). A degree-one level
y - a adds no coordinates: its elements keep the vectors of their base
images and use the base's arithmetic, so only levels of degree >= 2
multiply and reduce. Elements are fully reduced, so equality is vector
equality. F_q[y] has one arithmetic here, the list kernel below (_pmul,
_pdivmod, _pmonic, ...) on plain lists of element vectors: a tower product
is the kernel's product of the two chunk lists over the base, reduced by the
modulus, and Poly over F_q is only the container that commands pass around.
The residual walk (Fq._reduce, the kernel product) and the text writer
(Fq._chunks) read vectors too, and build no Poly over a lower field.
Factorization is squarefree / distinct-degree / equal-degree
splitting with a deterministic candidate sequence, run on plain lists of
element vectors (no FqElt per operation), and factor lists are sorted
canonically by degree, then by balanced coefficient coordinates from the
constant term upward.

Fields are interned: Fq.prime and Fq.extend build each field once and hand
back that object from then on, and fields are compared by identity, so two
elements are equal only over the same field object. A field built by
calling Fq directly is a field of its own. The interning tables
(Fq._prime_cache and each field's _ext_cache) are never evicted, since an
evicted field would be rebuilt as a different object.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat, zip_longest
from operator import add, mul

from .arith import Poly, is_prime, power
from .errors import ConfigError, InternalError, PreconditionError


def balanced_int(rep: int, p: int) -> int:
    """Representative of rep mod p in the balanced range (p = 2 uses {0, 1})."""
    half = (p - 1) // 2
    return (rep + half) % p - half


class FqElt:
    """Element of a tower field: rep is an int below p if the field has
    absolute degree 1, else a tuple of deg_abs ints below p. Over the
    immediate base, the coefficient of y^j is the j-th chunk of
    base.deg_abs coordinates, laid out the same way one level down, so base
    coordinates are innermost; flat_key() is rep in balanced form. Not a
    Record: on its base (2-core Xeon, Python 3.11), a build took 0.8 against
    0.4 us and a comparison 2.5 against 0.26 us, about 60 us more on a
    0.43 ms type_docs op. So nothing guards its slots at run time; instead
    nothing in the package assigns or deletes field or rep outside
    __init__, which tests/test_records.py checks on the source."""

    __slots__ = ("field", "rep")

    def __init__(self, field: "Fq", rep) -> None:
        self.field = field
        self.rep = rep

    def _same(self, other: "FqElt") -> None:
        if not isinstance(other, FqElt) or self.field is not other.field:
            raise InternalError("mixed-field arithmetic")

    def __bool__(self) -> bool:
        return self.rep != self.field.zero.rep

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FqElt) and self.field is other.field and self.rep == other.rep

    def __hash__(self) -> int:
        return hash((self.field, self.rep))

    def coords(self) -> list["FqElt"]:
        """Coordinates over the immediate base field, padded to full length."""
        if self.field.base is None:
            raise PreconditionError("coords of a prime-field element")
        return [FqElt(self.field.base, c) for c in self.field._chunks(self.rep)]

    def flat_key(self) -> tuple[int, ...]:
        """Absolute coordinate vector over the prime field, balanced.

        Used as the canonical sort key for elements; length equals the
        absolute degree of the field.
        """
        p = self.field.p
        if self.field.deg_abs == 1:
            return (balanced_int(self.rep, p),)
        return tuple(balanced_int(c, p) for c in self.rep)

    def lift_int(self) -> int:
        """Balanced integer lift; prime-field elements only."""
        if self.field.base is not None:
            raise PreconditionError("integer lift of a non-prime-field element")
        return balanced_int(self.rep, self.field.p)

    def __add__(self, other: "FqElt") -> "FqElt":
        self._same(other)
        return FqElt(self.field, self.field._add(self.rep, other.rep))

    def __sub__(self, other: "FqElt") -> "FqElt":
        self._same(other)
        return FqElt(self.field, self.field._sub(self.rep, other.rep))

    def __neg__(self) -> "FqElt":
        return FqElt(self.field, self.field._sub(self.field.zero.rep, self.rep))

    def __mul__(self, other: "FqElt") -> "FqElt":
        self._same(other)
        return FqElt(self.field, self.field._kernel._mul(self.rep, other.rep))

    def inverse(self) -> "FqElt":
        """Multiplicative inverse, checked as Fq._inv describes."""
        if not self:
            raise PreconditionError("inverse of zero")
        return FqElt(self.field, self.field._inv(self.rep))

    def __truediv__(self, other: "FqElt") -> "FqElt":
        self._same(other)
        return self * other.inverse()

    def __pow__(self, n: int) -> "FqElt":
        base = self.inverse() if n < 0 else self
        return FqElt(self.field, self.field._pow(base.rep, abs(n)))

    def __repr__(self) -> str:
        return f"FqElt({self.field.label()}, {self.rep!r})"


class Fq:
    """Prime field or extension of a tower field by a monic irreducible
    modulus. Doubles as the coefficient-ring adapter for Poly, and holds the
    arithmetic on its elements' coordinate vectors."""

    __slots__ = (
        "p", "base", "modulus", "deg_over_base", "deg_abs", "q", "_kernel",
        "_mod_list", "zero", "one", "_gen", "_ext_cache",
    )

    _prime_cache: dict[int, "Fq"] = {}
    exact = FqElt

    def __init__(self, p: int, base: "Fq | None", modulus: Poly | None) -> None:
        self.p = p
        self.base = base
        self.modulus = modulus
        if base is None:
            self.deg_over_base = self.deg_abs = 1
            self._kernel = self
        else:
            self.deg_over_base = modulus.degree
            self.deg_abs = base.deg_abs * modulus.degree
            # The field whose multiplication this one's vectors use.
            self._kernel = self if modulus.degree > 1 else base._kernel
            self._mod_list = [c.rep for c in modulus.coeffs]
        self.q = p ** self.deg_abs
        self.zero = FqElt(self, 0 if self.deg_abs == 1 else (0,) * self.deg_abs)
        self.one = FqElt(self, self._pad(1))
        if base is not None:
            # y itself, or the root -a of a degree-one modulus y + a.
            y = self.from_index(base.q) if modulus.degree > 1 else -modulus.coeff(0)
            self._gen = FqElt(self, y.rep)
        self._ext_cache: dict[tuple, Fq] = {}

    @classmethod
    def prime(cls, p: int) -> "Fq":
        if p not in cls._prime_cache:
            if not is_prime(p):
                raise ConfigError(f"{p} is not prime")
            cls._prime_cache[p] = cls(p, None, None)
        return cls._prime_cache[p]

    @property
    def level(self) -> int:
        return 0 if self.base is None else self.base.level + 1

    def label(self) -> str:
        return f"F{self.p}^{self.deg_abs}" if self.deg_abs > 1 else f"F{self.p}"

    def __repr__(self) -> str:
        return self.label()

    # Coordinate vectors.

    def _pad(self, r):
        """Vector of an element of a field below this one in the tower: its
        own vector followed by zeros."""
        if self.deg_abs == 1:
            return r
        r = (r,) if isinstance(r, int) else r  # absolute degree 1
        return r + self.zero.rep[len(r):]

    def _chunks(self, r) -> list:
        """Coordinates over the immediate base, as base vectors."""
        if self.deg_over_base == 1:
            return [r]
        n = self.base.deg_abs
        return list(r) if n == 1 else [r[i:i + n] for i in range(0, self.deg_abs, n)]

    def _flatten(self, chunks: list):
        """Inverse of _chunks."""
        if self.deg_over_base == 1:
            return chunks[0]
        return tuple(chunks) if self.base.deg_abs == 1 else sum(chunks, ())

    def _add(self, a, b):
        if self.deg_abs == 1:
            return (a + b) % self.p
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def _sub(self, a, b):
        if self.deg_abs == 1:
            return (a - b) % self.p
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def _mul(self, a, b):
        """Product of two vectors, on the prime field or a level of degree
        >= 2: the kernel's product of the chunk lists, reduced by the modulus."""
        if self.base is None:
            return a * b % self.p
        return self._reduce(_pmul(self.base, self._chunks(a), self._chunks(b)))

    def _reduce(self, cs: list):
        """Vector of the class of cs, a list of base vectors constant term
        first, modulo the modulus."""
        cs = _pdivmod(self.base, cs, self._mod_list)[1]
        return self._flatten(cs + [self.base.zero.rep] * (self.deg_over_base - len(cs)))

    def _pow(self, r, n: int):
        """r^n for n >= 0."""
        k = self._kernel
        if k.base is None:
            return pow(r, n, k.p)
        return power(r, n, self.one.rep, k._mul)

    def _inv(self, r):
        """Inverse of a nonzero vector, r^(q-2), checked: over a modulus that
        is not irreducible, a zero divisor has no inverse and the check fails."""
        k = self._kernel
        if k.base is None:
            return pow(r, -1, k.p)
        inv = self._pow(r, self.q - 2)
        if k._mul(inv, r) != self.one.rep:
            raise InternalError("modulus not irreducible in inverse computation")
        return inv

    # Ring adapter surface.

    def coerce(self, v: int | Fraction | FqElt) -> FqElt:
        if isinstance(v, FqElt):
            if v.field is not self:
                raise InternalError("coercion from a different field")
            return v
        if isinstance(v, Fraction):
            if v.denominator == 1:
                return self.coerce(v.numerator)
            if v.denominator % self.p == 0:
                raise PreconditionError("denominator not invertible modulo p")
            return self.coerce(v.numerator) / self.coerce(v.denominator)
        return FqElt(self, self._pad(v % self.p))

    def from_poly(self, g: Poly | list[FqElt]) -> FqElt:
        """Class modulo the modulus of g, read as a sequence of elements of
        the immediate base, constant term first: a Poly over the base
        iterates its coefficients, so it is one."""
        base = self.base
        if base is None or any(type(c) is not FqElt or c.field is not base for c in g):
            raise PreconditionError("from_poly expects elements of the immediate base field")
        return FqElt(self, self._reduce([c.rep for c in g]))

    # Tower structure.

    def extend(self, psi: Poly) -> "Fq":
        """Extension by a monic irreducible psi over this field.

        Degree-one moduli are allowed, but the modulus y itself only on the
        first level above the prime field.
        """
        if psi.ring is not self:
            raise PreconditionError("modulus is not a polynomial over this field")
        if psi.degree < 1 or not psi.is_monic():
            raise PreconditionError("modulus must be monic of degree >= 1")
        if self.base is not None and psi.degree == 1 and not psi.coeff(0):
            raise PreconditionError("modulus y is only allowed on the first level")
        key = tuple(psi.coeffs)
        hit = self._ext_cache.get(key)
        if hit is not None:
            return hit
        factors = fq_factor(psi)
        if len(factors) != 1 or factors[0][1] != 1:
            witness = " * ".join(
                f"({_poly_key_str(h)})^{m}" if m > 1 else f"({_poly_key_str(h)})"
                for h, m in factors
            )
            raise PreconditionError(f"modulus is reducible: {witness}")
        ext = Fq(self.p, self, psi)
        self._ext_cache[key] = ext
        return ext

    def gen(self) -> FqElt:
        """Class of y modulo this field's modulus."""
        if self.base is None:
            raise PreconditionError("a prime field has no tower generator")
        return self._gen

    def from_index(self, k: int) -> FqElt:
        """Deterministic enumeration of elements; 0 maps to zero. The
        coordinates are the base-p digits of k, lowest first."""
        if not 0 <= k < self.q:
            raise PreconditionError("element index out of range")
        if self.deg_abs == 1:
            return FqElt(self, k)
        return FqElt(self, tuple(k // self.p ** i % self.p for i in range(self.deg_abs)))


def _poly_key_str(g: Poly) -> str:
    return ", ".join(str(c.flat_key()) for c in g.coeffs)


# Polynomials over a field F inside the factorization: lists of F's element
# vectors, constant term first, trailing zeros stripped.


def _trim(F: Fq, a: list) -> list:
    while a and a[-1] == F.zero.rep:
        a.pop()
    return a


def _reduced(F: Fq, a: list) -> list:
    return [c % F.p for c in a] if F.deg_abs == 1 else a


def _axpy(F: Fq, u: list, c, b: list):
    """u + c*b entrywise. Over absolute degree one the entries are plain
    ints, left unreduced until _reduced."""
    if F.deg_abs == 1:
        return map(add, u, map(mul, repeat(c), b))
    kmul, fadd, zero = F._kernel._mul, F._add, F.zero.rep
    return [fadd(s, kmul(c, y)) if y != zero else s for s, y in zip(u, b)]


def _psub(F: Fq, a: list, b: list) -> list:
    return _trim(F, [F._sub(x, y) for x, y in zip_longest(a, b, fillvalue=F.zero.rep)])


def _pmul(F: Fq, a: list, b: list) -> list:
    if not a or not b:
        return []
    zero, n = F.zero.rep, len(b)
    out = [zero] * (len(a) + n - 1)
    for i, x in enumerate(a):
        if x != zero:
            out[i:i + n] = _axpy(F, out[i:i + n], x, b)
    return _reduced(F, out)


def _pdivmod(F: Fq, a: list, b: list) -> tuple[list, list]:
    """Quotient and remainder of a by a nonzero b. A non-monic b scales only
    the quotient digits, by the inverse of its leading coefficient."""
    db, dq = len(b) - 1, len(a) - len(b)
    if dq < 0:
        return [], a
    flat, zero, low = F.deg_abs == 1, F.zero.rep, b[:db]
    inv = None if b[-1] == F.one.rep else F._inv(b[-1])
    rem, quo = list(a), [zero] * (dq + 1)
    for k in range(dq, -1, -1):
        c = rem[k + db] % F.p if flat else rem[k + db]
        if c != zero:
            if inv is not None:
                c = c * inv % F.p if flat else F._kernel._mul(c, inv)
            quo[k] = c
            rem[k:k + db] = _axpy(F, rem[k:k + db], -c if flat else F._sub(zero, c), low)
    return quo, _trim(F, _reduced(F, rem[:db]))


def _pmonic(F: Fq, a: list) -> list:
    if not a or a[-1] == F.one.rep:
        return a
    inv, kmul = F._inv(a[-1]), F._kernel._mul
    return [kmul(c, inv) for c in a]


def _pgcd(F: Fq, a: list, b: list) -> list:
    """Monic gcd."""
    while b:
        a, b = b, _pdivmod(F, a, b)[1]
    return _pmonic(F, a)


def _ppowmod(F: Fq, a: list, n: int, m: list) -> list:
    """a^n mod a monic m, for n >= 1."""
    return power(_pdivmod(F, a, m)[1], n, [F.one.rep],
                 lambda u, v: _pdivmod(F, _pmul(F, u, v), m)[1])


def _pderivative(F: Fq, a: list) -> list:
    kmul = F._kernel._mul
    return _trim(F, [kmul(c, F._pad(i % F.p)) for i, c in enumerate(a)][1:])


def _pth_root(F: Fq, g: list) -> list:
    """p-th root of a polynomial whose derivative vanishes."""
    e = F.q // F.p
    return [F._pow(c, e) for c in g[::F.p]]


def _squarefree_parts(F: Fq, g: list) -> list[tuple[list, int]]:
    """Pairs (h, m) with monic g = prod h^m, each h squarefree, pairwise
    coprime."""
    out: list[tuple[list, int]] = []
    d = _pderivative(F, g)
    if not d:
        return [(h, m * F.p) for h, m in _squarefree_parts(F, _pth_root(F, g))]
    c = _pgcd(F, g, d)
    w = _pdivmod(F, g, c)[0]
    i = 1
    while len(w) > 1:
        y = _pgcd(F, w, c)
        z = _pdivmod(F, w, y)[0]
        if len(z) > 1:
            out.append((z, i))
        w = y
        c = _pdivmod(F, c, y)[0]
        i += 1
    if len(c) > 1:
        out += [(h, m * F.p) for h, m in _squarefree_parts(F, _pth_root(F, c))]
    return out


def _candidate(F: Fq, k: int, degree_bound: int) -> list:
    """k-th polynomial of degree < degree_bound in the deterministic sweep:
    the base-q digits of k, each the element of that index (Fq.from_index)."""
    digits = []
    while k:
        k, r = divmod(k, F.q)
        digits.append(F.from_index(r).rep)
    return _trim(F, digits[:degree_bound])


def _split_equal_degree(F: Fq, h: list, d: int) -> list[list]:
    """Factors of monic h, all irreducible of degree d, via deterministic
    splitting. One sweep of candidates serves every part: a candidate that
    leaves a polynomial whole leaves each of its factors whole, so the parts
    that candidate k splits off go on from candidate k + 1."""
    if len(h) == d + 1:
        return [h]
    q, parts, out = F.q, [h], []
    # Candidates of degree 1 to 2d - 1. Those of degree < 2d reach every
    # residue pair modulo two factors of h, so a valid h splits before the end.
    for k in range(q, q ** (2 * d)):
        r, rest = _candidate(F, k, 2 * d), []
        for h in parts:
            if F.p == 2:
                t, acc = [], _pdivmod(F, r, h)[1]
                for _ in range(F.deg_abs * d):
                    t = _psub(F, t, acc)  # in characteristic 2, t + acc
                    acc = _pdivmod(F, _pmul(F, acc, acc), h)[1]
            else:
                t = _psub(F, _ppowmod(F, r, (q ** d - 1) // 2, h), [F.one.rep])
            g = _pgcd(F, h, t)
            for part in [g, _pdivmod(F, h, g)[0]] if 1 < len(g) < len(h) else [h]:
                (out if len(part) == d + 1 else rest).append(part)
        if not rest:
            return out
        parts = rest
    raise InternalError("no candidate splits a product of equal-degree factors")


def _factor_squarefree(F: Fq, w: list) -> list[list]:
    """Irreducible factors of a squarefree monic polynomial."""
    out: list[list] = []
    x = [F.zero.rep, F.one.rep]
    h, d = x, 1
    while len(w) > 2 * d:
        h = _ppowmod(F, h, F.q, w)  # x^(q^d) mod w; _ppowmod reduces h by w first
        g = _pgcd(F, w, _psub(F, h, x))
        if len(g) > 1:
            out.extend(_split_equal_degree(F, g, d))
            w = _pdivmod(F, w, g)[0]
        d += 1
    if len(w) > 1:
        out.append(w)
    return out


def factor_sort_key(g: Poly):
    return (g.degree, tuple(c.flat_key() for c in g.coeffs))


# Memo of fq_factor results; past the cap the oldest entry is evicted.
_FACTOR_CACHE_MAX = 4096
_factor_cache: dict[tuple, list[tuple[Poly, int]]] = {}


def fq_factor(g: Poly) -> list[tuple[Poly, int]]:
    """Monic irreducible factors of g with multiplicities, canonically sorted
    by degree and then by balanced coefficient coordinates."""
    if g.is_zero():
        raise PreconditionError("cannot factor the zero polynomial")
    if not isinstance(g.ring, Fq):
        raise PreconditionError("fq_factor expects a polynomial over a tower field")
    F = g.ring
    vectors = _pmonic(F, [c.rep for c in g.coeffs])
    if len(vectors) == 1:
        return []
    key = (F, tuple(vectors))
    cached = _factor_cache.get(key)
    if cached is not None:
        return list(cached)
    found = [(Poly(F, [FqElt(F, c) for c in h]), mult)
             for part, mult in _squarefree_parts(F, vectors)
             for h in _factor_squarefree(F, part)]
    found.sort(key=lambda pair: factor_sort_key(pair[0]))
    if len(_factor_cache) >= _FACTOR_CACHE_MAX:
        del _factor_cache[next(iter(_factor_cache))]
    _factor_cache[key] = found
    return list(found)


def multiplicity_of(factor: Poly, g: Poly) -> int:
    """Largest m with factor^m dividing g (g nonzero), on coordinate-vector lists."""
    if g.is_zero():
        raise PreconditionError("multiplicity in the zero polynomial")
    if factor.degree < 1:
        raise PreconditionError("multiplicity of a constant factor")
    if factor.ring is not g.ring:
        raise PreconditionError("factor and polynomial over different fields")
    F, m = g.ring, 0
    a, b = [c.rep for c in g.coeffs], _pmonic(F, [c.rep for c in factor.coeffs])
    while True:
        quo, rem = _pdivmod(F, a, b)
        if rem:
            return m
        m += 1
        a = quo
