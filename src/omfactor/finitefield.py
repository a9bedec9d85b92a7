"""Finite-field towers and deterministic polynomial factorization.

A field is either a prime field or an extension of another tower field by a
monic irreducible modulus. An element is stored flat, as its coordinate
vector over F_p in the tower monomial basis (see FqElt). A degree-one level
y - a adds no coordinates: its elements keep the vectors of their base
images and use the base's arithmetic, so only levels of degree >= 2
multiply and reduce. Elements are fully reduced, so equality is vector
equality. Factorization is squarefree / distinct-degree / equal-degree
splitting with a deterministic candidate sequence, and factor lists are
sorted canonically by degree, then by balanced coefficient coordinates from
the constant term upward.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from .arith import Poly, gcd_monic, is_prime
from .errors import ConfigError, InternalError, PreconditionError


def balanced_int(rep: int, p: int) -> int:
    """Representative of rep mod p in the balanced range (p = 2 uses {0, 1})."""
    if p == 2:
        return rep % 2
    half = (p - 1) // 2
    return (rep + half) % p - half


class FqElt:
    """Element of a tower field: rep is an int below p if the field has
    absolute degree 1, else a tuple of deg_abs ints below p. Over the
    immediate base, the coefficient of y^j is the j-th chunk of
    base.deg_abs coordinates, laid out the same way one level down, so base
    coordinates are innermost; flat_key() is rep in balanced form."""

    __slots__ = ("field", "rep")

    def __init__(self, field: "Fq", rep) -> None:
        self.field = field
        self.rep = rep

    def _same(self, other: "FqElt") -> None:
        if isinstance(other, FqElt) and self.field is other.field:
            return
        if not isinstance(other, FqElt) or self.field != other.field:
            raise InternalError("mixed-field arithmetic")

    def __bool__(self) -> bool:
        return self.rep != self.field._zero.rep

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FqElt):
            return False
        if self.field is other.field:
            return self.rep == other.rep
        return self.field == other.field and self.rep == other.rep

    def __hash__(self) -> int:
        return hash((self.field, self.rep))

    def coords(self) -> list["FqElt"]:
        """Coordinates over the immediate base field, padded to full length."""
        if self.field.base is None:
            raise PreconditionError("coords of a prime-field element")
        return [FqElt(self.field.base, c) for c in self.field._chunks(self.rep)]

    def poly(self) -> Poly:
        """The element as a reduced polynomial over the immediate base field."""
        return Poly(self.field.base, self.coords())

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
        return FqElt(self.field, self.field._sub(self.field._zero.rep, self.rep))

    def __mul__(self, other: "FqElt") -> "FqElt":
        self._same(other)
        return FqElt(self.field, self.field._kernel._mul(self.rep, other.rep))

    def inverse(self) -> "FqElt":
        """a^(q-2), checked: over a modulus that is not irreducible, a zero
        divisor has no inverse and the check fails."""
        if not self:
            raise PreconditionError("inverse of zero")
        k = self.field._kernel
        if k.base is None:
            return FqElt(self.field, pow(self.rep, -1, k.p))
        inv = self ** (self.field.q - 2)
        if inv * self != self.field._one:
            raise InternalError("modulus not irreducible in inverse computation")
        return inv

    def __truediv__(self, other: "FqElt") -> "FqElt":
        self._same(other)
        return self * other.inverse()

    def __pow__(self, n: int) -> "FqElt":
        base = self.inverse() if n < 0 else self
        n = abs(n)
        k = self.field._kernel
        if k.base is None:
            return FqElt(self.field, pow(base.rep, n, k.p))
        out, b = self.field._one.rep, base.rep
        while n:
            if n & 1:
                out = k._mul(out, b)
            b = k._mul(b, b)
            n >>= 1
        return FqElt(self.field, out)

    def __repr__(self) -> str:
        return f"FqElt({self.field.label()}, {self.rep!r})"


class Fq:
    """Prime field or extension of a tower field by a monic irreducible
    modulus. Doubles as the coefficient-ring adapter for Poly, and holds the
    arithmetic on its elements' coordinate vectors."""

    __slots__ = (
        "p", "base", "modulus", "deg_over_base", "deg_abs", "q", "_kernel",
        "_mod_reps", "_skey", "_hash", "_zero", "_one", "_gen", "_ext_cache",
    )

    _prime_cache: dict[int, "Fq"] = {}

    def __init__(self, p: int, base: "Fq | None", modulus: Poly | None) -> None:
        self.p = p
        self.base = base
        self.modulus = modulus
        if base is None:
            self.deg_over_base = self.deg_abs = 1
            self._kernel = self
            self._skey = ("p", p)
        else:
            self.deg_over_base = modulus.degree
            self.deg_abs = base.deg_abs * modulus.degree
            # The field whose multiplication this one's vectors use.
            self._kernel = self if modulus.degree > 1 else base._kernel
            self._mod_reps = tuple(c.rep for c in modulus.coeffs)
            self._skey = ("e", base._skey, self._mod_reps)
        self.q = p ** self.deg_abs
        self._zero = FqElt(self, 0 if self.deg_abs == 1 else (0,) * self.deg_abs)
        self._one = FqElt(self, self._pad(1))
        if base is not None:
            # y itself, or the root -a of a degree-one modulus y + a.
            y = self.from_index(base.q) if modulus.degree > 1 else -modulus.coeff(0)
            self._gen = FqElt(self, y.rep)
        self._hash = hash(self._skey)
        self._ext_cache: dict[tuple, Fq] = {}

    @classmethod
    def prime(cls, p: int) -> "Fq":
        if not is_prime(p):
            raise ConfigError(f"{p} is not prime")
        if p not in cls._prime_cache:
            cls._prime_cache[p] = cls(p, None, None)
        return cls._prime_cache[p]

    @property
    def level(self) -> int:
        return 0 if self.base is None else self.base.level + 1

    def label(self) -> str:
        return f"F{self.p}^{self.deg_abs}" if self.deg_abs > 1 else f"F{self.p}"

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return isinstance(other, Fq) and self._skey == other._skey

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return self.label()

    # Coordinate vectors.

    def _pad(self, r):
        """Vector of an element of a field below this one in the tower: its
        own vector followed by zeros."""
        if self.deg_abs == 1:
            return r
        r = (r,) if isinstance(r, int) else r  # absolute degree 1
        return r + self._zero.rep[len(r):]

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
        >= 2: chunkwise product over the base, reduced by the modulus."""
        if self.base is None:
            return a * b % self.p
        base, d = self.base, self.deg_over_base
        mul, add, sub, zero = base._kernel._mul, base._add, base._sub, base._zero.rep
        prod = [zero] * (2 * d - 1)
        bs = self._chunks(b)
        for i, x in enumerate(self._chunks(a)):
            if x != zero:
                for j, y in enumerate(bs):
                    if y != zero:
                        prod[i + j] = add(prod[i + j], mul(x, y))
        for k in range(2 * d - 2, d - 1, -1):
            c = prod[k]
            if c != zero:
                for j in range(d):
                    prod[k - d + j] = sub(prod[k - d + j], mul(c, self._mod_reps[j]))
        return self._flatten(prod[:d])

    # Ring adapter surface.

    @property
    def zero(self) -> FqElt:
        return self._zero

    @property
    def one(self) -> FqElt:
        return self._one

    def coerce(self, v: int | Fraction | FqElt) -> FqElt:
        if isinstance(v, FqElt):
            if v.field is not self and v.field != self:
                raise InternalError("coercion from a different field")
            return v
        if isinstance(v, Fraction):
            if v.denominator == 1:
                return self.coerce(v.numerator)
            if v.denominator % self.p == 0:
                raise PreconditionError("denominator not invertible modulo p")
            return self.coerce(v.numerator) / self.coerce(v.denominator)
        return FqElt(self, self._pad(v % self.p))

    def from_poly(self, g: Poly) -> FqElt:
        """Class of a polynomial over the immediate base modulo the modulus."""
        cs = [c.rep for c in (g % self.modulus).coeffs]
        cs += [self.base._zero.rep] * (self.deg_over_base - len(cs))
        return FqElt(self, self._flatten(cs))

    # Tower structure.

    def extend(self, psi: Poly) -> "Fq":
        """Extension by a monic irreducible psi over this field.

        Degree-one moduli are allowed, but the modulus y itself only on the
        first level above the prime field.
        """
        if psi.ring != self:
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

    def lift_from(self, x: FqElt) -> FqElt:
        """Embed an element of any field along this tower's base chain."""
        cur: Fq | None = self
        while cur is not None and cur != x.field:
            cur = cur.base
        if cur is None:
            raise InternalError("element does not belong to this tower")
        return FqElt(self, self._pad(x.rep))

    def tower_moduli(self) -> list[Poly]:
        """Moduli from the first extension up to this field."""
        out: list[Poly] = []
        cur: Fq = self
        while cur.base is not None:
            out.append(cur.modulus)
            cur = cur.base
        out.reverse()
        return out

    def from_index(self, k: int) -> FqElt:
        """Deterministic enumeration of elements; 0 maps to zero. The
        coordinates are the base-p digits of k, lowest first."""
        if not 0 <= k < self.q:
            raise PreconditionError("element index out of range")
        if self.deg_abs == 1:
            return FqElt(self, k)
        return FqElt(self, tuple(k // self.p ** i % self.p for i in range(self.deg_abs)))

    def elements(self) -> Iterator[FqElt]:
        for k in range(self.q):
            yield self.from_index(k)


def _poly_key_str(g: Poly) -> str:
    return ", ".join(str(c.flat_key()) for c in g.coeffs)


def pow_mod(base: Poly, e: int, mod: Poly) -> Poly:
    out = Poly(mod.ring, [mod.ring.one])
    base = base % mod
    while e:
        if e & 1:
            out = (out * base) % mod
        base = (base * base) % mod
        e >>= 1
    return out


def _pth_root(g: Poly) -> Poly:
    """p-th root of a polynomial whose derivative vanishes."""
    field: Fq = g.ring
    p = field.p
    e = field.q // p
    coeffs = []
    for k in range(0, g.degree + 1, p):
        coeffs.append(g.coeff(k) ** e)
    return Poly(field, coeffs)


def _squarefree_parts(g: Poly) -> list[tuple[Poly, int]]:
    """Pairs (h, m) with g = prod h^m, each h squarefree, pairwise coprime."""
    field: Fq = g.ring
    out: list[tuple[Poly, int]] = []
    d = g.derivative()
    if d.is_zero():
        for h, m in _squarefree_parts(_pth_root(g)):
            out.append((h, m * field.p))
        return out
    c = gcd_monic(g, d)
    w = g // c
    i = 1
    while w.degree > 0:
        y = gcd_monic(w, c)
        z = w // y
        if z.degree > 0:
            out.append((z, i))
        w = y
        c = c // y
        i += 1
    if c.degree > 0:
        for h, m in _squarefree_parts(_pth_root(c)):
            out.append((h, m * field.p))
    return out


def _candidate(field: Fq, k: int, degree_bound: int) -> Poly:
    """k-th polynomial of degree < degree_bound in the deterministic sweep."""
    digits: list[FqElt] = []
    q = field.q
    while k:
        digits.append(field.from_index(k % q))
        k //= q
    del digits[degree_bound:]
    return Poly(field, digits)


def _split_equal_degree(h: Poly, d: int) -> list[Poly]:
    """Factors of h, all irreducible of degree d, via deterministic splitting."""
    field: Fq = h.ring
    if h.degree == d:
        return [h]
    q = field.q
    k = q  # first candidates of degree >= 1
    while True:
        r = _candidate(field, k, 2 * d)
        k += 1
        if r.degree < 1:
            continue
        if field.p == 2:
            t = Poly(field, [])
            acc = r % h
            bits = field.deg_abs * d
            for _ in range(bits):
                t = (t + acc) % h
                acc = (acc * acc) % h
        else:
            t = pow_mod(r, (q ** d - 1) // 2, h) - Poly(field, [field.one])
        g = gcd_monic(h, t)
        if 0 < g.degree < h.degree:
            return _split_equal_degree(g, d) + _split_equal_degree(h // g, d)


def _factor_squarefree(w: Poly) -> list[Poly]:
    """Irreducible factors of a squarefree monic polynomial."""
    field: Fq = w.ring
    out: list[Poly] = []
    h = pow_mod(Poly(field, [field.zero, field.one]), field.q, w)
    d = 1
    while w.degree >= 2 * d:
        g = gcd_monic(w, h - Poly(field, [field.zero, field.one]))
        if g.degree > 0:
            out.extend(_split_equal_degree(g, d))
            w = w // g
            h = h % w
        d += 1
        if w.degree >= 2 * d:
            h = pow_mod(h, field.q, w)
    if w.degree > 0:
        out.append(w)
    return out


def factor_sort_key(g: Poly):
    return (g.degree, tuple(c.flat_key() for c in g.coeffs))


_factor_cache: dict[Poly, list[tuple[Poly, int]]] = {}


def fq_factor(g: Poly) -> list[tuple[Poly, int]]:
    """Monic irreducible factors of g with multiplicities, canonically sorted
    by degree and then by balanced coefficient coordinates."""
    if g.is_zero():
        raise PreconditionError("cannot factor the zero polynomial")
    if not isinstance(g.ring, Fq):
        raise PreconditionError("fq_factor expects a polynomial over a tower field")
    g = g.monic()
    if g.degree == 0:
        return []
    cached = _factor_cache.get(g)
    if cached is not None:
        return list(cached)
    found: list[tuple[Poly, int]] = []
    for part, mult in _squarefree_parts(g):
        for h in _factor_squarefree(part):
            found.append((h, mult))
    found.sort(key=lambda pair: factor_sort_key(pair[0]))
    _factor_cache[g] = found
    return list(found)


def is_irreducible(g: Poly) -> bool:
    if g.is_zero() or g.degree < 1:
        return False
    factors = fq_factor(g)
    return len(factors) == 1 and factors[0][1] == 1


def multiplicity_of(factor: Poly, g: Poly) -> int:
    """Largest m with factor^m dividing g; g nonzero."""
    if g.is_zero():
        raise PreconditionError("multiplicity in the zero polynomial")
    if factor.degree < 1:
        raise PreconditionError("multiplicity of a constant factor")
    m = 0
    while True:
        quo, rem = divmod(g, factor)
        if not rem.is_zero():
            return m
        m += 1
        g = quo


def tower_map(x: FqElt, dst: Fq, images: list[FqElt]) -> FqElt:
    """Apply the tower homomorphism sending the level-j generator of x's
    tower to images[j]; all images must be elements of dst."""
    if x.field.base is None:
        return dst.coerce(x.rep)
    img = images[x.field.level - 1]
    acc = dst.zero
    for c in reversed(x.coords()):
        acc = acc * img + tower_map(c, dst, images)
    return acc


def map_poly(g: Poly, dst: Fq, images: list[FqElt]) -> Poly:
    """Apply tower_map with these generator images to every coefficient of a
    polynomial over a tower field, giving a polynomial over dst."""
    return Poly(dst, [tower_map(c, dst, images) for c in g.coeffs])
