"""Finite-field towers and deterministic polynomial factorization.

A field is either a prime field or an extension of another tower field by a
monic irreducible modulus. Elements are kept fully reduced, so equality is
representation equality. Factorization is squarefree / distinct-degree /
equal-degree splitting with a deterministic candidate sequence, and factor
lists are sorted canonically by degree, then by balanced coefficient
coordinates from the constant term upward.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from .arith import Poly, is_prime
from .errors import ConfigError, InternalError, PreconditionError


def balanced_int(rep: int, p: int) -> int:
    """Representative of rep mod p in the balanced range (p = 2 uses {0, 1})."""
    if p == 2:
        return rep % 2
    half = (p - 1) // 2
    return (rep + half) % p - half


class FqElt:
    """Element of a tower field; rep is an int below p for prime fields and a
    reduced Poly over the base field otherwise."""

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
        return bool(self.rep) if isinstance(self.rep, int) else not self.rep.is_zero()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FqElt):
            return False
        if self.field is other.field:
            return self.rep == other.rep
        return self.field == other.field and self.rep == other.rep

    def __hash__(self) -> int:
        return hash((self.field, self.rep_key()))

    def rep_key(self):
        if isinstance(self.rep, int):
            return self.rep
        sub = self.field.base
        return tuple(c.rep_key() for c in self._padded())

    def _padded(self) -> list["FqElt"]:
        cs = list(self.rep.coeffs)
        cs += [self.field.base.zero] * (self.field.deg_over_base - len(cs))
        return cs

    def coords(self) -> list["FqElt"]:
        """Coordinates over the immediate base field, padded to full length."""
        if isinstance(self.rep, int):
            raise PreconditionError("coords of a prime-field element")
        return self._padded()

    def flat_key(self) -> tuple[int, ...]:
        """Absolute coordinate vector over the prime field, balanced.

        Used as the canonical sort key for elements; length equals the
        absolute degree of the field.
        """
        if isinstance(self.rep, int):
            return (balanced_int(self.rep, self.field.p),)
        out: list[int] = []
        for c in self._padded():
            out.extend(c.flat_key())
        return tuple(out)

    def lift_int(self) -> int:
        """Balanced integer lift; prime-field elements only."""
        if not isinstance(self.rep, int):
            raise PreconditionError("integer lift of a non-prime-field element")
        return balanced_int(self.rep, self.field.p)

    def __add__(self, other: "FqElt") -> "FqElt":
        self._same(other)
        if isinstance(self.rep, int):
            return FqElt(self.field, (self.rep + other.rep) % self.field.p)
        return FqElt(self.field, self.rep + other.rep)

    def __sub__(self, other: "FqElt") -> "FqElt":
        self._same(other)
        if isinstance(self.rep, int):
            return FqElt(self.field, (self.rep - other.rep) % self.field.p)
        return FqElt(self.field, self.rep - other.rep)

    def __neg__(self) -> "FqElt":
        if isinstance(self.rep, int):
            return FqElt(self.field, -self.rep % self.field.p)
        return FqElt(self.field, -self.rep)

    def __mul__(self, other: "FqElt") -> "FqElt":
        self._same(other)
        if isinstance(self.rep, int):
            return FqElt(self.field, self.rep * other.rep % self.field.p)
        return FqElt(self.field, (self.rep * other.rep) % self.field.modulus)

    def inverse(self) -> "FqElt":
        if not self:
            raise PreconditionError("inverse of zero")
        if isinstance(self.rep, int):
            return FqElt(self.field, pow(self.rep, -1, self.field.p))
        if self.rep.degree == 0:
            return FqElt(self.field, Poly(self.rep.ring, [self.rep.coeff(0).inverse()]))
        return FqElt(self.field, _poly_inverse(self.rep, self.field.modulus))

    def __truediv__(self, other: "FqElt") -> "FqElt":
        self._same(other)
        return self * other.inverse()

    def __pow__(self, n: int) -> "FqElt":
        base = self
        if n < 0:
            base = self.inverse()
            n = -n
        out = self.field.one
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __repr__(self) -> str:
        return f"FqElt({self.field.label()}, {self.rep_key()!r})"


def _poly_inverse(a: Poly, modulus: Poly) -> Poly:
    """Inverse of a modulo an irreducible modulus over a coefficient field."""
    ring = modulus.ring
    r0, r1 = modulus, a % modulus
    t0, t1 = Poly(ring, []), Poly(ring, [ring.one])
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        t0, t1 = t1, t0 - q * t1
    if r0.degree != 0:
        raise InternalError("modulus not irreducible in inverse computation")
    return (t0.scale(ring.one / r0.coeff(0))) % modulus


class Fq:
    """Prime field or extension of a tower field by a monic irreducible
    modulus. Doubles as the coefficient-ring adapter for Poly."""

    __slots__ = (
        "p", "base", "modulus", "deg_over_base", "deg_abs", "q",
        "_skey", "_hash", "_zero", "_one", "_ext_cache",
    )

    _prime_cache: dict[int, "Fq"] = {}

    def __init__(self, p: int, base: "Fq | None", modulus: Poly | None) -> None:
        self.p = p
        self.base = base
        self.modulus = modulus
        if base is None:
            self.deg_over_base = 1
            self.deg_abs = 1
        else:
            self.deg_over_base = modulus.degree
            self.deg_abs = base.deg_abs * modulus.degree
        self.q = p ** self.deg_abs
        if base is None:
            self._skey = ("p", p)
            self._zero = FqElt(self, 0)
            self._one = FqElt(self, 1)
        else:
            self._skey = ("e", base._skey, tuple(c.rep_key() for c in modulus.coeffs))
            self._zero = FqElt(self, Poly(base, []))
            self._one = FqElt(self, Poly(base, [base.one]))
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
        if self.base is None:
            return FqElt(self, v % self.p)
        return FqElt(self, Poly(self.base, [self.base.coerce(v)]))

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
        y = Poly(self.base, [self.base.zero, self.base.one])
        return FqElt(self, y % self.modulus)

    def embed(self, x: FqElt) -> FqElt:
        """Embed an element of the immediate base field."""
        if self.base is None or x.field != self.base:
            raise InternalError("embed expects an element of the immediate base")
        return FqElt(self, Poly(self.base, [x]))

    def lift_from(self, x: FqElt) -> FqElt:
        """Embed an element of any field along this tower's base chain."""
        path: list[Fq] = []
        cur: Fq | None = self
        while cur is not None and cur != x.field:
            path.append(cur)
            cur = cur.base
        if cur is None:
            raise InternalError("element does not belong to this tower")
        out = x
        for field in reversed(path):
            out = field.embed(out)
        return out

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
        """Deterministic enumeration of elements; 0 maps to zero."""
        if not 0 <= k < self.q:
            raise PreconditionError("element index out of range")
        if self.base is None:
            return FqElt(self, k)
        digits: list[FqElt] = []
        sub = self.base
        while k:
            digits.append(sub.from_index(k % sub.q))
            k //= sub.q
        return FqElt(self, Poly(sub, digits))

    def elements(self) -> Iterator[FqElt]:
        for k in range(self.q):
            yield self.from_index(k)


def ypoly(field: Fq, coeffs) -> Poly:
    """Polynomial over a tower field from constant-first coefficients."""
    return Poly(field, coeffs)


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


def _gcd(a: Poly, b: Poly) -> Poly:
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


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
    c = _gcd(g, d)
    w = g // c
    i = 1
    while w.degree > 0:
        y = _gcd(w, c)
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
        g = _gcd(h, t)
        if 0 < g.degree < h.degree:
            return _split_equal_degree(g, d) + _split_equal_degree(h // g, d)


def _factor_squarefree(w: Poly) -> list[Poly]:
    """Irreducible factors of a squarefree monic polynomial."""
    field: Fq = w.ring
    out: list[Poly] = []
    h = pow_mod(Poly(field, [field.zero, field.one]), field.q, w)
    d = 1
    while w.degree >= 2 * d:
        g = _gcd(w, h - Poly(field, [field.zero, field.one]))
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
    lvl = x.field.level
    img = images[lvl - 1]
    acc = dst.zero
    for c in reversed(x.coords()):
        acc = acc * img + tower_map(c, dst, images)
    return acc


def flatten_field(field: Fq) -> tuple[Fq, list[FqElt]]:
    """Collapse all degree-one levels of a tower.

    Returns the flat tower (every modulus of degree >= 2) and the images of
    the original generators inside it, suitable for tower_map.
    """
    flat = Fq.prime(field.p)
    images: list[FqElt] = []
    for psi in field.tower_moduli():
        mapped = Poly(flat, [tower_map(c, flat, images) for c in psi.coeffs])
        if mapped.degree == 1:
            images.append(-mapped.coeff(0))
        else:
            bigger = Fq(field.p, flat, mapped)
            images = [bigger.embed(img) for img in images]
            images.append(bigger.gen())
            flat = bigger
    return flat, images


def flatten_poly(g: Poly, flat: Fq, images: list[FqElt]) -> Poly:
    """Map a polynomial over a tower field into the flattened tower."""
    return Poly(flat, [tower_map(c, flat, images) for c in g.coeffs])
