"""Inductive valuation chains: augmentation, evaluation, key tests, collapse.

A chain fixes a prime p and levels (phi_i, nu_i) with phi_i a key polynomial
over the previous valuation and nu_i > 0 the relative slope. Each level
caches the normalized slope pair (e_i, h_i) with gcd 1, the Bezout pair
(l_i, l'_i) with l_i h_i + l'_i e_i = 1 and 0 <= l_i < e_i, the degree m_i,
the normalized key value V_i, and the residual polynomial of phi_i through
the prefix, which generates level i of the residue tower.

Values are exact: mu_eval returns a Fraction (INF only for the zero
polynomial) and v_norm returns the integer e(mu_i) * mu_i(g).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .arith import INF, Poly, Val, is_prime, phi_expansion, vp
from .errors import ConfigError, InternalError, PreconditionError
from .finitefield import Fq, FqElt

_VIRTUAL0 = {"e": 1, "h": 0, "l": 0, "lp": 1, "V": 0, "m": 1}


@dataclass(frozen=True)
class Level:
    phi: Poly
    nu: Fraction
    psi_prev: Poly
    e: int
    h: int
    f_prev: int
    m: int
    V: int
    l: int
    lp: int


@dataclass(frozen=True)
class MacLaneChain:
    p: int
    levels: tuple[Level, ...]
    fields: tuple[Fq, ...]
    e_cum: tuple[int, ...]

    @property
    def r(self) -> int:
        return len(self.levels)

    def level(self, i: int) -> Level:
        if not 1 <= i <= self.r:
            raise PreconditionError(f"level index {i} out of range")
        return self.levels[i - 1]

    def field(self, i: int) -> Fq:
        return self.fields[i]

    def z(self, i: int) -> FqElt:
        """Residue-tower generator z_i, the class of y in field i+1."""
        return self.fields[i + 1].gen()

    def e(self, i: int) -> int:
        return 1 if i == 0 else self.level(i).e

    def h(self, i: int) -> int:
        return 0 if i == 0 else self.level(i).h

    def l(self, i: int) -> int:
        return 0 if i == 0 else self.level(i).l

    def lp(self, i: int) -> int:
        return 1 if i == 0 else self.level(i).lp

    def V(self, i: int) -> int:
        return 0 if i == 0 else self.level(i).V

    def m(self, i: int) -> int:
        return 1 if i == 0 else self.level(i).m

    def key_value(self, i: int) -> int:
        """Normalized value v_i(phi_i) = e_i V_i + h_i."""
        lev = self.level(i)
        return lev.e * lev.V + lev.h

    def lam(self, i: int) -> Fraction:
        lev = self.level(i)
        return Fraction(lev.h, lev.e)

    def steps(self) -> list[tuple[Poly, Fraction]]:
        return [(lev.phi, lev.nu) for lev in self.levels]


def _check_key_poly_shape(phi: Poly) -> None:
    if phi.degree < 1 or not phi.is_monic():
        raise PreconditionError("key polynomial must be monic of degree >= 1")
    if any(c.denominator != 1 for c in phi.coeffs):
        raise PreconditionError("key polynomial must have integer coefficients")


def empty_chain(p: int) -> MacLaneChain:
    if not is_prime(p):
        raise ConfigError(f"{p} is not prime")
    return MacLaneChain(p, (), (Fq.prime(p),), (1,))


def _vi(chain: MacLaneChain, i: int, g: Poly) -> int | float:
    """Normalized integer valuation e(mu_i) * mu_i(g); INF for g = 0."""
    if g.is_zero():
        return INF
    if i == 0:
        return min(int(vp(c, chain.p)) for c in g.coeffs if c)
    lev = chain.level(i)
    step = lev.e * lev.V + lev.h
    best = None
    for s, a in enumerate(phi_expansion(g, lev.phi)):
        if a.is_zero():
            continue
        w = lev.e * _vi(chain, i - 1, a) + s * step
        if best is None or w < best:
            best = w
    if best is None:
        raise InternalError("empty expansion of a nonzero polynomial")
    return best


def mu_eval(chain: MacLaneChain, i: int, g: Poly) -> Val:
    """Value mu_i(g) as an exact rational; INF for the zero polynomial."""
    if not 0 <= i <= chain.r:
        raise PreconditionError(f"valuation index {i} out of range")
    v = _vi(chain, i, g)
    if v == INF:
        return INF
    return Fraction(v, chain.e_cum[i])


def v_norm(chain: MacLaneChain, i: int, g: Poly) -> int | float:
    """Normalized value e(mu_i) * mu_i(g), an integer; INF for zero."""
    if not 0 <= i <= chain.r:
        raise PreconditionError(f"valuation index {i} out of range")
    return _vi(chain, i, g)


def expansion_points(chain: MacLaneChain, phi: Poly, g: Poly) -> list[tuple[int, Fraction]]:
    """Points (s, mu_r(a_s phi^s)) of g's phi-expansion at the top valuation.

    Zero coefficients contribute no point.
    """
    r = chain.r
    vphi = _vi(chain, r, phi)
    den = chain.e_cum[r]
    pts = []
    for s, a in enumerate(phi_expansion(g, phi)):
        if a.is_zero():
            continue
        pts.append((s, Fraction(_vi(chain, r, a) + s * vphi, den)))
    return pts


def key_divides(chain: MacLaneChain, phi: Poly, g: Poly) -> bool:
    """Whether phi divides g in the graded algebra of the top valuation.

    Reads the phi-expansion of g: phi divides exactly when the minimal value
    of mu(a_s phi^s) is attained only at positions s >= 1.
    """
    if g.is_zero():
        return True
    pts = expansion_points(chain, phi, g)
    lo = min(u for _, u in pts)
    return pts[0] != (0, lo)


def key_check(chain: MacLaneChain, phi: Poly) -> tuple[bool, str]:
    """Decide whether phi is a key polynomial for the chain's top valuation.

    Returns (verdict, diagnostic); the diagnostic names the first failed
    condition, or describes the kind of key on success.
    """
    _check_key_poly_shape(phi)
    if chain.r == 0:
        from .residual import r0

        red = r0(chain.p, phi)
        if red.u != 0:
            return False, "key has positive content valuation"
        from .finitefield import is_irreducible

        if red.poly.degree != phi.degree or not is_irreducible(red.poly):
            return False, "reduction modulo p is not irreducible"
        return True, "key for the base valuation"
    lev = chain.level(chain.r)
    if phi.degree == lev.m:
        diff = phi - lev.phi
        if _vi(chain, chain.r, diff) > chain.key_value(chain.r):
            return True, "key equivalent to the current key (improper step)"
    from .finitefield import is_irreducible
    from .residual import ri

    res = ri(chain, chain.r, phi)
    if res.poly.degree == 0:
        return False, "residual polynomial is constant"
    if phi.degree != lev.e * lev.m * res.poly.degree:
        return False, "degree differs from e * m * deg(residual)"
    if not is_irreducible(res.poly):
        return False, "residual polynomial is reducible"
    return True, "key with irreducible residual polynomial"


def augment(chain: MacLaneChain, phi: Poly, nu: Fraction) -> MacLaneChain:
    """Extend the chain by one level (phi, nu).

    phi must pass key_check, must not divide the current key in the graded
    algebra (no improper steps), and nu must be positive.
    """
    nu = Fraction(nu)
    if nu <= 0:
        raise PreconditionError("slope must be positive")
    ok, msg = key_check(chain, phi)
    if not ok:
        raise PreconditionError(f"key check failed: {msg}")
    r = chain.r
    if r >= 1:
        if phi.degree % chain.m(r) != 0:
            raise PreconditionError("key degree is not a multiple of the current key degree")
        if key_divides(chain, phi, chain.level(r).phi):
            raise PreconditionError("improper step: the new key divides the current key")
        from .residual import ri

        psi_prev = ri(chain, r, phi).poly
    else:
        from .residual import r0

        psi_prev = r0(chain.p, phi).poly
    if not psi_prev.is_monic():
        raise InternalError("residual of a key polynomial must be monic")

    ecum = chain.e_cum[r]
    lam = ecum * nu
    e_new, h_new = lam.denominator, lam.numerator
    l_new = pow(h_new, -1, e_new) if e_new > 1 else 0
    lp_new = (1 - l_new * h_new) // e_new
    V_new = _vi(chain, r, phi)
    d = psi_prev.degree
    if V_new != d * chain.e(r) * (chain.e(r) * chain.V(r) + chain.h(r)):
        raise InternalError("key value disagrees with the level recurrence")
    if phi.degree != chain.e(r) * d * chain.m(r):
        raise InternalError("key degree disagrees with the level recurrence")

    level = Level(
        phi=phi,
        nu=nu,
        psi_prev=psi_prev,
        e=e_new,
        h=h_new,
        f_prev=d,
        m=phi.degree,
        V=V_new,
        l=l_new,
        lp=lp_new,
    )
    field_new = chain.fields[r].extend(psi_prev)
    return MacLaneChain(
        chain.p,
        chain.levels + (level,),
        chain.fields + (field_new,),
        chain.e_cum + (ecum * e_new,),
    )


def build_chain(p: int, steps: Sequence[tuple[Poly, Fraction]]) -> MacLaneChain:
    """Build a chain from (phi, nu) steps, validating every level."""
    chain = empty_chain(p)
    for phi, nu in steps:
        chain = augment(chain, phi, nu)
    return chain


def collapse_step(chain: MacLaneChain, i: int) -> MacLaneChain:
    """Merge levels i-1 and i into the single level (phi_i, nu_{i-1} + nu_i).

    Requires deg phi_{i-1} = deg phi_i (which forces level i-1 to be
    stationary). The collapsed chain is rebuilt and revalidated from its
    steps.
    """
    if not 2 <= i <= chain.r:
        raise PreconditionError(f"collapse index {i} out of range")
    lo, hi = chain.level(i - 1), chain.level(i)
    if lo.m != hi.m:
        raise PreconditionError("collapse requires equal key degrees")
    steps = chain.steps()
    steps[i - 2 : i] = [(hi.phi, lo.nu + hi.nu)]
    return build_chain(chain.p, steps)
