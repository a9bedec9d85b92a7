"""Inductive valuation chains: augmentation, evaluation, key tests, collapse.

A chain fixes a prime p and levels (phi_i, nu_i) with phi_i a key polynomial
over the previous valuation and nu_i > 0 the relative slope. Each level
caches the normalized slope pair (e_i, h_i) with gcd 1, the Bezout pair
(l_i, l'_i) with l_i h_i + l'_i e_i = 1 and 0 <= l_i < e_i, the degree m_i,
the normalized key value V_i, and the residual polynomial of phi_i through
the prefix, which generates level i of the residue tower.

Values are exact: mu_eval returns a Fraction (INF only for the zero
polynomial) and v_norm returns the integer e(mu_i) * mu_i(g). Both are read
from the residual walk, as v_i(g) = e_i u_i + h_i s_i of ri(chain, i, g).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .arith import INF, Poly, Val
from .errors import InternalError, PreconditionError
from .finitefield import Fq, FqElt, is_irreducible
from .residual import ResidualResult, expansion_entries, ri


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
        """Normalized value v_i(phi_i) = e_i V_i + h_i; 0 at level 0."""
        return self.e(i) * self.V(i) + self.h(i)

    def next_key_value(self, d: int) -> int:
        """Value d e_r (e_r V_r + h_r) of a key with top residual of degree d."""
        return d * self.e(self.r) * self.key_value(self.r)

    def residual_value(self, i: int, res: ResidualResult) -> int:
        """Normalized value v_i(g) = e_i u_i + h_i s_i of res = ri(chain, i, g)."""
        return self.e(i) * res.u + self.h(i) * res.s

    def steps(self) -> list[tuple[Poly, Fraction]]:
        return [(lev.phi, lev.nu) for lev in self.levels]


def _check_key_poly_shape(phi: Poly) -> None:
    if phi.degree < 1 or not phi.is_monic():
        raise PreconditionError("key polynomial must be monic of degree >= 1")
    if any(c.denominator != 1 for c in phi.coeffs):
        raise PreconditionError("key polynomial must have integer coefficients")


def empty_chain(p: int) -> MacLaneChain:
    return MacLaneChain(p, (), (Fq.prime(p),), (1,))


def mu_eval(chain: MacLaneChain, i: int, g: Poly) -> Val:
    """Value mu_i(g) as an exact rational; INF for the zero polynomial."""
    v = v_norm(chain, i, g)
    if v == INF:
        return INF
    return Fraction(v, chain.e_cum[i])


def v_norm(chain: MacLaneChain, i: int, g: Poly) -> int | float:
    """Normalized value e(mu_i) * mu_i(g), an integer; INF for zero."""
    if not 0 <= i <= chain.r:
        raise PreconditionError(f"valuation index {i} out of range")
    if g.is_zero():
        return INF
    return chain.residual_value(i, ri(chain, i, g))


# Internal name of v_norm; perfbench/tracer.py wraps it as valuation.vi.
_vi = v_norm


def expansion_points(chain: MacLaneChain, phi: Poly, g: Poly) -> list[tuple[int, Fraction]]:
    """Points (s, mu_r(a_s phi^s)) of g's phi-expansion at the top valuation.

    Zero coefficients contribute no point.
    """
    r = chain.r
    entries = expansion_entries(chain, r, phi, v_norm(chain, r, phi), g)
    return [(s, Fraction(u, chain.e_cum[r])) for s, u, _ in entries]


def key_check(chain: MacLaneChain, phi: Poly) -> tuple[bool, str]:
    """Decide whether phi is a key polynomial for the chain's top valuation.

    Returns (verdict, diagnostic); the diagnostic names the first failed
    condition, or describes the kind of key on success.
    """
    return _key_check(chain, phi)[:2]


def _key_check(chain: MacLaneChain, phi: Poly):
    """key_check's verdict and diagnostic, plus the top-level residual of phi
    it computed. The residual is None only for an improper step: phi has the
    current key degree and residual abscissa s > 0, so it divides that key."""
    _check_key_poly_shape(phi)
    r = chain.r
    res = ri(chain, r, phi)
    if res.s > 0 and phi.degree == chain.m(r):
        return True, "key equivalent to the current key (improper step)", None
    if res.poly.degree == 0:
        return False, "residual polynomial is constant", res
    if phi.degree != chain.e(r) * chain.m(r) * res.poly.degree:
        return False, "degree differs from e * m * deg(residual)", res
    if r == 0:
        failed, passed = "reduction modulo p is not irreducible", "key for the base valuation"
    else:
        failed, passed = "residual polynomial is reducible", "key with irreducible residual polynomial"
    if not is_irreducible(res.poly):
        return False, failed, res
    return True, passed, res


def augment(chain: MacLaneChain, phi: Poly, nu: Fraction) -> MacLaneChain:
    """Extend the chain by one level (phi, nu).

    phi must pass key_check, must not divide the current key in the graded
    algebra (no improper steps), and nu must be positive.
    """
    nu = Fraction(nu)
    if nu <= 0:
        raise PreconditionError("slope must be positive")
    ok, msg, res = _key_check(chain, phi)
    if not ok:
        raise PreconditionError(f"key check failed: {msg}")
    r = chain.r
    if phi.degree % chain.m(r) != 0:
        raise PreconditionError("key degree is not a multiple of the current key degree")
    if res is None:
        raise PreconditionError("improper step: the new key divides the current key")
    psi_prev = res.poly
    if not psi_prev.is_monic():
        raise InternalError("residual of a key polynomial must be monic")

    ecum = chain.e_cum[r]
    lam = ecum * nu
    e_new, h_new = lam.denominator, lam.numerator
    l_new = pow(h_new, -1, e_new) if e_new > 1 else 0
    lp_new = (1 - l_new * h_new) // e_new
    V_new = chain.residual_value(r, res)
    d = psi_prev.degree
    if V_new != chain.next_key_value(d):
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


def _extend(chain: MacLaneChain, steps: Sequence[tuple[Poly, Fraction]]) -> MacLaneChain:
    for phi, nu in steps:
        chain = augment(chain, phi, nu)
    return chain


def build_chain(p: int, steps: Sequence[tuple[Poly, Fraction]]) -> MacLaneChain:
    """Build a chain from (phi, nu) steps, validating every level."""
    return _extend(empty_chain(p), steps)


def merge_levels(chain: MacLaneChain, dropped: set[int]) -> MacLaneChain:
    """Merge each level i in `dropped` into level i+1, whose slope absorbs
    nu_i. Levels below the lowest dropped one are kept as they are; the
    levels above it are augmented again."""
    lo = min(dropped)
    steps: list[tuple[Poly, Fraction]] = []
    nu = Fraction(0)
    for i, lev in enumerate(chain.levels[lo - 1 :], start=lo):
        nu += lev.nu
        if i not in dropped:
            steps.append((lev.phi, nu))
            nu = Fraction(0)
        elif lev.m != chain.level(i + 1).m:
            raise PreconditionError("collapse requires equal key degrees")
    kept = MacLaneChain(chain.p, chain.levels[: lo - 1], chain.fields[:lo], chain.e_cum[:lo])
    return _extend(kept, steps)


def collapse_step(chain: MacLaneChain, i: int) -> MacLaneChain:
    """Merge levels i-1 and i into the single level (phi_i, nu_{i-1} + nu_i).

    Requires deg phi_{i-1} = deg phi_i (which forces level i-1 to be
    stationary). Levels 1..i-2 are kept, as in merge_levels.
    """
    if not 2 <= i <= chain.r:
        raise PreconditionError(f"collapse index {i} out of range")
    return merge_levels(chain, {i - 1})
