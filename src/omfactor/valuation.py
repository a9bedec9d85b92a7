"""Inductive valuation chains: augmentation, evaluation, key tests, collapse.

A chain fixes a prime p and levels (phi_i, nu_i) with phi_i a key polynomial
over the previous valuation and nu_i > 0 the relative slope. Each level
caches the normalized slope pair (e_i, h_i) with gcd 1, the Bezout pair
(l_i, l'_i) with l_i h_i + l'_i e_i = 1 and 0 <= l_i < e_i, the degree m_i,
the normalized key value V_i, and the residual polynomial of phi_i through
the prefix, which generates level i of the residue tower. chain.at(i)
reads level i for 0 <= i <= r, level 0 included: BASE, the Gauss
valuation as the level of the key x with slope 0.

Values are exact: mu_eval returns a Fraction (INF only for the zero
polynomial) and v_norm returns the integer e(mu_i) * mu_i(g). Both are read
from the residual walk, as v_i(g) = e_i u_i + h_i s_i of ri(chain, i, g).
augment walks the new key once, in key_check, which returns the residual
and the next residue field it built with Fq.extend to decide the residual
irreducible; augment reads psi_prev and V from that walk, checks V against
the recurrence next_key_value, and keeps the field. collapse_step merges
stationary levels in one rebuild, and expansion_points gives the points of
a node's Newton polygon from a key whose value the caller already knows.

build_chain validates each chain once per process: it memoizes every
prefix it builds, keyed by (p, steps), at most _CHAIN_CACHE_MAX of them,
oldest evicted first. The chains it returns may be shared; chains, levels
and interned fields are immutable.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .arith import INF, Poly, Val, qpoly
from .errors import InternalError, PreconditionError
from .finitefield import Fq, FqElt
from .record import Record
from .residual import ResidualResult, expansion_entries, ri


class Level(Record):
    __slots__ = ("phi", "nu", "psi_prev", "e", "h", "f_prev", "m", "V", "l", "lp")


# Level 0: the Gauss valuation, as the level of the key x with slope 0.
BASE = Level(phi=qpoly([0, 1]), nu=Fraction(0), psi_prev=None, e=1, h=0, f_prev=1, m=1,
             V=0, l=0, lp=1)


class MacLaneChain(Record):
    __slots__ = ("p", "levels", "fields", "e_cum")

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

    def at(self, i: int) -> Level:
        """Level i for 0 <= i <= r; level 0 is BASE."""
        if not 0 <= i <= len(self.levels):
            raise PreconditionError(f"level index {i} out of range")
        return self.levels[i - 1] if i else BASE

    def key_value(self, i: int) -> int:
        """Normalized value v_i(phi_i) = e_i V_i + h_i; 0 at level 0."""
        lev = self.at(i)
        return lev.e * lev.V + lev.h

    def next_key_value(self, d: int) -> int:
        """Value d e_r (e_r V_r + h_r) of a key with top residual of degree d."""
        return d * self.at(self.r).e * self.key_value(self.r)

    def residual_value(self, i: int, res: ResidualResult) -> int:
        """Normalized value v_i(g) = e_i u_i + h_i s_i of res = ri(chain, i, g)."""
        lev = self.at(i)
        return lev.e * res.u + lev.h * res.s

    def prefix(self, k: int) -> MacLaneChain:
        """The chain of levels 1..k, sharing this chain's levels and fields."""
        if not 0 <= k <= self.r:
            raise PreconditionError(f"prefix length {k} out of range")
        return MacLaneChain(self.p, self.levels[:k], self.fields[:k + 1], self.e_cum[:k + 1])

    def steps(self) -> list[tuple[Poly, Fraction]]:
        return [(lev.phi, lev.nu) for lev in self.levels]


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


def expansion_points(chain: MacLaneChain, phi: Poly, V: int, g: Poly) -> tuple[list, list]:
    """Entries and points (s, mu_r(a_s phi^s)) of g's phi-expansion at the top
    valuation, given V = v_r(phi) normalized. Zero coefficients give neither."""
    r = chain.r
    entries = expansion_entries(chain, r, phi, V, g.coeffs)
    return entries, [(s, Fraction(u, chain.e_cum[r])) for s, u, _ in entries]


def key_check(chain: MacLaneChain, phi: Poly) -> tuple[bool, str, ResidualResult | None, Fq | None]:
    """Decide whether phi is a key polynomial for the chain's top valuation.

    Returns (verdict, diagnostic, residual, field). The diagnostic names the
    first failed condition, or the kind of key on success. The residual is
    phi's top-level residual; it is None only for an improper step, where
    phi has the current key degree and abscissa s > 0, so it divides that
    key. For a proper key, field is F_r[y]/(R), which Fq.extend built when
    it decided R irreducible. Past the constant and degree checks, R is
    monic with a nonzero constant term, so extend rejects it only as reducible.
    """
    if phi.degree < 1 or not phi.is_monic():
        raise PreconditionError("key polynomial must be monic of degree >= 1")
    if any(c.denominator != 1 for c in phi.coeffs):
        raise PreconditionError("key polynomial must have integer coefficients")
    r, top = chain.r, chain.at(chain.r)
    res = ri(chain, r, phi)
    if res.s > 0 and phi.degree == top.m:
        return True, "key equivalent to the current key (improper step)", None, None
    if res.poly.degree == 0:
        return False, "residual polynomial is constant", res, None
    if phi.degree != top.e * top.m * res.poly.degree:
        return False, "degree differs from e * m * deg(residual)", res, None
    if not res.poly.is_monic():
        raise InternalError("residual of a key polynomial must be monic")
    if r == 0:
        failed, passed = "reduction modulo p is not irreducible", "key for the base valuation"
    else:
        failed, passed = "residual polynomial is reducible", "key with irreducible residual polynomial"
    try:
        field = chain.fields[r].extend(res.poly)
    except PreconditionError:
        return False, failed, res, None
    return True, passed, res, field


def augment(chain: MacLaneChain, phi: Poly, nu: Fraction) -> MacLaneChain:
    """Extend the chain by one level (phi, nu).

    phi must pass key_check, must not divide the current key in the graded
    algebra (no improper steps), and nu must be positive.
    """
    nu = Fraction(nu)
    if nu <= 0:
        raise PreconditionError("slope must be positive")
    ok, msg, res, field_new = key_check(chain, phi)
    if not ok:
        raise PreconditionError(f"key check failed: {msg}")
    r = chain.r
    if res is None:
        raise PreconditionError("improper step: the new key divides the current key")

    ecum = chain.e_cum[r]
    lam = ecum * nu
    e_new, h_new = lam.denominator, lam.numerator
    l_new = pow(h_new, -1, e_new) if e_new > 1 else 0
    lp_new = (1 - l_new * h_new) // e_new
    V_new = chain.residual_value(r, res)
    d = res.poly.degree
    if V_new != chain.next_key_value(d):
        raise InternalError("key value disagrees with the level recurrence")

    level = Level(phi, nu, res.poly, e_new, h_new, d, phi.degree, V_new, l_new, lp_new)
    return MacLaneChain(
        chain.p,
        chain.levels + (level,),
        chain.fields + (field_new,),
        chain.e_cum + (ecum * e_new,),
    )


# Memo of build_chain's validated prefixes; past the cap the oldest is evicted.
_CHAIN_CACHE_MAX = 4096
_chain_cache: dict[tuple, MacLaneChain] = {}


def build_chain(p: int, steps: Sequence[tuple[Poly, Fraction]]) -> MacLaneChain:
    """Build a chain from (phi, nu) steps, validating every level once per
    process: a prefix that an earlier call validated is read from the memo,
    and the chain returned may be shared with that call. A step that fails
    validation raises on every call and stores nothing at or past its level."""
    steps = tuple([(phi, Fraction(nu)) for phi, nu in steps])
    k, chain = len(steps), None
    while k and (chain := _chain_cache.get((p, steps[:k]))) is None:
        k -= 1
    if chain is None:
        chain = empty_chain(p)
    while k < len(steps):
        chain = augment(chain, *steps[k])
        k += 1
        if len(_chain_cache) >= _CHAIN_CACHE_MAX:
            del _chain_cache[next(iter(_chain_cache))]
        _chain_cache[(p, steps[:k])] = chain
    return chain


def collapse_step(chain: MacLaneChain, dropped: set[int]) -> MacLaneChain:
    """Merge each level i in `dropped` into level i+1, whose slope absorbs
    nu_i; each needs deg phi_i = deg phi_{i+1}, which forces level i to be
    stationary. One rebuild: levels below the lowest dropped one are kept
    as the same objects, and the levels above it are augmented again."""
    if not dropped or not all(1 <= i < chain.r for i in dropped):
        raise PreconditionError(f"collapse levels {sorted(dropped)} out of range")
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
    chain = chain.prefix(lo - 1)
    for phi, nu in steps:
        chain = augment(chain, phi, nu)
    return chain
