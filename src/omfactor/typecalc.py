"""Types over a chain: order function, representatives, optimization,
equivalence decision, and the residual transport law.

A type pairs a chain with a monic irreducible polynomial psi_top over the
top residue field (psi_top != y above order 0). It selects one branch of
the factorization tree: ord_type counts how often psi_top divides the top
residual polynomial.

Two types are equivalent when they induce the same valuation and select the
same branch. The decision procedure optimizes both sides, matches slopes
and key degrees level by level, extracts the residue shift eta_i of each
key difference, and transports the residual tower of one side into the
other's through the induced isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import INF, Poly, qpoly
from .errors import InternalError, PreconditionError
from .finitefield import FqElt, is_irreducible, map_poly, multiplicity_of
from .residual import graded_lift, ri
from .valuation import MacLaneChain, merge_levels


@dataclass(frozen=True)
class Type:
    chain: MacLaneChain
    psi_top: Poly

    def __post_init__(self) -> None:
        field = self.chain.fields[self.chain.r]
        if self.psi_top.ring != field:
            raise PreconditionError("psi_top must live over the top residue field")
        if self.psi_top.degree < 1 or not self.psi_top.is_monic():
            raise PreconditionError("psi_top must be monic of degree >= 1")
        if self.chain.r >= 1 and self.psi_top.degree == 1 and not self.psi_top.coeff(0):
            raise PreconditionError("psi_top must differ from y above order 0")
        if not is_irreducible(self.psi_top):
            raise PreconditionError("psi_top must be irreducible")

    @property
    def order(self) -> int:
        return self.chain.r

    @property
    def f_top(self) -> int:
        return self.psi_top.degree

    def degree(self) -> int:
        """Degree of the factors singled out: e(mu_r) * m_r-growth * f_top."""
        r = self.chain.r
        return self.chain.e(r) * self.chain.m(r) * self.psi_top.degree


def ord_type(t: Type, g: Poly) -> int:
    """Multiplicity of psi_top in the top residual polynomial of g."""
    if g.is_zero():
        raise PreconditionError("order of the zero polynomial")
    res = ri(t.chain, t.chain.r, g)
    return multiplicity_of(t.psi_top, res.poly)


def f_level(t: Type, i: int) -> int:
    """Residual degree f_i at level i (psi_top degree at the top)."""
    if not 1 <= i <= t.chain.r:
        raise PreconditionError(f"level {i} out of range")
    if i < t.chain.r:
        return t.chain.level(i + 1).f_prev
    return t.psi_top.degree


def is_stationary_level(t: Type, i: int) -> bool:
    """Level with e_i = f_i = 1: the key degree stops growing there."""
    return t.chain.level(i).e == 1 and f_level(t, i) == 1


def representative(t: Type) -> Poly:
    """Monic integer polynomial of degree e_r m_r f_top with residual psi_top.

    Built from the top key and graded lifts of the psi_top coefficients;
    the defining property ri(chain, r, phi) = (0, *, psi_top) is verified
    before returning.
    """
    chain, psi = t.chain, t.psi_top
    r = chain.r
    if r == 0:
        return qpoly([c.lift_int() for c in psi.coeffs])
    lev = chain.level(r)
    step = chain.key_value(r)
    phi = lev.phi ** (lev.e * psi.degree)
    for j in range(psi.degree):
        beta = psi.coeff(j)
        if beta == chain.fields[r].zero:
            continue
        lift = graded_lift(chain, r, (psi.degree - j) * step, beta)
        phi = phi + lift * lev.phi ** (lev.e * j)
    res = ri(chain, r, phi)
    if res.s != 0 or res.poly != psi:
        raise InternalError("representative residual differs from psi_top")
    return phi


def _transport_images(old_top, new_chain: MacLaneChain, dropped: set[int]) -> list[FqElt]:
    """Images of the old tower generators in the collapsed chain's top field.

    Each dropped modulus must become linear once its coefficients are
    mapped; its generator goes to the root. Every other generator maps to
    the matching generator of the new tower, checked to be a root of the
    mapped modulus.
    """
    dst = new_chain.fields[new_chain.r]
    images: list[FqElt] = []
    kept = 0
    for j, psi in enumerate(old_top.tower_moduli()):
        mapped = map_poly(psi, dst, images)
        if j in dropped:
            if mapped.degree != 1:
                raise InternalError("dropped level is not linear over the new tower")
            images.append(-mapped.coeff(0))
            continue
        kept += 1
        cand = dst.lift_from(new_chain.fields[kept].gen())
        if mapped.evaluate(cand) != dst.zero:
            raise InternalError("tower transport failed at a kept level")
        images.append(cand)
    return images


def _collapse(t: Type, dropped: set[int]) -> Type:
    """Merge the stationary levels in `dropped` into the levels above them,
    rebuilding the chain once and transporting psi_top once."""
    new_chain = merge_levels(t.chain, dropped)
    images = _transport_images(t.chain.fields[t.chain.r], new_chain, dropped)
    dst = new_chain.fields[new_chain.r]
    return Type(new_chain, map_poly(t.psi_top, dst, images))


def optimize(t: Type) -> Type:
    """Collapse every stationary level below the top in one rebuild: the
    optimal type that collapsing them one at a time, highest first, reaches."""
    st = {i for i in range(1, t.chain.r) if is_stationary_level(t, i)}
    return _collapse(t, st) if st else t


def okutsu_data(t: Type) -> tuple[int, list[Poly]]:
    """Okutsu depth and frame: keys of the strongly optimal core.

    A stationary top level contributes its refinement to the approximation
    but not to the frame.
    """
    t_o = optimize(t)
    r = t_o.chain.r
    if r >= 1 and is_stationary_level(t_o, r):
        r -= 1
    return r, [t_o.chain.level(i).phi for i in range(1, r + 1)]


def transport_residual(res: Poly, s: int, eta: FqElt) -> tuple[int, Poly]:
    """Rewrite top residual data (s, R) in the coordinates of a key shifted
    by a degree-zero element with residue eta.

    The (y + eta)-part of R moves into the abscissa; the rest is recentered:
    s* = mult_(y+eta)(R), R* = (y - eta)^s P(y - eta) with P = R / (y+eta)^s*.
    Applying the law twice with eta and -eta gives back (s, R).
    """
    if res.is_zero():
        raise PreconditionError("cannot transport a zero residual")
    field = res.ring
    if eta.field != field:
        raise PreconditionError("shift must live in the residual's field")
    plus = Poly(field, [eta, field.one])
    minus = Poly(field, [-eta, field.one])
    k = multiplicity_of(plus, res)
    part = res
    for _ in range(k):
        part = part // plus
    return k, minus ** s * part.compose(minus)


@dataclass(frozen=True)
class EquivWitness:
    equivalent: bool
    failed: str | None
    etas: tuple[FqElt, ...]
    degenerate: bool

    def __bool__(self) -> bool:
        return self.equivalent


def _fail(reason: str, etas: list[FqElt], degenerate: bool = False) -> EquivWitness:
    return EquivWitness(False, reason, tuple(etas), degenerate)


def equivalent(ta: Type, tb: Type) -> EquivWitness:
    """Decide whether two types induce the same valuation and branch.

    Both sides are optimized first. Levels must match in slope data and key
    degree; key differences must have value >= the key value, producing the
    residue shifts eta_i; the residual tower of the second type, mapped
    through the isomorphism that sends each generator z_i to z_i + eta_i,
    must reproduce the first tower with every modulus recentered by its
    shift. The witness records the shifts, the first failed condition, and
    whether a failure came from a shift that relabels the residual branch
    (psi vanishing at -eta).
    """
    if ta.chain.p != tb.chain.p:
        raise PreconditionError("types over different primes are not comparable")
    ta_o, tb_o = optimize(ta), optimize(tb)
    A, B = ta_o.chain, tb_o.chain
    etas: list[FqElt] = []
    if A.r != B.r:
        return _fail("order", etas)
    r = A.r
    for j in range(1, r + 1):
        la, lb = A.level(j), B.level(j)
        if (la.e, la.h) != (lb.e, lb.h):
            return _fail(f"slope@{j}", etas)
        if la.m != lb.m:
            return _fail(f"degree@{j}", etas)
        diff = lb.phi - la.phi
        res = None if diff.is_zero() else ri(A, j, diff)
        vd = INF if res is None else A.residual_value(j, res)
        kv = A.key_value(j)
        if vd > kv:
            etas.append(A.fields[j].zero)
        elif vd < kv:
            return _fail(f"key@{j}", etas)
        else:
            if la.e != 1:
                raise InternalError("equal key value with ramified level")
            if res.poly.degree != 0:
                raise InternalError("nonconstant residual of a small difference")
            etas.append(res.poly.coeff(0))
    # psi@j is the modulus of field j+1 over field j; psi_top comes last.
    dst = A.fields[r]
    images: list[FqElt] = []
    moduli_a = dst.tower_moduli() + [ta_o.psi_top]
    moduli_b = B.fields[r].tower_moduli() + [tb_o.psi_top]
    for j in range(r + 1):
        mapped = map_poly(moduli_b[j], dst, images)
        shift = dst.zero if j == 0 else dst.lift_from(etas[j - 1])
        lifted = Poly(dst, [dst.lift_from(c) for c in moduli_a[j].coeffs])
        target = lifted.compose(Poly(dst, [-shift, dst.one]))
        if mapped != target:
            degen = j > 0 and moduli_a[j].evaluate(-etas[j - 1]) == A.fields[j].zero
            return _fail(f"psi@{j}" if j < r else "psi_top", etas, degen)
        if j < r:
            images.append(dst.lift_from(A.fields[j + 1].gen()) + shift)
    return EquivWitness(True, None, tuple(etas), False)
