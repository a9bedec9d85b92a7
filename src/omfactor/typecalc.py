"""Types over a chain: order function, representatives, optimization and
the equivalence decision.

A type pairs a chain with a monic irreducible polynomial psi_top over the
top residue field (psi_top != y above order 0). It selects one branch of
the factorization tree: ord_type counts how often psi_top divides the top
residual polynomial. is_representative() walks a monic polynomial of the
type's degree once, to check its residual is psi_top, and compares their
coordinate vectors; optimize() reads the collapsed type's psi_top from a
representative's walk over the merged chain.
A type derives its optimal type (optimize) and its lifted representative
(_lift_representative) on first use and keeps them, so later calls on the
same Type object repeat no collapse and no lift; every check still walks.

Two types are equivalent when they induce the same valuation and select the
same branch. The decision procedure optimizes both sides, matches slopes
and key degrees level by level, and extracts the residue shift eta_i of
each key difference. Matched levels induce the same valuation, and residual
operators depend only on it, so one walk of the second representative over
the first chain then decides the branch.
"""

from __future__ import annotations

from .arith import INF, Poly, qpoly
from .errors import InternalError, PreconditionError
from .finitefield import FqElt, multiplicity_of
from .record import Record, _set
from .residual import ResidualResult, graded_lift, ri
from .valuation import MacLaneChain, collapse_step


class Type(Record):
    """A chain and psi_top. Its optimal type and its lifted representative
    are derived on first use (optimize, _lift_representative) and kept in
    the last two slots, which equality, hashing and repr leave out."""

    __slots__ = ("chain", "psi_top", "_optimal", "_representative")

    def __init__(self, chain: MacLaneChain, psi_top: Poly) -> None:
        _set(self, "chain", chain)
        _set(self, "psi_top", psi_top)
        _set(self, "_optimal", None)
        _set(self, "_representative", None)
        # A type of order r defines the next residue field F_r[y]/(psi_top):
        # extend checks the modulus, and augment reuses the interned field.
        chain.fields[chain.r].extend(psi_top)

    def _values(self) -> tuple:
        return (self.chain, self.psi_top)

    def __repr__(self) -> str:
        return f"Type(chain={self.chain!r}, psi_top={self.psi_top!r})"

    @property
    def order(self) -> int:
        return self.chain.r

    @property
    def f_top(self) -> int:
        return self.psi_top.degree

    def degree(self) -> int:
        """Degree e_r m_r f_top of the factors singled out."""
        return self.chain.next_key_degree(self.psi_top.degree)


def ord_type(t: Type, g: Poly, res: ResidualResult | None = None) -> int:
    """Multiplicity of psi_top in the top residual polynomial of g; res, if
    given, is ri(t.chain, t.chain.r, g), which is then not walked again."""
    if g.is_zero():
        raise PreconditionError("order of the zero polynomial")
    if res is None:
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


def is_representative(t: Type, g: Poly) -> bool:
    """Whether g is monic of the type's degree with residual (0, *, psi_top).
    Both residuals lie over t.chain.fields[r] (the Type constructor checks
    psi_top's), so their coordinate vectors decide, and no Poly is built."""
    if not g.is_monic() or g.degree != t.degree():
        return False
    res = ri(t.chain, t.chain.r, g)
    return res.s == 0 and res.poly_equals(t.psi_top)


def representative(t: Type) -> Poly:
    """Monic integer polynomial of degree e_r m_r f_top with residual psi_top,
    checked by is_representative before returning."""
    phi = _lift_representative(t)
    if not is_representative(t, phi):
        raise InternalError("representative residual differs from psi_top")
    return phi


def _lift_representative(t: Type) -> Poly:
    """representative(t) from the top key and graded lifts, with no walk;
    lifted on the first call for t and kept in t from then on."""
    if t._representative is not None:
        return t._representative
    chain, psi = t.chain, t.psi_top
    r = chain.r
    if r == 0:
        phi = qpoly([c.lift_int() for c in psi.coeffs])
    else:
        lev = chain.level(r)
        step = chain.key_value(r)
        phi = lev.phi ** (lev.e * psi.degree)
        for j, beta in enumerate(psi.coeffs[:-1]):
            if beta:
                lift = graded_lift(chain, r, (psi.degree - j) * step, beta)
                phi = phi + lift * lev.phi ** (lev.e * j)
    _set(t, "_representative", phi)
    return phi


def _collapse(t: Type, dropped: set[int]) -> Type:
    """Merge the stationary levels in `dropped` into the levels above them,
    rebuilding the chain once. Collapsing leaves the valuation unchanged, so
    t's representative is a key over the merged chain and its top residual
    there is the collapsed psi_top: one walk, no tower map."""
    new_chain = collapse_step(t.chain, dropped)
    res = ri(new_chain, new_chain.r, _lift_representative(t))
    if res.s != 0 or res.poly.degree != t.psi_top.degree:
        raise InternalError("representative is not a key over the collapsed chain")
    return Type(new_chain, res.poly)


def optimize(t: Type) -> Type:
    """Collapse every stationary level below the top in one rebuild: the
    optimal type that collapsing them one at a time, highest first, reaches.
    Computed on the first call for t and kept in t; the optimal type keeps
    itself as its own, since collapsing leaves no stationary level below
    the top."""
    if t._optimal is None:
        st = {i for i in range(1, t.chain.r) if is_stationary_level(t, i)}
        opt = _collapse(t, st) if st else t
        _set(opt, "_optimal", opt)
        _set(t, "_optimal", opt)
    return t._optimal


def okutsu_core(t: Type) -> Type:
    """Strongly optimal core: optimize(t), less a stationary top level, whose
    residual psi_prev becomes the core's psi_top. A factor fixes its core up
    to equivalence."""
    t_o = optimize(t)
    chain, r = t_o.chain, t_o.chain.r
    if r >= 1 and is_stationary_level(t_o, r):
        return Type(chain.prefix(r - 1), chain.level(r).psi_prev)
    return t_o


class EquivWitness(Record):
    __slots__ = ("failed", "etas", "degenerate")

    @property
    def equivalent(self) -> bool:
        """The verdict: no condition failed."""
        return self.failed is None

    def __bool__(self) -> bool:
        return self.equivalent


def _fail(reason: str, etas: list[FqElt], degenerate: bool = False) -> EquivWitness:
    return EquivWitness(reason, tuple(etas), degenerate)


def equivalent(ta: Type, tb: Type) -> EquivWitness:
    """Decide whether two types induce the same valuation and branch.

    Both sides are optimized first. Levels must match in slope data and key
    degree; key differences must have value >= the key value, producing the
    residue shifts eta_i. The chains then induce the same valuation, so the
    second type's representative must be a representative of the first
    (is_representative). The witness records the shifts, the first failed
    condition, and whether a failure came from a shift that relabels the
    residual branch (psi_top vanishing at -eta_r).
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
    # The levels now induce the same valuation, so B's representative is a
    # key over A's chain, and its residual there is psi_top exactly when
    # both types select the same branch.
    if not is_representative(ta_o, _lift_representative(tb_o)):
        degen = r > 0 and ta_o.psi_top.evaluate(-etas[r - 1]) == A.fields[r].zero
        return _fail("psi_top", etas, degen)
    return EquivWitness(None, tuple(etas), False)
