"""Residual polynomial operators and graded lifts.

ri(chain, i, g) computes the level-i residual data of a nonzero polynomial:
the left endpoint (s_i, u_i) of the slope-lambda_i line under the points of
the phi_i-expansion, together with the residual polynomial R_i(g) over the
level-i residue field. The recursion mirrors the level structure: each
on-line coefficient contributes its lower-level residual evaluated at the
tower generator, twisted by a power of that generator determined by the
Bezout pair of the previous level.

graded_lift inverts the residual map on homogeneous pieces: given a target
normalized degree W >= V_i and a nonzero residue beta, it produces an
integer polynomial of degree < m_i whose level-i image is exactly beta.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import Poly, phi_expansion, qpoly, vp
from .errors import InternalError, PreconditionError
from .finitefield import FqElt
from .valuation import MacLaneChain


@dataclass(frozen=True)
class ResidualResult:
    s: int
    u: int
    poly: Poly


def r0(p: int, g: Poly) -> ResidualResult:
    """Level-0 data: content valuation u and (g / p^u) mod p."""
    if g.is_zero():
        raise PreconditionError("residual of the zero polynomial")
    u = min(int(vp(c, p)) for c in g.coeffs if c)
    from .finitefield import Fq

    fp = Fq.prime(p)
    scale = Fraction(1, p) ** u
    coeffs = [fp.coerce(c * scale) for c in g.coeffs]
    return ResidualResult(0, u, Poly(fp, coeffs))


def ri(chain: MacLaneChain, i: int, g: Poly) -> ResidualResult:
    """Level-i residual data (s_i, u_i, R_i(g)) of a nonzero polynomial."""
    if g.is_zero():
        raise PreconditionError("residual of the zero polynomial")
    if not 0 <= i <= chain.r:
        raise PreconditionError(f"residual level {i} out of range")
    if i == 0:
        return r0(chain.p, g)
    lev = chain.level(i)
    e_prev, h_prev = chain.e(i - 1), chain.h(i - 1)
    l_prev, lp_prev = chain.l(i - 1), chain.lp(i - 1)
    entries = []
    for s, a in enumerate(phi_expansion(g, lev.phi)):
        if a.is_zero():
            continue
        sub = ri(chain, i - 1, a)
        u_s = e_prev * sub.u + h_prev * sub.s + s * lev.V
        entries.append((s, u_s, sub))
    t_min = min(lev.e * u_s + lev.h * s for s, u_s, _ in entries)
    line = [(s, u_s, sub) for s, u_s, sub in entries if lev.e * u_s + lev.h * s == t_min]
    s_i, u_i = line[0][0], line[0][1]
    field = chain.fields[i]
    z = chain.z(i - 1)
    coeffs = [field.zero] * ((line[-1][0] - s_i) // lev.e + 1)
    for s, _, sub in line:
        if (s - s_i) % lev.e != 0:
            raise InternalError("on-line abscissa not congruent to the left endpoint")
        c = sub.poly.map_coeffs(field.embed, field).evaluate(z)
        eps = z ** (lp_prev * sub.s - l_prev * sub.u)
        coeffs[(s - s_i) // lev.e] = c * eps
    return ResidualResult(s_i, u_i, Poly(field, coeffs))


def graded_lift(chain: MacLaneChain, i: int, W: int, beta: FqElt) -> Poly:
    """Integer polynomial A with deg A < m_i, v_i(A) = W, level-i image beta.

    Requires W >= V_i (which keeps every recursive p-exponent nonnegative)
    and beta != 0.
    """
    if not 1 <= i <= chain.r:
        raise PreconditionError(f"level {i} out of range")
    if beta == chain.fields[i].zero:
        raise PreconditionError("cannot lift the zero residue")
    if W < chain.V(i):
        raise PreconditionError(f"target value {W} below the key value bound {chain.V(i)}")
    if i == 1:
        pw = Fraction(chain.p) ** W
        return qpoly([b.lift_int() * pw for b in beta.coords()])
    e_p, h_p = chain.e(i - 1), chain.h(i - 1)
    l_p, lp_p = chain.l(i - 1), chain.lp(i - 1)
    V_p = chain.V(i - 1)
    vt = e_p * V_p + h_p
    a_star = (W * pow(vt, -1, e_p)) % e_p if e_p > 1 else 0
    w0 = (W - vt * a_star) // e_p
    tau = lp_p - l_p * V_p
    delta0 = tau * a_star - l_p * w0
    z = chain.z(i - 1)
    gammas = (beta * z ** (-delta0)).coords()
    phi_prev = chain.level(i - 1).phi
    acc = qpoly([])
    for t, gamma in enumerate(gammas):
        if gamma == chain.fields[i - 1].zero:
            continue
        part = graded_lift(chain, i - 1, w0 - vt * t, gamma)
        acc = acc + part * phi_prev ** (a_star + e_p * t)
    return acc
