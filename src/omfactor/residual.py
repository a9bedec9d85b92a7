"""Residual polynomial operators and graded lifts.

ri(chain, i, g) computes the level-i residual data of a nonzero polynomial:
the left endpoint (s_i, u_i) of the slope-lambda_i line under the points of
the phi_i-expansion, together with the residual polynomial R_i(g) over the
level-i residue field. It is the package's only walk over phi-expansions,
and recurses on coefficient tuples down to r0, building no Poly for an
expansion coefficient. expansion_entries gives (s, u_s, R_j(a_s)) for each
nonzero a_s, with u_s = v_j(a_s phi^s) normalized (the polygon points are
(s, u_s / e(mu_j))), and line_residual picks the line from the values alone.
R_i is built on first use, from the on-line entries only, so reading a
value builds none. It is built as coordinate vectors over the level's
residue field, constant term first: each on-line entry's lower-level
vectors reduced into F_i (Fq._reduce), twisted by a power of the tower
generator set by the previous Bezout pair (the kernel product). A Poly is
built only on a read of .poly, so only at the level a caller reads.

graded_lift inverts the residual map on homogeneous pieces: given a target
normalized degree W >= V_i and a nonzero residue beta, it produces an
integer polynomial of degree < m_i whose level-i image is exactly beta.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from .arith import INF, Poly, _content_vp, phi_expansion, qpoly
from .errors import InternalError, PreconditionError
from .finitefield import Fq, FqElt
from .record import Record, _set

if TYPE_CHECKING:
    from .valuation import MacLaneChain


class ResidualResult(Record):
    """Residual data (s, u, R), R a polynomial over a residue field F, held
    as its coordinate vectors over F, constant term first, trailing zeros
    stripped. The public constructor takes R as a Poly; the walk gives a
    function that builds the vectors on first use (_from_vectors), and .poly
    wraps them in a Poly on its first read. Both are kept from then on.
    Immutable, and compared by value."""

    __slots__ = ("s", "u", "_poly", "_field", "_vecs")

    def __init__(self, s: int, u: int, poly: Poly) -> None:
        _set(self, "s", s)
        _set(self, "u", u)
        _set(self, "_poly", poly)
        _set(self, "_field", poly.ring)
        _set(self, "_vecs", [c.rep for c in poly.coeffs])

    @property
    def poly(self) -> Poly:
        poly = self._poly
        if poly is None:
            field = self._field
            poly = Poly(field, [FqElt(field, v) for v in self._vectors()])
            _set(self, "_poly", poly)
        return poly

    def poly_equals(self, g: Poly) -> bool:
        """Whether R == g, decided on coordinate vectors, so no Poly is built."""
        return g.ring is self._field and self._vectors() == [c.rep for c in g.coeffs]

    def _vectors(self) -> list:
        """R's coordinate vectors over _field, built on the first call."""
        vecs = self._vecs
        if type(vecs) is not list:
            vecs = vecs()
            _set(self, "_vecs", vecs)
        return vecs

    def _values(self) -> tuple:
        return (self.s, self.u, self.poly)

    def __repr__(self) -> str:
        return f"ResidualResult(s={self.s!r}, u={self.u!r}, poly={self.poly!r})"


def _from_vectors(s: int, u: int, field: Fq, vectors: Callable[[], list]) -> ResidualResult:
    """Residual data whose R over field is built by vectors() on first use."""
    res = object.__new__(ResidualResult)
    _set(res, "s", s)
    _set(res, "u", u)
    _set(res, "_poly", None)
    _set(res, "_field", field)
    _set(res, "_vecs", vectors)
    return res


def r0(p: int, coeffs: tuple) -> ResidualResult:
    """Level-0 data of a nonzero g, given its coefficient tuple: content
    valuation u and (g / p^u) mod p."""
    if not coeffs:
        raise PreconditionError("residual of the zero polynomial")
    u = _content_vp(coeffs, p)
    field = Fq.prime(p)

    def vectors() -> list:
        if u >= 0:
            pu = p ** u  # divides every coefficient, so // is exact on ints
            out = [c // pu % p if type(c) is int else field.coerce(c / pu).rep for c in coeffs]
        else:
            out = [field.coerce(c * p ** -u).rep for c in coeffs]
        while not out[-1]:
            out.pop()
        return out

    return _from_vectors(0, u, field, vectors)


def ri(chain: MacLaneChain, i: int, g: Poly) -> ResidualResult:
    """Level-i residual data (s_i, u_i, R_i(g)) of a nonzero polynomial."""
    if g.is_zero():
        raise PreconditionError("residual of the zero polynomial")
    if not 0 <= i <= chain.r:
        raise PreconditionError(f"residual level {i} out of range")
    return _walk(chain, i, g.coeffs)


def _walk(chain: MacLaneChain, i: int, coeffs: tuple) -> ResidualResult:
    """ri on a nonzero coefficient tuple, for a level already checked."""
    if i == 0:
        return r0(chain.p, coeffs)
    lev = chain.levels[i - 1]
    return line_residual(chain, i, expansion_entries(chain, i - 1, lev.phi, lev.V, coeffs))


def expansion_entries(chain: MacLaneChain, j: int, phi: Poly, V: int, coeffs: tuple) -> list:
    """(s, u_s, R_j(a_s)) for each nonzero a_s of g = sum a_s phi^s, given
    g's coefficient tuple, where u_s = v_j(a_s) + s V, the normalized value
    of a_s phi^s if V = v_j(phi)."""
    out = []
    for s, a in enumerate(phi_expansion(coeffs, phi)):
        if a:
            sub = _walk(chain, j, a)
            out.append((s, chain.residual_value(j, sub) + s * V, sub))
    return out


def line_residual(chain: MacLaneChain, i: int, entries: list) -> ResidualResult:
    """Level-i residual data from the entries of the phi_i-expansion: the
    left endpoint of the slope-lambda_i line, and R_i built on that line
    on first use."""
    if not entries:
        raise InternalError("empty expansion of a nonzero polynomial")
    lev = chain.level(i)
    e, h = lev.e, lev.h
    t_min, line = INF, []
    for entry in entries:
        t = e * entry[1] + h * entry[0]
        if t < t_min:
            t_min, line = t, [entry]
        elif t == t_min:
            line.append(entry)
    s_i, u_i = line[0][0], line[0][1]
    if any((s - s_i) % e for s, _, _ in line):
        raise InternalError("on-line abscissa not congruent to the left endpoint")

    field = chain.fields[i]

    def vectors() -> list:
        z, prev, mul = chain.z(i - 1), chain.at(i - 1), field._kernel._mul
        out = [field.zero.rep] * ((line[-1][0] - s_i) // e + 1)
        for s, _, sub in line:
            a, n = field._reduce(sub._vectors()), prev.lp * sub.s - prev.l * sub.u
            out[(s - s_i) // e] = mul(a, (z ** n).rep) if n else a
        return out

    return _from_vectors(s_i, u_i, field, vectors)


def graded_lift(chain: MacLaneChain, i: int, W: int, beta: FqElt) -> Poly:
    """Integer polynomial A with deg A < m_i, v_i(A) = W, level-i image beta.

    Requires W >= V_i (which keeps every recursive p-exponent nonnegative)
    and beta != 0. At level 0, A is the constant beta p^W.
    """
    lev = chain.at(i)
    if beta == chain.fields[i].zero:
        raise PreconditionError("cannot lift the zero residue")
    if W < lev.V:
        raise PreconditionError(f"target value {W} below the key value bound {lev.V}")
    if i == 0:
        return qpoly([beta.lift_int() * chain.p ** W])
    if i == 1:  # the general step over the key x, without its Poly products
        pw = chain.p ** W
        return qpoly([b.lift_int() * pw for b in beta.coords()])
    prev = chain.at(i - 1)
    e_p, l_p, V_p = prev.e, prev.l, prev.V
    vt = chain.key_value(i - 1)
    a_star = (W * pow(vt, -1, e_p)) % e_p if e_p > 1 else 0
    w0 = (W - vt * a_star) // e_p
    tau = prev.lp - l_p * V_p
    delta0 = tau * a_star - l_p * w0
    z = chain.z(i - 1)
    gammas = (beta * z ** (-delta0)).coords()
    acc = qpoly([])
    for t, gamma in enumerate(gammas):
        if gamma == chain.fields[i - 1].zero:
            continue
        part = graded_lift(chain, i - 1, w0 - vt * t, gamma)
        acc = acc + part * prev.phi ** (a_star + e_p * t)
    return acc
