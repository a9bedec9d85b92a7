"""Factorization driver: expands a tree of types dividing a monic squarefree
input and emits one certificate per p-adic prime factor.

Each open node carries a type t and its branch order omega = ord_t(f) >= 2.
The node takes a representative phi, builds the Newton polygon of f's
phi-expansion under the node's valuation (valuation.expansion_points, with
phi's value read from the level recurrence), and branches over the principal
sides (negative slope) and the irreducible factors of each side's residual
polynomial. A side of slope -lam augments t's chain by (phi, lam), or, if
t's top level r is stationary (e_r = f_r = 1), replaces it by (phi, nu_r +
lam), so every type the walk builds is optimal. phi is walked once per side,
by that side's augment, and once more under a replaced top, to check psi_top.
A branch with order 1 closes in _close, the one place a certificate is built;
it checks itself, and its NodeClose event goes into the walk's one
RunResult, whose certificates are read from those events.

If phi divides f exactly, phi is itself a p-adic prime factor; the driver
swaps in an equivalent representative perturbed beyond every other branch
separation, which isolates the factor on its own steep side, and closes
that side with the exact divisor as its approximation.

Before the walk, f is proved squarefree: by one integer gcd of F(xi) and
F'(xi) for the scaled integral F, while its coefficients are small
enough, else modulo word-size primes; only the exact gcd degree, from a
primitive remainder sequence over the integers, rejects an input.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .arith import INF, Poly, content_vp, qpoly
from .errors import InternalError, PreconditionError
from .finitefield import Fq, _pgcd, fq_factor
from .polygon import NewtonPolygon, lower_hull
from .record import Record
from .residual import ResidualResult, graded_lift, line_residual, r0, ri
from .typecalc import (
    Type, _lift_representative, is_representative, is_stationary_level, okutsu_core, ord_type)
from .valuation import augment, empty_chain, expansion_points

_MAX_NODES = 10000

# The three largest primes below 2^31, for the modular squarefree test.
_SQUAREFREE_PRIMES = (2147483647, 2147483629, 2147483587)
# Largest bit length of B for the evaluation squarefree proof: past it the
# integer gcd costs more than the modular one.
_EVAL_MAX_BITS = 256


class FactorCertificate(Record):
    """A p-adic prime factor: a representative of a type, and that type,
    from which the rest derive: slopes, degree, e, f, and okutsu_depth and
    okutsu_frame, the order and keys of the type's okutsu_core."""

    __slots__ = ("approximation", "final_type",
                 "slopes", "degree", "e", "f", "okutsu_depth", "okutsu_frame")

    def __init__(self, approximation: Poly, final_type: Type) -> None:
        t = final_type
        if not is_representative(t, approximation):
            raise PreconditionError("approximation is not a representative of the type")
        degree, e = t.degree(), t.chain.e_cum[-1]
        core = okutsu_core(t).chain
        super().__init__(approximation, t, tuple(lev.nu for lev in t.chain.levels),
                         degree, e, degree // e, core.r, tuple(lev.phi for lev in core.levels))


class RootResidual(Record):
    __slots__ = ("poly",)


class BranchStart(Record):
    __slots__ = ("psi", "omega")


class NodePolygon(Record):
    """Polygon of the expansion by the level-`level` key (1-based)."""

    __slots__ = ("level", "phi", "points", "vertices", "principal_length")


class NodeResidual(Record):
    """Residual data on the side of slope -lam, after augmenting by lam."""

    __slots__ = ("level", "lam", "s", "u", "poly")


class ExactDivisor(Record):
    __slots__ = ("phi",)


class NodeClose(Record):
    __slots__ = ("certificate",)


class RunResult(Record):
    """The record of one walk of the tree, filled while the walk runs: the
    trace events, the node count and the precision floor, one more than the
    largest integer ordinate seen on a closing node's polygon (1 if none:
    every ordinate is nonnegative). Mutable, so not hashable."""

    __slots__ = ("events", "nodes", "floor")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self) -> None:
        self.events: list[object] = []
        self.nodes = 0
        self.floor = 1

    @property
    def certificates(self) -> list[FactorCertificate]:
        """The certificate of each NodeClose event, in walk order."""
        return [e.certificate for e in self.events if isinstance(e, NodeClose)]

    def tick(self) -> None:
        self.nodes += 1
        if self.nodes > _MAX_NODES:
            raise InternalError("branch tree exceeded the node budget")

    def record_closing(self, hull: NewtonPolygon) -> None:
        self.floor = max(self.floor, 1 + max(math.ceil(u) for _, u in hull.vertices))


def _is_squarefree(f: Poly) -> bool:
    """Whether the monic rational f has no repeated factor.

    First an evaluation proof, as in GCDHEU (Char, Geddes and Gonnet,
    J. Symbolic Comput. 7, 1989). With D the lcm of the denominators and
    n = deg f, F_i = D^(n-i) f_i gives F(x) = D^n f(x/D): monic, integral,
    and squarefree exactly when f is. Let B = 1 + max_{i<n} |F_i|,
    xi = 2^(bitlen(B) + 32) + 1 and gamma = gcd(F(xi), F'(xi)). The gcd
    d = gcd(F, F') is monic, so integral by Gauss's lemma, and d(xi)
    divides gamma. Every root of F has modulus < B (Cauchy's bound), so
    xi is no root and gamma >= 1, and a nonconstant d has
    |d(xi)| >= xi - B. Hence gamma < xi - B proves d = 1. The integer gcd
    is quadratic in the bit length, so the proof is tried only while
    bitlen(B) <= _EVAL_MAX_BITS.

    Otherwise, for a prime q not dividing D, the integral D f keeps its
    leading coefficient D modulo q (and its derivative n D, as n < q), so
    Res(D f, D f') mod q is the resultant of the reductions, and D f mod q
    coprime to its derivative proves disc f != 0. If no prime proves it, the
    exact gcd degree decides (_gcd_degree); every non-squarefree f reaches it.
    """
    D = math.lcm(*(c.denominator for c in f.coeffs))
    # F_{n-1}, ..., F_0, with scale = D^(n-i) until it reaches limit: from
    # there a nonzero F_i has |F_i| >= D^(n-i-1) >= 2^_EVAL_MAX_BITS.
    F, scale, limit = [], 1, D << _EVAL_MAX_BITS
    for c in reversed(f.coeffs[:-1]):
        if scale < limit:
            scale *= D
        if c and scale >= limit:
            break
        F.append(c.numerator * (scale // c.denominator))
    else:
        B = 1 + max(map(abs, F), default=0)
        if B.bit_length() <= _EVAL_MAX_BITS:
            xi = (1 << (B.bit_length() + 32)) + 1
            value, slope = 1, 0
            for c in F:
                slope = slope * xi + value
                value = value * xi + c
            if math.gcd(value, slope) < xi - B:
                return True
    Df = [c.numerator * (D // c.denominator) for c in f.coeffs]
    dDf = [k * c for k, c in enumerate(Df)][1:]
    for q in _SQUAREFREE_PRIMES:
        if D % q and len(_pgcd(Fq.prime(q), [c % q for c in Df], [c % q for c in dDf])) == 1:
            return True
    return _gcd_degree(Df) == 0


def _gcd_degree(F: list[int]) -> int:
    """deg gcd(F, F') for the integer coefficients F of a polynomial of
    degree >= 1, constant first (D f, as _is_squarefree builds it), by the
    primitive pseudo-remainder sequence over Z (Knuth, TAOCP vol. 2, 4.6.1):
    every remainder is divided by its content, which keeps the coefficient
    growth polynomial."""
    a = F[::-1]
    b = [c * k for c, k in zip(a, range(len(a) - 1, 0, -1))]
    while len(b) > 1:
        a, b = b, _primitive_prem(a, b)
    return 0 if b else len(a) - 1


def _primitive_prem(a: list[int], b: list[int]) -> list[int]:
    """Primitive part of the remainder of lc(b)^k a by b, for integer
    coefficient lists with the leading coefficient first; [] for zero."""
    lc, n = b[0], len(b)
    while len(a) >= n:
        q = a[0]
        a = [lc * x - q * y for x, y in zip(a[1:n], b[1:])] + [lc * x for x in a[n:]]
        while a and not a[0]:
            del a[0]
    g = math.gcd(*a)
    return [x // g for x in a]


def _validate_input(f: Poly, p: int) -> None:
    if f.degree < 1 or not f.is_monic():
        raise PreconditionError("input must be monic of degree >= 1")
    if content_vp(f, p) < 0:
        raise PreconditionError("input coefficients must have nonnegative p-adic valuation")
    if not _is_squarefree(f):
        raise PreconditionError("input must be squarefree")


def _close(t: Type, run: RunResult, approximation: Poly | None = None) -> None:
    """Close a branch of order 1: approximation is the exact divisor it isolates, if any."""
    run.events.append(NodeClose(FactorCertificate(
        _lift_representative(t) if approximation is None else approximation, t)))


def _perturbed_representative(
    t: Type, phi: Poly, pts: list[tuple[int, Fraction]]
) -> tuple[Poly, Fraction]:
    """Replace an exact-divisor representative phi of t by an equivalent key,
    deep enough that the divisor gets its own polygon side. Takes the points
    of f by phi; returns the new key and the slope reserved for the divisor."""
    chain, r = t.chain, t.chain.r
    s0, u0 = pts[0]  # the steepest side starts at the first point
    lam_max = max([(u0 - u) / (s - s0) for s, u in pts[1:]] + [0])
    nu_star = Fraction(math.floor(lam_max) + 1)
    W = chain.next_key_value(t.f_top) + int(nu_star) * chain.e_cum[r]
    return phi + graded_lift(chain, r, W, chain.fields[r].one), nu_star


def _branch(t: Type, f: Poly, omega: int, run: RunResult) -> None:
    run.tick()
    chain = t.chain
    r = chain.r
    phi = _lift_representative(t)
    exact: Poly | None = None
    exact_slope: Fraction | None = None
    # A stationary top level (e_r = f_r = 1) is replaced, not stacked on. phi
    # is t's representative, or is equivalent to it after a perturbation, so
    # the level recurrence fixes its value over the chain it extends: no walk.
    lev = chain.at(r)
    if r and is_stationary_level(t, r):
        below, shift, V, psi_prev = chain.prefix(r - 1), lev.nu, lev.V, lev.psi_prev
    else:
        below, shift, V, psi_prev = chain, 0, chain.next_key_value(t.f_top), t.psi_top
    k = below.r + 1  # the level the sides' key takes

    def points(phi: Poly) -> tuple[list, list]:  # mu_r(phi) = mu_{r-1}(phi) + shift
        entries, pts = expansion_points(below, phi, V, f)
        return entries, [(s, u + s * shift) for s, u in pts]

    entries, pts = points(phi)
    if pts[0][0] != 0:  # no point at s = 0: phi divides f exactly
        run.events.append(ExactDivisor(phi))
        exact = phi
        phi, exact_slope = _perturbed_representative(t, phi, pts)
        entries, pts = points(phi)
        if pts[0][0] != 0:
            raise InternalError("perturbed representative still divides the input")
    if k == r and not is_representative(t, phi):  # the sides' walks stop below r
        raise InternalError("representative residual differs from psi_top")
    hull = lower_hull(pts)
    principal = hull.principal_sides()
    length = sum(side.length for side in principal)
    run.events.append(NodePolygon(k, phi, tuple(pts), hull.vertices, length))
    if length != omega:
        raise InternalError("principal polygon length disagrees with the branch order")
    for side in reversed(principal):
        lam = -side.slope
        chain2 = augment(below, phi, shift + lam)
        top = chain2.level(k)
        # The key check's walk of phi checks the representative (s = 0 by degree).
        if top.psi_prev != psi_prev:
            raise InternalError("representative residual differs from psi_top")
        res = line_residual(chain2, k, entries)
        run.events.append(NodeResidual(k, lam, res.s, res.u, res.poly))
        if side.length != top.e * res.poly.degree + res.s - side.left[0]:
            raise InternalError("side length disagrees with the residual degree")
        for psi2, w2 in fq_factor(res.poly):
            t2 = Type(chain2, psi2)
            if w2 == 1:
                divisor = exact if lam == exact_slope else None
                if divisor is not None and divisor.degree != t2.degree():
                    raise InternalError("exact divisor does not match its closing branch")
                _close(t2, run, divisor)
                run.record_closing(hull)
            else:
                _branch(t2, f, w2, run)


def _run(f: Poly, p: int) -> RunResult:
    base = empty_chain(p)  # checks p before the input's p-adic content
    _validate_input(f, p)
    run = RunResult()
    red = r0(p, f.coeffs)
    run.events.append(RootResidual(red.poly))
    for psi0, w in fq_factor(red.poly):
        t = Type(base, psi0)
        run.events.append(BranchStart(psi0, w))
        if w == 1:
            _close(t, run)
        else:
            _branch(t, f, w, run)
    if sum(c.degree for c in run.certificates) != f.degree:
        raise InternalError("certificate degrees do not sum to the input degree")
    return run


# Public name of the walk; `_run` stays the name that callers inside the
# package use and that perfbench/tracer.py wraps.
run = _run


def factorize(f: Poly, p: int) -> list[FactorCertificate]:
    """One certificate per p-adic prime factor of a monic squarefree f."""
    return _run(f, p).certificates


class CertCheck(Record):
    __slots__ = ("name", "ok", "detail")


class CertReport(Record):
    __slots__ = ("checks", "floor")

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def certify(f: Poly, p: int, certs: list[FactorCertificate], floor: int) -> CertReport:
    """Check certificates, valid by construction, against f and p at a precision
    floor (normally the RunResult's); failures are reported, not raised."""
    checks: list[CertCheck] = []
    total = sum(c.degree for c in certs)
    checks.append(
        CertCheck("degree-sum", total == f.degree, f"{total} vs deg f = {f.degree}")
    )
    residuals: dict[int, ResidualResult] = {}  # f's top residual, by chain object
    for k, cert in enumerate(certs):
        chain = cert.final_type.chain
        q = chain.p
        checks.append(CertCheck(f"cert{k}-prime", q == p, f"type prime {q} vs p = {p}"))
        res = residuals.get(id(chain))
        if res is None and f:  # ord_type itself rejects a zero f
            res = residuals[id(chain)] = ri(chain, chain.r, f)
        o = ord_type(cert.final_type, f, res)
        checks.append(CertCheck(f"cert{k}-ord", o == 1, f"ord = {o}"))
    prod = qpoly([1])
    for cert in certs:
        prod = prod * cert.approximation
    gap = content_vp(f - prod, p)
    ok = gap == INF or gap >= floor
    shown = "inf" if gap == INF else str(gap)
    checks.append(CertCheck("approximation-product", ok, f"v0(f - prod) = {shown} >= {floor}"))
    return CertReport(tuple(checks), floor)
