"""Factorization driver: expands a tree of types dividing a monic squarefree
input and emits one certificate per p-adic prime factor.

Each open node carries a type t and its branch order omega = ord_t(f) >= 2.
The node takes a representative phi, builds the Newton polygon of f's
phi-expansion under the node's valuation, and branches over the principal
sides (negative slope) and the irreducible factors of each side's residual
polynomial. A branch with order 1 closes into a certificate built from the
optimized closing type.

If phi divides f exactly, phi is itself a p-adic prime factor; the driver
swaps in an equivalent representative perturbed beyond every other branch
separation, which isolates the factor on its own steep side, and reports
the exact divisor as that side's approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import INF, Poly, content_vp, gcd_monic, qpoly, vp
from .errors import InternalError, PreconditionError
from .finitefield import fq_factor
from .polygon import NewtonPolygon, lower_hull
from .residual import graded_lift, r0, ri
from .typecalc import Type, okutsu_data, optimize, ord_type, representative
from .valuation import MacLaneChain, augment, empty_chain, expansion_points, v_norm

_MAX_NODES = 10000


@dataclass(frozen=True)
class FactorCertificate:
    degree: int
    e: int
    f: int
    okutsu_depth: int
    okutsu_frame: tuple[Poly, ...]
    slopes: tuple[Fraction, ...]
    approximation: Poly
    final_type: Type


@dataclass(frozen=True)
class RootResidual:
    poly: Poly


@dataclass(frozen=True)
class BranchStart:
    psi: Poly
    omega: int


@dataclass(frozen=True)
class NodePolygon:
    """Polygon of the expansion by the level-`level` key (1-based)."""

    level: int
    phi: Poly
    points: tuple[tuple[int, Fraction], ...]
    vertices: tuple[tuple[int, Fraction], ...]
    principal_length: int


@dataclass(frozen=True)
class NodeResidual:
    """Residual data on the side of slope -lam, after augmenting by lam."""

    level: int
    lam: Fraction
    s: int
    u: int
    poly: Poly


@dataclass(frozen=True)
class ExactDivisor:
    phi: Poly


@dataclass(frozen=True)
class NodeClose:
    certificate: FactorCertificate


class _RunState:
    def __init__(self) -> None:
        self.closing_bound: int | None = None
        self.nodes = 0

    def tick(self) -> None:
        self.nodes += 1
        if self.nodes > _MAX_NODES:
            raise InternalError("branch tree exceeded the node budget")

    def record_closing(self, hull: NewtonPolygon) -> None:
        top = max(math.ceil(u) for _, u in hull.vertices)
        if self.closing_bound is None or top > self.closing_bound:
            self.closing_bound = top


def _emit(trace: list | None, event: object) -> None:
    if trace is not None:
        trace.append(event)


def _validate_input(f: Poly, p: int) -> None:
    if f.degree < 1 or not f.is_monic():
        raise PreconditionError("input must be monic of degree >= 1")
    if any(vp(c, p) < 0 for c in f.coeffs if c):
        raise PreconditionError("input coefficients must have nonnegative p-adic valuation")
    if gcd_monic(f, f.derivative()).degree != 0:
        raise PreconditionError("input must be squarefree")


def _close(t: Type, state: _RunState, trace: list | None) -> FactorCertificate:
    raw_slopes = tuple(lev.nu for lev in t.chain.levels)
    t_o = optimize(t)
    depth, frame = okutsu_data(t_o)
    approx = representative(t_o)
    e = t_o.chain.e_cum[-1]
    degree = approx.degree
    if degree % e != 0:
        raise InternalError("approximation degree not divisible by the ramification index")
    cert = FactorCertificate(
        degree=degree,
        e=e,
        f=degree // e,
        okutsu_depth=depth,
        okutsu_frame=tuple(frame),
        slopes=raw_slopes,
        approximation=approx,
        final_type=t_o,
    )
    _emit(trace, NodeClose(cert))
    return cert


def _perturbed_representative(
    chain: MacLaneChain, phi: Poly, f: Poly, pts: list[tuple[int, Fraction]], trace: list | None
) -> tuple[Poly, Fraction, list[tuple[int, Fraction]]]:
    """Replace an exact-divisor representative by an equivalent key that does
    not divide f, deep enough that the divisor gets its own polygon side.

    Takes the expansion points of f by phi; returns the new representative,
    the slope reserved for the divisor, and the expansion points of f by the
    new representative.
    """
    _emit(trace, ExactDivisor(phi))
    r = chain.r
    hull = lower_hull(pts)
    lam_max = max((-side.slope for side in hull.principal_sides()), default=Fraction(0))
    nu_star = Fraction(math.floor(lam_max) + 1)
    if r == 0:
        bump = qpoly([Fraction(chain.p) ** int(nu_star)])
    else:
        W = v_norm(chain, r, phi) + int(nu_star) * chain.e_cum[r]
        bump = graded_lift(chain, r, W, chain.fields[r].one)
    shifted = phi + bump
    shifted_pts = expansion_points(chain, shifted, f)
    if shifted_pts[0][0] != 0:
        raise InternalError("perturbed representative still divides the input")
    return shifted, nu_star, shifted_pts


def _branch(
    t: Type, f: Poly, omega: int, state: _RunState, trace: list | None
) -> list[FactorCertificate]:
    state.tick()
    chain = t.chain
    r = chain.r
    phi = representative(t)
    exact: Poly | None = None
    exact_slope: Fraction | None = None
    pts = expansion_points(chain, phi, f)
    if pts[0][0] != 0:  # no point at s = 0: phi divides f exactly
        exact = phi
        phi, exact_slope, pts = _perturbed_representative(chain, phi, f, pts, trace)
    hull = lower_hull(pts)
    principal = hull.principal_sides()
    length = sum(side.length for side in principal)
    _emit(trace, NodePolygon(r + 1, phi, tuple(pts), hull.vertices, length))
    if length != omega:
        raise InternalError("principal polygon length disagrees with the branch order")
    certs: list[FactorCertificate] = []
    closed_here = False
    for side in sorted(principal, key=lambda s: -s.slope):
        lam = -side.slope
        chain2 = augment(chain, phi, lam)
        res = ri(chain2, r + 1, f)
        _emit(trace, NodeResidual(r + 1, lam, res.s, res.u, res.poly))
        e2 = chain2.level(r + 1).e
        if side.length != e2 * res.poly.degree + res.s - side.left[0]:
            raise InternalError("side length disagrees with the residual degree")
        for psi2, w2 in fq_factor(res.poly):
            t2 = Type(chain2, psi2)
            if w2 == 1:
                cert = _close(t2, state, trace)
                if exact is not None and lam == exact_slope:
                    if cert.degree != exact.degree:
                        raise InternalError("exact divisor does not match its closing branch")
                    cert = FactorCertificate(
                        degree=cert.degree,
                        e=cert.e,
                        f=cert.f,
                        okutsu_depth=cert.okutsu_depth,
                        okutsu_frame=cert.okutsu_frame,
                        slopes=cert.slopes,
                        approximation=exact,
                        final_type=cert.final_type,
                    )
                certs.append(cert)
                closed_here = True
            else:
                certs.extend(_branch(t2, f, w2, state, trace))
    if closed_here:
        state.record_closing(hull)
    return certs


@dataclass(frozen=True)
class RunResult:
    """One walk of the tree: the certificates and the precision floor, one
    more than the largest integer ordinate seen on a closing node's polygon
    (1 if none)."""

    certificates: list[FactorCertificate]
    floor: int


def _run(f: Poly, p: int, trace: list | None = None) -> RunResult:
    _validate_input(f, p)
    base = empty_chain(p)
    red = r0(p, f)
    _emit(trace, RootResidual(red.poly))
    certs: list[FactorCertificate] = []
    state = _RunState()
    for psi0, w in fq_factor(red.poly):
        t = Type(base, psi0)
        _emit(trace, BranchStart(psi0, w))
        if w == 1:
            certs.append(_close(t, state, trace))
        else:
            certs.extend(_branch(t, f, w, state, trace))
    if sum(c.degree for c in certs) != f.degree:
        raise InternalError("certificate degrees do not sum to the input degree")
    floor = 1 if state.closing_bound is None else 1 + state.closing_bound
    return RunResult(certs, floor)


# Public name of the walk; `_run` stays the name that callers inside the
# package use and that perfbench/tracer.py wraps.
run = _run


def factorize(f: Poly, p: int, trace: list | None = None) -> list[FactorCertificate]:
    """One certificate per p-adic prime factor of a monic squarefree f."""
    return _run(f, p, trace).certificates


@dataclass(frozen=True)
class CertCheck:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class CertReport:
    checks: tuple[CertCheck, ...]
    floor: int

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def certify(f: Poly, p: int, certs: list[FactorCertificate], floor: int) -> CertReport:
    """Validate certificates against the input at the given precision floor
    (normally the RunResult's); failures are reported, not raised."""
    checks: list[CertCheck] = []
    total = sum(c.degree for c in certs)
    checks.append(
        CertCheck("degree-sum", total == f.degree, f"{total} vs deg f = {f.degree}")
    )
    for k, cert in enumerate(certs):
        checks.append(
            CertCheck(
                f"cert{k}-ef",
                cert.degree == cert.e * cert.f,
                f"degree {cert.degree} vs e*f = {cert.e * cert.f}",
            )
        )
        checks.append(
            CertCheck(
                f"cert{k}-approx-degree",
                cert.approximation.is_monic() and cert.approximation.degree == cert.degree,
                f"approximation degree {cert.approximation.degree}",
            )
        )
        o = ord_type(cert.final_type, f)
        checks.append(CertCheck(f"cert{k}-ord", o == 1, f"ord = {o}"))
    prod = qpoly([1])
    for cert in certs:
        prod = prod * cert.approximation
    gap = content_vp(f - prod, p)
    ok = gap == INF or gap >= floor
    shown = "inf" if gap == INF else str(gap)
    checks.append(CertCheck("approximation-product", ok, f"v0(f - prod) = {shown} >= {floor}"))
    return CertReport(tuple(checks), floor)
