"""Slow reference routines that tests compare the package against.

Unlike oracles.py, these are built on the package's own primitives: each
recomputes, one step at a time or from its definition, something the
package computes in one pass (the phi-expansion's inverse and the
phi-expansion by repeated division, the residual walk that builds every
residual polynomial as it goes, the graded key divisibility read off
expansion points, the stationary levels and their one-at-a-time collapse,
the tower with every degree-one level collapsed, the residual transport
law under a key shift, the equivalence decision by transporting the whole
residual tower through the tower homomorphism the key shifts induce, and
factorization and the irreducibility test over a tower field run on
generic Poly arithmetic, the Euclidean gcd over a field, the Euclidean gcd
with the divisor made monic on each step, the certify report with one walk
of f per certificate, the parser's tokens read one character at a time,
and the text of a residue-field element rendered through its Poly over the
base). Polynomial composition and the lambda-components and shears of a
polygon, which only tests use, live here too.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from omfactor.arith import INF, Poly, content_vp, qpoly
from omfactor.errors import InternalError, ParseError, PreconditionError
from omfactor.finitefield import Fq, FqElt, factor_sort_key, multiplicity_of
from omfactor.montes import CertCheck, CertReport, FactorCertificate
from omfactor.polygon import Component, NewtonPolygon
from omfactor.residual import ri
from omfactor.typecalc import (
    EquivWitness, Type, _collapse, is_stationary_level, optimize, ord_type)
from omfactor.valuation import MacLaneChain, expansion_points, v_norm


def gcd_monic(a: Poly, b: Poly) -> Poly:
    """Monic gcd over a coefficient field, by Euclid's algorithm."""
    while not b.is_zero():
        a, b = b, a % b
    if a.is_zero():
        return a
    return a.monic()


def expansion_sum(coeffs: list[Poly], phi: Poly) -> Poly:
    """Inverse of phi_expansion, used by round-trip checks."""
    acc = Poly(phi.ring, [])
    for a in reversed(coeffs):
        acc = acc * phi + a
    return acc


def compose(g: Poly, h: Poly) -> Poly:
    """g(h), by Horner's rule over g's coefficient ring."""
    acc = Poly(g.ring, [])
    for c in reversed(g.coeffs):
        acc = acc * h + Poly(g.ring, [c])
    return acc


def phi_expansion_by_divmod(g: Poly, phi: Poly) -> list[Poly]:
    """The phi-adic expansion of g by repeated division with remainder."""
    out: list[Poly] = []
    rest = g
    while not rest.is_zero():
        rest, a = divmod(rest, phi)
        out.append(a)
    return out


def multiplicity_by_divmod(factor: Poly, g: Poly) -> int:
    """Largest m with factor^m dividing g, by repeated Poly division."""
    m = 0
    while True:
        quo, rem = divmod(g, factor)
        if not rem.is_zero():
            return m
        m, g = m + 1, quo


def ri_eager(chain: MacLaneChain, i: int, g: Poly) -> tuple[int, int, Poly]:
    """(s_i, u_i, R_i(g)) from a walk that builds the residual polynomial of
    every coefficient at every level, on the line or not."""
    p = chain.p
    if i == 0:
        u = content_vp(g, p)
        return 0, u, Poly(Fq.prime(p), [c / Fraction(p) ** u for c in g.coeffs])
    lev = chain.level(i)
    entries = []
    for s, a in enumerate(phi_expansion_by_divmod(g, lev.phi)):
        if not a.is_zero():
            s_a, u_a, poly_a = ri_eager(chain, i - 1, a)
            v = chain.at(i - 1).e * u_a + chain.at(i - 1).h * s_a
            entries.append((s, v + s * lev.V, s_a, u_a, poly_a))
    t_min = min(lev.e * u_s + lev.h * s for s, u_s, *_ in entries)
    line = [entry for entry in entries if lev.e * entry[1] + lev.h * entry[0] == t_min]
    s_i, u_i = line[0][0], line[0][1]
    field, z = chain.fields[i], chain.z(i - 1)
    coeffs = [field.zero] * ((line[-1][0] - s_i) // lev.e + 1)
    for s, _, s_a, u_a, poly_a in line:
        eps = z ** (chain.at(i - 1).lp * s_a - chain.at(i - 1).l * u_a)
        coeffs[(s - s_i) // lev.e] = field.from_poly(poly_a) * eps
    return s_i, u_i, Poly(field, coeffs)


def key_divides(chain: MacLaneChain, phi: Poly, g: Poly) -> bool:
    """Whether phi divides g in the graded algebra of the top valuation.

    Reads the phi-expansion of g: phi divides exactly when the minimal value
    of mu(a_s phi^s) is attained only at positions s >= 1.
    """
    if g.is_zero():
        return True
    pts = expansion_points(chain, phi, v_norm(chain, chain.r, phi), g)[1]
    lo = min(u for _, u in pts)
    return pts[0] != (0, lo)


def stationary_levels(t: Type) -> list[int]:
    return [i for i in range(1, t.chain.r + 1) if is_stationary_level(t, i)]


def is_optimal(t: Type) -> bool:
    """Key degrees strictly increase below the top level."""
    return not any(is_stationary_level(t, i) for i in range(1, t.chain.r))


def optimize_step(t: Type) -> Type:
    """Collapse the highest stationary level below the top, if any."""
    st = [i for i in range(1, t.chain.r) if is_stationary_level(t, i)]
    return _collapse(t, {st[-1]}) if st else t


def elements(field: Fq) -> Iterator[FqElt]:
    """Every element of the field, in from_index order."""
    for k in range(field.q):
        yield field.from_index(k)


def lift_from(field: Fq, x: FqElt) -> FqElt:
    """Embed an element of any field along this tower's base chain."""
    cur: Fq | None = field
    while cur is not None and cur != x.field:
        cur = cur.base
    if cur is None:
        raise InternalError("element does not belong to this tower")
    return FqElt(field, field._pad(x.rep))


def elt_poly(a: FqElt) -> Poly:
    """The element as a reduced polynomial over the immediate base field."""
    return Poly(a.field.base, a.coords())


def format_fq_elt_by_poly(a: FqElt) -> str:
    """The text of a residue-field element, rendered through elt_poly: over
    the prime field its balanced integer, else its Poly over the base in the
    field's generator z_{level - 1}, each coefficient rendered alike."""
    if a.field.base is None:
        return str(a.lift_int())
    g, var = elt_poly(a), f"z{a.field.level - 1}"
    if g.is_zero():
        return "0"
    parts: list[str] = []
    for k in range(g.degree, -1, -1):
        c = g.coeff(k)
        if not c:
            continue
        body = format_fq_elt_by_poly(c)
        if " " in body:
            body = f"({body})"
        if k > 0:
            head = var if k == 1 else f"{var}^{k}"
            body = {"1": head, "-1": f"-{head}"}.get(body, f"{body}*{head}")
        if not parts:
            parts.append(body)
        else:
            parts.append(f"- {body[1:]}" if body.startswith("-") else f"+ {body}")
    return " ".join(parts)


def tower_moduli(field: Fq) -> list[Poly]:
    """Moduli from the first extension up to this field."""
    out: list[Poly] = []
    cur: Fq = field
    while cur.base is not None:
        out.append(cur.modulus)
        cur = cur.base
    out.reverse()
    return out


def tower_map(x: FqElt, dst: Fq, images: list[FqElt]) -> FqElt:
    """Apply the tower homomorphism sending the level-j generator of x's
    tower to images[j]; all images must be elements of dst."""
    if x.field.base is None:
        return dst.coerce(x.rep)
    img = images[x.field.level - 1]
    acc = dst.zero
    for c in reversed(x.coords()):
        acc = acc * img + tower_map(c, dst, images)
    return acc


def map_poly(g: Poly, dst: Fq, images: list[FqElt]) -> Poly:
    """Apply tower_map with these generator images to every coefficient of a
    polynomial over a tower field, giving a polynomial over dst."""
    return Poly(dst, [tower_map(c, dst, images) for c in g.coeffs])


def flatten_field(field: Fq) -> tuple[Fq, list[FqElt]]:
    """Collapse all degree-one levels of a tower.

    Returns the flat tower (every modulus of degree >= 2) and the images of
    the original generators inside it, suitable for tower_map.
    """
    flat = Fq.prime(field.p)
    images: list[FqElt] = []
    for psi in tower_moduli(field):
        mapped = map_poly(psi, flat, images)
        if mapped.degree == 1:
            images.append(-mapped.coeff(0))
        else:
            bigger = flat.extend(mapped)
            images = [lift_from(bigger, img) for img in images]
            images.append(bigger.gen())
            flat = bigger
    return flat, images


def _fail(reason: str, etas: list[FqElt], degenerate: bool = False) -> EquivWitness:
    return EquivWitness(reason, tuple(etas), degenerate)


def equivalent_by_transport(ta: Type, tb: Type) -> EquivWitness:
    """The equivalence decision with the whole residual tower transported.

    The level loop is the package's; after it, the tower of the second type,
    mapped through the isomorphism that sends each generator z_i to
    z_i + eta_i, must reproduce the first tower with every modulus
    recentered by its shift. psi@j is checked for every level below the top,
    which the package's one-walk decision does not do.
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
    moduli_a = tower_moduli(dst) + [ta_o.psi_top]
    moduli_b = tower_moduli(B.fields[r]) + [tb_o.psi_top]
    for j in range(r + 1):
        mapped = map_poly(moduli_b[j], dst, images)
        shift = dst.zero if j == 0 else lift_from(dst, etas[j - 1])
        lifted = Poly(dst, [lift_from(dst, c) for c in moduli_a[j].coeffs])
        target = compose(lifted, Poly(dst, [-shift, dst.one]))
        if mapped != target:
            degen = j > 0 and moduli_a[j].evaluate(-etas[j - 1]) == A.fields[j].zero
            return _fail(f"psi@{j}" if j < r else "psi_top", etas, degen)
        if j < r:
            images.append(lift_from(dst, A.fields[j + 1].gen()) + shift)
    return EquivWitness(None, tuple(etas), False)


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
    c = gcd_monic(g, d)
    w = g // c
    i = 1
    while w.degree > 0:
        y = gcd_monic(w, c)
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
            t = pow(r, (q ** d - 1) // 2, h) - Poly(field, [field.one])
        g = gcd_monic(h, t)
        if 0 < g.degree < h.degree:
            return _split_equal_degree(g, d) + _split_equal_degree(h // g, d)


def _factor_squarefree(w: Poly) -> list[Poly]:
    """Irreducible factors of a squarefree monic polynomial."""
    field: Fq = w.ring
    out: list[Poly] = []
    h = pow(Poly(field, [field.zero, field.one]), field.q, w)
    d = 1
    while w.degree >= 2 * d:
        g = gcd_monic(w, h - Poly(field, [field.zero, field.one]))
        if g.degree > 0:
            out.extend(_split_equal_degree(g, d))
            w = w // g
            h = h % w
        d += 1
        if w.degree >= 2 * d:
            h = pow(h, field.q, w)
    if w.degree > 0:
        out.append(w)
    return out


def fq_factor_by_poly(g: Poly) -> list[tuple[Poly, int]]:
    """fq_factor on Poly-over-Fq arithmetic, without the memo: the same
    squarefree parts, distinct-degree factorization and candidate sweep."""
    g = g.monic()
    found: list[tuple[Poly, int]] = []
    for part, mult in _squarefree_parts(g):
        for h in _factor_squarefree(part):
            found.append((h, mult))
    found.sort(key=lambda pair: factor_sort_key(pair[0]))
    return found


def is_irreducible(g: Poly) -> bool:
    """Irreducibility over a tower field, read from fq_factor_by_poly."""
    if g.is_zero() or g.degree < 1:
        return False
    factors = fq_factor_by_poly(g)
    return len(factors) == 1 and factors[0][1] == 1


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
    if eta.field is not field:
        raise PreconditionError("shift must live in the residual's field")
    plus = Poly(field, [eta, field.one])
    minus = Poly(field, [-eta, field.one])
    k = multiplicity_of(plus, res)
    part = res
    for _ in range(k):
        part = part // plus
    return k, minus ** s * compose(part, minus)


def component_of(polygon: NewtonPolygon, lam: Fraction) -> Component:
    """Stretch of the support line of slope -lam touching the polygon.

    The component may degenerate to a single vertex, which is a valid
    outcome, not an error.
    """
    lam = Fraction(lam)
    if lam <= 0:
        raise PreconditionError("component_of requires lam > 0")
    vals = [u + lam * s for s, u in polygon.vertices]
    lo = min(vals)
    touch = [v for v, val in zip(polygon.vertices, vals) if val == lo]
    return Component(touch[0], touch[-1], -lam)


def apply_affinity(polygon: NewtonPolygon, lam0: Fraction) -> NewtonPolygon:
    """Shear (s, u) -> (s, u - lam0 * s); hulls map to hulls."""
    lam0 = Fraction(lam0)
    return NewtonPolygon(tuple((s, u - lam0 * s) for s, u in polygon.vertices))


def gcd_by_monic_steps(a: Poly, b: Poly) -> Poly:
    """Monic gcd over a field by Euclid's algorithm, dividing by the monic
    associate of the divisor on each step."""
    while not b.is_zero():
        a, b = b, a % b.monic()
    return a if a.is_zero() else a.monic()


def certify_per_certificate(f: Poly, p: int, certs: list[FactorCertificate],
                            floor: int) -> CertReport:
    """montes.certify with ord_type(t, f) for each certificate, so f is
    walked once per certificate."""
    total = sum(c.degree for c in certs)
    checks = [CertCheck("degree-sum", total == f.degree, f"{total} vs deg f = {f.degree}")]
    for k, cert in enumerate(certs):
        q = cert.final_type.chain.p
        checks.append(CertCheck(f"cert{k}-prime", q == p, f"type prime {q} vs p = {p}"))
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


def tokenize_by_chars(text: str) -> list[str]:
    """The parser's tokens, read one character at a time: whitespace
    (str.isspace) is skipped, a run of ASCII digits is one token, and each
    of +-*^() and each letter (str.isalpha) is one; any other character is
    a ParseError."""
    toks: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*^()":
            toks.append(ch)
            i += 1
        elif "0" <= ch <= "9":
            j = i
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
            toks.append(text[i:j])
            i = j
        elif ch.isalpha():
            toks.append(ch)
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r} in polynomial")
    return toks
