"""JSON and text rendering for chains, types, residuals, polygons, and
certificates.

JSON conventions: polynomial coefficients are decimal strings (portable to
consumers without big-integer support), structural counters are plain JSON
numbers, rationals are {"num", "den"} objects, and points are [s, num, den]
triples. Emission builds every object in a fixed key order, so equal values
always produce byte-identical documents. Parsing rebuilds chains from their
(phi, nu) steps and certificates through their checking constructor, and
cross-checks every stored derived field, so a tampered file is rejected
instead of deserialized into an inconsistent object.

Text conventions: residue-field elements render with balanced integer
coordinates in the tower generators z0, z1, ...; a type renders as the tuple
(psi_0; (phi_1, nu_1, psi_1); ...; (phi_r, nu_r, psi_r)).
"""

from __future__ import annotations

import json
from fractions import Fraction
from operator import not_

from .arith import Poly, _check_size, _size_bits, decimal_str, format_poly, format_terms, qpoly
from .errors import ConfigError, InternalError, ParseError, PreconditionError
from .finitefield import Fq, FqElt, balanced_int
from .montes import (
    BranchStart,
    ExactDivisor,
    FactorCertificate,
    NodeClose,
    NodePolygon,
    NodeResidual,
    RootResidual,
)
from .residual import ResidualResult
from .typecalc import Type
from .valuation import Level, MacLaneChain, build_chain


# ---------------------------------------------------------------------------
# JSON emission


def fraction_to_json(q: Fraction) -> dict:
    return {"num": q.numerator, "den": q.denominator}


def qpoly_to_json(g: Poly) -> list[str]:
    out = []
    for c in g.coeffs:
        if c.denominator != 1:
            raise PreconditionError("only integer polynomials serialize to JSON")
        out.append(decimal_str(c.numerator))
    return out


def fq_elt_to_json(a: FqElt) -> str | list:
    """Prime-field elements are balanced decimal strings; extension elements
    are coordinate lists over the base, padded to the extension degree."""
    if a.field.base is None:
        return str(a.lift_int())
    return [fq_elt_to_json(c) for c in a.coords()]


def fq_poly_to_json(g: Poly) -> list:
    return [fq_elt_to_json(c) for c in g.coeffs]


def points_to_json(points) -> list[list[int]]:
    out = []
    for s, u in points:
        q = Fraction(u)
        out.append([int(s), q.numerator, q.denominator])
    return out


def _derived_fields(lev: Level) -> dict:
    """A level's derived fields, in document order and as cross-checked."""
    return {"e": lev.e, "h": lev.h, "f": lev.f_prev, "m": lev.m,
            "V": lev.V, "l": lev.l, "lp": lev.lp}


def chain_to_json(chain: MacLaneChain) -> dict:
    levels = [
        {"phi": qpoly_to_json(lev.phi), "nu": fraction_to_json(lev.nu), **_derived_fields(lev)}
        for lev in chain.levels
    ]
    return {"p": chain.p, "levels": levels}


def type_to_json(t: Type) -> dict:
    doc = chain_to_json(t.chain)
    for lev, entry in zip(t.chain.levels, doc["levels"]):
        entry["psi"] = fq_poly_to_json(lev.psi_prev)
    doc["psi_top"] = fq_poly_to_json(t.psi_top)
    return doc


def residual_to_json(res: ResidualResult) -> dict:
    return {"s": res.s, "u": res.u, "poly": fq_poly_to_json(res.poly)}


def _cert_fields(cert: FactorCertificate) -> dict:
    """A certificate's fields derived from its type, in document order and
    as cross-checked; the Okutsu frame and the slopes are checked apart."""
    return {"degree": cert.degree, "e": cert.e, "f": cert.f,
            "okutsu_depth": cert.okutsu_depth}


def cert_to_json(cert: FactorCertificate) -> dict:
    return {
        **_cert_fields(cert),
        "okutsu_frame": [qpoly_to_json(g) for g in cert.okutsu_frame],
        "slopes": [fraction_to_json(s) for s in cert.slopes],
        "approximation": qpoly_to_json(cert.approximation),
        "type": type_to_json(cert.final_type),
    }


def canonical_json(doc) -> str:
    """Fixed-layout rendering; equal documents give identical bytes."""
    return json.dumps(doc, indent=2, sort_keys=False, ensure_ascii=True)


# ---------------------------------------------------------------------------
# JSON parsing


def _need(obj: dict, key: str, kinds) -> object:
    if not isinstance(obj, dict) or key not in obj:
        raise ParseError(f"missing field {key!r}")
    val = obj[key]
    if not isinstance(val, kinds) or isinstance(val, bool):
        raise ParseError(f"field {key!r} has the wrong JSON type")
    return val


def fraction_from_json(obj) -> Fraction:
    num = _need(obj, "num", int)
    den = _need(obj, "den", int)
    if den <= 0:
        raise ParseError("fraction denominator must be positive")
    return Fraction(num, den)


def _parse_int_string(text) -> int:
    """A JSON int, or a string of ASCII digits after an optional -."""
    if isinstance(text, int) and not isinstance(text, bool):
        return text
    if not isinstance(text, str):
        raise ParseError("coefficients must be decimal strings")
    try:
        if text.isascii() and text.lstrip("-").isdigit():
            return int(text)
    except ValueError:  # "--1", or more digits than the interpreter converts
        pass
    raise ParseError(f"bad integer literal {text!r}")


def qpoly_from_json(arr) -> Poly:
    """A coefficient array, constant first, under the text parser's limits."""
    if not isinstance(arr, list):
        raise ParseError("polynomial must be a JSON array of coefficients")
    g = qpoly([_parse_int_string(c) for c in arr])
    _check_size(g.degree, _size_bits(g.coeffs))
    return g


def fq_elt_from_json(field: Fq, obj) -> FqElt:
    if field.base is None:
        return field.coerce(_parse_int_string(obj))
    if not isinstance(obj, list):
        raise ParseError("extension-field element must be a coordinate array")
    if len(obj) != field.deg_over_base:
        raise ParseError("element coordinate array has the wrong length")
    return field.from_poly([fq_elt_from_json(field.base, c) for c in obj])


def fq_poly_from_json(field: Fq, arr) -> Poly:
    if not isinstance(arr, list):
        raise ParseError("residual polynomial must be a JSON array")
    _check_size(len(arr) - 1, 0)
    return Poly(field, [fq_elt_from_json(field, c) for c in arr])


def chain_from_json(doc) -> MacLaneChain:
    p = _need(doc, "p", int)
    levels = _need(doc, "levels", list)
    steps = []
    for entry in levels:
        phi = qpoly_from_json(_need(entry, "phi", list))
        nu = fraction_from_json(_need(entry, "nu", dict))
        steps.append((phi, nu))
    try:
        chain = build_chain(p, steps)
    except (PreconditionError, ConfigError) as exc:
        raise ParseError(f"serialized chain is not a valid chain: {exc}") from exc
    for i, entry in enumerate(levels, start=1):
        for key, want in _derived_fields(chain.level(i)).items():
            if _need(entry, key, int) != want:
                raise ParseError(
                    f"level {i} field {key!r} is {entry[key]}, recomputed {want}"
                )
    return chain


def type_from_json(doc) -> Type:
    chain = chain_from_json(doc)
    for i, entry in enumerate(_need(doc, "levels", list), start=1):
        if "psi" not in entry:
            raise ParseError(f"level {i} is missing its psi field")
        psi = fq_poly_from_json(chain.fields[i - 1], entry["psi"])
        if psi != chain.level(i).psi_prev:
            raise ParseError(f"level {i} psi does not match the chain")
    if "psi_top" not in doc:
        raise ParseError("type document is missing psi_top")
    psi_top = fq_poly_from_json(chain.fields[chain.r], doc["psi_top"])
    _check_representative_size(chain, psi_top)
    try:
        return Type(chain, psi_top)
    except PreconditionError as exc:
        raise ParseError(f"serialized type is not a valid type: {exc}") from exc


def _check_representative_size(chain: MacLaneChain, psi_top: Poly) -> None:
    """Refuse a type whose representative would exceed the parser's limits.
    The representative has degree D = e_r m_r f and at most D + 1 terms, each
    an integer below p times p^k times keys of total degree at most D, with
    k at most its value f e_r (e_r V_r + h_r) / e(mu_r), 0 at r = 0; the l1
    norm bounds the bits, as the parser bounds a power."""
    f = psi_top.degree
    degree = chain.next_key_degree(f)
    k = chain.next_key_value(f) // chain.e_cum[chain.r]
    keys = max((_size_bits(lev.phi.coeffs) for lev in chain.levels), default=0)
    bits = (k + 1) * chain.p.bit_length() + degree * keys + (degree + 1).bit_length()
    try:
        _check_size(degree, bits)
    except ParseError as exc:
        raise ParseError(f"type representative: {exc}") from None


def residual_from_json(field: Fq, doc) -> ResidualResult:
    s = _need(doc, "s", int)
    u = _need(doc, "u", int)
    poly = fq_poly_from_json(field, _need(doc, "poly", list))
    return ResidualResult(s, u, poly)


def cert_from_json(doc) -> FactorCertificate:
    final_type = type_from_json(_need(doc, "type", dict))
    try:
        cert = FactorCertificate(qpoly_from_json(_need(doc, "approximation", list)), final_type)
    except PreconditionError as exc:
        raise ParseError(f"serialized certificate is not valid: {exc}") from exc
    for key, want in _cert_fields(cert).items():
        if _need(doc, key, int) != want:
            raise ParseError(f"certificate field {key!r} is {doc[key]}, derived {want}")
    if tuple(map(fraction_from_json, _need(doc, "slopes", list))) != cert.slopes:
        raise ParseError("certificate slopes differ from its type's slopes")
    if tuple(map(qpoly_from_json, _need(doc, "okutsu_frame", list))) != cert.okutsu_frame:
        raise ParseError("certificate okutsu_frame differs from its type's Okutsu frame")
    return cert


# ---------------------------------------------------------------------------
# Text rendering


def format_fraction(q: Fraction) -> str:
    return str(q)


def format_fq_elt(a: FqElt) -> str:
    return _format_vector(a.field, a.rep)


def _format_vector(field: Fq, rep) -> str:
    """The element of field with coordinate vector rep: a balanced integer
    over the prime field, else a polynomial in the field's generator whose
    coefficients are its chunks over the base (Fq._chunks), rendered alike."""
    base = field.base
    if base is None:
        return str(balanced_int(rep, field.p))
    return format_terms(field._chunks(rep), lambda c: _format_vector(base, c),
                        f"z{field.level - 1}", base.zero.rep.__eq__)


def format_fq_poly(g: Poly, var: str = "y") -> str:
    """Residue polynomial as text, highest power first, balanced coordinates."""
    return format_terms(g.coeffs, format_fq_elt, var, not_)


def format_chain(chain: MacLaneChain) -> str:
    steps = ", ".join(
        f"({format_poly(lev.phi)}, {lev.nu})" for lev in chain.levels
    )
    return f"p = {chain.p}: [{steps}]"


def format_type(t: Type) -> str:
    """Tuple rendering (psi_0; (phi_1, nu_1, psi_1); ...; (phi_r, nu_r, psi_r))."""
    levels = t.chain.levels
    psis = [lev.psi_prev for lev in levels] + [t.psi_top]
    parts = [format_fq_poly(psis[0])]
    for lev, psi in zip(levels, psis[1:]):
        parts.append(f"({format_poly(lev.phi)}, {lev.nu}, {format_fq_poly(psi)})")
    return "(" + "; ".join(parts) + ")"


def format_residual(res: ResidualResult) -> str:
    return f"({res.s}, {res.u}, {format_fq_poly(res.poly)})"


def format_points(points) -> str:
    return ", ".join(f"({s}, {Fraction(u)})" for s, u in points)


def format_cert(cert: FactorCertificate, indent: str = "") -> str:
    frame = ", ".join(format_poly(g) for g in cert.okutsu_frame)
    slopes = ", ".join(str(s) for s in cert.slopes)
    lines = [
        f"{indent}degree {cert.degree}, e = {cert.e}, f = {cert.f}",
        f"{indent}okutsu depth {cert.okutsu_depth}, frame [{frame}]",
        f"{indent}slopes [{slopes}]",
        f"{indent}approximation {format_poly(cert.approximation)}",
        f"{indent}type {format_type(cert.final_type)}",
    ]
    return "\n".join(lines)


def format_trace_event(event: object) -> list[str]:
    if isinstance(event, RootResidual):
        return [f"R0(f) = {format_fq_poly(event.poly)}"]
    if isinstance(event, BranchStart):
        return [f"branch psi = {format_fq_poly(event.psi)}, omega = {event.omega}"]
    if isinstance(event, NodePolygon):
        lines = [
            f"N{event.level}({format_poly(event.phi)}): "
            f"points {format_points(event.points)}"
        ]
        lines.append(
            f"  vertices {format_points(event.vertices)}; "
            f"principal length {event.principal_length}"
        )
        return lines
    if isinstance(event, NodeResidual):
        return [
            f"side slope {-event.lam}: R{event.level}(f) = "
            f"{format_fq_poly(event.poly)} (s = {event.s}, u = {event.u})"
        ]
    if isinstance(event, ExactDivisor):
        return [f"exact divisor {format_poly(event.phi)}"]
    if isinstance(event, NodeClose):
        cert = event.certificate
        return ["close:"] + format_cert(cert, "  ").split("\n")
    raise InternalError(f"unknown trace event {event!r}")


def format_trace(events: list) -> str:
    lines: list[str] = []
    for event in events:
        lines.extend(format_trace_event(event))
    return "\n".join(lines)
