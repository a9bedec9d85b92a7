"""JSON round trips, canonical bytes, tamper rejection, text renderers."""

from __future__ import annotations

import json
import random

import pytest

from genchains import fixture_poly, fixture_t4, random_qpoly, random_type
from omfactor import InternalError, ParseError, PreconditionError, factorize, qpoly, ri
from omfactor.serialize import (
    canonical_json,
    cert_from_json,
    cert_to_json,
    chain_from_json,
    chain_to_json,
    format_cert,
    format_chain,
    format_fraction,
    format_points,
    format_residual,
    format_trace,
    format_type,
    fraction_from_json,
    fraction_to_json,
    qpoly_from_json,
    qpoly_to_json,
    residual_from_json,
    residual_to_json,
    type_from_json,
    type_to_json,
)
from fractions import Fraction


def test_fraction_round_trip() -> None:
    for q in [Fraction(1, 2), Fraction(-7, 3), Fraction(5)]:
        assert fraction_from_json(fraction_to_json(q)) == q
    assert fraction_to_json(Fraction(1, 2)) == {"num": 1, "den": 2}


def test_qpoly_round_trip() -> None:
    rng = random.Random(199)
    for _ in range(30):
        g = random_qpoly(rng, 8, bound=10**12)
        doc = qpoly_to_json(g)
        assert all(isinstance(c, str) for c in doc)
        assert qpoly_from_json(doc) == g


def test_qpoly_rejects_rationals() -> None:
    """Writing a non-integer polynomial is the caller's error, not a parse
    error. Decimal strings are an optional - and ASCII digits, as in the
    text format; bare JSON ints stay accepted."""
    with pytest.raises(PreconditionError):
        qpoly_to_json(qpoly([Fraction(1, 2), 1]))
    for bad in ["1.5", True, "\u0663", " 1_0 ", "+1", "-", "", "--1", "\u00b2"]:
        with pytest.raises(ParseError):
            qpoly_from_json([bad, "1"])
    assert qpoly_from_json(["-12", 0, 7, "1"]) == qpoly([-12, 0, 7, 1])


def test_unknown_trace_event_is_an_internal_error() -> None:
    """Events come from the driver, so one the writer does not know is a bug."""
    with pytest.raises(InternalError):
        format_trace([object()])


def test_qpoly_json_under_the_parser_limits() -> None:
    """The degree counts after trailing zeros are dropped."""
    with pytest.raises(ParseError, match="polynomial degree 1001 exceeds the limit 1000"):
        qpoly_from_json(["1"] * 1002)
    assert qpoly_from_json(["1"] * 1001 + ["0"] * 2000).degree == 1000


def test_chain_round_trip() -> None:
    rng = random.Random(211)
    chains = [fixture_t4().chain] + [random_type(rng).chain for _ in range(8)]
    for chain in chains:
        doc = chain_to_json(chain)
        back = chain_from_json(doc)
        assert back.steps() == chain.steps()
        assert back.e_cum == chain.e_cum
        for i in range(1, chain.r + 1):
            assert back.level(i) == chain.level(i)


def test_type_round_trip() -> None:
    rng = random.Random(223)
    types = [fixture_t4()] + [random_type(rng) for _ in range(8)]
    for t in types:
        doc = type_to_json(t)
        back = type_from_json(doc)
        assert back.chain.steps() == t.chain.steps()
        assert back.psi_top == t.psi_top


def test_cert_round_trip() -> None:
    for p in [3, 5]:
        f = fixture_poly(p)
        for cert in factorize(f, p):
            doc = cert_to_json(cert)
            back = cert_from_json(doc)
            assert back.approximation == cert.approximation
            assert back.slopes == cert.slopes
            assert back.okutsu_frame == cert.okutsu_frame
            assert (back.degree, back.e, back.f, back.okutsu_depth) == (
                cert.degree, cert.e, cert.f, cert.okutsu_depth)
            assert back.final_type.psi_top == cert.final_type.psi_top


def test_residual_round_trip() -> None:
    t4 = fixture_t4()
    res = ri(t4.chain, 4, fixture_poly(3))
    doc = residual_to_json(res)
    field = res.poly.ring
    back = residual_from_json(field, doc)
    assert (back.s, back.u, back.poly) == (res.s, res.u, res.poly)


def test_canonical_json_is_deterministic() -> None:
    t4 = fixture_t4()
    a = canonical_json(type_to_json(t4))
    b = canonical_json(type_to_json(fixture_t4()))
    assert a == b
    assert a.encode("ascii")
    parsed = json.loads(a)
    assert parsed["p"] == 3


def test_chain_tamper_rejected() -> None:
    doc = chain_to_json(fixture_t4().chain)
    bad = json.loads(canonical_json(doc))
    bad["levels"][0]["e"] = 3
    with pytest.raises(ParseError):
        chain_from_json(bad)
    bad = json.loads(canonical_json(doc))
    bad["levels"][1]["V"] = 7
    with pytest.raises(ParseError):
        chain_from_json(bad)
    bad = json.loads(canonical_json(doc))
    bad["levels"][0]["nu"]["num"] = -1
    with pytest.raises(ParseError):
        chain_from_json(bad)
    bad = json.loads(canonical_json(doc))
    del bad["p"]
    with pytest.raises(ParseError):
        chain_from_json(bad)
    bad = json.loads(canonical_json(doc))
    bad["p"] = "5"
    with pytest.raises(ParseError, match="field 'p' has the wrong JSON type"):
        chain_from_json(bad)
    bad = json.loads(canonical_json(doc))
    bad["levels"][0]["nu"]["den"] = 0
    with pytest.raises(ParseError, match="denominator must be positive"):
        chain_from_json(bad)


def test_type_tamper_rejected() -> None:
    doc = type_to_json(fixture_t4())
    bad = json.loads(canonical_json(doc))
    bad["levels"][1]["psi"] = [["1"], ["1"]]
    with pytest.raises(ParseError):
        type_from_json(bad)
    bad = json.loads(canonical_json(doc))
    bad["psi_top"] = [["0"], ["1"]]
    with pytest.raises(ParseError):
        type_from_json(bad)
    bad = json.loads(canonical_json(doc))
    del bad["levels"][2]["psi"]
    with pytest.raises(ParseError, match="level 3 is missing its psi field"):
        type_from_json(bad)
    bad = json.loads(canonical_json(doc))
    del bad["psi_top"]
    with pytest.raises(ParseError, match="missing psi_top"):
        type_from_json(bad)
    bad = json.loads(canonical_json(doc))
    bad["psi_top"] = "y^2 + 1"
    with pytest.raises(ParseError, match="must be a JSON array"):
        type_from_json(bad)
    bad = json.loads(canonical_json(doc))
    bad["psi_top"][0] = [[[["1"]]], [[["0"]]]]
    with pytest.raises(ParseError, match="coordinate array has the wrong length"):
        type_from_json(bad)
    # psi_top over F_5: y^2 + 1 = (y - 2)(y + 2) is reducible, 2*y + 1 is not monic.
    for psi_top in (["1", "0", "1"], ["1", "2"]):
        bad = {"p": 5, "levels": [], "psi_top": psi_top}
        with pytest.raises(ParseError, match="serialized type is not a valid type: modulus"):
            type_from_json(bad)


def test_cert_tamper_rejected() -> None:
    """The fields the type determines, slopes included, are compared with it
    on load, and the approximation must be a representative of the type. A
    document whose slopes record the walk's path, as [1/2, 1, 1, 1] did for
    this quartic, is rejected."""
    cert = factorize(fixture_poly(3), 3)[0]
    text = canonical_json(cert_to_json(cert))
    assert cert_from_json(json.loads(text)) == cert
    half, one, zero = ({"num": n, "den": d} for n, d in ((1, 2), (1, 1), (0, 1)))
    tampers = [
        {"degree": 5}, {"e": 4}, {"f": 1}, {"e": 4, "f": 1}, {"okutsu_depth": 1},
        {"okutsu_frame": [["0", "1"]]},
        {"okutsu_frame": [["0", "1"], ["12", "0", "1"]]},
        {"slopes": [half, one, one]},
        {"slopes": [one, one, one, half]},
        {"slopes": [half, one, one, one, one]},
        {"slopes": [half, one, one, one, zero]},
        {"slopes": [half, one, one, one]},
        {"approximation": ["6786", "0", "30", "0", "2"]},
        {"approximation": ["1", "0", "0", "0", "1"]},
        {"approximation": ["6786", "0", "30", "0", "1", "1"]},
    ]
    docs = [{**json.loads(text), **tamper} for tamper in tampers]
    # At order 0 the approximation must still reduce to psi_top mod p.
    (cert0,) = factorize(qpoly([1, 1, 0, 1]), 5)
    assert cert0.final_type.order == 0
    docs.append({**cert_to_json(cert0), "approximation": ["0", "0", "0", "1"]})
    for doc in docs:
        with pytest.raises(ParseError):
            cert_from_json(doc)


def test_text_renderers_pinned() -> None:
    t4 = fixture_t4()
    assert format_type(t4) == (
        "(y; (x, 1/2, y - 1); (x^2 - 3, 1, y - 1); "
        "(x^2 - 12, 1, y + 1); (x^2 + 15, 1, y^2 + 1))")
    assert format_chain(t4.chain) == (
        "p = 3: [(x, 1/2), (x^2 - 3, 1), (x^2 - 12, 1), (x^2 + 15, 1)]")
    res = ri(t4.chain, 4, fixture_poly(3))
    assert format_residual(res) == "(0, 16, y^2 + 1)"
    assert format_fraction(Fraction(1, 2)) == "1/2"
    assert format_fraction(Fraction(3)) == "3"
    assert format_points([(0, Fraction(2)), (2, Fraction(1)), (4, Fraction(0))]) == (
        "(0, 2), (2, 1), (4, 0)")
    cert = factorize(fixture_poly(3), 3)[0]
    lines = format_cert(cert).splitlines()
    assert lines[0] == "degree 4, e = 2, f = 2"
    assert lines[1] == "okutsu depth 2, frame [x, x^2 + 15]"
    assert lines[2] == "slopes [1/2, 3]"
    assert lines[3] == "approximation x^4 + 30*x^2 + 6786"
    assert lines[4] == "type (y; (x, 1/2, y - 1); (x^2 + 15, 3, y^2 + 1))"
