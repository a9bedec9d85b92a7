"""Metamorphic oracles, driven by hypothesis: the (e, f) multiset of the
p-adic factors of f is kept by a Z_p-automorphism of Z_p[x], and the
multiset of a product f g is the union of those of f and g. The oracles
share no code with the engine. The seeded loops in test_montes run the same
oracles without hypothesis."""

from __future__ import annotations

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st

from omfactor import Poly, factorize, qpoly
from omfactor.arith import format_poly
from omfactor.montes import _is_squarefree
from reference import compose


@st.composite
def _monic(draw, p: int) -> Poly:
    """A monic f of degree 2..8 with coefficients in -3..3 times p^0..p^6,
    as in the seeded sweep."""
    d = draw(st.integers(2, 8))
    return qpoly([draw(st.integers(-3, 3)) * p ** draw(st.integers(0, 6)) for _ in range(d)] + [1])


@st.composite
def _cases(draw) -> tuple[int, list[Poly], Poly]:
    """(p, parts, image): the image's (e, f) multiset is the union of the
    parts'. The image is f(x + c), p^(nk) f(x / p^k), u^(-n) f(u x) for a
    p-adic unit u, or f g."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    f = draw(_monic(p))
    n, coeffs = f.degree, f.coeffs
    kind = draw(st.sampled_from(["shift", "p-scaling", "unit scaling", "product"]))
    if kind == "shift":
        return p, [f], compose(f, qpoly([draw(st.integers(-50, 50)), 1]))
    if kind == "p-scaling":
        k = draw(st.sampled_from([1, 2]))
        return p, [f], qpoly([a * p ** (k * (n - i)) for i, a in enumerate(coeffs)])
    if kind == "unit scaling":
        u = Fraction(draw(st.sampled_from([v for v in range(2, 30) if v % p])))
        return p, [f], qpoly([a * u ** (i - n) for i, a in enumerate(coeffs)])
    g = draw(_monic(p))
    return p, [f, g], f * g


def _ef(f: Poly, p: int) -> list[tuple[int, int]]:
    return sorted((c.e, c.f) for c in factorize(f, p))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(_cases())
def test_ef_multiset_is_kept_by_automorphisms_and_united_by_products(case) -> None:
    p, parts, image = case
    # A squarefree image has squarefree parts: the automorphisms keep
    # squarefreeness, and a factor of a squarefree product is squarefree.
    assume(_is_squarefree(image))
    want = sorted(ef for part in parts for ef in _ef(part, p))
    assert _ef(image, p) == want, ([format_poly(g) for g in parts], p, format_poly(image))
