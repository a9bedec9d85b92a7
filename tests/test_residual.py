"""Residual polynomial operators and the graded normalizer."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from genchains import (
    fixture_chain3,
    fixture_chain5,
    fixture_poly,
    random_fq_elt,
    random_qpoly,
    random_type,
    shift_pair,
    stationary_pair,
)
from reference import component_of, flatten_field, map_poly, ri_eager, transport_residual
from omfactor import (
    Poly,
    PreconditionError,
    ResidualResult,
    build_chain,
    collapse_step,
    factorize,
    graded_lift,
    lower_hull,
    parse_poly,
    qpoly,
    r0,
    ri,
    v_norm,
)
from omfactor import residual
from omfactor.finitefield import Fq, FqElt
from omfactor.valuation import expansion_points


def test_r0_pins() -> None:
    f = fixture_poly(3)
    res = r0(3, f.coeffs)
    assert (res.s, res.u) == (0, 0)
    assert [c.lift_int() for c in res.poly.coeffs] == [0, 0, 0, 0, 1]
    res = r0(3, (18,))
    assert (res.s, res.u) == (0, 2)
    assert [c.lift_int() for c in res.poly.coeffs] == [-1]
    # Rational coefficients, with u of either sign: g / 3^u is exact.
    for g, u, lifts in [
        (qpoly([Fraction(9, 2), 3]), 1, [0, 1]),
        (qpoly([Fraction(1, 18), Fraction(1, 3)]), -2, [-1]),
        (qpoly([Fraction(2, 3), Fraction(1, 9)]), -2, [0, 1]),
    ]:
        res = r0(3, g.coeffs)
        assert (res.u, [c.lift_int() for c in res.poly.coeffs]) == (u, lifts)


def test_r0_rejects_zero() -> None:
    with pytest.raises(PreconditionError):
        r0(3, ())


def test_ri_level_pins_on_fixture() -> None:
    chain = fixture_chain3()
    f = fixture_poly(3)
    expected = [
        (1, 0, 2, [(1,), (1,), (1,)]),
        (2, 0, 8, [(1,), (1,), (1,)]),
        (3, 0, 12, [(1,), (-1,), (1,)]),
        (4, 0, 16, [(1,), (0,), (1,)]),
    ]
    for i, s, u, coeffs in expected:
        trunc = build_chain(3, chain.steps()[:i])
        res = ri(trunc, i, f)
        assert (res.s, res.u) == (s, u)
        assert [c.flat_key() for c in res.poly.coeffs] == coeffs


def test_ri_at_level_zero_is_r0() -> None:
    rng = random.Random(109)
    chain = fixture_chain3()
    for _ in range(10):
        g = random_qpoly(rng, 6)
        a = ri(chain, 0, g)
        b = r0(3, g.coeffs)
        assert (a.s, a.u, a.poly) == (b.s, b.u, b.poly)


def test_ri_matches_the_eager_walk() -> None:
    """Residual polynomials built on the first read of .poly, from the
    on-line entries only, equal those of a walk that builds every one."""
    rng = random.Random(163)
    chains = [fixture_chain3(), fixture_chain5()]
    chains += [random_type(rng).chain for _ in range(10)]
    chains += [c for _ in range(3) for c in stationary_pair(rng)]
    for chain in chains:
        for i in range(chain.r + 1):
            gs = [random_qpoly(rng, 10) for _ in range(3)]
            gs += [lev.phi for lev in chain.levels[i:]]
            gs += [gs[0] * chain.levels[-1].phi + qpoly([chain.p])]
            for g in gs:
                res = ri(chain, i, g)
                assert (res.s, res.u, res.poly) == ri_eager(chain, i, g)


def test_ri_matches_the_eager_walk_below_the_key_degree() -> None:
    """At every level i, constants and polynomials of degree m_i - 1 expand
    to one coefficient, which the walk passes down as it is."""
    rng = random.Random(167)
    chains = [fixture_chain3(), fixture_chain5()]
    chains += [random_type(rng).chain for _ in range(10)]
    for chain in chains:
        p = chain.p
        for i in range(chain.r + 1):
            m = chain.at(i).m
            gs = [qpoly([c]) for c in (1, -p, p ** 3, Fraction(p ** 2, 7))]
            for _ in range(3):
                top = rng.choice([1, p, rng.randrange(1, 40)])
                gs.append(qpoly([rng.randrange(-40, 41) for _ in range(m - 1)] + [top]))
            for g in gs:
                assert g.degree < m
                res = ri(chain, i, g)
                assert (res.s, res.u, res.poly) == ri_eager(chain, i, g)


def test_ri_matches_the_eager_walk_on_p_unit_rationals() -> None:
    """Rational coefficients take r0's valuation path for Fractions: p-unit
    denominators, as in P_UNIT_QUARTIC of test_montes, and denominators
    divisible by p."""
    rng = random.Random(173)
    chains = [fixture_chain3(), fixture_chain5()]
    chains += [random_type(rng).chain for _ in range(10)]
    for chain in chains:
        p = chain.p
        units = [d for d in range(2, 12) if d % p]
        for i in range(chain.r + 1):
            gs = [qpoly([Fraction(3393, 8), 0, Fraction(15, 2), 0, 1])]
            for _ in range(4):
                g = random_qpoly(rng, 10)
                dens = units + [p, p ** 2] * (rng.random() < 0.5)
                gs.append(qpoly([Fraction(c, rng.choice(dens)) for c in g.coeffs]))
            for g in gs:
                res = ri(chain, i, g)
                assert (res.s, res.u, res.poly) == ri_eager(chain, i, g)


def test_residual_result_is_a_value() -> None:
    """A walk result and one built from its Poly are equal, and poly_equals
    gives R == g on either: False for another polynomial, and for the same
    vectors over a field of its own."""
    chain = fixture_chain3()
    res = ri(chain, 4, fixture_poly(3))
    want = ri_eager(chain, 4, fixture_poly(3))[2]
    field = want.ring
    twin = Fq(field.p, field.base, field.modulus)
    for r in (res, ResidualResult(res.s, res.u, want)):
        assert r.poly_equals(want)
        assert not r.poly_equals(want + Poly(field, [field.one]))
        assert not r.poly_equals(Poly(twin, [FqElt(twin, c.rep) for c in want.coeffs]))
    same = ResidualResult(res.s, res.u, res.poly)
    assert same == res and hash(same) == hash(res)
    assert ri(chain, 4, fixture_poly(3)) == res
    assert ResidualResult(res.s + 1, res.u, res.poly) != res
    with pytest.raises(AttributeError):
        res.s = 1


def _deep_chain_and_input():
    """The degree-16 p = 2 input and the chain of its one certificate."""
    f = parse_poly("(((x^2+2)^2 + 2^3*x)^2 + 2^13)^2 + 2^40*x + 2^41")
    [cert] = factorize(f, 2)
    return cert.final_type.chain, f


def test_values_build_no_residual_polynomial(monkeypatch) -> None:
    """v_norm reads (s, u) only: over the chain of the degree-16 p = 2
    input's certificate the walk builds no residual's coordinate vectors,
    while a .poly read builds them."""
    chain, f = _deep_chain_and_input()
    built = []
    from_vectors = residual._from_vectors

    def counting(s, u, field, vectors):
        def build():
            built.append(field)
            return vectors()
        return from_vectors(s, u, field, build)

    monkeypatch.setattr(residual, "_from_vectors", counting)
    values = [v_norm(chain, i, f) for i in range(chain.r + 1)]
    assert built == []
    eager = [ri_eager(chain, i, f) for i in range(chain.r + 1)]
    assert values == [chain.residual_value(i, ResidualResult(*e)) for i, e in enumerate(eager)]
    assert built == []
    assert ri(chain, chain.r, f).poly == eager[-1][2]
    assert built and built[0] is chain.fields[chain.r]


def test_poly_read_builds_no_poly_below_its_level(monkeypatch) -> None:
    """A .poly read of ri(chain, i, f) builds one Poly, over the level-i
    field: the lower levels' residuals stay coordinate vectors. Over the
    chain of the degree-16 p = 2 input's certificate, at every level."""
    chain, f = _deep_chain_and_input()
    rings = []
    init = Poly.__init__

    def counting(self, ring, coeffs):
        rings.append(ring)
        init(self, ring, coeffs)

    monkeypatch.setattr(Poly, "__init__", counting)
    for i in range(chain.r + 1):
        want = ri_eager(chain, i, f)[2]
        rings.clear()
        res = ri(chain, i, f)
        assert rings == []
        assert res.poly == want
        assert rings == [chain.fields[i]]
        assert res.poly is res.poly and rings == [chain.fields[i]]


def test_ri_rejects_zero() -> None:
    chain = fixture_chain3()
    with pytest.raises(PreconditionError):
        ri(chain, 2, qpoly([]))


def test_multiplicativity() -> None:
    rng = random.Random(113)
    checked = 0
    while checked < 200:
        t = random_type(rng)
        chain = t.chain
        r = chain.r
        phi = chain.level(r).phi
        for _ in range(5):
            g = random_qpoly(rng, 5) * phi ** rng.randrange(0, 2)
            h = random_qpoly(rng, 5) * phi ** rng.randrange(0, 2)
            a, b, c = ri(chain, r, g), ri(chain, r, h), ri(chain, r, g * h)
            assert c.s == a.s + b.s
            assert c.u == a.u + b.u
            assert c.poly == a.poly * b.poly
            checked += 1


def test_degree_law_and_left_end() -> None:
    rng = random.Random(127)
    checked = 0
    while checked < 200:
        t = random_type(rng)
        chain = t.chain
        for i in range(1, chain.r + 1):
            trunc = build_chain(chain.p, chain.steps()[: i - 1])
            lev = chain.level(i)
            for _ in range(2):
                g = random_qpoly(rng, 8) * lev.phi ** rng.randrange(0, 2)
                if g.is_zero():
                    continue
                res = ri(build_chain(chain.p, chain.steps()[:i]), i, g)
                pts = expansion_points(trunc, lev.phi, v_norm(trunc, trunc.r, lev.phi), g)[1]
                comp = component_of(lower_hull(pts), Fraction(lev.h, lev.e * trunc.e_cum[trunc.r]))
                assert res.s == comp.left[0]
                assert res.u == trunc.e_cum[trunc.r] * comp.left[1]
                assert res.poly.degree == comp.length // lev.e
                checked += 1


def test_psi_recovery() -> None:
    rng = random.Random(131)
    chains = [fixture_chain3()] + [random_type(rng).chain for _ in range(10)]
    for chain in chains:
        for i in range(1, chain.r):
            trunc = build_chain(chain.p, chain.steps()[:i])
            res = ri(trunc, i, chain.level(i + 1).phi)
            assert res.s == 0
            assert res.poly == chain.level(i + 1).psi_prev


def test_graded_lift_normalizes_back() -> None:
    rng = random.Random(137)
    chains = [fixture_chain3()] + [random_type(rng).chain for _ in range(8)]
    for chain in chains:
        for i in range(1, chain.r + 1):
            trunc = build_chain(chain.p, chain.steps()[:i])
            field = trunc.fields[i]
            for _ in range(4):
                W = rng.randrange(trunc.at(i).V, trunc.at(i).V + 10)
                beta = random_fq_elt(rng, field, nonzero=True)
                lift = graded_lift(trunc, i, W, beta)
                assert lift.degree < trunc.level(i).m
                res = ri(trunc, i, lift)
                assert (res.s, res.u) == (0, W)
                assert res.poly.degree == 0
                assert res.poly.coeff(0) == beta


def test_collapse_invariance_fixture() -> None:
    chain = fixture_chain3()
    col = collapse_step(chain, {3})
    h = chain.level(3).h
    rng = random.Random(139)
    phi = chain.level(4).phi
    for _ in range(20):
        g = random_qpoly(rng, 7) * phi ** rng.randrange(0, 2)
        a = ri(chain, 4, g)
        b = ri(col, 3, g)
        assert a.s == b.s
        assert a.u == b.u + a.s * h
        fa, ia = flatten_field(a.poly.ring)
        fb, ib = flatten_field(b.poly.ring)
        assert fa == fb
        assert map_poly(a.poly, fa, ia) == map_poly(b.poly, fb, ib)


def test_collapse_invariance_random() -> None:
    rng = random.Random(149)
    for _ in range(10):
        raw, col = stationary_pair(rng)
        h = raw.level(raw.r - 1).h
        phi = raw.level(raw.r).phi
        for _ in range(5):
            g = random_qpoly(rng, 6) * phi ** rng.randrange(0, 2)
            a = ri(raw, raw.r, g)
            b = ri(col, col.r, g)
            assert a.s == b.s
            assert a.u == b.u + a.s * h
            fa, ia = flatten_field(a.poly.ring)
            fb, ib = flatten_field(b.poly.ring)
            assert fa == fb
            assert map_poly(a.poly, fa, ia) == map_poly(b.poly, fb, ib)


def test_last_key_shift_transport() -> None:
    rng = random.Random(151)
    for _ in range(8):
        chain, star, _, eta = shift_pair(rng)
        r = chain.r
        phi = chain.level(r).phi
        h = chain.level(r).h
        for _ in range(4):
            g = random_qpoly(rng, 6) * phi ** rng.randrange(0, 3)
            res = ri(chain, r, g)
            out = ri(star, r, g)
            s2, r2 = transport_residual(res.poly, res.s, eta)
            assert out.s == s2
            assert out.poly == r2
            assert out.u == res.u + h * (res.s - s2)


def test_shift_transport_degenerate_case() -> None:
    chain = build_chain(3, [
        (qpoly([0, 1]), Fraction(1, 2)), (qpoly([-3, 0, 1]), Fraction(1))])
    star = build_chain(3, [
        (qpoly([0, 1]), Fraction(1, 2)), (qpoly([-12, 0, 1]), Fraction(1))])
    res_a = ri(chain, 2, qpoly([-9]))
    assert (res_a.s, res_a.u) == (0, 4)
    eta = res_a.poly.coeff(0)
    assert eta.flat_key() == (-1,)
    f = fixture_poly(3)
    res = ri(chain, 2, f)
    out = ri(star, 2, f)
    assert (res.s, res.u) == (0, 8)
    assert [c.flat_key() for c in res.poly.coeffs] == [(1,), (1,), (1,)]
    s2, r2 = transport_residual(res.poly, res.s, eta)
    assert s2 == 2
    assert r2.degree == 0
    assert (out.s, out.u) == (2, 4)
    assert out.poly == r2


def test_transport_is_involutive() -> None:
    rng = random.Random(157)
    for _ in range(30):
        t = random_type(rng)
        chain = t.chain
        field = chain.fields[chain.r]
        g = random_qpoly(rng, 8)
        res = ri(chain, chain.r, g)
        eta = random_fq_elt(rng, field)
        s2, r2 = transport_residual(res.poly, res.s, eta)
        s3, r3 = transport_residual(r2, s2, -eta)
        assert (s3, r3) == (res.s, res.poly)


def test_transport_rejects_zero_or_foreign() -> None:
    chain = fixture_chain3()
    field = chain.fields[chain.r]
    with pytest.raises(PreconditionError):
        transport_residual(Poly(field, []), 0, field.one)
    other = chain.fields[1]
    with pytest.raises(PreconditionError):
        transport_residual(ri(chain, 4, qpoly([1, 1])).poly, 0, other.one)
