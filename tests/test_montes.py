"""Factorization driver: certificates, floors, certify, validation."""

from __future__ import annotations

import functools
import json
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
import sympy

import oracles
from genchains import constructed_products, fixture_poly, random_qpoly, sweep_inputs
from omfactor import (
    ConfigError,
    FactorCertificate,
    Poly,
    PreconditionError,
    certify,
    equivalent,
    factorize,
    optimize,
    ord_type,
    qpoly,
    run,
)
from omfactor import montes, valuation
from omfactor.arith import QQ, content_vp, format_poly, parse_poly, phi_expansion
from omfactor.finitefield import Fq, _pgcd
from omfactor.montes import (
    _EVAL_MAX_BITS, _SQUAREFREE_PRIMES, ExactDivisor, NodeClose, NodePolygon, _gcd_degree,
    _is_squarefree)
from omfactor.polygon import lower_hull
from omfactor.residual import r0, ri
from omfactor.serialize import canonical_json, cert_from_json, cert_to_json, format_trace
from omfactor.typecalc import is_stationary_level, okutsu_core
from reference import certify_per_certificate, compose, gcd_monic

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"


def test_quartic_fixture_p3() -> None:
    f = fixture_poly(3)
    result = run(f, 3)
    certs = result.certificates
    assert len(certs) == 1
    c = certs[0]
    assert (c.degree, c.e, c.f) == (4, 2, 2)
    assert c.okutsu_depth == 2
    assert [format_poly(g) for g in c.okutsu_frame] == ["x", "x^2 + 15"]
    assert list(c.slopes) == [Fraction(1, 2), Fraction(3)]
    assert c.approximation == f
    assert result.floor == 9
    assert certify(f, 3, certs, 9).ok
    # No closing node has a polygon: the floor is 1.
    assert run(qpoly([0, 1]), 2).floor == 1


def test_certificate_checks_itself() -> None:
    """Every certificate, rebuilt with other fields included, has an
    approximation that represents its type."""
    cert = factorize(fixture_poly(3), 3)[0]
    bad = [
        {"approximation": qpoly([6786, 0, 30, 0, 2])},
        {"approximation": qpoly([1, 0, 0, 0, 1])},
    ]

    def rebuilt(**fields) -> FactorCertificate:
        given = {"approximation": cert.approximation, "final_type": cert.final_type}
        return FactorCertificate(**{**given, **fields})

    for fields in bad:
        with pytest.raises(PreconditionError):
            rebuilt(**fields)
    assert rebuilt(approximation=fixture_poly(3)) == cert


def test_quartic_fixture_p5_split() -> None:
    f = fixture_poly(5)
    result = run(f, 5)
    certs = result.certificates
    assert [c.degree for c in certs] == [2, 2]
    assert all((c.e, c.f, c.okutsu_depth) == (2, 1, 1) for c in certs)
    assert all([format_poly(g) for g in c.okutsu_frame] == ["x"] for c in certs)
    terms = sorted(int(c.approximation.coeff(0)) for c in certs)
    assert terms == [-1155, 1345]
    prod = certs[0].approximation * certs[1].approximation
    assert content_vp(f - prod, 5) == 9
    assert result.floor == 9
    assert certify(f, 5, certs, 9).ok


def test_quartic_fixture_larger_primes() -> None:
    for p, split in [(7, False), (11, False), (13, True), (17, True)]:
        f = fixture_poly(p)
        result = run(f, p)
        certs = result.certificates
        if split:
            assert [c.degree for c in certs] == [2, 2]
            prod = certs[0].approximation * certs[1].approximation
            assert content_vp(f - prod, p) >= 9
        else:
            assert len(certs) == 1
            assert certs[0].degree == 4
            assert (certs[0].e, certs[0].f) == (2, 2)
        assert certify(f, p, certs, result.floor).ok


def test_certificate_types_have_ord_one() -> None:
    rng = random.Random(191)
    for p in [3, 5, 7]:
        f = fixture_poly(p)
        for c in factorize(f, p):
            assert ord_type(c.final_type, f) == 1
    for _ in range(5):
        p = rng.choice([3, 5, 7])
        f = _random_squarefree(rng, p)
        for c in factorize(f, p):
            assert ord_type(c.final_type, f) == 1
    # The seeded baseline sweep: each type has order 1 at its approximation
    # and at f, fixes the approximation's degree e * f, and survives a
    # round trip through its JSON document.
    inputs = certs = 0
    for f, p in sweep_inputs(random.Random(1), 300):
        try:
            found = factorize(f, p)
        except PreconditionError:
            continue
        inputs += 1
        for c in found:
            t = c.final_type
            assert ord_type(t, c.approximation) == 1 and ord_type(t, f) == 1
            assert c.approximation.degree == t.degree() == c.e * c.f
            assert cert_from_json(json.loads(canonical_json(cert_to_json(c)))) == c
            certs += 1
    assert (inputs, certs) == (293, 721)


def _nested_towers(rng: random.Random, count: int, max_degree: int = 48) -> list[tuple[Poly, int]]:
    """Seeded nested towers: from x + c, 2-5 times g <- g^a + p^k or
    g^a + p^k * x, with a in {2, 3}, k growing and degree <= max_degree;
    squarefree ones only."""
    found: list[tuple[Poly, int]] = []
    while len(found) < count:
        p = rng.choice([2, 3, 5])
        g, k = qpoly([rng.randint(-2, 2), 1]), 0
        for _ in range(rng.randint(2, 5)):
            a = rng.choice([2, 3])
            if a * g.degree > max_degree:
                break
            k = a * k + rng.randint(1, a)
            g = g ** a + qpoly([0, p ** k] if rng.random() < 0.5 else [p ** k])
        if _is_squarefree(g):
            found.append((g, p))
    return found


def test_nested_towers_close_on_optimal_types() -> None:
    """A seeded slice of nested towers: certificate degrees sum to deg f,
    no closing type has a stationary level below its top, each type has
    order 1 at f, and each certificate survives a round trip through its
    JSON document. Certification itself still fails on most of them (the
    approximations are not lifted), so report.ok is not asserted."""
    degrees, orders, certs = set(), set(), 0
    for f, p in _nested_towers(random.Random(1), 20):
        found = factorize(f, p)
        assert sum(c.degree for c in found) == f.degree
        for c in found:
            t = c.final_type
            assert not any(is_stationary_level(t, i) for i in range(1, t.order))
            assert ord_type(t, f) == 1
            assert cert_from_json(json.loads(canonical_json(cert_to_json(c)))) == c
            orders.add(t.order)
        degrees.add(f.degree)
        certs += len(found)
    assert (min(degrees), max(degrees), max(orders), certs) == (4, 36, 5, 39)


def test_each_approximation_walks_again_to_an_equivalent_core_type() -> None:
    """The paper's equivalence as an oracle. A factor fixes its strongly
    optimal core type up to equivalence, so a second walk on a
    certificate's approximation alone gives one certificate whose core is
    equivalent to the first one's. The full types may differ by a
    stationary top, and do on 211 of the 840 certificates."""
    inputs = (sweep_inputs(random.Random(1), 300)
              + [(f, p) for f, p, _ in constructed_products(random.Random(1), 40)]
              + _nested_towers(random.Random(1), 20))
    certs = full = 0
    for f, p in inputs:
        try:
            found = factorize(f, p)
        except PreconditionError:
            continue
        for c in found:
            [again] = factorize(c.approximation, p)
            first, second = c.final_type, again.final_type
            assert equivalent(okutsu_core(first), okutsu_core(second)), (format_poly(f), p)
            full += bool(equivalent(first, second))
            certs += 1
    assert (certs, full) == (840, 629)


def _polygon_index(E: int, vertices, omega: int) -> int:
    """ind(N) for the principal polygon N, ordinates scaled by E: over the
    abscissae x0 < x < x0 + omega, the lattice points above N's last point
    and on or under N."""
    end = vertices[0][0] + omega
    N = [(x, E * y) for x, y in vertices if x <= end]
    last, total = N[-1][1], 0
    for (xa, ya), (xb, yb) in zip(N, N[1:]):
        for x in range(xa + 1, min(xb, end - 1) + 1):
            total += math.floor(ya + (yb - ya) * (x - xa) / (xb - xa)) - last
    return total


def test_index_theorem_matches_the_discriminant(monkeypatch) -> None:
    """The Theorem of the index (Guardia, Montes and Nart, Newton polygons of
    higher order in algebraic number theory, Trans. AMS 364, 2012) as an
    oracle that shares no code with the walk: ind(f) is the sum over the
    walk's nodes of f_0...f_r ind(N). For tame factors (p not dividing any
    e), v_p(disc f) = 2 ind(f) + sum f (e - 1), sympy computing disc f;
    a wild factor adds at least its f to the different."""
    calls = []
    branch = montes._branch

    def recorded(t, f, omega, run_):
        calls.append(t)
        return branch(t, f, omega, run_)

    monkeypatch.setattr(montes, "_branch", recorded)
    inputs = (sweep_inputs(random.Random(1), 300)
              + [(f, p) for f, p, _ in constructed_products(random.Random(1), 40)]
              + _nested_towers(random.Random(1), 20))
    kinds = Counter()
    for f, p in inputs:
        calls.clear()
        try:
            result = run(f, p)
        except PreconditionError:
            continue
        polygons = [e for e in result.events if isinstance(e, NodePolygon)]
        assert len(polygons) == len(calls)
        index = 0
        for t, node in zip(calls, polygons):
            chain, r = t.chain, t.chain.r
            weight = chain.fields[r].deg_abs * t.psi_top.degree
            index += weight * _polygon_index(chain.e_cum[r], node.vertices, node.principal_length)
        disc = sympy.Poly(list(reversed(list(f))), oracles.X, domain="QQ").discriminant()
        gap = oracles.vp_fraction(Fraction(int(disc.p), int(disc.q)), p) - 2 * index
        certs = result.certificates
        tame, different = all(c.e % p for c in certs), sum(c.f * (c.e - 1) for c in certs)
        if tame:
            assert gap == different, (format_poly(f), p)
        else:
            assert gap >= different + sum(c.f for c in certs if c.e % p == 0), (format_poly(f), p)
        kinds[tame] += 1
    assert (kinds[True], kinds[False]) == (250, 103)


def _random_squarefree(rng: random.Random, p: int, max_deg: int = 8):
    while True:
        g = random_qpoly(rng, max_deg, bound=60, monic=True)
        if g.degree < 2:
            continue
        if gcd_monic(g, g.derivative()).degree == 0:
            return g


def test_degree_conservation() -> None:
    rng = random.Random(193)
    for _ in range(100):
        p = rng.choice([3, 5, 7, 11, 13])
        f = _random_squarefree(rng, p)
        certs = factorize(f, p)
        assert sum(c.degree for c in certs) == f.degree
        for c in certs:
            assert c.approximation.degree == c.degree
            assert c.approximation.is_monic()
            assert c.degree % (c.e * c.f) == 0


def test_unramified_inputs_mirror_residual_factors() -> None:
    rng = random.Random(197)
    done = 0
    while done < 20:
        p = rng.choice([3, 5, 7])
        f = random_qpoly(rng, 6, bound=50, monic=True)
        if f.degree < 1:
            continue
        coeffs = [int(c) for c in f]
        if not oracles.modp_is_squarefree(coeffs, p):
            continue
        certs = factorize(f, p)
        want = oracles.modp_factors(coeffs, p)
        assert sorted(c.degree for c in certs) == [d for d, _ in want]
        assert all(c.e == 1 for c in certs)
        assert all(c.f == c.degree for c in certs)
        done += 1


def test_exact_divisor_shallow() -> None:
    g = qpoly([0, -9, 0, 1])
    result = run(g, 3)
    certs = result.certificates
    assert sorted(format_poly(c.approximation) for c in certs) == ["x", "x + 12", "x + 6"]
    assert result.floor == 5
    report = certify(g, 3, certs, 5)
    assert not report.ok
    failing = [c for c in report.checks if not c.ok]
    assert [c.name for c in failing] == ["approximation-product"]
    assert certify(g, 3, certs, 2).ok


def test_exact_divisor_deep() -> None:
    h = qpoly([-9, 0, 0, 0, 1])
    result = run(h, 3)
    certs = result.certificates
    assert {format_poly(c.approximation) for c in certs} == {"x^2 - 3", "x^2 + 3"}
    prod = certs[0].approximation * certs[1].approximation
    assert prod == h
    assert certify(h, 3, certs, result.floor).ok


EXACT_INPUTS = [(qpoly([0, -9, 0, 1]), 3), (parse_poly("x^3 - 6*x^2 - 32*x + 32"), 2)]


def _exact_closes(events: list) -> list[tuple[Poly, Poly]]:
    """For each exact-divisor node of a run: the divisor, and the
    approximation of the branch that closes on the node's steepest side
    (the side reserved for the divisor). The node's closes are those whose
    type tops out at the node's level with the node's key."""
    out = []
    for i, event in enumerate(events):
        if isinstance(event, ExactDivisor):
            node = next(e for e in events[i:] if isinstance(e, NodePolygon))
            here = [e.certificate for e in events[i:] if isinstance(e, NodeClose)
                    and e.certificate.final_type.chain.r == node.level
                    and e.certificate.final_type.chain.level(node.level).phi == node.phi]
            out.append((event.phi, max(here, key=lambda c: c.slopes[-1]).approximation))
    return out


def test_close_events_are_the_returned_certificates() -> None:
    """The trace and the result are one account of the walk: every NodeClose
    event carries the certificate at the same index of the run's
    certificates, and an exact-divisor branch closes with the divisor as its
    approximation. Over every golden factor case, the two exact-divisor
    inputs and the seed-1 sweep. This pins the walk's own record; a lift
    after the walk (ROADMAP item 1) may rewrite approximations."""
    from test_golden_output import CASES

    inputs = [(parse_poly(argv[4]), int(argv[2])) for argv in CASES.values() if argv[0] == "factor"]
    inputs += EXACT_INPUTS + sweep_inputs(random.Random(1), 300)
    closes = exact = 0
    for f, p in inputs:
        try:
            result = run(f, p)
        except PreconditionError:
            continue
        closed = [e.certificate for e in result.events if isinstance(e, NodeClose)]
        assert closed == result.certificates
        assert all(a is b for a, b in zip(closed, result.certificates))
        for divisor, approximation in _exact_closes(result.events):
            assert approximation == divisor
            exact += 1
        closes += len(closed)
    assert (exact, closes) == (49, 772)  # 45 exact-divisor nodes and 721 closes in the sweep


def test_one_certificate_built_per_factor(monkeypatch) -> None:
    """On the exact-divisor inputs, a run constructs exactly one
    FactorCertificate for each certificate it returns."""
    built: list = []
    init = FactorCertificate.__init__

    def counting(self, *args) -> None:
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(FactorCertificate, "__init__", counting)
    for f, p in EXACT_INPUTS:
        built.clear()
        certs = run(f, p).certificates
        assert len(built) == len(certs) == 3


def _ef(f: Poly, p: int) -> list[tuple[int, int]]:
    return sorted((c.e, c.f) for c in factorize(f, p))


@functools.cache
def _valid_sweep() -> list[tuple[Poly, int, list[tuple[int, int]]]]:
    """The seed-1 sweep inputs that factorize accepts, with their (e, f)
    multisets."""
    out = []
    for f, p in sweep_inputs(random.Random(1), 300):
        try:
            out.append((f, p, _ef(f, p)))
        except PreconditionError:
            continue
    return out


def test_ef_multiset_survives_p_adic_automorphisms() -> None:
    """Metamorphic oracle, as a plain seeded loop: a Z_p-automorphism of
    Z_p[x] keeps the (e, f) multiset of the p-adic factors. Over the valid
    seed-1 sweep inputs f of degree n, three transforms with a seeded c, k
    and u: the shift f(x + c), the p-scaling p^(nk) f(x / p^k) for k in
    {1, 2}, and the unit scaling u^(-n) f(u x) for a p-adic unit u."""
    rng = random.Random(28)
    checks = 0
    for f, p, want in _valid_sweep():
        n, coeffs = f.degree, f.coeffs
        c, k = rng.randint(-50, 50), rng.choice([1, 2])
        u = Fraction(rng.choice([v for v in range(2, 30) if v % p]))
        shifted = compose(f, qpoly([c, 1]))
        p_scaled = qpoly([a * p ** (k * (n - i)) for i, a in enumerate(coeffs)])
        u_scaled = qpoly([a * u ** (i - n) for i, a in enumerate(coeffs)])
        for g in (shifted, p_scaled, u_scaled):
            assert _ef(g, p) == want, (format_poly(f), p, format_poly(g))
            checks += 1
    assert checks == 3 * 293


def test_ef_multiset_of_a_product_is_the_union() -> None:
    """Metamorphic oracle, as a plain seeded loop: the p-adic factors of f g
    are those of f and of g. Each valid seed-1 sweep input is paired with
    the next one at the same p; products that are not squarefree are
    skipped."""
    inputs = _valid_sweep()
    checks = skipped = 0
    for i, (f, p, ef_f) in enumerate(inputs):
        g, ef_g = next(((g, ef) for g, q, ef in inputs[i + 1:] if q == p), (None, None))
        if g is None:
            continue
        try:
            got = _ef(f * g, p)
        except PreconditionError:
            skipped += 1
            continue
        assert got == sorted(ef_f + ef_g), (format_poly(f), format_poly(g), p)
        checks += 1
    assert (checks, skipped) == (283, 6)


def test_certify_check_names() -> None:
    f = fixture_poly(5)
    certs = factorize(f, 5)
    report = certify(f, 5, certs, 9)
    names = [c.name for c in report.checks]
    assert names == ["degree-sum", "cert0-prime", "cert0-ord", "cert1-prime", "cert1-ord",
                     "approximation-product"]
    assert all(c.ok for c in report.checks)


def test_certify_walks_f_once_per_chain(monkeypatch) -> None:
    """A product of 10 distinct linear factors at p = 11 closes 10
    certificates of order 0 on one chain: certify walks f once and still
    asks ord_type once per certificate."""
    from omfactor import typecalc

    f = qpoly([1])
    for a in range(1, 11):
        f = f * qpoly([-a - 11 * (a % 3), 1])
    result = run(f, 11)
    assert len(result.certificates) == 10
    assert len({id(c.final_type.chain) for c in result.certificates}) == 1
    walks, orders = [], []
    real_ri, real_ord = montes.ri, montes.ord_type

    def walk(chain, i, g):
        walks.append(g)
        return real_ri(chain, i, g)

    def order(t, g, *res):
        orders.append(t)
        return real_ord(t, g, *res)

    monkeypatch.setattr(montes, "ri", walk)
    monkeypatch.setattr(typecalc, "ri", walk)
    monkeypatch.setattr(montes, "ord_type", order)
    report = certify(f, 11, result.certificates, result.floor)
    assert report.ok
    assert walks == [f] and len(orders) == 10


def test_certify_report_matches_one_walk_per_certificate() -> None:
    """certify's report, every check's name, ok and detail, is the one that
    walking f once for each certificate gives: over every golden factor case,
    the exact-divisor inputs and the seed-1 sweep."""
    from test_golden_output import CASES

    inputs = [(parse_poly(argv[4]), int(argv[2])) for argv in CASES.values() if argv[0] == "factor"]
    inputs += EXACT_INPUTS + sweep_inputs(random.Random(1), 300)
    reports = 0
    for f, p in inputs:
        try:
            result = run(f, p)
        except PreconditionError:
            continue
        got = certify(f, p, result.certificates, result.floor)
        want = certify_per_certificate(f, p, result.certificates, result.floor)
        assert [(c.name, c.ok, c.detail) for c in got.checks] == \
            [(c.name, c.ok, c.detail) for c in want.checks]
        assert got.floor == want.floor
        reports += 1
    assert reports > 200


def test_certify_checks_the_prime() -> None:
    f = fixture_poly(3)
    result = run(f, 3)
    assert certify(f, 3, result.certificates, result.floor).ok
    report = certify(f, 5, result.certificates, result.floor)
    assert [c.name for c in report.checks if not c.ok] == ["cert0-prime"]


def test_input_validation() -> None:
    with pytest.raises(ConfigError):
        factorize(qpoly([1, 0, 1]), 6)
    with pytest.raises(PreconditionError):
        factorize(qpoly([1, 2]), 3)
    with pytest.raises(PreconditionError):
        factorize(qpoly([Fraction(1, 2), 1]), 2)
    with pytest.raises(PreconditionError):
        factorize(qpoly([0, 0, 1]), 3)
    with pytest.raises(PreconditionError):
        factorize(qpoly([5]), 3)


# Marks the exact gcd over the integers in the lists _gcd_rings records.
Z = "Z"


def _cleared(f: Poly) -> list[int]:
    """D f as the integer list _gcd_degree takes, constant first, D the lcm
    of the denominators."""
    D = math.lcm(*(c.denominator for c in f.coeffs))
    return [c.numerator * (D // c.denominator) for c in f.coeffs]


def _gcd_rings(monkeypatch) -> list:
    """Record the coefficient ring of every gcd the driver makes: the prime
    field of each modular _pgcd call, Z for each exact _gcd_degree call."""
    rings: list = []

    def modular(field, a, b):
        rings.append(field)
        return _pgcd(field, a, b)

    def exact(F):
        rings.append(Z)
        return _gcd_degree(F)

    monkeypatch.setattr(montes, "_pgcd", modular)
    monkeypatch.setattr(montes, "_gcd_degree", exact)
    return rings


def test_is_squarefree_matches_sympy(monkeypatch) -> None:
    """_is_squarefree agrees with sympy up to degree 60 on random h, g^2 h
    and Eisenstein shapes, with coefficients on both sides of the evaluation
    proof's size bound and with denominators; both paths are taken."""
    rings = _gcd_rings(monkeypatch)
    rng = random.Random(47)
    paths = Counter()
    for trial in range(90):
        bound = 2 ** rng.choice([6, 200, 300])
        shape = trial % 3
        if shape == 2:  # Eisenstein at p: irreducible, so squarefree
            p = rng.choice([2, 3, 5, 7])
            n = rng.randint(1, 60)
            f = qpoly([p * rng.choice([1, -1]) * (1 + p * rng.randrange(bound))]
                      + [p * rng.randint(-bound, bound) for _ in range(n - 1)] + [1])
        elif shape == 1:  # g^2 h: the exact gcd decides
            wide = trial % 30 == 1
            g = random_qpoly(rng, 15 if wide else 8, 60, monic=True)
            f = g * g * random_qpoly(rng, 30 if wide else 14, 60, monic=True)
        else:
            f = random_qpoly(rng, 60, bound, monic=True)
        if f.degree < 1:
            continue
        if trial % 4 == 0:  # f(d*x)/d^n: monic, denominators powers of d
            d = rng.choice([2, 9, _SQUAREFREE_PRIMES[rng.randrange(3)]])
            f = qpoly([c * Fraction(d) ** (k - f.degree) for k, c in enumerate(f.coeffs)])
        expected = len(oracles.sympy_gcd(list(f), list(f.derivative()))) == 1
        rings.clear()
        assert _is_squarefree(f) == expected, format_poly(f)
        paths["modular" if rings else "evaluation"] += 1
        if not expected:
            assert rings[-1] is Z
    assert paths["evaluation"] > 20 and paths["modular"] > 20, paths


def _wide_family(rng: random.Random) -> list[tuple[Poly, int]]:
    """Eisenstein inputs of degree 24-48 at p in 2..7 and products of 10-24
    distinct linear factors at p in 11..31, shaped like the wide benchmark
    inputs."""
    out = []
    for p, n in [(2, 48), (3, 44), (5, 40), (7, 36), (2, 40), (3, 34), (5, 30), (7, 24)]:
        c0 = p * rng.choice([c for c in range(1, 2 * p) if c % p])
        out.append((qpoly([c0] + [p * rng.randint(-p, p) for _ in range(n - 1)] + [1]), p))
    for p, k in [(11, 10), (13, 13), (17, 16), (19, 19), (23, 22), (29, 24), (31, 24)]:
        f = qpoly([1])
        for r in rng.sample(range(p), k):
            f = f * qpoly([-r - p * rng.randint(-2, 2), 1])
        out.append((f, p))
    return out


def test_valid_generated_inputs_need_no_euclidean_gcd(monkeypatch) -> None:
    """Every squarefree input of the seed-1 sweep, the wide family, the
    constructed products and the nested-tower slice is proved squarefree
    by the evaluation alone: no modular gcd and no _gcd_degree call. The
    rejected sweep inputs still get their verdict from the exact gcd."""
    inputs = (sweep_inputs(random.Random(1), 300) + _wide_family(random.Random(59))
              + [(f, p) for f, p, _ in constructed_products(random.Random(2014), 40)]
              + _nested_towers(random.Random(1), 20))
    rings = _gcd_rings(monkeypatch)
    verdicts = Counter()
    for f, p in inputs:
        rings.clear()
        ok = _is_squarefree(f)
        verdicts[ok] += 1
        if ok:
            assert rings == [], (format_poly(f), p)
        else:
            assert rings[-1] is Z, (format_poly(f), p)
    assert verdicts == {True: 293 + 15 + 40 + 20, False: 7}


def test_squarefree_evaluation_size_bound(monkeypatch) -> None:
    """The evaluation runs while B = 1 + max |F_i| has at most
    _EVAL_MAX_BITS bits; one bit more takes the modular path."""
    rings = _gcd_rings(monkeypatch)
    c = 2 ** _EVAL_MAX_BITS - 2  # B = 2^bits - 1
    assert _is_squarefree(qpoly([0, -c, 1]))
    assert rings == []
    assert _is_squarefree(qpoly([0, -(c + 1), 1]))  # B = 2^bits
    assert rings == [Fq.prime(_SQUAREFREE_PRIMES[0])]
    rings.clear()
    # The bound is on the scaled coefficients: x^2 - (c/11) x scales to x^2 - c x.
    assert c % 11 and (c + 1) % 11  # so 11 is the lcm of the denominators
    assert _is_squarefree(qpoly([0, Fraction(-c, 11), 1]))
    assert rings == []
    assert _is_squarefree(qpoly([0, Fraction(-(c + 1), 11), 1]))
    assert rings == [Fq.prime(_SQUAREFREE_PRIMES[0])]
    rings.clear()
    # D = 2^(bits/2) makes F = x^3 + D^2: one bit past, found before F_0 is built.
    assert _is_squarefree(qpoly([Fraction(1, 2 ** (_EVAL_MAX_BITS // 2)), 0, 0, 1]))
    assert rings == [Fq.prime(_SQUAREFREE_PRIMES[0])]


def test_squarefree_falls_through_bad_primes(monkeypatch) -> None:
    """Inputs past the evaluation's size bound go through the test primes
    in order, then the exact gcd."""
    q1, q2, q3 = _SQUAREFREE_PRIMES
    big = 2 ** (_EVAL_MAX_BITS + 44)
    rings = _gcd_rings(monkeypatch)
    # x*(x - q1*big) is x^2 mod q1, squarefree mod q2.
    assert _is_squarefree(qpoly([0, -q1 * big, 1]))
    assert rings == [Fq.prime(q1), Fq.prime(q2)]
    rings.clear()
    # Not squarefree mod any test prime: the exact gcd decides.
    assert _is_squarefree(qpoly([0, -q1 * q2 * q3 * big, 1]))
    assert rings == [Fq.prime(q1), Fq.prime(q2), Fq.prime(q3), Z]
    rings.clear()
    # A denominator divisible by q1 skips q1.
    f = qpoly([0, Fraction(big, q1), 1])
    assert [c.degree for c in factorize(f, 3)] == [1, 1]
    assert rings == [Fq.prime(q2)]
    rings.clear()
    # Every non-squarefree input reaches the exact gcd.
    with pytest.raises(PreconditionError, match="squarefree"):
        factorize(qpoly([1, 2, 1]), 3)
    assert rings == [Fq.prime(q1), Fq.prime(q2), Fq.prime(q3), Z]


def test_gcd_degree_matches_sympy_past_the_evaluation_bound(monkeypatch) -> None:
    """Seeded monic inputs whose coefficients are past the evaluation's size
    bound, squarefree h and g^k h, integral and with denominators prime to
    p: _gcd_degree is the degree of sympy's gcd(f, f'), and _is_squarefree
    agrees, with each non-squarefree verdict from the exact gcd."""
    rings = _gcd_rings(monkeypatch)
    rng = random.Random(61)
    verdicts = Counter()
    for trial in range(24):
        p = rng.choice([2, 3, 5, 7])
        h = random_qpoly(rng, 20, 2 ** (_EVAL_MAX_BITS + 44), monic=True)
        g = qpoly([rng.randint(-2 ** 100, 2 ** 100) for _ in range(rng.randint(1, 6))] + [1])
        f = h if trial % 2 else g ** (2 + trial % 3) * h
        if trial % 4 >= 2:  # f(d*x)/d^n, with d a power of a prime other than p
            d = rng.choice([q for q in (2, 3, 5, 7, 11) if q != p]) ** rng.randint(1, 3)
            f = qpoly([c * Fraction(d) ** (k - f.degree) for k, c in enumerate(f.coeffs)])
        if f.degree < 1:
            continue
        want = len(oracles.sympy_gcd(list(f), list(f.derivative()))) - 1
        assert _gcd_degree(_cleared(f)) == want, format_poly(f)
        rings.clear()
        assert _is_squarefree(f) == (want == 0), format_poly(f)
        assert rings and all(c.denominator % p for c in f.coeffs)
        if want:
            assert rings[-1] is Z
        verdicts[want == 0] += 1
    # The shape of a slow rejection before the integer gcd: g^2 h of degree
    # 40 with 100-bit g and h.
    g = qpoly([rng.randint(-2 ** 100, 2 ** 100) for _ in range(6)] + [1])
    h = qpoly([rng.randint(-2 ** 100, 2 ** 100) for _ in range(28)] + [1])
    assert _gcd_degree(_cleared(g * g * h)) == 6
    assert verdicts[True] >= 8 and verdicts[False] >= 8, verdicts


def test_wide_input_needs_no_rational_gcd(monkeypatch) -> None:
    rng = random.Random(53)
    f = qpoly([2] + [2 * rng.randint(-2, 2) for _ in range(47)] + [1])
    rings = _gcd_rings(monkeypatch)
    certs = run(f, 2).certificates
    assert [c.degree for c in certs] == [48]
    assert rings == []


def test_p_integral_rational_coefficients_accepted() -> None:
    certs = factorize(qpoly([Fraction(1, 2), 1]), 3)
    assert [c.degree for c in certs] == [1]
    assert format_poly(certs[0].approximation) == "x - 1"


def test_determinism_structural() -> None:
    for p in [3, 5]:
        f = fixture_poly(p)
        a = factorize(f, p)
        b = factorize(f, p)
        assert len(a) == len(b)
        for ca, cb in zip(a, b):
            assert ca.approximation == cb.approximation
            assert ca.slopes == cb.slopes
            assert (ca.degree, ca.e, ca.f, ca.okutsu_depth) == (
                cb.degree, cb.e, cb.f, cb.okutsu_depth)


def test_trace_event_stream_shape() -> None:
    from omfactor.montes import BranchStart, NodeClose, NodePolygon, NodeResidual, RootResidual

    f = fixture_poly(3)
    trace = run(f, 3).events
    kinds = [type(e).__name__ for e in trace]
    assert kinds[0] == "RootResidual"
    assert "BranchStart" in kinds
    assert kinds.count("NodeClose") == 1
    levels = [e.level for e in trace if isinstance(e, NodePolygon)]
    assert levels == [1, 2, 2, 2]
    res_levels = [e.level for e in trace if isinstance(e, NodeResidual)]
    assert res_levels == [1, 2, 2, 2]
    assert isinstance(trace[0], RootResidual)
    assert any(isinstance(e, BranchStart) and e.omega == 4 for e in trace)
    closes = [e for e in trace if isinstance(e, NodeClose)]
    assert closes[0].certificate.degree == 4


def test_run_record_renders_the_golden_trace() -> None:
    """The events of a plain run are the trace the CLI prints with --trace."""
    f = parse_poly("((x^2+5)^3 + 5^4*x)^2 + 5^12*x + 5^13")
    golden = (GOLDEN / "tower_p5_factor_trace.txt").read_text()
    trace_text = golden[: golden.index("certificate 1:\n")]
    assert format_trace(run(f, 5).events) + "\n" == trace_text


@pytest.mark.parametrize(
    "poly, p",
    [("(((x^2+2)^2 + 2^3*x)^2 + 2^13)^2 + 2^40*x + 2^41", 2), ("x^3 - 9*x", 3)],
)
def test_run_record_counts_one_node_per_polygon(poly: str, p: int) -> None:
    result = run(parse_poly(poly), p)
    assert result.nodes >= 1
    assert result.nodes == sum(isinstance(e, NodePolygon) for e in result.events)


@pytest.mark.parametrize(
    "poly, p",
    [("(((x^2+2)^2 + 2^3*x)^2 + 2^13)^2 + 2^40*x + 2^41", 2), ("x^3 - 9*x", 3)],
)
def test_input_expanded_once_per_node_key(monkeypatch, poly: str, p: int) -> None:
    """The polygon and every side's residual of a node read one expansion of
    f by the node's key; on the exact-divisor path the divisor and its
    perturbed replacement are expanded once each."""
    f = parse_poly(poly)
    seen: Counter = Counter()

    def counting(coeffs, phi):
        if coeffs == f.coeffs:
            seen[phi.coeffs] += 1
        return phi_expansion(coeffs, phi)

    for name, mod in list(sys.modules.items()):
        if name.startswith("omfactor") and getattr(mod, "phi_expansion", None) is phi_expansion:
            monkeypatch.setattr(mod, "phi_expansion", counting)
    trace = run(f, p).events
    keys = [e.phi.coeffs for e in trace if isinstance(e, (NodePolygon, ExactDivisor))]
    assert keys and len(set(keys)) == len(keys)
    assert seen == Counter(keys)


@pytest.mark.parametrize(
    "poly, p",
    [
        ("(((x^2+2)^2 + 2^3*x)^2 + 2^13)^2 + 2^40*x + 2^41", 2),
        ("x^3 - 9*x", 3),
        ("x^3 - 6*x^2 - 32*x + 32", 2),
    ],
)
def test_node_key_walked_once_per_side(monkeypatch, poly: str, p: int) -> None:
    """Each node's key is walked once per principal side, by that side's
    augment, on the chain the side extends: the key check's walk is also the
    representative check. Where the sides replace a stationary top, their
    walks stop below it, and the key is walked once more, on the node's own
    chain at its top level, to check psi_top."""
    chains: list = []
    extended: dict = {}
    walks: list = []
    branch, augment = montes._branch, montes.augment

    def recording_branch(t, *args):
        chains.append(t.chain)
        return branch(t, *args)

    def recording_augment(chain, phi, nu):
        extended.setdefault(phi.coeffs, []).append(chain)
        return augment(chain, phi, nu)

    def counting(chain, i, g):
        walks.append((chain, i, g))
        return ri(chain, i, g)

    monkeypatch.setattr(montes, "_branch", recording_branch)
    monkeypatch.setattr(montes, "augment", recording_augment)
    for name, mod in list(sys.modules.items()):
        if name.startswith("omfactor") and getattr(mod, "ri", None) is ri:
            monkeypatch.setattr(mod, "ri", counting)
    trace = run(parse_poly(poly), p).events
    nodes = [e for e in trace if isinstance(e, NodePolygon)]
    assert nodes and len(nodes) == len(chains)
    replaced = 0
    for chain, node in zip(chains, nodes):
        sides = len(lower_hull(list(node.points)).principal_sides())
        below = extended[node.phi.coeffs][0]
        assert len(extended[node.phi.coeffs]) == sides
        assert all(c is below for c in extended[node.phi.coeffs])
        assert node.level == below.r + 1
        n = sum(1 for c, i, g in walks if c is below and i == below.r and g == node.phi)
        assert n == sides
        if below is not chain:
            assert below.levels == chain.levels[:-1]
            n = sum(1 for c, i, g in walks if c is chain and i == chain.r and g == node.phi)
            assert n == 1
            replaced += 1
    # The degree-16 input replaces 13 stationary tops, and the level-2 exact
    # divisor's node replaces one.
    assert replaced == {"x^3 - 9*x": 0, "x^3 - 6*x^2 - 32*x + 32": 1}.get(poly, 13)


def test_walk_builds_only_optimal_types(monkeypatch) -> None:
    """No type the walk branches on or closes has a stationary level below
    its top, and no factor run collapses a chain: over the degree-16 p = 2
    input, every golden factor case and the seed-1 sweep."""
    from test_golden_output import CASES, DEEP_P2

    seen: list = []
    collapsed: list = []
    for name in ("_branch", "_close"):
        wrapped = getattr(montes, name)
        monkeypatch.setattr(montes, name, lambda t, *a, _w=wrapped: seen.append(t) or _w(t, *a))
    collapse = valuation.collapse_step

    def recording_collapse(*args):
        collapsed.append(args)
        return collapse(*args)

    for name, mod in list(sys.modules.items()):
        if name.startswith("omfactor") and getattr(mod, "collapse_step", None) is collapse:
            monkeypatch.setattr(mod, "collapse_step", recording_collapse)
    inputs = [(parse_poly(DEEP_P2), 2)]
    inputs += [(parse_poly(argv[4]), int(argv[2])) for argv in CASES.values() if argv[0] == "factor"]
    inputs += sweep_inputs(random.Random(1), 300)
    for f, p in inputs:
        try:
            run(f, p)
        except PreconditionError:
            continue
    assert collapsed == []
    assert max(t.order for t in seen) >= 4
    assert all(optimize(t) is t for t in seen)


# The README quartic at p = 3 as f(2x)/16: its coefficients have the p-unit
# denominators 2 and 8.
P_UNIT_QUARTIC = qpoly([Fraction(3393, 8), 0, Fraction(15, 2), 0, 1])


def test_run_keeps_one_coefficient_representation(monkeypatch) -> None:
    """Every rational polynomial a run creates, and every coefficient tuple
    that reaches r0, stores an int, or a Fraction with denominator > 1, and
    never a float."""
    bad: list = []
    reached: list = []
    init = Poly.__init__

    def canonical(coeffs) -> bool:
        return all(type(c) is int or (type(c) is Fraction and c.denominator > 1) for c in coeffs)

    def checked(self, ring, coeffs):
        init(self, ring, coeffs)
        if ring == QQ and not canonical(self.coeffs):
            bad.append(self)

    def checked_r0(p, coeffs):
        reached.append(coeffs)
        if type(coeffs) is not tuple or not canonical(coeffs) or not coeffs[-1]:
            bad.append(coeffs)
        return r0(p, coeffs)

    monkeypatch.setattr(Poly, "__init__", checked)
    for name, mod in list(sys.modules.items()):
        if name.startswith("omfactor") and getattr(mod, "r0", None) is r0:
            monkeypatch.setattr(mod, "r0", checked_r0)
    rng = random.Random(1)
    inputs = [(P_UNIT_QUARTIC, 3), (parse_poly("(((x^2+2)^2 + 2^3*x)^2 + 2^13)^2 + 2^40*x + 2^41"), 2)]
    for _ in range(60):
        p = rng.choice([2, 3, 5, 7])
        d = rng.randint(2, 10)
        coeffs = [rng.randint(-3, 3) * p ** rng.randint(0, 6) for _ in range(d)] + [1]
        inputs.append((qpoly(coeffs), p))
    runs = 0
    for f, p in inputs:
        try:
            res = run(f, p)
        except PreconditionError:
            continue
        certify(f, p, res.certificates, res.floor)
        runs += 1
    assert runs > 50 and reached and bad == []


def test_p_unit_denominators_keep_their_output() -> None:
    """Pinned from the code that stored every coefficient as a Fraction."""
    from omfactor.serialize import format_cert

    res = run(P_UNIT_QUARTIC, 3)
    text = "\n".join(format_cert(c, "  ") for c in res.certificates)
    assert text == (
        "  degree 4, e = 2, f = 2\n"
        "  okutsu depth 2, frame [x, x^2 + 24]\n"
        "  slopes [1/2, 3]\n"
        "  approximation x^4 + 129*x^2 - 4041\n"
        "  type (y; (x, 1/2, y - 1); (x^2 + 24, 3, y^2 + y - 1))"
    )
    assert res.floor == 9
    assert not certify(P_UNIT_QUARTIC, 3, res.certificates, res.floor).ok
