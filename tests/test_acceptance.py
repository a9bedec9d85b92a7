"""Acceptance gate: pinned end-to-end behavior of the whole package.

Arithmetic assertions are exact (integer, Fraction, or finite-field
equality). Runtime limits and sample counts are pinned constants; the
random seeds are fixed so every run checks the identical sample set.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import oracles
from omfactor.arith import Poly, content_vp, qpoly
from omfactor.finitefield import is_irreducible, map_poly, multiplicity_of
from omfactor.montes import (
    NodePolygon,
    NodeResidual,
    RootResidual,
    certify,
    factorize,
    run,
)
from omfactor.polygon import apply_affinity, component_of, lower_hull
from omfactor.residual import ri
from omfactor.serialize import (
    canonical_json,
    cert_to_json,
    chain_to_json,
    format_trace,
    fq_elt_to_json,
    qpoly_to_json,
    type_to_json,
)
from omfactor.typecalc import equivalent, optimize, ord_type, representative
from omfactor.valuation import (
    build_chain,
    collapse_step,
    expansion_points,
    mu_eval,
)

from genchains import (
    fixture_chain3,
    fixture_chain5,
    fixture_poly,
    fixture_t4,
    random_qpoly,
    random_type,
    shift_pair,
    stationary_pair,
    ypoly,
)
from reference import flatten_field, key_divides

SINGLE_RUN_LIMIT = 1.0  # seconds per factorization of the quartic fixture
BATCH_RUN_LIMIT = 30.0  # seconds for the 100-sample unramified suite


def _flat_equal(a: Poly, b: Poly) -> bool:
    fa, ia = flatten_field(a.ring)
    fb, ib = flatten_field(b.ring)
    return fa == fb and map_poly(a, fa, ia) == map_poly(b, fb, ib)


def test_quartic_single_certificate_with_exact_trace() -> None:
    f = fixture_poly(3)
    start = time.perf_counter()
    trace: list = []
    certs = factorize(f, 3, trace)
    elapsed = time.perf_counter() - start
    assert elapsed < SINGLE_RUN_LIMIT

    assert len(certs) == 1
    cert = certs[0]
    assert (cert.degree, cert.e, cert.f) == (4, 2, 2)
    assert cert.okutsu_depth == 2
    assert list(cert.okutsu_frame) == [qpoly([0, 1]), qpoly([15, 0, 1])]

    roots = [ev for ev in trace if isinstance(ev, RootResidual)]
    assert len(roots) == 1
    r0 = roots[0].poly
    assert r0 == ypoly(r0.ring, [0, 0, 0, 0, 1])

    polygons = {ev.level: ev for ev in trace if isinstance(ev, NodePolygon)}
    residuals = {ev.level: ev for ev in trace if isinstance(ev, NodeResidual)}
    assert sorted(polygons) == [1, 2, 3, 4]
    assert sorted(residuals) == [1, 2, 3, 4]

    n1 = polygons[1]
    assert n1.phi == qpoly([0, 1])
    assert list(n1.points) == [(0, 2), (2, 1), (4, 0)]
    assert list(n1.vertices) == [(0, 2), (4, 0)]
    assert n1.principal_length == 4
    (s0, u0), (s1, u1) = n1.vertices
    assert Fraction(u1 - u0, s1 - s0) == Fraction(-1, 2)
    assert residuals[1].lam == Fraction(1, 2)

    for level, expect in [(1, [-1, 1]), (2, [-1, 1]), (3, [1, 1])]:
        res = residuals[level].poly
        lin = ypoly(res.ring, expect)
        assert res == lin * lin

    assert list(polygons[2].points) == [(0, 4), (1, 3), (2, 2)]

    r4 = residuals[4].poly
    assert r4 == ypoly(r4.ring, [1, 0, 1])
    assert is_irreducible(r4)


def test_split_and_inert_primes_with_certified_gap() -> None:
    for p in (5, 13, 17):
        f = fixture_poly(p)
        start = time.perf_counter()
        certs = factorize(f, p)
        assert time.perf_counter() - start < SINGLE_RUN_LIMIT
        assert len(certs) == 2
        for cert in certs:
            assert (cert.degree, cert.e, cert.f) == (2, 2, 1)
        prod = certs[0].approximation * certs[1].approximation
        assert content_vp(f - prod, p) >= 9
    for p in (7, 11):
        f = fixture_poly(p)
        start = time.perf_counter()
        certs = factorize(f, p)
        assert time.perf_counter() - start < SINGLE_RUN_LIMIT
        assert len(certs) == 1
        assert (certs[0].degree, certs[0].e, certs[0].f) == (4, 2, 2)


def test_type_equivalent_to_its_optimization() -> None:
    t4 = fixture_t4()
    opt = optimize(t4)
    witness = equivalent(t4, opt)
    assert witness.equivalent
    rng = random.Random(20260301)
    for _ in range(100):
        g = random_qpoly(rng, 8)
        assert ord_type(t4, g) == ord_type(opt, g)


def test_split_pair_types_differ_only_in_top_psi() -> None:
    certs = factorize(fixture_poly(5), 5)
    assert len(certs) == 2
    witness = equivalent(certs[0].final_type, certs[1].final_type)
    assert not witness.equivalent
    assert witness.failed == "psi_top"


def test_collapsed_chain_residuals_and_polygons_agree() -> None:
    rng = random.Random(20260401)
    for _ in range(50):
        raw, col = stationary_pair(rng)
        steps = raw.steps()
        nu1 = steps[-2][1]
        h_stat = raw.level(raw.r - 1).h
        phi_top = steps[-1][0]
        chain1 = build_chain(raw.p, steps[:-1])
        base = build_chain(raw.p, steps[:-2])
        assert collapse_step(raw, raw.r).steps() == col.steps()
        for _ in range(20):
            g = random_qpoly(rng, 6) * phi_top ** rng.randrange(0, 2)
            a = ri(raw, raw.r, g)
            b = ri(col, col.r, g)
            assert a.s == b.s
            assert a.u == b.u + a.s * h_stat
            assert _flat_equal(a.poly, b.poly)
            pts_raw = expansion_points(chain1, phi_top, g)
            pts_col = expansion_points(base, phi_top, g)
            assert pts_raw == [(s, u + s * nu1) for s, u in pts_col]
            sheared = apply_affinity(lower_hull(pts_col), Fraction(-nu1))
            assert lower_hull(pts_raw).vertices == sheared.vertices


def test_shifted_key_residual_transport() -> None:
    rng = random.Random(20260501)
    for _ in range(50):
        chain, star, shift, eta = shift_pair(rng)
        r = chain.r
        h_r = chain.level(r).h
        phi = chain.level(r).phi
        res_shift = ri(chain, r, shift)
        assert res_shift.s == 0
        assert res_shift.poly.degree == 0
        assert res_shift.poly.coeff(0) == eta
        for _ in range(3):
            g = random_qpoly(rng, 5) * phi ** rng.randrange(0, 3)
            res = ri(chain, r, g)
            out = ri(star, r, g)
            field = res.poly.ring
            plus = Poly(field, [eta, field.one])
            minus = Poly(field, [-eta, field.one])
            s_star = multiplicity_of(plus, res.poly)
            part = res.poly
            for _ in range(s_star):
                part = part // plus
            moved = minus ** res.s * part.compose(minus)
            assert out.s == s_star
            assert out.u == res.u + h_r * (res.s - s_star)
            assert _flat_equal(out.poly, moved)


def test_shifted_key_degenerate_case() -> None:
    x = qpoly([0, 1])
    chain = build_chain(3, [(x, Fraction(1, 2)), (qpoly([-3, 0, 1]), Fraction(1))])
    star = build_chain(3, [(x, Fraction(1, 2)), (qpoly([-12, 0, 1]), Fraction(1))])
    res_shift = ri(chain, 2, qpoly([-9]))
    assert (res_shift.s, res_shift.u) == (0, 4)
    assert res_shift.poly.degree == 0
    eta = res_shift.poly.coeff(0)
    assert eta.flat_key() == (-1,)

    f = fixture_poly(3)
    res = ri(chain, 2, f)
    assert (res.s, res.u) == (0, 8)
    field = res.poly.ring
    plus = Poly(field, [eta, field.one])
    assert multiplicity_of(plus, res.poly) == 2

    out = ri(star, 2, f)
    assert (out.s, out.u) == (2, 4)
    assert out.poly.degree == 0
    part = (res.poly // plus) // plus
    assert part.degree == 0
    assert _flat_equal(out.poly, part)


def test_residual_multiplicativity_and_ord_additivity() -> None:
    rng = random.Random(20260601)
    pool = [fixture_t4()] + [random_type(rng) for _ in range(11)]
    for k in range(200):
        t = pool[k % len(pool)]
        chain, r = t.chain, t.chain.r
        phi = chain.level(r).phi if r else None

        def draw() -> Poly:
            g = random_qpoly(rng, 5)
            if phi is not None and rng.random() < 0.4:
                g = g * phi ** rng.randrange(1, 3)
            return g

        g, h = draw(), draw()
        a, b, c = ri(chain, r, g), ri(chain, r, h), ri(chain, r, g * h)
        assert c.s == a.s + b.s
        assert c.u == a.u + b.u
        assert c.poly == a.poly * b.poly
        assert ord_type(t, g * h) == ord_type(t, g) + ord_type(t, h)


def test_mu_monotonicity_with_divisibility_criterion() -> None:
    rng = random.Random(20260602)
    chains = [fixture_chain3(), fixture_chain5()]
    chains += [random_type(rng).chain for _ in range(10)]
    chains = [c for c in chains if c.r >= 1]
    checked, k = 0, 0
    while checked < 200:
        chain = chains[k % len(chains)]
        k += 1
        g = random_qpoly(rng, 6)
        for i in range(1, chain.r + 1):
            lo = mu_eval(chain, i - 1, g)
            hi = mu_eval(chain, i, g)
            assert hi >= lo
            trunc = build_chain(chain.p, chain.steps()[: i - 1])
            assert (hi > lo) == key_divides(trunc, chain.level(i).phi, g)
            checked += 1


def test_residual_degree_matches_principal_component() -> None:
    rng = random.Random(20260603)
    chains = [fixture_chain3()] + [random_type(rng).chain for _ in range(10)]
    chains = [c for c in chains if c.r >= 1]
    checked, k = 0, 0
    while checked < 200:
        chain = chains[k % len(chains)]
        k += 1
        r = chain.r
        lev = chain.level(r)
        trunc = build_chain(chain.p, chain.steps()[:-1])
        g = random_qpoly(rng, 6) * lev.phi ** rng.randrange(0, 2)
        res = ri(chain, r, g)
        hull = lower_hull(expansion_points(trunc, lev.phi, g))
        lam = Fraction(lev.h, lev.e * trunc.e_cum[trunc.r])
        comp = component_of(hull, lam)
        length = comp.right[0] - comp.left[0]
        assert res.s == comp.left[0]
        assert res.u == trunc.e_cum[trunc.r] * comp.left[1]
        assert length % lev.e == 0
        assert res.poly.degree == length // lev.e
        checked += 1


def test_next_key_residual_recovers_psi() -> None:
    rng = random.Random(20260604)
    checked, attempts = 0, 0
    while checked < 200:
        attempts += 1
        assert attempts < 2000
        chain = fixture_chain3() if attempts % 20 == 0 else random_type(
            rng, depth=rng.choice([2, 3])).chain
        for i in range(1, chain.r):
            trunc = build_chain(chain.p, chain.steps()[:i])
            res = ri(trunc, i, chain.level(i + 1).phi)
            assert res.s == 0
            assert res.poly == chain.level(i + 1).psi_prev
            checked += 1


def test_representative_degree_and_ord() -> None:
    rng = random.Random(20260605)
    for _ in range(200):
        t = random_type(rng)
        rep = representative(t)
        r = t.chain.r
        if r:
            lev = t.chain.level(r)
            assert rep.degree == lev.e * t.f_top * lev.m
        else:
            assert rep.degree == t.f_top
        assert rep.is_monic()
        assert ord_type(t, rep) == 1


def _random_cloud(rng: random.Random) -> list[tuple[int, Fraction]]:
    pts = []
    for _ in range(rng.randrange(1, 12)):
        s = rng.randrange(0, 10)
        u = Fraction(rng.randrange(-30, 31), rng.choice([1, 1, 2, 3]))
        pts.append((s, u))
    return pts


def test_hull_dominance_and_component_support() -> None:
    rng = random.Random(20260606)
    for _ in range(200):
        pts = _random_cloud(rng)
        hull = lower_hull(pts)
        verts = hull.vertices
        for s, u in pts:
            if s < verts[0][0] or s > verts[-1][0]:
                continue
            for (s0, u0), (s1, u1) in zip(verts, verts[1:]):
                if s0 <= s <= s1:
                    assert (u - u0) * (s1 - s0) >= (u1 - u0) * (s - s0)
                    break
            else:
                assert verts[0][0] == s and u >= verts[0][1]
        lam = Fraction(rng.randrange(1, 7), rng.choice([1, 2, 3]))
        comp = component_of(hull, lam)
        lo = min(u + lam * s for s, u in pts)
        support = sorted(
            s for s, u in oracles.brute_lower_hull(pts) if u + lam * s == lo
        )
        if support:
            assert comp.left[0] == support[0]
            assert comp.right[0] == support[-1]
        assert comp.left[1] + lam * comp.left[0] == lo
        assert comp.slope == -lam


def test_small_values_attained_by_monomials() -> None:
    bound = Fraction(5)
    for chain in [fixture_chain3(), fixture_chain5()]:
        for i in range(chain.r + 1):
            e_cum = chain.e_cum[i]
            cap = e_cum * chain.m(i) if i else 1
            attained = set()
            for b in range(6):
                for j in range(cap):
                    val = mu_eval(chain, i, qpoly([0] * j + [chain.p**b]))
                    if val <= bound:
                        attained.add(val)
            want = {Fraction(k, e_cum) for k in range(5 * e_cum + 1)}
            assert want <= attained


def test_unramified_inputs_mirror_residue_field_factorization() -> None:
    rng = random.Random(20260701)
    primes = [3, 5, 7, 11, 13]
    start = time.perf_counter()
    done = 0
    while done < 100:
        p = primes[done % len(primes)]
        f = random_qpoly(rng, 6, bound=50, monic=True)
        if f.degree < 1:
            continue
        coeffs = [int(c) for c in f.coeffs]
        if not oracles.modp_is_squarefree(coeffs, p):
            continue
        certs = factorize(f, p)
        expected = oracles.modp_factors(coeffs, p)
        assert all(mult == 1 for _, mult in expected)
        assert sorted(cert.degree for cert in certs) == [d for d, _ in expected]
        for cert in certs:
            assert cert.e == 1
            assert cert.f == cert.degree
        done += 1
    assert time.perf_counter() - start < BATCH_RUN_LIMIT


def _artifact() -> str:
    doc: dict = {}
    for p in (3, 5, 7, 11, 13, 17):
        f = fixture_poly(p)
        trace: list | None = [] if p == 3 else None
        result = run(f, p, trace)
        certs, floor = result.certificates, result.floor
        entry = {
            "p": p,
            "poly": qpoly_to_json(f),
            "certificates": [cert_to_json(c) for c in certs],
            "precision_floor": floor,
            "certified": certify(f, p, certs, floor).ok,
        }
        if trace is not None:
            entry["trace"] = format_trace(trace).split("\n")
        doc[f"factor_{p}"] = entry
    certs5 = factorize(fixture_poly(5), 5)
    witness = equivalent(certs5[0].final_type, certs5[1].final_type)
    doc["equiv"] = {
        "equivalent": witness.equivalent,
        "failed": witness.failed,
        "etas": [fq_elt_to_json(e) for e in witness.etas],
    }
    doc["chain"] = chain_to_json(fixture_chain3())
    doc["optimized_type"] = type_to_json(optimize(fixture_t4()))
    doc["representative"] = qpoly_to_json(representative(optimize(fixture_t4())))
    return canonical_json(doc)


def test_artifact_generation_is_byte_identical() -> None:
    first = _artifact()
    second = _artifact()
    assert first == second
    assert '"factor_3"' in first
