"""Type calculus: ord, optimization, representatives, equivalence."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from genchains import (
    fixture_chain3,
    fixture_poly,
    fixture_t4,
    random_irreducible,
    random_qpoly,
    random_type,
    shift_pair,
    unshifted_top_pair,
    ypoly,
)
from omfactor import (
    Poly,
    PreconditionError,
    Type,
    build_chain,
    equivalent,
    factorize,
    montes,
    okutsu_data,
    optimize,
    ord_type,
    parse_poly,
    qpoly,
    representative,
    ri,
)
from omfactor.serialize import canonical_json, format_type, type_to_json
from omfactor.typecalc import f_level, is_stationary_level
from reference import is_optimal, optimize_step, stationary_levels


def test_type_validation() -> None:
    chain = fixture_chain3()
    top = chain.fields[chain.r]
    with pytest.raises(PreconditionError):
        Type(chain, ypoly(chain.fields[0], [1, 0, 1]))
    with pytest.raises(PreconditionError):
        Type(chain, ypoly(top, [-1, 0, 1]))
    with pytest.raises(PreconditionError):
        Type(chain, ypoly(top, [0, 1]))
    with pytest.raises(PreconditionError):
        Type(chain, ypoly(top, [1, 2]))
    from omfactor import empty_chain

    t0 = Type(empty_chain(3), ypoly(empty_chain(3).fields[0], [0, 1]))
    assert t0.order == 0 and t0.degree() == 1


def test_fixture_type_shape() -> None:
    t4 = fixture_t4()
    assert t4.order == 4
    assert t4.f_top == 2
    assert t4.degree() == 4
    assert [f_level(t4, i) for i in range(1, 5)] == [1, 1, 1, 2]
    assert stationary_levels(t4) == [2, 3]
    assert not is_optimal(t4)
    assert not is_stationary_level(t4, 1)
    assert not is_stationary_level(t4, 4)


def test_ord_type_fixture() -> None:
    t4 = fixture_t4()
    f = fixture_poly(3)
    assert ord_type(t4, f) == 1
    assert ord_type(t4, f * f) == 2
    assert ord_type(t4, qpoly([1, 1])) == 0
    with pytest.raises(PreconditionError):
        ord_type(t4, qpoly([]))


def test_ord_additivity() -> None:
    rng = random.Random(163)
    checked = 0
    while checked < 200:
        t = random_type(rng)
        phi = t.chain.level(t.chain.r).phi
        for _ in range(5):
            g = random_qpoly(rng, 5) * phi ** rng.randrange(0, 2)
            h = random_qpoly(rng, 5) * phi ** rng.randrange(0, 2)
            assert ord_type(t, g * h) == ord_type(t, g) + ord_type(t, h)
            checked += 1


def test_optimize_fixture_pins() -> None:
    t4 = fixture_t4()
    opt = optimize(t4)
    assert opt.order == 2
    steps = opt.chain.steps()
    assert steps[0] == (qpoly([0, 1]), Fraction(1, 2))
    assert steps[1] == (qpoly([15, 0, 1]), Fraction(3))
    assert opt.psi_top.degree == 2
    assert is_optimal(opt)
    assert optimize(opt) is opt
    mid = optimize_step(t4)
    assert mid.order == 3
    assert equivalent(t4, mid).equivalent
    assert equivalent(mid, opt).equivalent


def test_optimize_preserves_ord() -> None:
    t4 = fixture_t4()
    opt = optimize(t4)
    rng = random.Random(167)
    for _ in range(30):
        g = random_qpoly(rng, 8)
        assert ord_type(t4, g) == ord_type(opt, g)


def _optimize_by_steps(t: Type) -> Type:
    """Optimization as a loop of optimize_step up to its fixed point."""
    while True:
        nxt = optimize_step(t)
        if nxt is t:
            return t
        t = nxt


def test_optimize_equals_stepwise_fixed_point(monkeypatch) -> None:
    closing: list[Type] = []
    wrapped = montes.optimize
    monkeypatch.setattr(montes, "optimize", lambda t: closing.append(t) or wrapped(t))
    factorize(parse_poly("(((x^2+2)^2 + 2^3*x)^2 + 2^13)^2 + 2^40*x + 2^41"), 2)
    raw = max(closing, key=lambda t: t.order)
    # Two separated runs of stationary levels, where fixture_t4 has one run {2, 3}.
    assert (raw.order, stationary_levels(raw)) == (17, [3, *range(5, 17)])
    for t in (fixture_t4(), raw):
        stepwise = canonical_json(type_to_json(_optimize_by_steps(t)))
        assert canonical_json(type_to_json(optimize(t))) == stepwise


def test_representative_of_optimized_fixture_is_input() -> None:
    t4 = fixture_t4()
    assert representative(optimize(t4)) == fixture_poly(3)


def test_representative_degree_and_ord() -> None:
    rng = random.Random(173)
    for _ in range(25):
        t = random_type(rng)
        rep = representative(t)
        assert rep.is_monic()
        assert rep.degree == t.degree()
        assert ord_type(t, rep) == 1
        res = ri(t.chain, t.chain.r, rep)
        assert res.s == 0
        assert res.poly == t.psi_top


def test_okutsu_fixture() -> None:
    t4 = fixture_t4()
    depth, frame = okutsu_data(t4)
    assert depth == 2
    assert frame == [qpoly([0, 1]), qpoly([15, 0, 1])]


def test_okutsu_truncates_stationary_top() -> None:
    from genchains import random_irreducible

    chain2 = build_chain(3, [(qpoly([0, 1]), Fraction(1)), (qpoly([3, 1]), Fraction(1))])
    assert chain2.level(2).e == 1 and chain2.level(2).m == 1
    top = chain2.fields[2]
    linear_top = Type(chain2, ypoly(top, [1, 1]))
    assert okutsu_data(linear_top) == (0, [])
    quad_top = Type(chain2, random_irreducible(random.Random(3), top, 2, proper=True))
    depth, frame = okutsu_data(quad_top)
    assert depth == 1
    assert frame == [qpoly([3, 1])]


def test_equivalent_reflexive() -> None:
    rng = random.Random(179)
    for _ in range(10):
        t = random_type(rng)
        w = equivalent(t, t)
        assert w.equivalent and w.failed is None
        assert all(not e for e in w.etas)


def test_equivalent_depth_one_shift_pin() -> None:
    ca = build_chain(3, [(qpoly([0, 1]), Fraction(1))])
    cb = build_chain(3, [(qpoly([3, 1]), Fraction(1))])
    fa, fb = ca.fields[1], cb.fields[1]
    ta = Type(ca, ypoly(fa, [-1, 1]))
    tb_good = Type(cb, ypoly(fb, [1, 1]))
    w = equivalent(ta, tb_good)
    assert w.equivalent
    assert len(w.etas) == 1 and w.etas[0].flat_key() == (1,)
    back = equivalent(tb_good, ta)
    assert back.equivalent
    assert back.etas[0].flat_key() == (-1,)
    tb_bad = Type(cb, ypoly(fb, [-1, 1]))
    w2 = equivalent(ta, tb_bad)
    assert not w2.equivalent
    assert w2.failed == "psi_top"


def test_equivalent_failure_labels() -> None:
    p3 = build_chain(3, [(qpoly([0, 1]), Fraction(1))])
    f1 = p3.fields[1]
    base = Type(p3, ypoly(f1, [-1, 1]))

    deeper = fixture_t4()
    assert not equivalent(base, deeper).equivalent
    assert equivalent(base, deeper).failed == "order"

    steep = build_chain(3, [(qpoly([0, 1]), Fraction(2))])
    t_steep = Type(steep, ypoly(steep.fields[1], [-1, 1]))
    assert equivalent(base, t_steep).failed == "slope@1"

    wide = build_chain(3, [(qpoly([1, 0, 1]), Fraction(1))])
    t_wide = Type(wide, ypoly(wide.fields[1], [wide.fields[1].gen(), wide.fields[1].one]))
    assert equivalent(base, t_wide).failed == "degree@1"

    near = build_chain(3, [(qpoly([1, 1]), Fraction(1))])
    t_near = Type(near, ypoly(near.fields[1], [-1, 1]))
    assert equivalent(base, t_near).failed == "key@1"


def test_equivalent_rejects_mixed_primes() -> None:
    a = random_type(random.Random(1), p=3, depth=1)
    b = random_type(random.Random(1), p=5, depth=1)
    with pytest.raises(PreconditionError):
        equivalent(a, b)


def test_shift_pair_types_are_equivalent() -> None:
    from genchains import random_irreducible

    rng = random.Random(181)
    done = 0
    while done < 8:
        chain, star, _, eta = shift_pair(rng)
        r = chain.r
        field = chain.fields[r]
        psi = random_irreducible(rng, field, 2, proper=True)
        ta = Type(chain, psi)
        shifted = psi.compose(Poly(field, [-eta, field.one]))
        tb = Type(star, Poly(star.fields[r], list(shifted.coeffs)))
        w = equivalent(ta, tb)
        assert w.equivalent, w
        for _ in range(5):
            g = random_qpoly(rng, 8)
            assert ord_type(ta, g) == ord_type(tb, g)
        done += 1


def test_unshifted_top_residual_fails_degenerate() -> None:
    for seed in (1, 5, 7, 9):
        ta, tb = unshifted_top_pair(random.Random(seed))
        w = equivalent(ta, tb)
        assert (w.equivalent, w.failed, w.degenerate) == (False, "psi_top", True)
        assert len(w.etas) == optimize(ta).order


def _same_primes(ta: Type, tb: Type) -> bool:
    """Two-sided oracle for equivalence: equal degree, and each type has
    order 1 at the other's representative."""
    return (ta.degree() == tb.degree()
            and ord_type(ta, representative(tb)) == 1
            and ord_type(tb, representative(ta)) == 1)


def test_equivalent_matches_two_sided_ord_oracle() -> None:
    pairs = []
    for seed in range(18):
        p = [2, 3, 5][seed % 3]
        nested = [random_type(random.Random(seed), p=p, depth=d) for d in (1, 2, 3)]
        pairs += [(a, b) for i, a in enumerate(nested) for b in nested[i:]]
        pairs += [(t, random_type(random.Random(seed + 1), p=p, depth=t.order))
                  for t in nested]
    rng = random.Random(197)
    for _ in range(20):
        chain, star, _, eta = shift_pair(rng)
        r = chain.r
        field = chain.fields[r]
        psi = random_irreducible(rng, field, rng.choice([1, 2]), proper=True)
        for shift in (-eta, eta):
            moved = psi.compose(Poly(field, [shift, field.one]))
            try:
                tb = Type(star, Poly(star.fields[r], list(moved.coeffs)))
            except PreconditionError:  # the shift turned psi into y
                continue
            pairs.append((Type(chain, psi), tb))
    verdicts = [bool(equivalent(a, b)) for a, b in pairs]
    assert verdicts == [_same_primes(a, b) for a, b in pairs]
    assert (len(pairs), sum(verdicts)) == (198, 74)


def test_run_certificates_pairwise_inequivalent() -> None:
    rng = random.Random(1)
    pairs = 0
    for _ in range(150):
        p = rng.choice([2, 3, 5, 7])
        d = rng.randint(2, 10)
        coeffs = [rng.randint(-3, 3) * p ** rng.randint(0, 6) for _ in range(d)] + [1]
        try:
            certs = factorize(qpoly(coeffs), p)
        except PreconditionError:
            continue
        for i, a in enumerate(certs):
            for b in certs[i + 1:]:
                assert not equivalent(a.final_type, b.final_type)
                pairs += 1
    assert pairs > 300


def test_refactored_approximation_can_close_on_another_prime() -> None:
    """x^3 - 1 at p = 3: the linear factor's type and the type found by
    factoring its approximation share the representative x - 1, but single
    out different primes, so equivalent rightly fails at order."""
    f = parse_poly("x^3 - 1")
    linear = next(c for c in factorize(f, 3) if c.degree == 1)
    alone = factorize(linear.approximation, 3)[0]
    ta, tb = linear.final_type, alone.final_type
    assert format_type(ta) == "(y - 1; (x + 2, 1, y - 1))"
    assert format_type(tb) == "(y - 1)"
    assert representative(ta) == representative(tb) == parse_poly("x - 1")
    other = parse_poly("x - 7")
    assert (ord_type(ta, other), ord_type(tb, other)) == (0, 1)
    assert equivalent(ta, tb).failed == "order"
    assert _same_primes(ta, tb)
