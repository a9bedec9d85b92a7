"""Inductive valuations: chain bookkeeping, evaluation, keys, collapse."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

import oracles
from genchains import (
    fixture_chain3,
    fixture_chain5,
    fixture_poly,
    random_qpoly,
    random_type,
    shift_pair,
    stationary_pair,
)
from omfactor import (
    INF,
    ConfigError,
    Fq,
    PreconditionError,
    augment,
    build_chain,
    collapse_step,
    empty_chain,
    graded_lift,
    key_check,
    mu_eval,
    parse_poly,
    qpoly,
    representative,
    ri,
    v_norm,
    valuation,
)
from omfactor.valuation import BASE, expansion_points
from reference import is_irreducible, key_divides


def test_empty_chain_requires_prime() -> None:
    with pytest.raises(ConfigError):
        empty_chain(6)
    assert empty_chain(7).r == 0


def test_fixture_chain_bookkeeping() -> None:
    chain = fixture_chain3()
    assert chain.r == 4
    assert [chain.level(i).e for i in range(1, 5)] == [2, 1, 1, 1]
    assert [chain.level(i).h for i in range(1, 5)] == [1, 2, 2, 2]
    assert [chain.level(i).V for i in range(1, 5)] == [0, 2, 4, 6]
    assert [chain.level(i).l for i in range(1, 5)] == [1, 0, 0, 0]
    assert [chain.level(i).lp for i in range(1, 5)] == [0, 1, 1, 1]
    assert [chain.level(i).m for i in range(1, 5)] == [1, 2, 2, 2]
    assert [chain.level(i).f_prev for i in range(1, 5)] == [1, 1, 1, 1]
    assert chain.e_cum == (1, 2, 2, 2, 2)
    assert [chain.key_value(i) for i in range(5)] == [0, 1, 4, 6, 8]


def test_bezout_data() -> None:
    rng = random.Random(73)
    for _ in range(20):
        chain = random_type(rng).chain
        for i in range(1, chain.r + 1):
            lev = chain.level(i)
            assert math.gcd(lev.e, lev.h) == 1
            assert 0 <= lev.l < max(lev.e, 1)
            assert lev.l * lev.h + lev.lp * lev.e == 1


def test_mu_pins_on_fixture() -> None:
    chain = fixture_chain3()
    f = fixture_poly(3)
    assert [mu_eval(chain, i, f) for i in range(5)] == [
        Fraction(0), Fraction(2), Fraction(4), Fraction(6), Fraction(8)]
    assert mu_eval(chain, 4, qpoly([0, 1])) == Fraction(1, 2)
    assert mu_eval(chain, 4, qpoly([-3, 0, 1])) == Fraction(2)
    assert mu_eval(chain, 4, qpoly([15, 0, 1])) == Fraction(4)
    assert v_norm(chain, 4, f) == 16
    assert mu_eval(chain, 2, qpoly([])) == INF


def _direct_points(p: int, steps, phi, g) -> list[tuple[int, Fraction]]:
    """Points (s, mu(a_s phi^s)) from sympy digits and products, each value
    taken straight from the defining recursion."""
    out = []
    phi_s = oracles._to_sympy(list(phi))
    for s, digit in enumerate(oracles.phi_expansion_oracle(list(g), list(phi))):
        if digit:
            term = oracles._from_sympy(oracles._to_sympy(digit) * phi_s**s)
            out.append((s, oracles.mu_direct(p, steps, term)))
    return out


def test_mu_matches_direct_recursion() -> None:
    rng = random.Random(79)
    chain3 = fixture_chain3()
    steps3 = [(list(phi), nu) for phi, nu in chain3.steps()]
    truncs = [build_chain(3, chain3.steps()[:i]) for i in range(4)]
    for _ in range(20):
        g = random_qpoly(rng, 8)
        for i in range(5):
            want = oracles.mu_direct(3, steps3[:i], list(g))
            assert mu_eval(chain3, i, g) == want
        for i, trunc in enumerate(truncs):
            phi = chain3.level(i + 1).phi
            want = _direct_points(3, steps3[:i], phi, g)
            assert expansion_points(trunc, phi, v_norm(trunc, trunc.r, phi), g)[1] == want
    for _ in range(30):
        t = random_type(rng)
        chain = t.chain
        steps = [(list(phi), nu) for phi, nu in chain.steps()]
        rep = representative(t)
        for _ in range(3):
            g = random_qpoly(rng, 9)
            want = oracles.mu_direct(chain.p, steps, list(g))
            assert mu_eval(chain, chain.r, g) == want
            want_pts = _direct_points(chain.p, steps, rep, g)
            assert expansion_points(chain, rep, v_norm(chain, chain.r, rep), g)[1] == want_pts


def test_v_norm_is_integral() -> None:
    rng = random.Random(83)
    for _ in range(25):
        chain = random_type(rng).chain
        for _ in range(4):
            g = random_qpoly(rng, 8)
            v = v_norm(chain, chain.r, g)
            assert isinstance(v, int)
            assert v == mu_eval(chain, chain.r, g) * chain.e_cum[chain.r]


def test_value_group_generated_by_monomials() -> None:
    rng = random.Random(89)
    for chain in [fixture_chain3(), fixture_chain5(), random_type(rng).chain]:
        for i in range(chain.r + 1):
            vals = set()
            for a in range(5):
                for b in range(5):
                    v = v_norm(chain, i, qpoly([0] * a + [chain.p**b]))
                    vals.add(int(v))
            assert math.gcd(*vals) == 1
        prod = 1
        for i in range(1, chain.r + 1):
            prod *= chain.level(i).e
            assert chain.e_cum[i] == prod


def test_monotonicity_and_equality_criterion() -> None:
    rng = random.Random(97)
    checked = 0
    while checked < 200:
        t = random_type(rng)
        chain = t.chain
        steps = chain.steps()
        for _ in range(4):
            g = random_qpoly(rng, 9)
            for i in range(1, chain.r + 1):
                lo = mu_eval(chain, i - 1, g)
                hi = mu_eval(chain, i, g)
                assert lo <= hi
                trunc = build_chain(chain.p, steps[: i - 1])
                divides = key_divides(trunc, chain.level(i).phi, g)
                assert (hi > lo) == divides
                checked += 1


def test_value_attainment_small_degrees() -> None:
    bound = Fraction(5)
    for chain in [fixture_chain3(), fixture_chain5()]:
        for i in range(chain.r + 1):
            e_cum = chain.e_cum[i]
            cap = e_cum * chain.at(i).m if i else 1
            attained = set()
            for b in range(6):
                for j in range(cap):
                    val = mu_eval(chain, i, qpoly([0] * j + [chain.p**b]))
                    if val <= bound:
                        attained.add(val)
            want = {Fraction(k, e_cum) for k in range(5 * e_cum + 1)}
            assert want <= attained


def test_collapse_soundness() -> None:
    rng = random.Random(101)
    for _ in range(10):
        raw, collapsed = stationary_pair(rng)
        assert collapsed.r == raw.r - 1
        for _ in range(20):
            g = random_qpoly(rng, 9)
            assert mu_eval(raw, raw.r, g) == mu_eval(collapsed, collapsed.r, g)
        rebuilt = collapse_step(raw, {raw.r - 1})
        assert rebuilt.steps() == collapsed.steps()


def test_last_key_shift_evaluates_identically() -> None:
    rng = random.Random(103)
    for _ in range(10):
        chain, star, a, _ = shift_pair(rng)
        r = chain.r
        assert star.level(r).phi == chain.level(r).phi + a
        for _ in range(20):
            g = random_qpoly(rng, 9)
            assert mu_eval(chain, r, g) == mu_eval(star, r, g)


def test_strictly_larger_shift_also_equivalent() -> None:
    rng = random.Random(107)
    for _ in range(6):
        chain, _, _, _ = shift_pair(rng)
        r = chain.r
        beta = chain.fields[r].one
        a = graded_lift(chain, r, chain.key_value(r) + chain.e_cum[r], beta)
        star = build_chain(
            chain.p, chain.steps()[:-1] + [(chain.level(r).phi + a, chain.level(r).nu)]
        )
        for _ in range(10):
            g = random_qpoly(rng, 8)
            assert mu_eval(chain, r, g) == mu_eval(star, r, g)


def test_expansion_points_pins() -> None:
    f3 = fixture_poly(3)
    empty = empty_chain(3)
    x = qpoly([0, 1])
    assert expansion_points(empty, x, v_norm(empty, 0, x), f3)[1] == [
        (0, Fraction(2)), (2, Fraction(1)), (4, Fraction(0))]
    trunc1 = build_chain(3, fixture_chain3().steps()[:1])
    phi = qpoly([-3, 0, 1])
    assert expansion_points(trunc1, phi, v_norm(trunc1, 1, phi), f3)[1] == [
        (0, Fraction(4)), (1, Fraction(3)), (2, Fraction(2))]


KEY_CHECK_PINS = [
    (0, "x", True, "key for the base valuation"),
    (0, "x - 13", True, "key for the base valuation"),
    (0, "x^2 - 3", False, "reduction modulo p is not irreducible"),
    (0, "x^2 - 1", False, "reduction modulo p is not irreducible"),
    (1, "x - 12", True, "key equivalent to the current key (improper step)"),
    (1, "x - 13", False, "residual polynomial is constant"),
    (1, "x^3 + 3*x", False, "degree differs from e * m * deg(residual)"),
    (1, "x^4 - 9", False, "residual polynomial is reducible"),
    (1, "x^2 + 3", True, "key with irreducible residual polynomial"),
    (2, "x^2 - 9*x - 3", True, "key equivalent to the current key (improper step)"),
    (2, "x - 13", False, "residual polynomial is constant"),
    (2, "x^3 + 3*x^2 - 21*x - 9", False, "degree differs from e * m * deg(residual)"),
    (2, "(x^2 - 3)^2 - 81", False, "residual polynomial is reducible"),
    (2, "x^2 - 9*x - 12", True, "key with irreducible residual polynomial"),
    (2, "x^2 - 12", True, "key with irreducible residual polynomial"),
    (2, "x^2 + 24", True, "key equivalent to the current key (improper step)"),
]


def test_key_check_classification() -> None:
    """Every verdict and diagnostic of key_check, over the p = 3 fixture
    chain truncated to levels 0, 1 and 2."""
    steps = fixture_chain3().steps()
    for level, text, verdict, why in KEY_CHECK_PINS:
        chain = build_chain(3, steps[:level])
        assert key_check(chain, parse_poly(text))[:2] == (verdict, why), (level, text)


def _key_check_by_definition(chain, phi) -> tuple[bool, str]:
    """key_check spelled out level by level: at level 0 the reduction mod p
    decides; above it, a key of the current key degree whose difference from
    the current key has larger value is improper, and otherwise the residual
    polynomial of phi decides."""
    r = chain.r
    if r == 0:
        red = ri(chain, 0, phi)
        if not is_irreducible(red.poly):
            return False, "reduction modulo p is not irreducible"
        return True, "key for the base valuation"
    lev = chain.level(r)
    if phi.degree == lev.m and v_norm(chain, r, phi - lev.phi) > chain.key_value(r):
        return True, "key equivalent to the current key (improper step)"
    res = ri(chain, r, phi)
    if res.poly.degree == 0:
        return False, "residual polynomial is constant"
    if phi.degree != lev.e * lev.m * res.poly.degree:
        return False, "degree differs from e * m * deg(residual)"
    if not is_irreducible(res.poly):
        return False, "residual polynomial is reducible"
    return True, "key with irreducible residual polynomial"


def _noisy(rng: random.Random, key, p: int):
    """key plus p-adic noise on every coefficient below the leading one."""
    return key + qpoly([rng.randrange(-p, p + 1) * p ** rng.randrange(0, 4)
                        for _ in range(key.degree)])


def test_key_check_matches_definition() -> None:
    """Seeded keys over every truncation of fixture and random chains: top
    keys perturbed by p-adic noise, products of two such keys, and linear
    keys."""
    rng = random.Random(307)
    chains = [fixture_chain3(), fixture_chain5()] + [random_type(rng).chain for _ in range(6)]
    seen = set()
    for chain in chains:
        p = chain.p
        for i in range(chain.r + 1):
            trunc = build_chain(p, chain.steps()[:i])
            top = trunc.level(i).phi if i else qpoly([rng.randrange(p), 1])
            for _ in range(8):
                kind = rng.randrange(4)
                phi = _noisy(rng, qpoly([0, 1]) if kind == 0 else top, p)
                if kind == 1:
                    phi = phi * _noisy(rng, top, p)
                got = key_check(trunc, phi)[:2]
                assert got == _key_check_by_definition(trunc, phi)
                seen.add(got)
    assert len(seen) == 7


def test_representative_value_from_the_level_recurrence() -> None:
    """v_r(phi) = d e_r (e_r V_r + h_r) for the representative phi of a type
    whose top residual polynomial has degree d, at orders 0 to 3."""
    rng = random.Random(401)
    for depth in (0, 1, 2, 3) * 4:
        t = random_type(rng, depth=depth)
        chain, r = t.chain, t.chain.r
        want = t.psi_top.degree * chain.at(r).e * chain.key_value(r)
        assert v_norm(chain, r, representative(t)) == want


def test_key_check_rejects_bad_shapes() -> None:
    empty = empty_chain(3)
    with pytest.raises(PreconditionError):
        key_check(empty, qpoly([1, 3]))
    with pytest.raises(PreconditionError):
        key_check(empty, qpoly([Fraction(1, 2), 1]))
    with pytest.raises(PreconditionError):
        key_check(empty, qpoly([5]))


def test_augment_rejects_non_keys() -> None:
    empty = empty_chain(3)
    with pytest.raises(PreconditionError):
        augment(empty, qpoly([-1, 0, 1]), Fraction(1, 2))
    with pytest.raises(PreconditionError):
        augment(empty, qpoly([-3, 0, 1]), Fraction(1))
    with pytest.raises(PreconditionError):
        augment(empty, qpoly([0, 1]), Fraction(0))
    trunc2 = build_chain(3, fixture_chain3().steps()[:2])
    for phi in (qpoly([24, 0, 1]), trunc2.level(2).phi):
        with pytest.raises(PreconditionError, match="improper step"):
            augment(trunc2, phi, Fraction(1))


def test_augment_builds_each_level_with_one_extend(monkeypatch) -> None:
    """The key check decides the residual irreducible through Fq.extend and
    augment keeps that field: one extend per level, and no fq_factor call
    once the level's field is interned."""
    from omfactor import finitefield

    chain = fixture_chain3()  # interns every field of the chain
    factored, extended = [], []
    real_factor, real_extend = finitefield.fq_factor, Fq.extend

    def counting_factor(g):
        factored.append(g)
        return real_factor(g)

    def counting_extend(field, psi):
        extended.append(psi)
        return real_extend(field, psi)

    monkeypatch.setattr(finitefield, "fq_factor", counting_factor)
    monkeypatch.setattr(Fq, "extend", counting_extend)
    monkeypatch.setattr(valuation, "_chain_cache", {})
    for r in range(chain.r):
        lev = chain.levels[r]
        trunc = build_chain(3, chain.steps()[:r])
        extended.clear()
        top = augment(trunc, lev.phi, lev.nu)
        assert extended == [lev.psi_prev]
        assert top.fields[-1] is chain.fields[r + 1]
    assert factored == []


def test_improper_verdict_matches_graded_division() -> None:
    """Over each level of the chains, perturb the top key by p-adic noise:
    whenever key_check accepts the result, it calls it improper exactly when
    it divides the top key in the graded algebra, and augment rejects
    exactly those keys."""
    rng = random.Random(211)
    chains = [fixture_chain3(), fixture_chain5()] + [random_type(rng).chain for _ in range(12)]
    verdicts = {True: 0, False: 0}
    for chain in chains:
        p = chain.p
        for i in range(1, chain.r + 1):
            trunc = build_chain(p, chain.steps()[:i])
            top = trunc.level(i).phi
            for _ in range(6):
                noise = [rng.randrange(-p, p + 1) * p ** rng.randrange(0, 6)
                         for _ in range(top.degree)]
                phi = top + qpoly(noise)
                ok, why, *_ = key_check(trunc, phi)
                if not ok:
                    continue
                improper = key_divides(trunc, phi, top)
                assert improper == ("improper" in why)
                verdicts[improper] += 1
                if improper:
                    with pytest.raises(PreconditionError, match="improper step"):
                        augment(trunc, phi, Fraction(1))
                else:
                    assert augment(trunc, phi, Fraction(1)).r == i + 1
    assert verdicts[True] > 0 and verdicts[False] > 0


def test_build_chain_round_trips_steps() -> None:
    chain = fixture_chain3()
    again = build_chain(3, chain.steps())
    assert again.steps() == chain.steps()
    assert again.e_cum == chain.e_cum
    assert [again.level(i) for i in range(1, 5)] == [chain.level(i) for i in range(1, 5)]


def _count_augments(monkeypatch) -> list:
    """Start from an empty chain memo and record every augment call."""
    calls = []
    real = valuation.augment

    def counting(chain, phi, nu):
        calls.append((chain.r, phi, nu))
        return real(chain, phi, nu)

    monkeypatch.setattr(valuation, "_chain_cache", {})
    monkeypatch.setattr(valuation, "augment", counting)
    return calls


def test_build_chain_memo_returns_the_validated_chain(monkeypatch) -> None:
    steps = fixture_chain3().steps()
    calls = _count_augments(monkeypatch)
    first = build_chain(3, steps)
    assert len(calls) == len(steps)
    calls.clear()
    assert build_chain(3, steps) is first
    assert calls == []
    # Every prefix was stored on the way up.
    assert all(build_chain(3, steps[:k]).levels == first.levels[:k] for k in range(len(steps)))
    assert calls == []


def test_build_chain_memo_augments_only_past_the_cached_prefix(monkeypatch) -> None:
    steps = fixture_chain3().steps()
    calls = _count_augments(monkeypatch)
    for r in range(1, len(steps) + 1):
        short = build_chain(3, steps[:r - 1])
        calls.clear()
        chain = build_chain(3, steps[:r])
        assert [(k, phi) for k, phi, _ in calls] == [(r - 1, steps[r - 1][0])]
        assert chain.levels[:r - 1] == short.levels


def test_build_chain_memo_evicts_the_oldest_first(monkeypatch) -> None:
    steps = fixture_chain3().steps()
    calls = _count_augments(monkeypatch)
    monkeypatch.setattr(valuation, "_CHAIN_CACHE_MAX", 2)
    build_chain(3, steps[:3])
    assert list(valuation._chain_cache) == [(3, tuple(steps[:k])) for k in (2, 3)]
    build_chain(3, steps)
    assert len(calls) == 4
    assert list(valuation._chain_cache) == [(3, tuple(steps[:k])) for k in (3, 4)]
    calls.clear()
    build_chain(3, steps[:2])  # evicted: both levels are validated again
    assert len(calls) == 2


def test_build_chain_memo_stores_no_failed_level(monkeypatch) -> None:
    steps = fixture_chain3().steps()
    calls = _count_augments(monkeypatch)
    bad = steps[:2] + [(qpoly([24, 0, 1]), Fraction(1))] + steps[3:]
    for levels in ([0, 1, 2], [2]):
        calls.clear()
        with pytest.raises(PreconditionError, match="improper step"):
            build_chain(3, bad)
        assert [k for k, _, _ in calls] == levels
    assert list(valuation._chain_cache) == [(3, tuple(steps[:k])) for k in (1, 2)]
    with pytest.raises(PreconditionError, match="slope must be positive"):
        build_chain(3, steps[:1] + [(steps[1][0], Fraction(0))])
    assert len(valuation._chain_cache) == 2


def test_build_chain_memo_normalizes_the_slope(monkeypatch) -> None:
    calls = _count_augments(monkeypatch)
    phi = qpoly([3, 1])
    as_int = build_chain(3, [(phi, 2)])
    assert build_chain(3, [(phi, Fraction(2))]) is as_int
    [(_, ((_, nu),))] = valuation._chain_cache
    assert len(calls) == 1 and type(nu) is Fraction


def test_index_range_errors() -> None:
    chain = fixture_chain3()
    with pytest.raises(PreconditionError):
        chain.level(0)
    with pytest.raises(PreconditionError):
        chain.level(5)
    with pytest.raises(PreconditionError):
        mu_eval(chain, 5, qpoly([1]))
    with pytest.raises(PreconditionError):
        collapse_step(chain, {0})
    for k in (-1, 5):
        with pytest.raises(PreconditionError):
            chain.prefix(k)


def test_level_zero_is_the_gauss_valuation() -> None:
    """at(0) is BASE, the level of the key x with slope 0; at(i) is level(i)
    above it, and graded_lift at level 0 is the constant beta p^W."""
    chain = fixture_chain3()
    assert chain.at(0) is BASE and BASE.psi_prev is None and BASE.phi == qpoly([0, 1])
    assert (BASE.e, BASE.h, BASE.V, BASE.m, BASE.l, BASE.lp) == (1, 0, 0, 1, 0, 1)
    assert all(chain.at(i) is chain.level(i) for i in range(1, chain.r + 1))
    for i in (-1, chain.r + 1):
        with pytest.raises(PreconditionError):
            chain.at(i)
    beta = chain.fields[0].coerce(2)
    assert graded_lift(chain, 0, 3, beta) == qpoly([beta.lift_int() * 27])


def test_collapse_step_keeps_the_prefix() -> None:
    chain = fixture_chain3()
    for i in (3, 4):
        col = collapse_step(chain, {i - 1})
        assert col.r == chain.r - 1
        assert all(a is b for a, b in zip(col.levels[: i - 2], chain.levels[: i - 2], strict=True))
        assert all(a is b for a, b in zip(col.fields[: i - 1], chain.fields[: i - 1], strict=True))
    for k in range(chain.r + 1):
        pre = chain.prefix(k)
        assert (pre.levels, pre.fields, pre.e_cum) == (
            chain.levels[:k], chain.fields[: k + 1], chain.e_cum[: k + 1])


def test_collapse_requires_equal_degrees() -> None:
    chain = fixture_chain3()
    with pytest.raises(PreconditionError):
        collapse_step(chain, {1})
    collapsed = collapse_step(chain, {2})
    assert collapsed.r == 3
