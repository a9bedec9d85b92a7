"""Finite fields as explicit towers: arithmetic, factorization, maps."""

from __future__ import annotations

import random

import pytest

import oracles
from omfactor import Fq, fq_factor
from omfactor.errors import InternalError, PreconditionError
from omfactor.finitefield import (
    FqElt, Poly, _pdivmod, _pgcd, _split_equal_degree, balanced_int, factor_sort_key,
    multiplicity_of,
)
from genchains import random_fq_elt, random_irreducible, random_type, ypoly
from reference import (
    elements, elt_poly, flatten_field, format_fq_elt_by_poly, fq_factor_by_poly,
    gcd_by_monic_steps, is_irreducible, lift_from, map_poly, multiplicity_by_divmod, tower_map,
    tower_moduli,
)
from omfactor.serialize import format_fq_elt, fq_elt_from_json, fq_elt_to_json


def small_tower(p: int = 3) -> Fq:
    """F_p -> quadratic extension, used across these tests."""
    base = Fq.prime(p)
    mods = {2: [1, 1, 1], 3: [1, 0, 1], 5: [2, 0, 1]}
    return base.extend(ypoly(base, mods[p]))


def test_balanced_int() -> None:
    assert [balanced_int(k, 5) for k in range(5)] == [0, 1, 2, -2, -1]
    assert [balanced_int(k, 2) for k in range(2)] == [0, 1]


def _check_powers(field: Fq, elems: list) -> None:
    """a ** n is the repeated product, of inverses when n < 0."""
    for a in elems:
        for n in range(-3, 7):
            if n < 0 and not a:
                continue
            base = a if n >= 0 else a.inverse()
            want = field.one
            for _ in range(abs(n)):
                want = want * base
            assert a ** n == want
    assert field.zero ** 0 == field.one
    with pytest.raises(PreconditionError):
        field.zero ** -1


def test_prime_field_laws() -> None:
    for p in [2, 3, 5, 7]:
        field = Fq.prime(p)
        elems = list(elements(field))
        assert len(elems) == p
        assert len({e.flat_key() for e in elems}) == p
        for a in elems:
            assert a + (-a) == field.zero
            if a:
                assert a * a.inverse() == field.one
                assert a / a == field.one
        for a in elems:
            for b in elems:
                assert a + b == b + a
                assert a * b == b * a
        _check_powers(field, elems)


def test_extension_field_laws() -> None:
    for p in [2, 3, 5]:
        field = small_tower(p)
        assert field.q == p * p
        elems = list(elements(field))
        assert len(elems) == p * p
        assert len({e.flat_key() for e in elems}) == p * p
        for a in elems:
            assert a + (-a) == field.zero
            if a:
                assert a * a.inverse() == field.one
        _check_powers(field, elems)
        z = field.gen()
        lifted = Poly(field, [lift_from(field, c) for c in field.modulus.coeffs])
        assert lifted.evaluate(z) == field.zero
    # Built without extend, over the reducible y^2 - 1: y - 1 is a zero divisor.
    f3 = Fq.prime(3)
    ring = Fq(3, f3, ypoly(f3, [-1, 0, 1]))
    with pytest.raises(InternalError, match="modulus not irreducible in inverse computation"):
        (ring.gen() - ring.one).inverse()


def test_two_story_tower() -> None:
    f9 = small_tower(3)
    rng = random.Random(5)
    while True:
        coeffs = [f9.from_index(rng.randrange(9)) for _ in range(2)] + [f9.one]
        psi = Poly(f9, coeffs)
        if is_irreducible(psi):
            break
    f81 = f9.extend(psi)
    assert f81.q == 81
    z = f81.gen()
    mapped = Poly(f81, [lift_from(f81, c) for c in psi.coeffs])
    assert mapped.evaluate(z) == f81.zero
    a = f81.from_index(17)
    b = f81.from_index(53)
    assert (a + b) * (a - b) == a * a - b * b
    f3, f5 = f9.base, Fq.prime(5)
    with pytest.raises(PreconditionError, match="not a polynomial over this field"):
        f3.extend(ypoly(f5, [1, 0, 1]))
    for psi in [ypoly(f3, [1, 0, 2]), ypoly(f3, [1])]:
        with pytest.raises(PreconditionError, match="monic of degree >= 1"):
            f3.extend(psi)
    with pytest.raises(PreconditionError, match="only allowed on the first level"):
        f9.extend(ypoly(f9, [0, 1]))
    with pytest.raises(PreconditionError) as err:
        f3.extend(ypoly(f3, [-1, 0, 1]))
    assert str(err.value) == "modulus is reducible: ((-1,), (1,)) * ((1,), (1,))"


def test_embed_lift_roundtrip() -> None:
    field = small_tower(3)
    base = field.base
    for k in range(3):
        a = base.from_index(k)
        assert lift_from(field, a).coords() == [a] + [base.zero] * (field.deg_over_base - 1)
    for k in range(9):
        a = field.from_index(k)
        assert lift_from(field, a) == a


def test_from_index_bijection() -> None:
    field = small_tower(5)
    seen = {field.from_index(k).flat_key() for k in range(field.q)}
    assert len(seen) == field.q
    with pytest.raises(PreconditionError):
        field.from_index(field.q)


def test_prime_field_cache_checked_before_primality(monkeypatch) -> None:
    from omfactor import finitefield
    from omfactor.errors import ConfigError

    asked = []
    real = finitefield.is_prime

    def counting(n):
        asked.append(n)
        return real(n)

    monkeypatch.setattr(finitefield, "is_prime", counting)
    monkeypatch.setattr(Fq, "_prime_cache", {})
    f7 = Fq.prime(7)
    assert asked == [7]
    assert Fq.prime(7) is f7 and Fq.prime(2147483647) is Fq.prime(2147483647)
    assert asked == [7, 2147483647]
    for _ in range(2):
        with pytest.raises(ConfigError, match="4 is not prime"):
            Fq.prime(4)
    assert asked == [7, 2147483647, 4, 4]
    assert sorted(Fq._prime_cache) == [7, 2147483647]


def test_factor_cache_bounded(monkeypatch) -> None:
    from omfactor import finitefield

    f31 = Fq.prime(31)
    polys = [ypoly(f31, [a, 1]) for a in range(20)]
    monkeypatch.setattr(finitefield, "_factor_cache", {})
    expected = [fq_factor(g) for g in polys]
    assert len(finitefield._factor_cache) == 20
    monkeypatch.setattr(finitefield, "_factor_cache", {})
    monkeypatch.setattr(finitefield, "_FACTOR_CACHE_MAX", 8)
    for _ in range(2):
        assert [fq_factor(g) for g in polys] == expected
        assert len(finitefield._factor_cache) <= 8
    # The oldest entries are evicted first.
    assert list(finitefield._factor_cache) == [(f31, tuple(c.rep for c in g.coeffs))
                                               for g in polys[-8:]]


def test_coerce_rejects_other_field() -> None:
    f9 = small_tower(3)
    f4 = small_tower(2)
    with pytest.raises((PreconditionError, InternalError)):
        f9.coerce(f4.one)


def _independent_irreducible(g: Poly) -> bool:
    """Irreducibility via root search (deg <= 3) or Frobenius powers."""
    field = g.ring
    if g.degree == 1:
        return True
    if g.degree <= 3:
        return all(g.evaluate(a) != field.zero for a in elements(field))
    x = Poly(field, [field.zero, field.one])
    for k in range(1, g.degree // 2 + 1):
        diff = _pow_mod(x, field.q**k, g) - x % g
        if _euclid_gcd(diff, g).degree != 0:
            return False
    return _pow_mod(x, field.q ** g.degree, g) == x % g


def _euclid_gcd(a: Poly, b: Poly) -> Poly:
    while not b.is_zero():
        a, b = b, a % b
    return a


def _pow_mod(base: Poly, e: int, mod: Poly) -> Poly:
    out = Poly(mod.ring, [mod.ring.one])
    acc = base % mod
    while e:
        if e & 1:
            out = out * acc % mod
        acc = acc * acc % mod
        e >>= 1
    return out


def test_fq_factor_prime_field_against_oracle() -> None:
    rng = random.Random(13)
    for _ in range(40):
        p = rng.choice([2, 3, 5])
        field = Fq.prime(p)
        deg = rng.randrange(1, 7)
        coeffs = [field.from_index(rng.randrange(p)) for _ in range(deg)]
        coeffs.append(field.one)
        g = Poly(field, coeffs)
        got = [
            (tuple(c.lift_int() for c in f.coeffs), m) for f, m in fq_factor(g)
        ]
        want = oracles.modp_factor_coeffs([c.lift_int() for c in g.coeffs], p)
        assert sorted(got) == want


def test_fq_factor_remultiplies_and_is_irreducible() -> None:
    rng = random.Random(17)
    for _ in range(25):
        p = rng.choice([2, 3])
        field = small_tower(p) if rng.random() < 0.5 else Fq.prime(p)
        deg = rng.randrange(1, 6)
        coeffs = [field.from_index(rng.randrange(field.q)) for _ in range(deg)]
        coeffs.append(field.one)
        g = Poly(field, coeffs)
        factors = fq_factor(g)
        prod = Poly(field, [field.one])
        for f, m in factors:
            assert f.is_monic()
            assert _independent_irreducible(f)
            prod = prod * f ** m
        assert prod == g


def _factor_inputs(rng: random.Random, field: Fq, n: int) -> list[Poly]:
    """Random polynomials over field: plain ones, ones with a repeated
    factor, with a p-th-power part, and p-th powers (zero derivative);
    every fifth gets a random nonzero leading coefficient."""
    p = field.p

    def monic(deg: int) -> Poly:
        low = [field.from_index(rng.randrange(field.q)) for _ in range(deg)]
        return Poly(field, low + [field.one])

    out = []
    for k in range(n):
        kind = k % 4 if p <= 31 else k % 2
        g = monic(rng.randrange(1, 7))
        if kind == 1:
            g = g * monic(rng.randrange(1, 3)) ** rng.randrange(2, 4)
        elif kind == 2:
            g = g * monic(rng.randrange(1, 3) if p <= 5 else 1) ** p
        elif kind == 3:
            g = monic(1) ** p * (monic(2) ** (2 * p) if p <= 5 else Poly(field, [field.one]))
        if k % 5 == 0:
            g = g.scale(field.from_index(rng.randrange(1, field.q)))
        out.append(g)
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 31, 2147483647])
def test_fq_factor_prime_field_matches_poly_reference_and_sympy(monkeypatch, p: int) -> None:
    from omfactor import finitefield

    monkeypatch.setattr(finitefield, "_factor_cache", {})  # no answer from earlier tests
    rng = random.Random(p)
    for g in _factor_inputs(rng, Fq.prime(p), 16):
        got = fq_factor(g)
        assert got == fq_factor_by_poly(g)
        lifted = [c.lift_int() for c in g.coeffs]
        assert sorted((h.degree, m) for h, m in got) == oracles.modp_factors(lifted, p)


def test_fq_factor_tower_fields_match_poly_reference(monkeypatch) -> None:
    from omfactor import finitefield

    rng = random.Random(23)
    fields: dict[Fq, None] = {}
    while len(fields) < 12:
        t = random_type(rng, rng.choice([2, 2, 3, 5]))
        for field in (*t.chain.fields, t.chain.fields[-1].extend(t.psi_top)):
            if field.deg_abs >= 2 and field.q <= 81:
                fields[field] = None
    shapes = [[m.degree for m in tower_moduli(f)] for f in fields]
    assert {f.p for f in fields} == {2, 3, 5}
    assert any(s[-1] == 1 for s in shapes) and any(1 in s[:-1] for s in shapes)
    monkeypatch.setattr(finitefield, "_factor_cache", {})
    for field in fields:
        for g in _factor_inputs(rng, field, 8):
            assert fq_factor(g) == fq_factor_by_poly(g)


def test_fq_factor_nonmonic_unit() -> None:
    field = Fq.prime(5)
    two = field.from_index(2)
    g = Poly(field, [two, field.zero, two])
    prod = Poly(field, [field.one])
    for f, m in fq_factor(g):
        prod = prod * f ** m
    assert prod == g.monic()


def test_is_irreducible_pins() -> None:
    """Fq.extend is the package's irreducibility test: it accepts an
    irreducible modulus and rejects a reducible one."""
    f3 = Fq.prime(3)
    assert f3.extend(ypoly(f3, [1, 0, 1])).q == 9
    assert f3.extend(ypoly(f3, [0, 1])).q == 3
    f9 = small_tower(3)
    lifted = Poly(f9, [lift_from(f9, c) for c in ypoly(f3, [1, 0, 1]).coeffs])
    for psi in (ypoly(f3, [-1, 0, 1]), lifted):
        with pytest.raises(PreconditionError, match="modulus is reducible"):
            psi.ring.extend(psi)


def test_linear_squarefree_part_makes_no_frobenius_power(monkeypatch) -> None:
    """A linear squarefree part is irreducible as it stands: the distinct-
    degree loop never runs, and no x^q mod w is computed for it."""
    from omfactor import finitefield

    powers = []
    real = finitefield._ppowmod

    def counting(F, a, n, m):
        powers.append(n)
        return real(F, a, n, m)

    monkeypatch.setattr(finitefield, "_factor_cache", {})
    monkeypatch.setattr(finitefield, "_ppowmod", counting)
    f7 = Fq.prime(7)
    g = ypoly(f7, [1, 1])
    assert fq_factor(g) == [(g, 1)]
    assert powers == []


def test_multiplicity_of() -> None:
    f3 = Fq.prime(3)
    lin = ypoly(f3, [-1, 1])
    other = ypoly(f3, [1, 1])
    g = lin ** 2 * other
    assert multiplicity_of(lin, g) == 2
    assert multiplicity_of(other, g) == 1
    assert multiplicity_of(ypoly(f3, [0, 1]), g) == 0


def test_multiplicity_of_matches_repeated_division() -> None:
    """Over F_5 and over a two-level tower F_3 -> F_9 -> F_81, with
    multiplicities 0 to 3 and factors that are not always monic."""
    rng = random.Random(331)
    f9 = small_tower(3)
    f81 = f9.extend(random_irreducible(rng, f9, 2, proper=True))
    for field in (Fq.prime(5), f81):
        for mult in range(4):
            for _ in range(3):
                factor = random_irreducible(rng, field, rng.choice([1, 2]), proper=False)
                while True:
                    cofactor = Poly(field, [random_fq_elt(rng, field)
                                            for _ in range(rng.randrange(0, 4))]
                                    + [random_fq_elt(rng, field, nonzero=True)])
                    if multiplicity_by_divmod(factor, cofactor) == 0:
                        break
                g = factor ** mult * cofactor
                unit = random_fq_elt(rng, field, nonzero=True)
                assert multiplicity_of(factor, g) == multiplicity_by_divmod(factor, g) == mult
                assert multiplicity_of(factor.scale(unit), g) == mult
    with pytest.raises(PreconditionError):
        multiplicity_of(ypoly(Fq.prime(3), [1, 1]), ypoly(Fq.prime(5), [1, 1]))


def test_from_poly_is_evaluation_at_the_generator() -> None:
    """Below the modulus degree from_poly skips the reduction; at or above
    it reduces. Either way the class is g evaluated at the generator."""
    rng = random.Random(337)
    f9 = small_tower(3)
    f81 = f9.extend(random_irreducible(rng, f9, 2, proper=True))
    for field in (f9, f81):
        for deg in range(6):
            g = Poly(field.base, [random_fq_elt(rng, field.base) for _ in range(deg)]
                     + [random_fq_elt(rng, field.base, nonzero=True)])
            want = field.zero
            for c in reversed(g.coeffs):
                want = want * field.gen() + lift_from(field, c)
            assert field.from_poly(g) == want


def test_from_poly_rejects_what_is_not_over_the_base() -> None:
    """Coefficients from another field, including a field below the base,
    and a prime field (which has no base) raise instead of building an
    unreduced or nested vector."""
    f3, f5 = Fq.prime(3), Fq.prime(5)
    f9 = small_tower(3)
    f25 = small_tower(5)
    for field, g in [(f9, Poly(f5, [4, 4])), (f25, Poly(f9, [f9.gen()])),
                     (f25, [f5.one, f25.one]), (f25, [f5.one, 1]), (f3, Poly(f3, [1]))]:
        with pytest.raises(PreconditionError, match="elements of the immediate base field"):
            field.from_poly(g)
    assert f9.from_poly([f3.one, f3.one]) == f9.from_poly(Poly(f3, [1, 1])) == f9.gen() + f9.one


def test_split_equal_degree_is_bounded() -> None:
    """An input with no factor of the claimed degree exhausts the candidates
    of degree < 2d and raises, instead of looping."""
    with pytest.raises(InternalError):
        _split_equal_degree(Fq.prime(3), [1, 0, 1], 1)


def _distinct_irreducibles(field: Fq, deg: int) -> list[Poly]:
    """Every monic irreducible of the given degree over a small field."""
    out = []
    for k in range(field.q ** deg):
        low = [field.from_index(k // field.q ** i % field.q) for i in range(deg)]
        g = Poly(field, low + [field.one])
        if is_irreducible(g):
            out.append(g)
    return out


@pytest.mark.parametrize("p, ext, deg, count", [
    (11, None, 1, 10), (13, None, 1, 13), (31, None, 1, 12),
    (3, None, 2, 3), (3, [1, 0, 1], 2, 6), (2, None, 4, 3), (2, [1, 1, 1], 2, 6),
])
def test_equal_degree_split_tries_each_candidate_once(monkeypatch, p, ext, deg, count) -> None:
    """One candidate sweep serves every part of an equal-degree split, each
    part from the candidate after the one that split it off, so one
    fq_factor call tries no candidate index twice. Seeded
    products of distinct irreducibles of one degree, over prime fields,
    F_9 and F_4 (the characteristic-2 trace path, as over F_2), factor as
    they were built, as the Poly reference does and, over a prime field,
    as sympy does. F_2 has one irreducible quadratic, so it gets quartics."""
    from omfactor import finitefield

    base = Fq.prime(p)
    field = base if ext is None else base.extend(ypoly(base, ext))
    pool = _distinct_irreducibles(field, deg)
    rng = random.Random(1000 * p + 10 * deg + field.deg_abs)
    real, tried = finitefield._candidate, []

    def recording(F, k, degree_bound):
        tried.append(k)
        return real(F, k, degree_bound)

    monkeypatch.setattr(finitefield, "_candidate", recording)
    for _ in range(4):
        factors = sorted(rng.sample(pool, min(count, len(pool))), key=factor_sort_key)
        g = Poly(field, [field.one])
        for h in factors:
            g = g * h
        monkeypatch.setattr(finitefield, "_factor_cache", {})
        tried.clear()
        got = fq_factor(g)
        assert tried and len(tried) == len(set(tried)), tried
        assert got == [(h, 1) for h in factors] == fq_factor_by_poly(g)
        if ext is None:
            want = oracles.modp_factor_coeffs([c.lift_int() for c in g.coeffs], p)
            assert sorted((tuple(c.lift_int() for c in h.coeffs), m) for h, m in got) == want


def _kernel_fields() -> list[Fq]:
    """F_7, F_(2^31 - 1), F_9, F_4, and a degree-one level over F_9."""
    f9 = small_tower(3)
    return [Fq.prime(7), Fq.prime(2147483647), f9, small_tower(2),
            f9.extend(ypoly(f9, [f9.gen(), f9.one]))]


def _vectors(rng: random.Random, field: Fq, deg: int, lead=None) -> list:
    """Coefficient vectors of a random polynomial of exact degree deg."""
    lead = random_fq_elt(rng, field, nonzero=True) if lead is None else lead
    return [random_fq_elt(rng, field).rep for _ in range(deg)] + [lead.rep]


def _as_poly(field: Fq, vectors: list) -> Poly:
    return Poly(field, [FqElt(field, c) for c in vectors])


def test_pdivmod_by_a_non_monic_divisor() -> None:
    """Division by a divisor whose leading coefficient is not 1 gives
    quo * b + rem = a with deg rem < deg b, over prime and tower fields."""
    rng = random.Random(71)
    for field in _kernel_fields():
        for _ in range(25):
            lead = field.from_index(rng.randrange(2, field.q) if field.q > 2 else 1)
            b = _vectors(rng, field, rng.randrange(0, 5), lead)
            a = _vectors(rng, field, rng.randrange(0, 11)) if rng.random() < 0.9 else []
            quo, rem = _pdivmod(field, a, b)
            assert len(rem) < len(b)
            assert not rem or rem[-1] != field.zero.rep
            assert (_as_poly(field, quo) * _as_poly(field, b) + _as_poly(field, rem)
                    == _as_poly(field, a))


def test_pgcd_matches_the_gcd_with_monic_divisors() -> None:
    """The kernel's gcd, which divides by non-monic remainders as they come,
    is the monic gcd that making each divisor monic first gives: seeded
    pairs with a common factor, either side non-monic or zero."""
    rng = random.Random(73)
    for field in _kernel_fields():
        for _ in range(20):
            common = _as_poly(field, _vectors(rng, field, rng.randrange(0, 4)))
            a = common * _as_poly(field, _vectors(rng, field, rng.randrange(0, 5)))
            b = common * _as_poly(field, _vectors(rng, field, rng.randrange(0, 5)))
            if rng.random() < 0.15:
                b = Poly(field, [])
            want = gcd_by_monic_steps(a, b)
            got = _pgcd(field, [c.rep for c in a.coeffs], [c.rep for c in b.coeffs])
            assert _as_poly(field, got) == want
            assert want.is_monic() and (common.degree < 1 or want.degree >= common.degree)


def test_flatten_collapses_linear_levels() -> None:
    f3 = Fq.prime(3)
    lin = f3.extend(ypoly(f3, [-1, 1]))
    top = lin.extend(ypoly(lin, [1, 0, 1]))
    flat, images = flatten_field(top)
    assert flat.q == 9
    assert flat.level == 1
    for j, psi in enumerate(tower_moduli(top)):
        mapped = Poly(flat, [tower_map(c, flat, images) for c in psi.coeffs])
        assert mapped.evaluate(images[j]) == flat.zero
    g = Poly(top, [top.gen(), top.one])
    h = map_poly(g, flat, images)
    assert h.degree == g.degree
    assert h.coeff(0) == images[-1]


# Flat coordinate-vector arithmetic against the quotient-ring definition.

# Degrees of the levels above F_p; 0 stands for the modulus y itself.
TOWER_SHAPES = [[0, 1, 2, 1, 3], [2, 1, 2], [1, 3, 1], [2, 4]]


def _random_tower(p: int, shape: list[int], rng: random.Random) -> list[Fq]:
    """Fields F_p = F_0, ..., F_k with a random monic irreducible modulus of
    each degree; degree-1 levels above level 1 get y - a with a != 0."""
    fields = [Fq.prime(p)]
    for d in shape:
        cur = fields[-1]
        if d == 0:
            psi = ypoly(cur, [0, 1])
        else:
            while True:
                low = [cur.from_index(rng.randrange(cur.q)) for _ in range(d)]
                psi = Poly(cur, low + [cur.one])
                if (d > 1 or low[0]) and _independent_irreducible(psi):
                    break
        fields.append(cur.extend(psi))
    return fields


def _random_elements(field: Fq, rng: random.Random, n: int) -> list:
    return [field.zero, field.one] + [field.from_index(rng.randrange(field.q)) for _ in range(n)]


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("shape", TOWER_SHAPES)
def test_flat_arithmetic_matches_quotient_ring(p: int, shape: list[int]) -> None:
    rng = random.Random(1000 * p + len(shape))
    fields = _random_tower(p, shape, rng)
    top = fields[-1]
    images = [lift_from(top, f.gen()) for f in fields[1:]]
    for field in fields[1:]:
        mod = field.modulus
        one = Poly(field.base, [field.base.one])
        lifted = Poly(field, [lift_from(field, c) for c in mod.coeffs])
        assert lifted.evaluate(field.gen()) == field.zero
        elems = _random_elements(field, rng, 6)
        g, m = Poly(field, elems[2:5]), Poly(field, elems[5:7] + [field.one])
        for n in range(10):
            assert pow(g, n, m) == (g ** n) % m
        assert pow(g, 0, m) == Poly(field, [field.one])
        for a in elems:
            ap = elt_poly(a)
            assert len(a.flat_key()) == field.deg_abs
            assert a.flat_key() == tuple(k for c in a.coords() for k in c.flat_key())
            assert elt_poly(-a) == -ap
            assert tower_map(lift_from(top, a), top, images) == lift_from(top, a)
            assert fq_elt_from_json(field, fq_elt_to_json(a)) == a
            if a:
                assert (elt_poly(a.inverse()) * ap) % mod == one
            for n in range(-3, 7):
                if n < 0 and not a:
                    continue
                want = _pow_mod(elt_poly(a.inverse()) if n < 0 else ap, abs(n), mod)
                assert elt_poly(a ** n) == want
            for b in elems:
                bp = elt_poly(b)
                assert elt_poly(a * b) == (ap * bp) % mod
                assert elt_poly(a + b) == ap + bp
                assert elt_poly(a - b) == ap - bp


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("shape", TOWER_SHAPES)
def test_element_text_matches_the_poly_rendering(p: int, shape: list[int]) -> None:
    """format_fq_elt renders an element from its coordinate vector; the
    reference renders it through its Poly over the base, degree-one levels
    included (their extra parentheses too)."""
    rng = random.Random(7000 * p + len(shape))
    fields = _random_tower(p, shape, rng)
    for field in fields:
        for a in _random_elements(field, rng, 12):
            assert format_fq_elt(a) == format_fq_elt_by_poly(a)
    top = fields[-1]
    zs = [lift_from(top, f.gen()) for f in fields[1:]]
    for a in _random_elements(top, rng, 12) + zs + [-z for z in zs]:
        assert format_fq_elt(a) == format_fq_elt_by_poly(a)


def test_separately_built_fields_agree() -> None:
    """Fields are interned and compared by identity. A tower rebuilt from its
    JSON coordinates through extend is the same objects; a field built with
    Fq(...) is a field of its own, whatever its modulus."""
    rng = random.Random(7)
    fields = _random_tower(3, TOWER_SHAPES[0], rng)
    rebuilt, twin = Fq.prime(3), Fq(3, None, None)
    assert rebuilt is fields[0] and twin is not rebuilt
    for field in fields[1:]:
        rebuilt = rebuilt.extend(Poly(rebuilt, [
            fq_elt_from_json(rebuilt, fq_elt_to_json(c)) for c in field.modulus.coeffs]))
        assert rebuilt is field
        twin = Fq(3, twin, Poly(twin, [
            fq_elt_from_json(twin, fq_elt_to_json(c)) for c in field.modulus.coeffs]))
    top = fields[-1]
    assert twin is not top and twin != top
    for a in _random_elements(top, rng, 20):
        b = fq_elt_from_json(twin, fq_elt_to_json(a))
        assert b.rep == a.rep and b != a and b.field is twin
        for op in (lambda: a * b, lambda: b + a, lambda: a - b, lambda: b / top.one):
            with pytest.raises(InternalError, match="mixed-field arithmetic"):
                op()
        with pytest.raises(InternalError, match="coercion from a different field"):
            twin.coerce(a)
    with pytest.raises(PreconditionError, match="not a polynomial over this field"):
        top.extend(Poly(twin, [twin.gen(), twin.one]))
    # y^2 - a^2 = (y - a)(y + a): the memo filled over top serves no other field.
    a = top.from_index(29)
    for field in (top, twin):
        a = fq_elt_from_json(field, fq_elt_to_json(a))
        factors = fq_factor(Poly(field, [-(a * a), field.zero, field.one]))
        assert [h.degree for h, _ in factors] == [1, 1]
        assert all(h.ring is field and all(c.field is field for c in h.coeffs) for h, _ in factors)
