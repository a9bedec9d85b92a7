"""Finite fields as explicit towers: arithmetic, factorization, maps."""

from __future__ import annotations

import random

import pytest

import oracles
from omfactor import Fq, fq_factor, is_irreducible
from omfactor.errors import InternalError, PreconditionError
from omfactor.finitefield import (
    Poly,
    balanced_int,
    map_poly,
    multiplicity_of,
    pow_mod,
    tower_map,
)
from genchains import ypoly
from reference import flatten_field
from omfactor.serialize import fq_elt_from_json, fq_elt_to_json


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
        elems = list(field.elements())
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
        elems = list(field.elements())
        assert len(elems) == p * p
        assert len({e.flat_key() for e in elems}) == p * p
        for a in elems:
            assert a + (-a) == field.zero
            if a:
                assert a * a.inverse() == field.one
        _check_powers(field, elems)
        z = field.gen()
        lifted = Poly(field, [field.lift_from(c) for c in field.modulus.coeffs])
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
    mapped = Poly(f81, [f81.lift_from(c) for c in psi.coeffs])
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
        assert field.lift_from(a).coords() == [a] + [base.zero] * (field.deg_over_base - 1)
    for k in range(9):
        a = field.from_index(k)
        assert field.lift_from(a) == a


def test_from_index_bijection() -> None:
    field = small_tower(5)
    seen = {field.from_index(k).flat_key() for k in range(field.q)}
    assert len(seen) == field.q
    with pytest.raises(PreconditionError):
        field.from_index(field.q)


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
        return all(g.evaluate(a) != field.zero for a in field.elements())
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


def test_fq_factor_nonmonic_unit() -> None:
    field = Fq.prime(5)
    two = field.from_index(2)
    g = Poly(field, [two, field.zero, two])
    prod = Poly(field, [field.one])
    for f, m in fq_factor(g):
        prod = prod * f ** m
    assert prod == g.monic()


def test_is_irreducible_pins() -> None:
    f3 = Fq.prime(3)
    assert is_irreducible(ypoly(f3, [1, 0, 1]))
    assert not is_irreducible(ypoly(f3, [-1, 0, 1]))
    assert is_irreducible(ypoly(f3, [0, 1]))
    f9 = small_tower(3)
    lifted = Poly(f9, [f9.lift_from(c) for c in ypoly(f3, [1, 0, 1]).coeffs])
    assert not is_irreducible(lifted)


def test_multiplicity_of() -> None:
    f3 = Fq.prime(3)
    lin = ypoly(f3, [-1, 1])
    other = ypoly(f3, [1, 1])
    g = lin ** 2 * other
    assert multiplicity_of(lin, g) == 2
    assert multiplicity_of(other, g) == 1
    assert multiplicity_of(ypoly(f3, [0, 1]), g) == 0


def test_flatten_collapses_linear_levels() -> None:
    f3 = Fq.prime(3)
    lin = f3.extend(ypoly(f3, [-1, 1]))
    top = lin.extend(ypoly(lin, [1, 0, 1]))
    flat, images = flatten_field(top)
    assert flat.q == 9
    assert flat.level == 1
    for j, psi in enumerate(top.tower_moduli()):
        mapped = Poly(flat, [tower_map(c, flat, images) for c in psi.coeffs])
        assert mapped.evaluate(images[j]) == flat.zero
    g = Poly(top, [top.gen(), top.one])
    h = map_poly(g, flat, images)
    assert h.degree == g.degree
    assert h.coeff(0) == images[-1]


# Flat coordinate-vector arithmetic against the quotient-ring definition.

# Degrees of the levels above F_p; 0 stands for the modulus y itself.
TOWER_SHAPES = [[0, 1, 2, 1, 3], [2, 1, 2], [1, 3, 1]]


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
    images = [top.lift_from(f.gen()) for f in fields[1:]]
    for field in fields[1:]:
        mod = field.modulus
        one = Poly(field.base, [field.base.one])
        lifted = Poly(field, [field.lift_from(c) for c in mod.coeffs])
        assert lifted.evaluate(field.gen()) == field.zero
        elems = _random_elements(field, rng, 6)
        for a in elems:
            ap = a.poly()
            assert len(a.flat_key()) == field.deg_abs
            assert a.flat_key() == tuple(k for c in a.coords() for k in c.flat_key())
            assert (-a).poly() == -ap
            assert tower_map(top.lift_from(a), top, images) == top.lift_from(a)
            assert fq_elt_from_json(field, fq_elt_to_json(a)) == a
            if a:
                assert (a.inverse().poly() * ap) % mod == one
            for n in range(-3, 7):
                if n < 0 and not a:
                    continue
                want = pow_mod(a.inverse().poly() if n < 0 else ap, abs(n), mod)
                assert (a ** n).poly() == want
            for b in elems:
                bp = b.poly()
                assert (a * b).poly() == (ap * bp) % mod
                assert (a + b).poly() == ap + bp
                assert (a - b).poly() == ap - bp


def test_separately_built_fields_agree() -> None:
    rng = random.Random(7)
    fields = _random_tower(3, TOWER_SHAPES[0], rng)
    # Rebuild the tower without the extension cache, from JSON coordinates.
    twin = Fq(3, None, None)
    for field in fields[1:]:
        coeffs = [fq_elt_from_json(twin, fq_elt_to_json(c)) for c in field.modulus.coeffs]
        twin = Fq(3, twin, Poly(twin, coeffs))
    top = fields[-1]
    assert twin is not top and twin == top and hash(twin) == hash(top)
    for a in _random_elements(top, rng, 20):
        b = fq_elt_from_json(twin, fq_elt_to_json(a))
        assert b == a and hash(b) == hash(a)
        assert b.field is twin and b * b == a * a
