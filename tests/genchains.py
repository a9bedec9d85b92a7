"""Seeded constructions shared by the test modules.

Builders for the worked four-level chain over p = 3 and its p = 5 sibling,
random integer polynomials, random types grown level by level through
their representatives, chains with an injected stationary level paired
with their collapsed form, and last-level shift pairs. Every generator
takes an explicit random.Random so tests stay reproducible.
"""

from __future__ import annotations

import random
from fractions import Fraction

from omfactor import (
    MacLaneChain,
    Poly,
    Type,
    augment,
    build_chain,
    empty_chain,
    graded_lift,
    qpoly,
    representative,
    ri,
)
from omfactor.finitefield import Fq, FqElt, is_irreducible


def ypoly(field: Fq, coeffs) -> Poly:
    """Polynomial over a tower field from constant-first coefficients."""
    return Poly(field, coeffs)


def fixture_poly(p: int) -> Poly:
    """The quartic (x^2 + c)^2 + p^8 with c = -p - p^2 + p^3."""
    c = -p - p * p + p**3
    return qpoly([c * c + p**8, 0, 2 * c, 0, 1])


def fixture_chain3() -> MacLaneChain:
    """Four-level chain over p = 3 attached to fixture_poly(3)."""
    steps = [
        (qpoly([0, 1]), Fraction(1, 2)),
        (qpoly([-3, 0, 1]), Fraction(1)),
        (qpoly([-12, 0, 1]), Fraction(1)),
        (qpoly([15, 0, 1]), Fraction(1)),
    ]
    return build_chain(3, steps)


def fixture_chain5() -> MacLaneChain:
    """Depth-one chain over p = 5 attached to fixture_poly(5)."""
    return build_chain(5, [(qpoly([0, 1]), Fraction(1, 2))])


def fixture_t4() -> Type:
    """Final type of the p = 3 run: the four-level chain with top y^2 + 1."""
    chain = fixture_chain3()
    field = chain.fields[chain.r]
    return Type(chain, ypoly(field, [1, 0, 1]))


def random_qpoly(rng: random.Random, max_deg: int, bound: int = 40,
                 monic: bool = False) -> Poly:
    """Random nonzero integer polynomial of degree <= max_deg."""
    deg = rng.randrange(0, max_deg + 1)
    coeffs = [rng.randrange(-bound, bound + 1) for _ in range(deg)]
    lead = 1
    if not monic:
        while True:
            lead = rng.randrange(-bound, bound + 1)
            if lead:
                break
    coeffs.append(lead)
    return qpoly(coeffs)


def random_fq_elt(rng: random.Random, field: Fq, nonzero: bool = False) -> FqElt:
    k = rng.randrange(1 if nonzero else 0, field.q)
    return field.from_index(k)


def random_irreducible(rng: random.Random, field: Fq, deg: int,
                       proper: bool) -> Poly:
    """Random monic irreducible of the given degree; proper excludes y."""
    while True:
        coeffs = [random_fq_elt(rng, field) for _ in range(deg)] + [field.one]
        if proper and deg == 1 and not coeffs[0]:
            continue
        g = Poly(field, coeffs)
        if is_irreducible(g):
            return g


def random_slope(rng: random.Random, e_cum: int, max_e: int = 2) -> Fraction:
    """Slope increment nu with normalized lam = h/e, e <= max_e."""
    e = rng.choice([1] * 3 + list(range(2, max_e + 1)))
    h = rng.choice([k for k in range(1, 4) if k % e or e == 1])
    return Fraction(h, e * e_cum)


def random_type(rng: random.Random, p: int | None = None,
                depth: int | None = None, max_degree: int = 12) -> Type:
    """Grow a type level by level through representatives.

    Each level augments by the representative of the current type with a
    random slope, then draws a fresh irreducible over the new top field.
    The key degree is kept at or below max_degree.
    """
    if p is None:
        p = rng.choice([2, 3, 5])
    if depth is None:
        depth = rng.randrange(1, 4)
    chain = empty_chain(p)
    f0 = rng.choice([1, 1, 1, 2])
    psi = random_irreducible(rng, chain.fields[0], f0, proper=False)
    for _ in range(depth):
        t = Type(chain, psi)
        phi = representative(t)
        m = phi.degree
        nu = random_slope(rng, chain.e_cum[chain.r],
                          max_e=2 if 2 * m <= max_degree else 1)
        chain = augment(chain, phi, nu)
        top = chain.fields[chain.r]
        new_m = chain.level(chain.r).m * chain.level(chain.r).e
        f_max = 2 if 2 * new_m <= max_degree else 1
        psi = random_irreducible(rng, top, rng.choice([1, 1, f_max]), proper=True)
    return Type(chain, psi)


def stationary_pair(rng: random.Random, p: int | None = None
                    ) -> tuple[MacLaneChain, MacLaneChain]:
    """A chain with an injected stationary level and its collapsed form.

    The raw chain ends with levels (phi1, nu1), (phi, nu2) where the first
    has e = f = 1 and deg phi = deg phi1; the collapsed chain replaces both
    with the single level (phi, nu1 + nu2).
    """
    if p is None:
        p = rng.choice([2, 3, 5])
    base_depth = rng.randrange(0, 2)
    if base_depth:
        base = random_type(rng, p=p, depth=base_depth, max_degree=4).chain
    else:
        base = empty_chain(p)
    psi_lin = random_irreducible(rng, base.fields[base.r], 1, proper=base.r > 0)
    phi1 = representative(Type(base, psi_lin))
    nu1 = Fraction(rng.randrange(1, 4), base.e_cum[base.r])
    chain1 = augment(base, phi1, nu1)
    r1 = chain1.r
    assert chain1.level(r1).e == 1
    beta = random_fq_elt(rng, chain1.fields[r1], nonzero=True)
    shift = graded_lift(chain1, r1, chain1.key_value(r1), beta)
    assert shift.degree < chain1.level(r1).m
    phi = chain1.level(r1).phi + shift
    nu2 = random_slope(rng, chain1.e_cum[r1])
    raw = augment(chain1, phi, nu2)
    assert raw.level(r1 + 1).psi_prev.degree == 1
    collapsed = augment(base, phi, nu1 + nu2)
    return raw, collapsed


def shift_pair(rng: random.Random, p: int | None = None
               ) -> tuple[MacLaneChain, MacLaneChain, Poly, FqElt]:
    """Chains differing only in the last key, by a with mu(a) = mu(phi_r).

    The top level is arranged to have e_r = 1; returns (chain, shifted
    chain, the shift a, and its residual constant eta)."""
    if p is None:
        p = rng.choice([2, 3, 5])
    inner = random_type(rng, p=p, depth=rng.randrange(1, 3), max_degree=4)
    chain1 = inner.chain
    psi = random_irreducible(rng, chain1.fields[chain1.r],
                             rng.choice([1, 1, 2]), proper=True)
    phi = representative(Type(chain1, psi))
    nu = Fraction(rng.randrange(1, 4), chain1.e_cum[chain1.r])
    chain = augment(chain1, phi, nu)
    r = chain.r
    assert chain.level(r).e == 1
    beta = random_fq_elt(rng, chain.fields[r], nonzero=True)
    a = graded_lift(chain, r, chain.key_value(r), beta)
    assert a.degree < chain.level(r).m
    star = build_chain(p, chain.steps()[:-1] + [(chain.level(r).phi + a, nu)])
    res = ri(chain, r, a)
    assert res.s == 0 and res.poly.degree == 0
    return chain, star, a, res.poly.coeff(0)


def unshifted_top_pair(rng: random.Random) -> tuple[Type, Type]:
    """Types over a shift pair that keep the same top residual y + eta.

    Equivalence needs the second top recentered to y, which no type above
    order 0 may carry, so equivalent fails at psi_top with the degenerate
    flag set (y + eta vanishes at -eta)."""
    chain, star, _, eta = shift_pair(rng)
    r = chain.r
    ta = Type(chain, Poly(chain.fields[r], [eta, chain.fields[r].one]))
    tb = Type(star, Poly(star.fields[r], [eta, star.fields[r].one]))
    return ta, tb
