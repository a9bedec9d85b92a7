"""Independent oracles used to cross-check the package.

Every function here recomputes a quantity along a route that shares no code
with the package: sympy supplies polynomial division and mod-p
factorization, valuations are evaluated straight from their defining
recursion with Fraction arithmetic, and hulls come from gift wrapping.
These implementations were written and frozen before the module tests that
consume them.
"""

from __future__ import annotations

from fractions import Fraction

import sympy

X = sympy.symbols("x")

INF = float("inf")


def vp_int(n: int, p: int) -> int | float:
    """p-adic valuation of an integer by repeated division."""
    if n == 0:
        return INF
    n = abs(n)
    out = 0
    while n % p == 0:
        n //= p
        out += 1
    return out


def vp_fraction(q: Fraction, p: int) -> int | float:
    if q == 0:
        return INF
    return vp_int(q.numerator, p) - vp_int(q.denominator, p)


def _to_sympy(coeffs) -> sympy.Poly:
    """Ascending coefficient list to a sympy polynomial over QQ."""
    cs = [sympy.Rational(c) for c in coeffs]
    return sympy.Poly(list(reversed(cs)) or [0], X, domain="QQ")


def _from_sympy(poly: sympy.Poly) -> list[Fraction]:
    if poly.is_zero:
        return []
    cs = [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def sympy_divmod(num, den) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of ascending coefficient lists, via sympy."""
    q, r = sympy.div(_to_sympy(num), _to_sympy(den), X)
    return _from_sympy(q), _from_sympy(r)


def sympy_mul(a, b, p: int | None = None) -> list:
    """Product of ascending coefficient lists via sympy: over QQ, or over
    F_p with residues in [0, p)."""
    if p is None:
        return _from_sympy(_to_sympy(a) * _to_sympy(b))
    prod = sympy.Poly(list(reversed(a)) or [0], X, modulus=p) * sympy.Poly(
        list(reversed(b)) or [0], X, modulus=p)
    cs = [int(c) % p for c in reversed(prod.all_coeffs())]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def sympy_gcd(a, b) -> list[Fraction]:
    return _from_sympy(sympy.gcd(_to_sympy(a), _to_sympy(b)))


def phi_expansion_oracle(g, phi) -> list[list[Fraction]]:
    """phi-adic digits of g, constant digit first, via sympy division."""
    out: list[list[Fraction]] = []
    rest = [Fraction(c) for c in g]
    while rest:
        rest, digit = sympy_divmod(rest, phi)
        out.append(digit)
    return out


def modp_factors(coeffs, p: int) -> list[tuple[int, int]]:
    """Sorted (degree, multiplicity) pairs of the mod-p factorization of a
    polynomial given by ascending integer coefficients."""
    poly = sympy.Poly(list(reversed([int(c) for c in coeffs])), X, modulus=p)
    _, factors = poly.factor_list()
    out = [(int(sympy.degree(f, X)), int(m)) for f, m in factors]
    return sorted(out)


def modp_is_squarefree(coeffs, p: int) -> bool:
    return all(m == 1 for _, m in modp_factors(coeffs, p))


def modp_factor_coeffs(coeffs, p: int) -> list[tuple[tuple[int, ...], int]]:
    """Full mod-p factors as ascending symmetric-residue coefficient tuples."""
    poly = sympy.Poly(list(reversed([int(c) for c in coeffs])), X, modulus=p)
    _, factors = poly.factor_list()
    out = []
    for f, m in factors:
        fc = tuple(int(c) for c in reversed(sympy.Poly(f, X, modulus=p).all_coeffs()))
        out.append((fc, int(m)))
    return sorted(out)


def mu_direct(p: int, steps, g) -> Fraction | float:
    """Inductive valuation straight from the defining recursion.

    steps is a list of (phi ascending coefficients, nu Fraction). The value
    of the level-i key is mu_{i-1}(phi_i) + nu_i, and mu_i of a polynomial
    is the minimum over its phi_i-expansion of mu_{i-1}(a_s) + s * key.
    """
    key_values: list[Fraction] = []
    for i, (phi, nu) in enumerate(steps):
        key_values.append(_mu_level(p, steps, key_values, i, phi) + Fraction(nu))
    return _mu_level(p, steps, key_values, len(steps), g)


def _mu_level(p, steps, key_values, i: int, g) -> Fraction | float:
    g = [Fraction(c) for c in g]
    while g and g[-1] == 0:
        g.pop()
    if not g:
        return INF
    if i == 0:
        return min(vp_fraction(c, p) for c in g if c != 0)
    phi, _ = steps[i - 1]
    best = None
    for s, digit in enumerate(phi_expansion_oracle(g, phi)):
        if not digit:
            continue
        val = _mu_level(p, steps, key_values, i - 1, digit) + s * key_values[i - 1]
        if best is None or val < best:
            best = val
    return INF if best is None else best


def brute_lower_hull(points) -> list[tuple[int, Fraction]]:
    """Lower convex hull by gift wrapping; O(n^2), no shared code with the
    monotone-chain implementation under test."""
    best: dict[int, Fraction] = {}
    for s, u in points:
        s = int(s)
        u = Fraction(u)
        if s not in best or u < best[s]:
            best[s] = u
    pts = sorted(best.items())
    hull = [pts[0]]
    while hull[-1][0] != pts[-1][0]:
        cur = hull[-1]
        cand = None
        cand_slope = None
        for pt in pts:
            if pt[0] <= cur[0]:
                continue
            slope = Fraction(pt[1] - cur[1], pt[0] - cur[0])
            if cand is None or slope < cand_slope or (
                slope == cand_slope and pt[0] > cand[0]
            ):
                cand = pt
                cand_slope = slope
        hull.append(cand)
    return hull

