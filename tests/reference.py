"""Slow reference routines that tests compare the package against.

Unlike oracles.py, these are built on the package's own primitives: each
recomputes, one step at a time or from its definition, something the
package computes in one pass (the phi-expansion's inverse, the graded key
divisibility read off expansion points, the stationary levels and their
one-at-a-time collapse, the tower with every degree-one level collapsed).
"""

from __future__ import annotations

from omfactor.arith import Poly
from omfactor.finitefield import Fq, FqElt, map_poly
from omfactor.typecalc import Type, _collapse, is_stationary_level
from omfactor.valuation import MacLaneChain, expansion_points


def expansion_sum(coeffs: list[Poly], phi: Poly) -> Poly:
    """Inverse of phi_expansion, used by round-trip checks."""
    acc = Poly(phi.ring, [])
    for a in reversed(coeffs):
        acc = acc * phi + a
    return acc


def key_divides(chain: MacLaneChain, phi: Poly, g: Poly) -> bool:
    """Whether phi divides g in the graded algebra of the top valuation.

    Reads the phi-expansion of g: phi divides exactly when the minimal value
    of mu(a_s phi^s) is attained only at positions s >= 1.
    """
    if g.is_zero():
        return True
    pts = expansion_points(chain, phi, g)
    lo = min(u for _, u in pts)
    return pts[0] != (0, lo)


def stationary_levels(t: Type) -> list[int]:
    return [i for i in range(1, t.chain.r + 1) if is_stationary_level(t, i)]


def is_optimal(t: Type) -> bool:
    """Key degrees strictly increase below the top level."""
    return not any(is_stationary_level(t, i) for i in range(1, t.chain.r))


def optimize_step(t: Type) -> Type:
    """Collapse the highest stationary level below the top, if any."""
    st = [i for i in range(1, t.chain.r) if is_stationary_level(t, i)]
    return _collapse(t, {st[-1]}) if st else t


def flatten_field(field: Fq) -> tuple[Fq, list[FqElt]]:
    """Collapse all degree-one levels of a tower.

    Returns the flat tower (every modulus of degree >= 2) and the images of
    the original generators inside it, suitable for tower_map.
    """
    flat = Fq.prime(field.p)
    images: list[FqElt] = []
    for psi in field.tower_moduli():
        mapped = map_poly(psi, flat, images)
        if mapped.degree == 1:
            images.append(-mapped.coeff(0))
        else:
            bigger = Fq(field.p, flat, mapped)
            images = [bigger.lift_from(img) for img in images]
            images.append(bigger.gen())
            flat = bigger
    return flat, images
