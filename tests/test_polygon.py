"""Lower hulls, lambda-components, and shear transforms."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import oracles
from reference import apply_affinity, component_of
from omfactor import NewtonPolygon, lower_hull
from omfactor.errors import PreconditionError


def random_cloud(rng: random.Random, n: int | None = None) -> list[tuple[int, Fraction]]:
    n = n if n is not None else rng.randrange(1, 12)
    pts = []
    for _ in range(n):
        s = rng.randrange(0, 10)
        u = Fraction(rng.randrange(-30, 31), rng.choice([1, 1, 2, 3]))
        pts.append((s, u))
    return pts


def test_single_point_hull() -> None:
    hull = lower_hull([(3, Fraction(5, 2))])
    assert hull.vertices == ((3, Fraction(5, 2)),)
    assert hull.sides() == []


def test_empty_hull_rejected() -> None:
    with pytest.raises(PreconditionError):
        lower_hull([])
    with pytest.raises(PreconditionError):
        lower_hull([(-1, Fraction(0))])


def test_duplicate_abscissa_keeps_minimum() -> None:
    hull = lower_hull([(0, Fraction(4)), (0, Fraction(2)), (1, Fraction(0))])
    assert hull.vertices == ((0, Fraction(2)), (1, Fraction(0)))


def test_collinear_points_removed() -> None:
    hull = lower_hull([(0, Fraction(2)), (2, Fraction(1)), (4, Fraction(0))])
    assert hull.vertices == ((0, Fraction(2)), (4, Fraction(0)))


def test_hull_matches_gift_wrap_oracle() -> None:
    rng = random.Random(43)
    for _ in range(500):
        pts = random_cloud(rng)
        got = lower_hull(pts).vertices
        want = tuple(oracles.brute_lower_hull(pts))
        assert got == want


def _assert_hull_of_input(pts: list, hull: NewtonPolygon) -> None:
    assert hull.vertices == tuple(oracles.brute_lower_hull(pts))
    for s, u in hull.vertices:
        assert type(u) is Fraction and (s, u) in pts
        if all(type(w) is Fraction for _, w in pts):
            assert any(w is u for t, w in pts if t == s)


def test_integer_hull_on_one_denominator() -> None:
    """Ordinates u / e with one e from 1 to 12, as expansion_points gives
    them: the scaled integer cross products give the gift-wrap hull, and
    every vertex is one of the input points."""
    rng = random.Random(59)
    for e in range(1, 13):
        for _ in range(40):
            n = rng.randrange(1, 30)
            pts = [(rng.randrange(0, 40), Fraction(rng.randrange(-5 * e, 60 * e), e))
                   for _ in range(n)]
            _assert_hull_of_input(pts, lower_hull(pts))


def test_integer_hull_on_mixed_denominators() -> None:
    rng = random.Random(61)
    for _ in range(300):
        pts = []
        for _ in range(rng.randrange(1, 25)):
            u = Fraction(rng.randrange(-400, 401), rng.choice([1, 2, 3, 4, 5, 7, 9, 11, 12, 35]))
            pts.append((rng.randrange(0, 20), u if rng.random() < 0.8 else int(u)))
        _assert_hull_of_input(pts, lower_hull(pts))


def test_hull_dominance() -> None:
    rng = random.Random(47)
    for _ in range(500):
        pts = random_cloud(rng)
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
                assert verts[0][0] == s
                assert u >= verts[0][1]


def test_slopes_strictly_increase() -> None:
    rng = random.Random(53)
    for _ in range(200):
        hull = lower_hull(random_cloud(rng))
        slopes = [side.slope for side in hull.sides()]
        assert all(a < b for a, b in zip(slopes, slopes[1:]))


def test_principal_sides_are_negative() -> None:
    hull = lower_hull([(0, Fraction(2)), (2, Fraction(0)), (4, Fraction(3))])
    assert [side.slope for side in hull.sides()] == [Fraction(-1), Fraction(3, 2)]
    principal = hull.principal_sides()
    assert len(principal) == 1
    assert principal[0].length == 2


def test_component_support() -> None:
    rng = random.Random(59)
    for _ in range(200):
        pts = random_cloud(rng)
        hull = lower_hull(pts)
        lam = Fraction(rng.randrange(1, 7), rng.choice([1, 2, 3]))
        comp = component_of(hull, lam)
        vals = {s: u + lam * s for s, u in oracles.brute_lower_hull(pts)}
        lo = min(u + lam * s for s, u in pts)
        support = [s for s, val in sorted(vals.items()) if val == lo]
        if support:
            assert comp.left[0] == support[0]
            assert comp.right[0] == support[-1]
        assert comp.left[1] + lam * comp.left[0] == lo
        assert comp.slope == -lam


def test_component_requires_positive_lam() -> None:
    hull = lower_hull([(0, Fraction(1)), (1, Fraction(0))])
    with pytest.raises(PreconditionError):
        component_of(hull, Fraction(0))
    with pytest.raises(PreconditionError):
        component_of(hull, Fraction(-1))


def test_component_can_be_single_vertex() -> None:
    hull = lower_hull([(0, Fraction(0)), (3, Fraction(0))])
    comp = component_of(hull, Fraction(1))
    assert comp.left == comp.right == (0, Fraction(0))
    assert comp.length == 0


def test_affinity_pin() -> None:
    hull = NewtonPolygon(((0, Fraction(4)), (2, Fraction(2))))
    sheared = apply_affinity(hull, Fraction(1))
    assert sheared.vertices == ((0, Fraction(4)), (2, Fraction(0)))


def test_affinity_shifts_slopes() -> None:
    rng = random.Random(61)
    for _ in range(200):
        hull = lower_hull(random_cloud(rng))
        lam0 = Fraction(rng.randrange(-5, 6), rng.choice([1, 2]))
        before = [side.slope for side in hull.sides()]
        after = [side.slope for side in apply_affinity(hull, lam0).sides()]
        assert after == [slope - lam0 for slope in before]


def test_affinity_composes() -> None:
    rng = random.Random(67)
    for _ in range(200):
        hull = lower_hull(random_cloud(rng))
        a = Fraction(rng.randrange(-5, 6), rng.choice([1, 2]))
        b = Fraction(rng.randrange(-5, 6), rng.choice([1, 3]))
        assert apply_affinity(apply_affinity(hull, a), b) == apply_affinity(hull, a + b)


def test_affinity_commutes_with_hulling() -> None:
    rng = random.Random(71)
    for _ in range(200):
        pts = random_cloud(rng)
        lam0 = Fraction(rng.randrange(-4, 5), rng.choice([1, 2]))
        sheared_pts = [(s, u - lam0 * s) for s, u in pts]
        assert lower_hull(sheared_pts) == apply_affinity(lower_hull(pts), lam0)
