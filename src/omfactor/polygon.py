"""Lower Newton polygons over exact rational ordinates.

Points are pairs (s, u) with integer abscissa s >= 0 and rational ordinate.
Polygons keep only their vertices: strictly increasing abscissae, strictly
increasing slopes. Principal sides are the ones of negative slope.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import PreconditionError
from .record import Record

Point = tuple[int, Fraction]


class Component(Record):
    """A closed stretch of a support line on a polygon; left may equal right."""

    __slots__ = ("left", "right", "slope")

    @property
    def length(self) -> int:
        return self.right[0] - self.left[0]


class NewtonPolygon(Record):
    __slots__ = ("vertices",)

    def sides(self) -> list[Component]:
        out = []
        for a, b in zip(self.vertices, self.vertices[1:]):
            slope = Fraction(b[1] - a[1], b[0] - a[0])
            out.append(Component(a, b, slope))
        return out

    def principal_sides(self) -> list[Component]:
        return [side for side in self.sides() if side.slope < 0]


def _norm_points(points: Iterable[Sequence]) -> list[Point]:
    best: dict[int, Fraction] = {}
    for s, u in points:
        s = int(s)
        if s < 0:
            raise PreconditionError("polygon abscissae must be nonnegative")
        u = u if type(u) is Fraction else Fraction(u)
        if s not in best or u < best[s]:
            best[s] = u
    return sorted(best.items())


def lower_hull(points: Iterable[Sequence]) -> NewtonPolygon:
    """Lower convex hull of a point cloud.

    Points sharing an abscissa are reduced to the minimal ordinate first;
    collinear interior points are removed, so the vertex set is minimal.
    Cross products run on integers, the ordinates times the lcm of their
    denominators; the vertices are the input's own points.
    """
    pts = _norm_points(points)
    if not pts:
        raise PreconditionError("lower_hull of an empty point set")
    d = math.lcm(*(u.denominator for _, u in pts))
    verts: list[tuple[int, int, Point]] = []
    for pt in pts:
        s2, u2 = pt[0], pt[1].numerator * (d // pt[1].denominator)
        while len(verts) >= 2:
            (s0, u0, _), (s1, u1, _) = verts[-2], verts[-1]
            if (u1 - u0) * (s2 - s1) >= (u2 - u1) * (s1 - s0):
                verts.pop()
            else:
                break
        verts.append((s2, u2, pt))
    return NewtonPolygon(tuple(pt for _, _, pt in verts))
