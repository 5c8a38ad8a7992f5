"""Numeric validators of the two trigonometric comparison inequalities on concrete geodesic triangles.

On a manifold with sectional curvature in [kappa_min, kappa_max], a geodesic
triangle with sides a, b, c and angle A between b and c satisfies

    xi_lower(kappa_max, s) * b^2 + c^2 - 2 b c cos A
        <= a^2 <=
    xi_upper(kappa_min, s) * b^2 + c^2 - 2 b c cos A

with s a length that bounds the triangle; these validators take its longest
side. The comparison coefficients are ``geosaddle.solvers.xi_lower`` and
``xi_upper``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from geosaddle.manifolds import Manifold, Point
from geosaddle.solvers import xi_lower, xi_upper

_DEGENERATE_SIDE = 1e-12


@dataclass(frozen=True)
class GeodesicTriangle:
    """The sides of a geodesic triangle pqr and its angle at vertex ``p``, made by :meth:`from_vertices`.

    Side ``a`` is opposite ``p``; sides ``b = d(p, r)`` and ``c = d(p, q)``
    meet at ``p`` with angle ``angle`` computed from the log maps there.
    """

    a: float
    b: float
    c: float
    angle: float

    @classmethod
    def from_vertices(cls, m: Manifold, p: Point, q: Point, r: Point) -> "GeodesicTriangle":
        a = m.distance(q, r)
        b = m.distance(p, r)
        c = m.distance(p, q)
        angle = _angle_at(m, p, q, r, b, c)
        return cls(a=a, b=b, c=c, angle=angle)


def _angle_at(m: Manifold, p: Point, q: Point, r: Point, b: float, c: float) -> float:
    if b < _DEGENERATE_SIDE or c < _DEGENERATE_SIDE:
        return 0.0
    u = m.log(p, q)
    v = m.log(p, r)
    cos_a = m.inner(u, v) / (b * c)
    return math.acos(min(1.0, max(-1.0, cos_a)))


@dataclass(frozen=True)
class TciCheck:
    """One side of the comparison inequality evaluated on a triangle."""

    lhs: float
    rhs: float
    satisfied: bool


def _law_of_cosines_rhs(xi: float, tri: GeodesicTriangle) -> float:
    return xi * tri.b**2 + tri.c**2 - 2.0 * tri.b * tri.c * math.cos(tri.angle)


def _longest_side(tri: GeodesicTriangle) -> float:
    # The comparison coefficient must cover every distance to the far vertex
    # along the expansion geodesic; the triangle's longest side does, and is
    # itself bounded by the configured diameter. Evaluating at one fixed side
    # is falsified numerically on exact spherical triangles.
    return max(tri.a, tri.b, tri.c)


def tci_holds_lower(m: Manifold, tri: GeodesicTriangle, slack: float = 1e-8) -> TciCheck:
    """Check a^2 >= xi_lower(kappa_max, s) * b^2 + c^2 - 2bc cos A, s the longest side.

    Degenerate triangles (a side below 1e-12) hold by continuity and are
    reported as satisfied with both sides still evaluated.
    """
    lhs = tri.a**2
    rhs = _law_of_cosines_rhs(xi_lower(m.kappa_max, _longest_side(tri)), tri)
    if min(tri.a, tri.b, tri.c) < _DEGENERATE_SIDE:
        return TciCheck(lhs=lhs, rhs=rhs, satisfied=True)
    return TciCheck(lhs=lhs, rhs=rhs, satisfied=lhs >= rhs - slack)


def tci_holds_upper(m: Manifold, tri: GeodesicTriangle, slack: float = 1e-8) -> TciCheck:
    """Check a^2 <= xi_upper(kappa_min, s) * b^2 + c^2 - 2bc cos A, s the longest side."""
    lhs = tri.a**2
    rhs = _law_of_cosines_rhs(xi_upper(m.kappa_min, _longest_side(tri)), tri)
    if min(tri.a, tri.b, tri.c) < _DEGENERATE_SIDE:
        return TciCheck(lhs=lhs, rhs=rhs, satisfied=True)
    return TciCheck(lhs=lhs, rhs=rhs, satisfied=lhs <= rhs + slack)
