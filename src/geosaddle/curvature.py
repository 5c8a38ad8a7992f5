"""Trigonometric comparison constants and triangle-level validators.

On a manifold with sectional curvature in [kappa_min, kappa_max], the law of
cosines for a geodesic triangle with sides a, b, c and angle A between b and
c bends into a two-sided comparison:

    xi_lower(kappa_max, s) * b^2 + c^2 - 2 b c cos A
        <= a^2 <=
    xi_upper(kappa_min, s) * b^2 + c^2 - 2 b c cos A

with the coefficients evaluated at a length s that bounds the triangle
(the convergence analysis always takes s = D, the diameter bound; the
numeric validators here use the triangle's longest side)

with xi_lower(k, c) = c sqrt(k) cot(c sqrt(k)) in (0, 1] for k > 0 (and 1
otherwise), and xi_upper(k, c) = c sqrt(-k) coth(c sqrt(-k)) >= 1 for k < 0
(and 1 otherwise). Their ratio tau = xi_upper / xi_lower >= 1 measures the
distance distortion a solver has to pay for non-flatness and enters every
extragradient step size.

This module computes the constants, and provides numeric validators that
check both inequalities on concrete triangles built from manifold points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .manifolds import Manifold, Point

__all__ = [
    "xi_lower",
    "xi_upper",
    "CurvatureConstants",
    "constants_at",
    "GeodesicTriangle",
    "TciCheck",
    "tci_holds_lower",
    "tci_holds_upper",
]

# Below this value of (c * sqrt|kappa|)^2 the closed forms hit 0/0 and the
# series expansions of x*cot(x) and x*coth(x) are used instead.
_SERIES_CUTOFF = 1e-4

_DEGENERATE_SIDE = 1e-12


def _validate_c(c: float) -> None:
    if not math.isfinite(c) or c < 0:
        raise ValueError(f"side length must be finite and nonnegative, got {c!r}")


def xi_lower(kappa_max: float, c: float) -> float:
    """Comparison coefficient under a curvature upper bound; in (0, 1].

    Equals 1 for kappa_max <= 0 or c = 0, else c*sqrt(k)*cot(c*sqrt(k)).
    Raises for c at or beyond the cotangent pole pi/sqrt(kappa_max).
    """
    _validate_c(c)
    if not math.isfinite(kappa_max):
        raise ValueError("kappa_max must be finite")
    if kappa_max <= 0.0 or c == 0.0:
        return 1.0
    x = c * math.sqrt(kappa_max)
    if x >= math.pi:
        raise ValueError(
            f"c={c!r} is at or beyond the domain pole pi/sqrt(kappa_max)={math.pi / math.sqrt(kappa_max)!r}"
        )
    if x < _SERIES_CUTOFF:
        x2 = x * x
        return 1.0 - x2 / 3.0 - x2 * x2 / 45.0
    return x / math.tan(x)


def xi_upper(kappa_min: float, c: float) -> float:
    """Comparison coefficient under a curvature lower bound; >= 1.

    Equals 1 for kappa_min >= 0 or c = 0, else c*sqrt(-k)*coth(c*sqrt(-k)).
    """
    _validate_c(c)
    if not math.isfinite(kappa_min):
        raise ValueError("kappa_min must be finite")
    if kappa_min >= 0.0 or c == 0.0:
        return 1.0
    x = c * math.sqrt(-kappa_min)
    if x < _SERIES_CUTOFF:
        x2 = x * x
        return 1.0 + x2 / 3.0 - x2 * x2 / 45.0
    return x / math.tanh(x)


@dataclass(frozen=True)
class CurvatureConstants:
    """The three comparison constants evaluated at a reference length."""

    xi_lower0: float
    xi_upper0: float
    tau0: float
    at_c: float

    def __post_init__(self):
        if not (0.0 < self.xi_lower0 <= 1.0):
            raise ValueError("xi_lower0 must lie in (0, 1]")
        if self.xi_upper0 < 1.0:
            raise ValueError("xi_upper0 must be >= 1")
        if self.tau0 < 1.0:
            raise ValueError("tau0 must be >= 1")


def constants_at(kappa_min: float, kappa_max: float, c: float) -> CurvatureConstants:
    """Evaluate all three constants at length ``c`` (typically a diameter bound)."""
    if kappa_min > kappa_max:
        raise ValueError("kappa_min must not exceed kappa_max")
    lo = xi_lower(kappa_max, c)
    hi = xi_upper(kappa_min, c)
    return CurvatureConstants(xi_lower0=lo, xi_upper0=hi, tau0=hi / lo, at_c=c)


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
