"""Comparison-constant formulas and triangle validators."""

import math
from dataclasses import fields

import mpmath
import numpy as np
import pytest

from geosaddle.curvature import (
    CurvatureConstants,
    GeodesicTriangle,
    constants_at,
    tci_holds_lower,
    tci_holds_upper,
    xi_lower,
    xi_upper,
)
from geosaddle.manifolds import Euclidean, Spd, Sphere


def xi_lower_oracle(kappa, c):
    """High-precision x*cot(x) evaluation."""
    if kappa <= 0 or c == 0:
        return 1.0
    x = mpmath.mpf(c) * mpmath.sqrt(kappa)
    return float(x * mpmath.cot(x))


def xi_upper_oracle(kappa, c):
    if kappa >= 0 or c == 0:
        return 1.0
    x = mpmath.mpf(c) * mpmath.sqrt(-kappa)
    return float(x * mpmath.coth(x))


# -- closed forms ---------------------------------------------------------------


def test_xi_lower_flat_and_negative_curvature_is_one():
    assert xi_lower(-3.0, 0.7) == 1.0
    assert xi_lower(0.0, 2.0) == 1.0


def test_xi_lower_quarter_pi():
    assert abs(xi_lower(1.0, math.pi / 4) - math.pi / 4) < 1e-12


def test_xi_lower_zero_length():
    assert xi_lower(5.0, 0.0) == 1.0
    assert xi_lower(-2.0, 0.0) == 1.0


def test_xi_upper_flat_and_positive_curvature_is_one():
    assert xi_upper(0.5, 2.0) == 1.0
    assert xi_upper(0.0, 1.0) == 1.0


def test_xi_upper_coth_value():
    assert abs(xi_upper(-1.0, 1.0) - xi_upper_oracle(-1.0, 1.0)) < 1e-12
    assert abs(xi_upper(-1.0, 1.0) - 1.3130352854993312) < 1e-12


def test_xi_upper_zero_length():
    assert xi_upper(-4.0, 0.0) == 1.0


def test_xi_values_match_high_precision_oracle():
    rng = np.random.default_rng(0)
    for _ in range(200):
        c = rng.uniform(1e-6, 3.0)
        k_pos = rng.uniform(1e-6, (0.99 * math.pi / c) ** 2)
        k_neg = -rng.uniform(1e-6, 4.0)
        assert abs(xi_lower(k_pos, c) - xi_lower_oracle(k_pos, c)) < 1e-10
        assert abs(xi_upper(k_neg, c) - xi_upper_oracle(k_neg, c)) < 1e-10


def test_tau_flat_is_one():
    assert constants_at(0.0, 0.0, 1.7).tau0 == 1.0


def test_tau_negative_curvature_only():
    assert abs(constants_at(-1.0, 0.0, 1.0).tau0 - xi_upper_oracle(-1.0, 1.0)) < 1e-12


def test_tau_composes_both_factors():
    got = constants_at(-1.0, 1.0, math.pi / 4).tau0
    want = xi_upper_oracle(-1.0, math.pi / 4) / xi_lower_oracle(1.0, math.pi / 4)
    assert abs(got - want) < 1e-12


def test_tau_requires_ordered_interval():
    with pytest.raises(ValueError, match="^kappa_min must not exceed kappa_max$"):
        constants_at(1.0, -1.0, 0.5)


def test_xi_lower_pole_rejected():
    with pytest.raises(ValueError):
        xi_lower(1.0, math.pi)
    with pytest.raises(ValueError):
        xi_lower(4.0, math.pi / 2)


def test_negative_length_rejected():
    with pytest.raises(ValueError):
        xi_lower(1.0, -0.1)
    with pytest.raises(ValueError):
        xi_upper(-1.0, -0.1)


# -- limits and monotonicity ------------------------------------------------------


def test_flat_limit_near_one():
    for kappa in (1e-3, -1e-3, 0.5, -0.5):
        c = math.sqrt(1e-7 / abs(kappa))
        assert abs(xi_lower(kappa, c) - 1.0) < 1e-6
        assert abs(xi_upper(kappa, c) - 1.0) < 1e-6


def test_series_matches_oracle_through_the_cutoff():
    for x_target in (1e-6, 5e-5, 9.9e-5, 1.01e-4, 1e-3):
        c = x_target  # kappa = 1 and -1 give x = c
        assert abs(xi_lower(1.0, c) - xi_lower_oracle(1.0, c)) < 1e-14
        assert abs(xi_upper(-1.0, c) - xi_upper_oracle(-1.0, c)) < 1e-14


def test_xi_lower_nonincreasing_in_c():
    grid = np.linspace(0.0, 0.99 * math.pi, 100)
    vals = [xi_lower(1.0, c) for c in grid]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


def test_xi_upper_nondecreasing_in_c():
    grid = np.linspace(0.0, 5.0, 100)
    vals = [xi_upper(-1.0, c) for c in grid]
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


def test_constants_at_invariants():
    k = constants_at(-0.5, 1.0, 1.3)
    assert 0.0 < k.xi_lower0 <= 1.0
    assert k.xi_upper0 >= 1.0
    assert abs(k.tau0 - k.xi_upper0 / k.xi_lower0) < 1e-15
    assert k.at_c == 1.3
    with pytest.raises(ValueError):
        CurvatureConstants(xi_lower0=1.2, xi_upper0=1.0, tau0=1.0, at_c=0.0)


# -- triangle validators -----------------------------------------------------------


def random_triangle(m, rng, max_leg):
    p = m.random_point(rng)
    q = m.exp(p, m.random_tangent(p, rng, scale=rng.uniform(0.05, max_leg)))
    r = m.exp(p, m.random_tangent(p, rng, scale=rng.uniform(0.05, max_leg)))
    return GeodesicTriangle.from_vertices(m, p, q, r)


def test_triangle_fields_consistent():
    m = Sphere(4)
    tri = random_triangle(m, np.random.default_rng(1), 0.8)
    assert [f.name for f in fields(tri)] == ["a", "b", "c", "angle"]
    assert 0.0 <= tri.angle <= math.pi


def test_euclidean_triangles_give_equality_both_sides():
    m = Euclidean(5)
    rng = np.random.default_rng(2)
    for _ in range(100):
        tri = random_triangle(m, rng, 2.0)
        lo = tci_holds_lower(m, tri)
        hi = tci_holds_upper(m, tri)
        assert lo.satisfied and hi.satisfied
        assert abs(lo.lhs - lo.rhs) < 1e-10 * (1.0 + lo.lhs)
        assert abs(hi.lhs - hi.rhs) < 1e-10 * (1.0 + hi.lhs)


def test_sphere_triangles_satisfy_lower_tci():
    m = Sphere(3)
    rng = np.random.default_rng(3)
    for _ in range(250):
        tri = random_triangle(m, rng, math.pi / 4)  # all sides stay below pi/2
        res = tci_holds_lower(m, tri)
        assert res.satisfied, (tri.a, tri.b, tri.c, tri.angle)


def test_spd_triangles_satisfy_upper_tci():
    m = Spd(2, kappa_min=-0.5, kappa_max=0.0)
    rng = np.random.default_rng(4)
    for _ in range(250):
        tri = random_triangle(m, rng, 1.5)
        res = tci_holds_upper(m, tri)
        assert res.satisfied, (tri.a, tri.b, tri.c, tri.angle)


def test_degenerate_triangle_equality():
    m = Euclidean(3)
    p = m.point([0.0, 0.0, 0.0])
    q = m.point([1.0, 0.0, 0.0])
    tri = GeodesicTriangle.from_vertices(m, p, q, q)  # c side = |pq|, b = |pq|, a = 0
    lo = tci_holds_lower(m, tri)
    hi = tci_holds_upper(m, tri)
    assert lo.satisfied and hi.satisfied
    # zero-length third side: both checks still evaluate lhs and rhs
    tri0 = GeodesicTriangle.from_vertices(m, p, q, p)
    res = tci_holds_lower(m, tri0)
    assert res.satisfied
    assert abs(res.lhs - res.rhs) < 1e-12
