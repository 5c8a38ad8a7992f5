"""Geometry kernel tests: closed-form examples, invariants, errors, serialization."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geosaddle.manifolds import (
    Euclidean,
    GeodesicNotUniqueError,
    NumericError,
    Point,
    Product,
    Spd,
    Sphere,
    Tangent,
    _root_factor,
    _sym,
    point_from_json,
    point_to_json,
    random_orthogonal,
)
from geosaddle.problems import KarcherInstance, RpcaInstance, make_karcher, make_rpca
from geosaddle.solvers import initial_state, rceg_step, running_mean_update


def e_i(d, i):
    v = np.zeros(d)
    v[i] = 1.0
    return v


def _zeros(x):
    """The zero payload of a tangent at ``x``."""
    return tuple(map(np.zeros_like, x.value)) if isinstance(x.value, tuple) else np.zeros_like(x.value)


MANIFOLDS = {
    "euclidean": (Euclidean(25), 1.0),
    "sphere": (Sphere(25), 0.5 * math.pi),  # half the injectivity radius
    "spd": (Spd(5), 1.0),
    "product": (Product((Sphere(7), Spd(3), Euclidean(4))), 0.8),
    "spd_power": (Product(tuple(Spd(3) for _ in range(4))), 0.8),
}


@pytest.fixture(params=MANIFOLDS.keys())
def manifold_and_scale(request):
    return MANIFOLDS[request.param]


# -- closed-form examples ------------------------------------------------------


def test_euclidean_exp_is_translation():
    m = Euclidean(2)
    x = m.point([1.0, 2.0])
    v = m.tangent(x, [0.5, -1.0])
    assert np.allclose(m.exp(x, v).value, [1.5, 1.0], atol=0, rtol=0)


def test_euclidean_log_is_difference():
    m = Euclidean(2)
    assert np.array_equal(m.log(m.point([0.0, 0.0]), m.point([3.0, 4.0])).value, [3.0, 4.0])


def test_sphere_exp_quarter_turn():
    m = Sphere(3)
    x = m.point(e_i(3, 0))
    v = m.tangent(x, (math.pi / 2) * e_i(3, 1))
    assert np.allclose(m.exp(x, v).value, e_i(3, 1), atol=1e-15)


def test_sphere_log_quarter_turn():
    m = Sphere(3)
    got = m.log(m.point(e_i(3, 0)), m.point(e_i(3, 1)))
    assert np.allclose(got.value, (math.pi / 2) * e_i(3, 1), atol=1e-15)


def test_spd_exp_at_identity_is_matrix_exponential():
    m = Spd(3)
    rng = np.random.default_rng(0)
    x = m.point(np.eye(3))
    g = rng.standard_normal((3, 3))
    v = m.tangent(x, 0.5 * (g + g.T))
    w, q = np.linalg.eigh(v.value)
    expected = (q * np.exp(w)) @ q.T
    assert np.allclose(m.exp(x, v).value, expected, atol=1e-12)


def test_spd_scalar_log():
    m = Spd(1)
    got = m.log(m.point([[1.0]]), m.point([[math.exp(4.0)]]))
    assert abs(got.value[0, 0] - 4.0) < 1e-12


def test_spd_scalar_inner():
    m = Spd(1)
    x = m.point([[2.0]])
    u = m.tangent(x, [[1.0]])
    assert abs(m.inner(u, u) - 0.25) < 1e-15


def test_inner_at_identity_is_trace_product():
    m = Spd(3)
    rng = np.random.default_rng(1)
    x = m.point(np.eye(3))
    u = m.tangent(x, 0.5 * (lambda g: g + g.T)(rng.standard_normal((3, 3))))
    v = m.tangent(x, 0.5 * (lambda g: g + g.T)(rng.standard_normal((3, 3))))
    assert abs(m.inner(u, v) - np.trace(u.value @ v.value)) < 1e-12


def test_euclidean_inner_orthogonal():
    m = Euclidean(2)
    x = m.point([0.0, 0.0])
    assert m.inner(m.tangent(x, [1.0, 0.0]), m.tangent(x, [0.0, 1.0])) == 0.0


def test_sphere_distance_quarter_turn():
    m = Sphere(3)
    assert abs(m.distance(m.point(e_i(3, 0)), m.point(e_i(3, 1))) - math.pi / 2) < 1e-15


def test_spd_distance_diagonal():
    m = Spd(2)
    a = m.point(np.diag([1.0, 1.0]))
    b = m.point(np.diag([math.exp(2.0), 1.0]))
    assert abs(m.distance(a, b) - 2.0) < 1e-12


def test_distance_to_self_is_zero(manifold_and_scale):
    m, _ = manifold_and_scale
    x = m.random_point(np.random.default_rng(7))
    assert m.distance(x, x) < 1e-12


def test_sphere_transport_quarter_turn():
    m = Sphere(3)
    x = m.point(e_i(3, 0))
    y = m.point(e_i(3, 1))
    v = m.tangent(x, (math.pi / 2) * e_i(3, 1))
    got = m.transport(x, y, v)
    assert np.allclose(got.value, -(math.pi / 2) * e_i(3, 0), atol=1e-15)


def test_transport_to_same_point_is_identity(manifold_and_scale):
    m, scale = manifold_and_scale
    rng = np.random.default_rng(3)
    x = m.random_point(rng)
    v = m.random_tangent(x, rng, scale=scale)
    got = m.transport(x, x, v)
    assert m.norm(got - v) < 1e-12


def test_euclidean_transport_is_identity():
    m = Euclidean(4)
    rng = np.random.default_rng(4)
    x, y = m.random_point(rng), m.random_point(rng)
    v = m.random_tangent(x, rng, scale=2.0)
    assert np.array_equal(m.transport(x, y, v).value, v.value)


# -- invariants over random samples ---------------------------------------------


def test_exp_log_roundtrip(manifold_and_scale):
    m, scale = manifold_and_scale
    rng = np.random.default_rng(10)
    for _ in range(200):
        x = m.random_point(rng)
        v = m.random_tangent(x, rng, scale=scale * rng.uniform(0.05, 1.0))
        w = m.log(x, m.exp(x, v))
        err = m.norm(w - v) / max(1.0, m.norm(v))
        assert err < 1e-9


def test_transport_isometry(manifold_and_scale):
    m, scale = manifold_and_scale
    rng = np.random.default_rng(11)
    for _ in range(200):
        x, y = m.random_point(rng), m.random_point(rng)
        u = m.random_tangent(x, rng, scale=scale)
        v = m.random_tangent(x, rng, scale=scale)
        lhs = m.inner(u, v)
        rhs = m.inner(m.transport(x, y, u), m.transport(x, y, v))
        assert abs(lhs - rhs) < 1e-9 * (1.0 + abs(lhs))


def test_distance_matches_log_norm(manifold_and_scale):
    m, _ = manifold_and_scale
    rng = np.random.default_rng(12)
    for _ in range(200):
        x, y = m.random_point(rng), m.random_point(rng)
        d = m.distance(x, y)
        assert abs(d - m.norm(m.log(x, y))) < 1e-10 * (1.0 + d)


def test_triangle_inequality(manifold_and_scale):
    m, _ = manifold_and_scale
    rng = np.random.default_rng(13)
    for _ in range(200):
        x, y, z = (m.random_point(rng) for _ in range(3))
        assert m.distance(x, z) <= m.distance(x, y) + m.distance(y, z) + 1e-9


def test_transport_maps_log_to_reversed_log(manifold_and_scale):
    m, _ = manifold_and_scale
    rng = np.random.default_rng(14)
    for _ in range(50):
        x, y = m.random_point(rng), m.random_point(rng)
        carried = m.transport(x, y, m.log(x, y))
        back = m.log(y, x)
        assert m.norm(carried + back) < 1e-8 * (1.0 + m.distance(x, y))


def test_spd_affine_invariance():
    m = Spd(5)
    rng = np.random.default_rng(15)
    for _ in range(100):
        x, y = m.random_point(rng), m.random_point(rng)
        a = rng.standard_normal((5, 5)) + 0.5 * np.eye(5)
        xa = m.point(a.T @ x.value @ a)
        ya = m.point(a.T @ y.value @ a)
        assert abs(m.distance(xa, ya) - m.distance(x, y)) < 1e-8


# -- stacked SPD kernels against the per-slice loop ----------------------------------


def _per_slice(kernel, args, k):
    """The kernel called on one slice at a time; 2-D arguments are shared by every slice."""
    return [kernel(*(a if a.ndim == 2 else a[i] for a in args)) for i in range(k)]


def assert_stacked_kernels_match_loop(d, k, rng):
    spd = Spd(d)
    xs, ys = (np.stack([spd._random_point(rng) for _ in range(k)]) for _ in range(2))
    vs = 0.5 * _sym(rng.standard_normal((k, d, d)))
    f = _root_factor(xs)
    loop = _per_slice(_root_factor, (xs,), k)
    np.testing.assert_array_equal(f.g, np.stack([h.g for h in loop]))
    np.testing.assert_array_equal(f.g_inv, np.stack([h.g_inv for h in loop]))
    for kernel, args in (
        (lambda x, v: spd._exp(x, v)[0], (xs, vs)),
        (spd._log, (xs, ys)),
        (spd._distance, (xs, ys)),
        (spd._transport, (xs, ys, vs)),
    ):
        np.testing.assert_array_equal(kernel(*args), np.stack(_per_slice(kernel, args, k)))
        for slot in range(len(args)):  # one 2-D argument broadcast against the stacks
            mixed = tuple(a[-1] if j == slot else a for j, a in enumerate(args))
            np.testing.assert_array_equal(kernel(*mixed), np.stack(_per_slice(kernel, mixed, k)))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 7), k=st.integers(1, 9))
def test_stacked_spd_kernels_match_per_slice_loop(seed, d, k):
    assert_stacked_kernels_match_loop(d, k, np.random.default_rng(seed))


def test_stacked_spd_kernels_match_per_slice_loop_at_benchmark_size():
    assert_stacked_kernels_match_loop(25, 40, np.random.default_rng(25))


def _thin(d, rng):
    # condition number 1e13, past the 1e12 PD threshold
    q = random_orthogonal(d, rng)
    return _sym((q * np.r_[np.ones(d - 1), 1e-13]) @ q.T)


def test_stacked_spd_kernel_names_the_failing_slice():
    spd, rng = Spd(4), np.random.default_rng(26)
    stack = np.stack([spd._random_point(rng) for _ in range(6)])
    stack[4] = _thin(4, rng)
    with pytest.raises(NumericError, match="SPD point: eigenvalue .* of slice 4 below the PD threshold"):
        _root_factor(stack)
    with pytest.raises(NumericError, match="SPD log: eigenvalue .* of slice 4 below the PD threshold"):
        spd._log(spd._random_point(rng), stack)


def test_non_pd_point_message_names_no_slice():
    spd = Spd(4)
    thin = _thin(4, np.random.default_rng(27))
    for call in (lambda: _root_factor(thin), lambda: spd.point(thin)):
        with pytest.raises(NumericError, match=r"^SPD point: eigenvalue -?\d\.\d{3}e[+-]\d+ below the PD threshold$") as err:
            call()
        assert "slice" not in str(err.value)


# -- SPD^N as one stacked payload against the per-factor loop ------------------------


def _spd_power(d, n):
    return Product(tuple(Spd(d) for _ in range(n)))


def _per_factor(kernel, *payloads):
    """The loop a mixed product runs: the factor kernel on one factor's payloads at a time."""
    return [kernel(*parts) for parts in zip(*payloads)]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 5), n=st.integers(1, 25))
def test_spd_power_kernels_match_per_factor_loop(seed, d, n):
    m = _spd_power(d, n)
    spd = m.factors[0]
    rng = np.random.default_rng(seed)
    x, y = m.random_point(rng), m.random_point(rng)
    u, v = m.random_tangent(x, rng), m.random_tangent(x, rng)
    xs, ys, us, vs = x.value, y.value, u.value, v.value
    assert xs.shape == (n, d, d) and us.shape == (n, d, d)
    for kernel, loop_kernel, args in (
        (lambda x, v: m._exp(x, v)[0], lambda x, v: spd._exp(x, v)[0], (xs, us)),
        (m._log, spd._log, (xs, ys)),
        (m._transport, spd._transport, (xs, ys, us)),
    ):
        np.testing.assert_array_equal(kernel(*args), np.stack(_per_factor(loop_kernel, *args)))
    # the per-factor terms are added left to right, as the loop adds them
    assert m._inner(xs, us, vs) == sum(_per_factor(spd._inner, xs, us, vs))
    assert m._distance(xs, ys) == math.sqrt(sum(t**2 for t in _per_factor(spd._distance, xs, ys)))
    t = int(rng.integers(1, 50))
    bar = running_mean_update(m, x, y, t)
    ref = [running_mean_update(spd, spd.point(a), spd.point(b), t).value for a, b in zip(xs, ys)]
    np.testing.assert_array_equal(bar.value, np.stack(ref))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 5), n=st.integers(1, 25))
def test_spd_power_draws_and_json_match_the_factor_payloads(seed, d, n):
    m = _spd_power(d, n)
    spd = m.factors[0]
    x = m.random_point(np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    xs = [spd._random_point(rng) for _ in range(n)]
    np.testing.assert_array_equal(x.value, np.stack(xs))
    rng_a, rng_b = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    np.testing.assert_array_equal(
        m.standard_gaussian_tangent(x, rng_a).value, np.stack([spd._gauss_tangent(a, rng_b) for a in xs])
    )
    data = point_to_json(x)
    assert data == {"kind": "product", "payload": [a.tolist() for a in xs]}
    np.testing.assert_array_equal(point_from_json(m, data).value, x.value)


def _count_eigh(monkeypatch):
    eigh, calls = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    return calls


def test_spd_power_error_names_the_failing_factor(monkeypatch):
    m, rng = _spd_power(4, 6), np.random.default_rng(28)
    x = m.random_point(rng).value
    bad = x.copy()
    bad[4] = _thin(4, rng)
    calls = _count_eigh(monkeypatch)
    with pytest.raises(NumericError, match="SPD point: eigenvalue .* of slice 4 below the PD threshold"):
        m.point(bad)
    assert calls == [(6, 4, 4)]  # the whole stack in one decomposition call
    monkeypatch.undo()
    skew = x.copy()
    skew[4, 0, 1] += 1e-3
    with pytest.raises(ValueError, match="^SPD point of slice 4 must be symmetric$"):
        m.point(skew)
    with pytest.raises(ValueError, match="^SPD tangent of slice 4 must be symmetric$"):
        m.tangent(m.point(x), skew - x)
    with pytest.raises(NumericError, match="SPD log: eigenvalue .* of slice 4 below the PD threshold"):
        m._log(x, bad)
    with pytest.raises(NumericError, match="SPD distance: eigenvalue .* of slice 4 below the PD threshold"):
        m._distance(x, bad)
    with pytest.raises(NumericError, match="SPD point: eigenvalue .* of slice 4 below the PD threshold"):
        m._exp(bad, np.zeros_like(bad))
    v = np.zeros_like(x)
    v[2] = 800.0 * x[2]  # whitened sandwich 800 I, past exp's overflow
    with pytest.raises(NumericError, match="SPD exp: overflow in matrix exponential of slice 2$"):
        m._exp(x, v)


def _count_eigvalsh(monkeypatch):
    eigvalsh, calls = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    return calls


@pytest.mark.parametrize(
    "make, first, steady",
    [
        # One joint SPD^21 stack per base point: grad whitening 40, exp 21, grad whitening at the
        # half-iterate 40 (its factor came from exp), exp 21; the log back to the iterate reads exp's
        # decomposition. The start points carry the factors that initial_state made, so the first step
        # makes the same calls (it made [21, 40, 21, 40, 21] when a roots memo decomposed them in the step).
        # Before the factor was carried out of exp: 7 calls, roots(z_half) and the log whitening on top.
        (lambda: make_karcher(KarcherInstance.generate(3, 20, 3.0, seed=5)), [40, 21, 40, 21], [40, 21, 40, 21]),
        # grad whitening 40, exp at M_t, grad whitening at the half-iterate 40, exp; 7 before, and the
        # first step [1, 40, 1, 40, 1] with the memo.
        (lambda: make_rpca(RpcaInstance.generate(25, 40, 6.0, seed=7)), [40, 1, 40, 1], [40, 1, 40, 1]),
    ],
    ids=["karcher", "rpca"],
)
def test_rceg_step_decomposes_each_spd_base_point_once(monkeypatch, make, first, steady):
    p, rng = make(), np.random.default_rng(30)
    state = initial_state(p, p.m_min.random_point(rng), p.m_max.random_point(rng))
    counted, checked = _count_eigh(monkeypatch), _count_eigvalsh(monkeypatch)
    for want in (first, steady):
        counted.clear()
        state = rceg_step(p, state, 0.05)
        assert [math.prod(shape[:-2]) for shape in counted] == want
    assert checked == []  # no condition bound came near the exact check


def test_spd_point_factor_is_bit_equal_to_a_fresh_decomposition(monkeypatch):
    # The factor comes from the decomposition that validates the point, and the kernels read it.
    m, rng = _spd_power(4, 5), np.random.default_rng(31)
    x = np.stack([m.factors[0]._random_point(rng) for _ in range(5)])
    counted = _count_eigh(monkeypatch)
    p = m.point(x)
    assert counted == [(5, 4, 4)]
    m.distance(p, m.point(x[::-1]))
    assert counted[1:] == [(5, 4, 4), (5, 4, 4)]  # the second point's validation, then one whitening
    monkeypatch.undo()
    w, q = np.linalg.eigh(_sym(x))
    s, qt = np.sqrt(w)[..., None, :], q.swapaxes(-1, -2)
    assert np.array_equal(p.factor.g, _sym((q * s) @ qt)) and np.array_equal(p.factor.g_inv, _sym((q / s) @ qt))


def test_a_write_to_the_source_array_cannot_reach_a_point_or_its_factor():
    m, rng = Spd(3), np.random.default_rng(32)
    a = m._random_point(rng)
    x, y = m.point(a), m.random_point(rng)
    before = m.log(x, y).value
    a *= 4.0
    assert x.value is not a and np.array_equal(x.value, 0.25 * a)
    np.testing.assert_array_equal(m.log(x, y).value, before)
    fresh = _root_factor(x.value)
    for got, want in zip(x.factor, fresh):
        np.testing.assert_array_equal(got, want)
    for arr in (x.value, x.factor.g, x.factor.g_inv):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 0.0
    # a mixed product keeps a copy of each entry; only the SPD entry carries a factor and is read-only
    mixed = Product((Sphere(3), Spd(3)))
    u = np.array([1.0, 0.0, 0.0])
    z = mixed.point((u, a))
    assert z.factor[0] is None and z.value[0] is not u and z.value[0].flags.writeable
    assert z.value[1] is not a and not z.value[1].flags.writeable


def test_a_non_pd_point_raises_on_every_call(monkeypatch):
    m = Spd(3)
    bad = np.diag([1.0, 1.0, -1.0])
    x, y = Point(m, bad), m.point(np.eye(3))  # x built without validation, so without a factor
    counted = _count_eigh(monkeypatch)
    calls = (lambda: m.point(bad), lambda: m.log(x, y), lambda: m.distance(x, y), lambda: m.exp(x, m.tangent(x, _zeros(x))))
    for _ in range(2):
        for call in calls:
            with pytest.raises(NumericError, match=r"^SPD point: eigenvalue -1\.000e\+00 below the PD threshold$"):
                call()
    assert len(counted) == 2 * len(calls)  # each call decomposes afresh: no failure is kept


def test_exp_results_carry_read_only_factors_and_a_failure_raises_every_time():
    m, rng = Spd(3), np.random.default_rng(35)
    x = m.random_point(rng)
    for _ in range(24):
        x = m.exp(x, 0.1 * m.standard_gaussian_tangent(x, rng))
    for a in (x.value, x.factor.g, x.factor.g_inv, x.factor.s):
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0.0
    eye = m.point(np.eye(3))
    v = m.tangent(eye, np.diag([0.0, 0.0, -30.0]))
    for _ in range(2):  # e^-30 on one eigenvalue of X = I: condition number 1.07e13, beta (2 + e^-30) e^30
        msg = r"^SPD exp: eigenvalue 9\.358e-14 below the PD threshold \(condition bound 2\.137e\+13\)$"
        with pytest.raises(NumericError, match=msg):
            m.exp(eye, v)


def test_a_kernel_reads_only_the_points_passed_to_it():
    # log(x, y) at an exp result keeps its bits however many other points the kernels saw in between.
    m, rng = Spd(4), np.random.default_rng(1)
    x0 = m.random_point(rng)
    x = m.exp(x0, 0.3 * m.random_tangent(x0, rng))
    y = m.random_point(rng)
    before = m.log(x, y).value
    for _ in range(9):
        m.log(m.random_point(rng), y)
    np.testing.assert_array_equal(m.log(x, y).value, before)


# -- the factor carried out of exp ---------------------------------------------------


def _fresh_fn(m, f):
    w, q = np.linalg.eigh(_sym(m))
    return _sym((q * f(w)) @ q.T)


def _fresh_roots(x):
    w, q = np.linalg.eigh(x)
    return (q * np.sqrt(w)) @ q.T, (q / np.sqrt(w)) @ q.T


def _fresh_exp(x, v):
    half, inv_half = _fresh_roots(x)
    return _sym(half @ _fresh_fn(inv_half @ v @ inv_half, np.exp) @ half)


def _fresh_log(x, y):
    half, inv_half = _fresh_roots(x)
    return _sym(half @ _fresh_fn(inv_half @ y @ inv_half, np.log) @ half)


def _fresh_transport(x, y, v):
    half, inv_half = _fresh_roots(y)
    e = half @ _fresh_fn(inv_half @ x @ inv_half, lambda w: w**-0.5) @ inv_half
    return _sym(e @ v @ e.T)


@pytest.mark.parametrize("d, kappa", [(3, 4.0), (25, 4.0), (3, 1e11), (25, 1e11)])
def test_kernels_at_a_factor_from_exp_match_fresh_roots(monkeypatch, d, kappa):
    # x comes out of exp, so it carries a non-symmetric factor G; each kernel at x must match the same
    # kernel at freshly decomposed symmetric roots, and the log back from exp_x(v) reads exp's own
    # decomposition. Near the PD threshold the fresh result itself is good only to about eps * cond(x).
    rng, spd = np.random.default_rng(d), Spd(d)
    q = random_orthogonal(d, rng)
    x0 = spd.point(_sym((q * np.geomspace(1.0, kappa, d)) @ q.T))
    x = spd.exp(x0, 0.3 * spd.standard_gaussian_tangent(x0, rng))
    g = x.factor.g
    assert np.linalg.norm(g - g.T) > 0.1 * np.linalg.norm(g)  # not symmetric
    v, u = 0.3 * spd.standard_gaussian_tangent(x, rng), spd.standard_gaussian_tangent(x, rng)
    y = spd.exp(x, v)
    counted = _count_eigh(monkeypatch)
    back = spd.log(y, x)
    assert counted == []
    tol = 1e-12 if kappa < 100 else np.finfo(float).eps * np.linalg.cond(x.value)
    for got, want in (
        (y.value, _fresh_exp(x.value, v.value)),
        (back.value, _fresh_log(y.value, x.value)),
        (spd.log(x, y).value, _fresh_log(x.value, y.value)),
        (spd.transport(x, y, u).value, _fresh_transport(x.value, y.value, u.value)),
    ):
        assert np.linalg.norm(got - want) <= tol * np.linalg.norm(want)


def _beta(f):
    """exp's condition bound |F|_F^2 |F^-1|_F^2 of a factor."""
    return np.linalg.norm(f.g) ** 2 * np.linalg.norm(f.g_inv) ** 2


def test_exp_checks_its_result_when_beta_passes_the_bound(monkeypatch):
    spd, rng = Spd(3), np.random.default_rng(36)
    x = spd.random_point(rng)
    checked = _count_eigvalsh(monkeypatch)
    for _ in range(20):
        x = spd.exp(x, 0.2 * spd.standard_gaussian_tangent(x, rng))
        assert _beta(x.factor) >= np.linalg.cond(x.value) * (1 - 1e-9)
    assert checked == []
    eye = spd.point(np.eye(3))
    # e^-22 on one eigenvalue of I: condition number 3.6e9, beta (2 + e^-22) e^22 = 7.2e9, under the exact check
    y = spd.exp(eye, spd.tangent(eye, np.diag([0.0, 0.0, -22.0])))
    assert checked == [] and math.isclose(_beta(y.factor), 2 * math.exp(22.0), rel_tol=1e-6)
    # e^-23: condition number 9.7e9 is under 1e10 but beta 1.95e10 is not, so exp checks the point, which passes
    y = spd.exp(eye, spd.tangent(eye, np.diag([0.0, 0.0, -23.0])))
    assert checked == [(3, 3)] and math.isclose(_beta(y.factor), 1.95e10, rel_tol=1e-3)
    assert math.isclose(np.linalg.cond(y.value), math.exp(23.0), rel_tol=1e-6)


def test_exp_does_not_check_a_long_chain_of_well_conditioned_results(monkeypatch):
    # beta depends on the result alone; a bound carried along the chain grew past 1e10 here and paid a check.
    spd, rng = Spd(5), np.random.default_rng(0)
    x = spd.random_point(rng)
    checked = _count_eigvalsh(monkeypatch)
    for _ in range(100):
        x = spd.exp(x, spd.random_tangent(x, rng, 0.3))
    assert checked == []
    assert np.linalg.cond(x.value) < 100


def test_stacked_exp_failure_names_the_slice_and_its_bound():
    spd = Spd(3)
    x = np.stack([np.eye(3)] * 4)
    v = np.zeros_like(x)
    v[2] = np.diag([0.0, 0.0, -30.0])
    msg = r"^SPD exp: eigenvalue 9\.358e-14 of slice 2 below the PD threshold \(condition bound 2\.137e\+13\)$"
    with pytest.raises(NumericError, match=msg):
        spd._exp(x, v)


def test_spd_norm_matches_inner_with_an_equal_copy():
    m, rng = Spd(4), np.random.default_rng(34)
    x = m.random_point(rng)
    v = m.random_tangent(x, rng, 2.5)
    assert m.inner(v, v) == m.inner(v, Tangent(x, v.value.copy()))


@pytest.mark.parametrize(
    "m", [_spd_power(2, 3), Product((Sphere(3), Spd(2), Euclidean(2)))], ids=["spd_power", "mixed"]
)
def test_product_rejects_a_payload_with_the_wrong_factor_count(m):
    x = m.random_point(np.random.default_rng(30))
    v = m.tangent(x, _zeros(x)).value
    for payload, zero in ((x.value[:-1], v[:-1]), ((*x.value, x.value[0]), (*v, v[0]))):
        with pytest.raises(ValueError, match="expected"):
            m.point(payload)
        with pytest.raises(ValueError, match="expected"):
            m.tangent(x, zero)


def test_mixed_products_keep_the_per_factor_loop():
    rng = np.random.default_rng(29)
    for m in (Product((Sphere(4), Spd(2))), Product((Spd(2), Spd(3))), Product((Spd(2), Spd(2, kappa_max=0.0)))):
        assert m._power is None
        x, y = m.random_point(rng), m.random_point(rng)
        assert isinstance(x.value, tuple)
        v = m.log(x, y)
        assert m.distance(m.exp(x, v), y) < 1e-10
        assert abs(m.norm(v) - m.distance(x, y)) < 1e-10
        assert abs(m.norm(m.transport(x, y, v)) - m.norm(v)) < 1e-10
        want = math.sqrt(sum(f.distance(f.point(a), f.point(b)) ** 2 for f, a, b in zip(m.factors, x.value, y.value)))
        assert m.distance(x, y) == want


def test_mixed_product_errors_name_the_factor():
    m = Product((Spd(2), Spd(3)))
    with pytest.raises(NumericError, match=r"^SPD point: eigenvalue -?\d\.\d{3}e[+-]\d+ below the PD threshold of factor 1$"):
        m.point((np.eye(2), np.diag([1.0, 1.0, -1.0])))
    m = Product((Sphere(3), Spd(2)))
    x = m.point((np.array([1.0, 0.0, 0.0]), np.eye(2)))
    with pytest.raises(ValueError, match="orthogonal to base.* of factor 0$"):
        m.tangent(x, (np.array([1.0, 1.0, 0.0]), np.zeros((2, 2))))


# -- geometry identities --------------------------------------------------------------

GEOMETRIES = st.sampled_from(["sphere", "spd", "spd_power"])


def _geometry(kind, d, n):
    return {"sphere": Sphere(d), "spd": Spd(d), "spd_power": _spd_power(d, n)}[kind]


@settings(max_examples=60, deadline=None)
@given(kind=GEOMETRIES, seed=st.integers(0, 2**32 - 1), d=st.integers(2, 5), n=st.integers(1, 6))
def test_exp_inverts_log(kind, seed, d, n):
    m, rng = _geometry(kind, d, n), np.random.default_rng(seed)
    x, y = m.random_point(rng), m.random_point(rng)
    assert m.distance(m.exp(x, m.log(x, y)), y) <= 1e-9 * (1.0 + m.distance(x, y))


@settings(max_examples=60, deadline=None)
@given(kind=GEOMETRIES, seed=st.integers(0, 2**32 - 1), d=st.integers(2, 5), n=st.integers(1, 6))
def test_transport_keeps_the_metric_and_inverts_along_the_reversed_geodesic(kind, seed, d, n):
    m, rng = _geometry(kind, d, n), np.random.default_rng(seed)
    x, y = m.random_point(rng), m.random_point(rng)
    u, v = m.random_tangent(x, rng), m.random_tangent(x, rng)
    pu, pv = m.transport(x, y, u), m.transport(x, y, v)
    assert abs(m.inner(pu, pv) - m.inner(u, v)) <= 1e-9
    assert abs(m.norm(pu) - 1.0) <= 1e-9
    assert m.norm(m.transport(y, x, pu) - u) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(kind=GEOMETRIES, seed=st.integers(0, 2**32 - 1), d=st.integers(2, 5), n=st.integers(1, 6))
def test_distance_is_symmetric(kind, seed, d, n):
    m, rng = _geometry(kind, d, n), np.random.default_rng(seed)
    x, y = m.random_point(rng), m.random_point(rng)
    assert math.isclose(m.distance(x, y), m.distance(y, x), rel_tol=1e-12)


def _ill_conditioned(d, log10_cond, rng):
    """An SPD matrix with condition number 10**log10_cond and a random spectrum scale."""
    q = random_orthogonal(d, rng)
    lam = 10.0 ** (rng.uniform(-1.0, 1.0) - log10_cond * rng.permutation(np.linspace(0.0, 1.0, d)))
    return _sym((q * lam) @ q.T)


@settings(max_examples=60, deadline=None)
@given(
    power=st.booleans(), seed=st.integers(0, 2**32 - 1), d=st.integers(2, 5), n=st.integers(1, 6),
    log10_cond=st.floats(0.0, 8.0),
)
def test_spd_up_to_condition_1e8_passes_or_raises_numeric_error(power, seed, d, n, log10_cond):
    rng = np.random.default_rng(seed)
    m = _spd_power(d, n) if power else Spd(d)

    def draw():
        mats = [_ill_conditioned(d, log10_cond, rng) for _ in range(n)]
        return mats if power else mats[0]

    x, y = m.point(draw()), m.point(draw())  # cond <= 1e8 is far inside the PD threshold
    try:
        v = m.log(x, y)
        outs = [v, m.exp(x, v), m.transport(x, y, v), m.transport(y, x, m.transport(x, y, v)), m.exp(y, m.log(y, x))]
        scalars = [m.distance(x, y), m.distance(y, x), m.norm(v)]
    except NumericError:
        return  # the whitened pair can reach cond 1e16, past the PD threshold
    assert all(np.all(np.isfinite(o.value)) for o in outs)
    assert all(math.isfinite(t) and t >= 0.0 for t in scalars)


def _unit(a):
    return a / np.linalg.norm(a)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1), d=st.integers(2, 6),
    gap=st.one_of(st.just(0.0), st.floats(1e-16, 1e-6)),
)
def test_sphere_log_near_the_antipode(seed, d, gap):
    # y sits at 1 + <x, y> = gap, so within 1e-6 of the antipode of x
    m, rng = Sphere(d), np.random.default_rng(seed)
    x = m.random_point(rng)
    e = m.project_tangent(x.value, rng.standard_normal(d))
    theta = math.pi - 2.0 * math.asin(math.sqrt(gap / 2.0))
    y = m.point(_unit(math.cos(theta) * x.value + math.sin(theta) * (e / np.linalg.norm(e))))
    if float(np.dot(x.value, y.value)) <= -1.0 + 1e-12:
        with pytest.raises(GeodesicNotUniqueError):
            m.log(x, y)
        return
    v = m.log(x, y)
    assert np.all(np.isfinite(v.value))
    assert m.distance(m.exp(x, v), y) <= 1e-9


# -- errors ---------------------------------------------------------------------


def test_sphere_antipodal_log_rejected():
    m = Sphere(4)
    x = m.point(e_i(4, 0))
    y = m.point(-e_i(4, 0))
    with pytest.raises(GeodesicNotUniqueError):
        m.log(x, y)


def test_spd_rejects_non_positive_definite():
    m = Spd(2)
    with pytest.raises(NumericError):
        m.point(np.diag([1.0, -0.5]))


def test_spd_rejects_asymmetric():
    m = Spd(2)
    with pytest.raises(ValueError):
        m.point(np.array([[1.0, 0.5], [0.0, 1.0]]))


@pytest.mark.parametrize(
    "m, point, tangent",
    [
        (Euclidean(2), (1.0, 2.0), (0.5, -1.0)),
        (Sphere(3), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)),
        (Spd(2), ((2.0, 0.5), (0.5, 1.0)), ((1.0, 0.0), (0.0, -1.0))),
    ],
    ids=["euclidean", "sphere", "spd"],
)
def test_tuple_payloads_are_coerced_like_arrays(m, point, tangent):
    x = m.point(point)
    np.testing.assert_array_equal(x.value, np.asarray(point, dtype=float))
    np.testing.assert_array_equal(m.tangent(x, tangent).value, np.asarray(tangent, dtype=float))


def test_sphere_rejects_non_unit():
    with pytest.raises(ValueError):
        Sphere(3).point([1.0, 1.0, 0.0])


def test_tangent_base_mismatch_rejected():
    m = Euclidean(2)
    rng = np.random.default_rng(16)
    x, y = m.random_point(rng), m.random_point(rng)
    v = m.random_tangent(x, rng, scale=1.0)
    with pytest.raises(ValueError):
        m.exp(y, v)
    with pytest.raises(ValueError):
        v + m.random_tangent(y, rng, scale=1.0)


def test_cross_manifold_point_rejected():
    with pytest.raises(ValueError):
        Euclidean(3).distance(Euclidean(3).point([0, 0, 0]), Euclidean(2).point([0, 0]))  # type: ignore[arg-type]


def test_non_finite_payload_rejected():
    with pytest.raises(NumericError):
        Euclidean(2).point([np.nan, 0.0])


def test_sphere_tangent_orthogonality_enforced():
    m = Sphere(3)
    x = m.point(e_i(3, 0))
    with pytest.raises(ValueError):
        m.tangent(x, e_i(3, 0))


@pytest.mark.filterwarnings("error")
def test_spd_exp_overflow_raises_numeric_error():
    m = Spd(2)
    x = m.point(np.eye(2))
    # exp(1e4) overflows float64; exp(709.5) is finite, but the congruence around it is not
    for v in (1e4 * np.eye(2), np.diag([709.5, 0.0])):
        with pytest.raises(NumericError, match="^SPD exp: overflow in matrix exponential$"):
            m.exp(x, m.tangent(x, v))


def _raw_tangent(m, x, bad):
    # Tangent() skips the payload checks that reject non-finite entries, as a
    # step's arithmetic does when a huge step size overflows.
    if isinstance(m, Sphere):
        v = np.zeros(m.d)
        v[1] = bad
        return Tangent(x, v)
    return Tangent(x, np.full((m.n, m.n), bad))


@pytest.mark.parametrize("m", [Sphere(3), Spd(3)], ids=["sphere", "spd"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 1e200], ids=["inf", "-inf", "nan", "overflow"])
def test_exp_of_non_finite_tangent_raises_numeric_error(m, bad):
    x = m.point(e_i(3, 0) if isinstance(m, Sphere) else np.diag([1.0, 2.0, 3.0]))
    # numpy's default over/invalid warnings as errors: the kernel must raise without printing one
    with warnings.catch_warnings(), np.errstate(over="warn", invalid="warn"), pytest.raises(NumericError):
        warnings.simplefilter("error")
        m.exp(x, _raw_tangent(m, x, bad))


def test_exp_finite_outputs_match_the_closed_forms_bit_for_bit():
    # The non-finite checks add no arithmetic on the finite path.
    rng = np.random.default_rng(12)
    sphere = Sphere(4)
    x = sphere.random_point(rng)
    v = sphere.random_tangent(x, rng, scale=0.7)
    theta = np.linalg.norm(v.value)
    ref = math.cos(theta) * x.value + math.sin(theta) * (v.value / theta)
    assert np.array_equal(sphere.exp(x, v).value, ref / np.linalg.norm(ref))

    spd = Spd(3)
    x = spd.random_point(rng)
    v = spd.random_tangent(x, rng, scale=0.7)
    g, g_inv = x.factor.g, x.factor.g_inv
    s, q = np.linalg.eigh(_sym(g_inv @ v.value @ g_inv.T))
    f = g @ (q * np.exp(0.5 * s))
    assert np.array_equal(spd.exp(x, v).value, _sym(f @ f.T))


# -- randomness -----------------------------------------------------------------


def _payloads_equal(a, b) -> bool:
    if isinstance(a, tuple):
        return all(_payloads_equal(x, y) for x, y in zip(a, b))
    return np.array_equal(a, b)


def test_random_point_seeded_determinism(manifold_and_scale):
    m, _ = manifold_and_scale
    a = m.random_point(np.random.default_rng(42))
    b = m.random_point(np.random.default_rng(42))
    assert _payloads_equal(a.value, b.value)


def test_sphere_random_point_unit_norm():
    m = Sphere(9)
    rng = np.random.default_rng(17)
    for _ in range(50):
        assert abs(np.linalg.norm(m.random_point(rng).value) - 1.0) < 1e-12


def test_random_tangent_norm_and_invariants(manifold_and_scale):
    m, _ = manifold_and_scale
    rng = np.random.default_rng(18)
    x = m.random_point(rng)
    v = m.random_tangent(x, rng, scale=0.37)
    assert abs(m.norm(v) - 0.37) < 1e-12
    m.tangent(x, v.value)  # re-validates the tangent invariants


def test_exp_of_zero_tangent_is_identity(manifold_and_scale):
    m, _ = manifold_and_scale
    x = m.random_point(np.random.default_rng(19))
    assert m.distance(m.exp(x, m.tangent(x, _zeros(x))), x) < 1e-12


# -- descriptors and serialization ------------------------------------------------


def test_descriptor_dims():
    assert Euclidean(25).dim == 25
    assert Sphere(25).dim == 24
    assert Spd(5).dim == 15
    assert Product((Sphere(7), Spd(3), Euclidean(4))).dim == 6 + 6 + 4


def test_descriptor_curvature_invariants():
    for m in (Euclidean(3), Sphere(4), Spd(3), Product((Sphere(4), Spd(2)))):
        assert m.kappa_min <= 0.0
        assert m.kappa_min <= m.kappa_max


def test_spd_curvature_is_configurable():
    m = Spd(3, kappa_min=-0.5, kappa_max=0.0)
    assert m.kappa_max == 0.0
    with pytest.raises(ValueError):
        Spd(3, kappa_min=0.5, kappa_max=1.0)


def test_product_curvature_is_factor_hull():
    m = Product((Sphere(4), Spd(2, kappa_min=-0.5, kappa_max=0.0)))
    assert m.kappa_min == -0.5
    assert m.kappa_max == 1.0


def test_point_json_roundtrip(manifold_and_scale):
    m, _ = manifold_and_scale
    x = m.random_point(np.random.default_rng(20))
    data = point_to_json(x)
    back = point_from_json(m, data)
    assert _payloads_equal(x.value, back.value)


def test_point_json_kind_mismatch():
    x = Euclidean(2).point([1.0, 2.0])
    with pytest.raises(ValueError):
        point_from_json(Sphere(2), point_to_json(x))


def test_nested_product_json_roundtrip():
    m = Product((Product((Sphere(3), Euclidean(2))), Spd(2)))
    x = m.random_point(np.random.default_rng(21))
    back = point_from_json(m, point_to_json(x))
    assert _payloads_equal(x.value, back.value)
