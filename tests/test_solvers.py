"""Solver steps, schedules, noise model, averaging, and the run driver.

The flat-space extragradient and descent-ascent references used here are
written directly from the textbook updates (projection-free Euclidean case)
and act as the independent oracle for the manifold implementations.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from geosaddle.harness import RunConfig, build_problem, build_schedule, solve_reference
from geosaddle.manifolds import Euclidean, NumericError, Point, Product, Spd, Sphere
from geosaddle.problems import (
    BilinearInstance,
    KarcherInstance,
    RpcaInstance,
    SaddleProblem,
    estimate_smoothness,
    estimate_strong_monotonicity,
    make_bilinear,
    make_karcher,
    make_rpca,
)
from geosaddle.solvers import (
    SOLVER_KINDS,
    DivergenceError,
    NoiseModel,
    constants_at,
    initial_state,
    rceg_step,
    rgda_step,
    run,
    running_mean_update,
    schedule_practical,
    schedule_rceg_scsc,
    schedule_rgda_cc,
    schedule_rgda_scsc,
    schedule_srceg_cc,
    schedule_srceg_scsc,
    schedule_srgda_cc,
    stochastic_oracle,
)


def bilinear_problem(k=1, coupling=None):
    return make_bilinear(BilinearInstance(k=k, coupling=coupling))


def euclid_state(problem, x, y):
    m = problem.m_min
    return initial_state(problem, m.point(np.atleast_1d(x)), m.point(np.atleast_1d(y)))


# -- flat-space reference implementations (independent oracles) -----------------


def flat_eg(x, y, b, eta, steps):
    """Textbook extragradient on f(x, y) = x^T B y."""
    for _ in range(steps):
        xh = x - eta * (b @ y)
        yh = y + eta * (b.T @ x)
        x = x - eta * (b @ yh)
        y = y + eta * (b.T @ xh)
    return x, y


def flat_gda(x, y, b, eta, steps):
    for _ in range(steps):
        x, y = x - eta * (b @ y), y + eta * (b.T @ x)
    return x, y


# -- hand-derived step examples --------------------------------------------------


def test_rceg_bilinear_hand_example():
    p = bilinear_problem()
    st = euclid_state(p, [1.0], [1.0])
    st = rceg_step(p, st, 0.1)
    assert abs(st.x_half.value[0] - 0.9) < 1e-12
    assert abs(st.y_half.value[0] - 1.1) < 1e-12
    assert abs(st.x.value[0] - 0.89) < 1e-12
    assert abs(st.y.value[0] - 1.09) < 1e-12
    assert st.t == 1


def test_rgda_bilinear_hand_example():
    p = bilinear_problem()
    st = rgda_step(p, euclid_state(p, [1.0], [1.0]), 0.1)
    assert abs(st.x.value[0] - 0.9) < 1e-12
    assert abs(st.y.value[0] - 1.1) < 1e-12
    assert st.x_half is None


def test_zero_gradient_is_fixed_point():
    p = bilinear_problem()
    st = euclid_state(p, [0.0], [0.0])
    nxt = rceg_step(p, st, 0.3)
    assert nxt.x.value[0] == 0.0 and nxt.y.value[0] == 0.0
    nxt = rgda_step(p, st, 0.3)
    assert nxt.x.value[0] == 0.0 and nxt.y.value[0] == 0.0


def test_nonpositive_eta_rejected():
    p = bilinear_problem()
    st = euclid_state(p, [1.0], [1.0])
    for bad in (0.0, -0.1, math.inf):
        with pytest.raises(ValueError):
            rceg_step(p, st, bad)
        with pytest.raises(ValueError):
            rgda_step(p, st, bad)


# -- Euclidean reduction to the flat references -----------------------------------


def test_rceg_matches_flat_extragradient_100_steps():
    rng = np.random.default_rng(0)
    b = rng.standard_normal((3, 3))
    p = bilinear_problem(k=3, coupling=b)
    x0, y0 = rng.standard_normal(3), rng.standard_normal(3)
    st = euclid_state(p, x0, y0)
    for _ in range(100):
        st = rceg_step(p, st, 0.07)
    fx, fy = flat_eg(x0.copy(), y0.copy(), b, 0.07, 100)
    assert np.max(np.abs(st.x.value - fx)) < 1e-12
    assert np.max(np.abs(st.y.value - fy)) < 1e-12


def test_one_rceg_step_matches_flat_to_1e14():
    rng = np.random.default_rng(1)
    b = rng.standard_normal((4, 4))
    p = bilinear_problem(k=4, coupling=b)
    x0, y0 = rng.standard_normal(4), rng.standard_normal(4)
    st = rceg_step(p, euclid_state(p, x0, y0), 0.05)
    fx, fy = flat_eg(x0.copy(), y0.copy(), b, 0.05, 1)
    assert np.max(np.abs(st.x.value - fx)) < 1e-14
    assert np.max(np.abs(st.y.value - fy)) < 1e-14


def test_rgda_matches_flat_gda_100_steps():
    rng = np.random.default_rng(2)
    b = rng.standard_normal((3, 3))
    p = bilinear_problem(k=3, coupling=b)
    x0, y0 = rng.standard_normal(3), rng.standard_normal(3)
    st = euclid_state(p, x0, y0)
    for _ in range(100):
        st = rgda_step(p, st, 0.03)
    fx, fy = flat_gda(x0.copy(), y0.copy(), b, 0.03, 100)
    assert np.max(np.abs(st.x.value - fx)) < 1e-12
    assert np.max(np.abs(st.y.value - fy)) < 1e-12


def test_bilinear_gda_diverges_while_rceg_contracts():
    p = bilinear_problem()
    eta = 0.1
    st_gda = euclid_state(p, [1.0], [1.0])
    st_eg = euclid_state(p, [1.0], [1.0])
    d_gda = [math.hypot(1.0, 1.0)]
    d_eg = [math.hypot(1.0, 1.0)]
    for _ in range(100):
        st_gda = rgda_step(p, st_gda, eta)
        st_eg = rceg_step(p, st_eg, eta)
        d_gda.append(math.hypot(st_gda.x.value[0], st_gda.y.value[0]))
        d_eg.append(math.hypot(st_eg.x.value[0], st_eg.y.value[0]))
    assert all(b > a for a, b in zip(d_gda, d_gda[1:]))
    assert all(b < a for a, b in zip(d_eg[1:], d_eg[2:]))
    assert d_eg[-1] < d_eg[0]


# -- stochastic variants ------------------------------------------------------------


def test_srceg_zero_sigma_equals_rceg_exactly():
    p = bilinear_problem(k=2)
    rng = np.random.default_rng(3)
    x0, y0 = rng.standard_normal(2), rng.standard_normal(2)
    oracle = stochastic_oracle(p, NoiseModel(sigma=0.0, seed=9))
    a = euclid_state(p, x0, y0)
    b = euclid_state(p, x0, y0)
    for _ in range(20):
        a = rceg_step(p, a, 0.1, oracle)
        b = rceg_step(p, b, 0.1)
    assert np.array_equal(a.x.value, b.x.value)
    assert np.array_equal(a.y.value, b.y.value)


def test_srgda_zero_sigma_equals_rgda_exactly():
    p = bilinear_problem(k=2)
    rng = np.random.default_rng(4)
    x0, y0 = rng.standard_normal(2), rng.standard_normal(2)
    oracle = stochastic_oracle(p, NoiseModel(sigma=0.0, seed=9))
    a = euclid_state(p, x0, y0)
    b = euclid_state(p, x0, y0)
    for _ in range(20):
        a = rgda_step(p, a, 0.1, oracle)
        b = rgda_step(p, b, 0.1)
    assert np.array_equal(a.x.value, b.x.value)
    assert np.array_equal(a.y.value, b.y.value)


def test_srceg_seeded_trajectories_are_identical():
    p = bilinear_problem(k=2)
    outs = []
    for _ in range(2):
        st = euclid_state(p, [1.0, -0.5], [0.25, 0.75])
        oracle = stochastic_oracle(p, NoiseModel(sigma=0.5, seed=77))
        for _ in range(15):
            st = rceg_step(p, st, 0.05, oracle)
        outs.append((st.x.value.copy(), st.y.value.copy()))
    assert np.array_equal(outs[0][0], outs[1][0])
    assert np.array_equal(outs[0][1], outs[1][1])


def test_noise_model_second_moment_and_mean():
    p = bilinear_problem(k=6)
    m = p.m_min
    x = m.point(np.zeros(6))
    y = m.point(np.ones(6))
    sigma = 0.7
    noise = NoiseModel(sigma=sigma, seed=5)
    n = 10_000
    total = 0.0
    mean_x = np.zeros(6)
    for _ in range(n):
        nx, ny = noise.draw(p, x, y, 0)
        total += m.norm(nx) ** 2 + m.norm(ny) ** 2
        mean_x += nx.value
    emp = total / n
    assert 0.94 * sigma**2 <= emp <= 1.06 * sigma**2
    # mean of each block within 3 standard errors of zero
    se = math.sqrt((sigma**2 / 2) / n)
    assert np.linalg.norm(mean_x / n) <= 3 * se


def test_noise_norm_mean_matches_chi_distribution():
    # |xi_x| is a scaled chi variable with k = dim degrees of freedom
    p = bilinear_problem(k=6)
    x = p.m_min.point(np.zeros(6))
    y = p.m_max.point(np.zeros(6))
    sigma, k, n = 1.0, 6, 10_000
    scale = sigma / math.sqrt(2 * k)
    chi_mean = scale * math.sqrt(2.0) * math.gamma((k + 1) / 2) / math.gamma(k / 2)
    chi_var = scale**2 * k - chi_mean**2
    noise = NoiseModel(sigma=sigma, seed=41)
    total = 0.0
    for _ in range(n):
        nx, _ = noise.draw(p, x, y, 0)
        total += p.m_min.norm(nx)
    emp = total / n
    assert abs(emp - chi_mean) <= 3.0 * math.sqrt(chi_var / n)


@pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -0.1])
def test_noise_model_rejects_bad_sigma(sigma):
    with pytest.raises(ValueError, match="sigma"):
        NoiseModel(sigma)


def test_noise_streams_are_independent():
    p = bilinear_problem(k=4)
    x = p.m_min.point(np.zeros(4))
    y = p.m_max.point(np.zeros(4))
    noise = NoiseModel(sigma=1.0, seed=6)
    a = noise.draw(p, x, y, 0)[0].value
    b = noise.draw(p, x, y, 1)[0].value
    assert not np.array_equal(a, b)


def test_noise_streams_are_not_the_run_init_stream():
    # run() draws x0 and y0 from the first child of SeedSequence(seed); noise
    # of the same seed must not replay those draws
    p, seed = bilinear_problem(k=4), 7
    init_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[0])
    x0, y0 = p.m_min.random_point(init_rng), p.m_max.random_point(init_rng)
    nx, _ = NoiseModel(sigma=1.0, seed=seed).draw(p, x0, y0, 0)
    assert not np.allclose(nx.value * math.sqrt(2.0 * p.m_min.dim), x0.value)


def test_stochastic_step_requires_an_oracle():
    p = bilinear_problem()
    with pytest.raises(ValueError):
        stochastic_oracle(p, None)
    # run's callers give a sigma, not a NoiseModel, so the message names what they can give
    with pytest.raises(ValueError, match="^a stochastic solver needs a sigma, or a problem with a stochastic_grad oracle$"):
        run(make_bilinear(BilinearInstance(k=2)), "srceg", lambda t: 0.1, 5, seed=1)


def test_geometry_errors_propagate_through_steps():
    # a gradient of norm pi sends the half-iterate to the antipode, so the
    # correction log has no unique geodesic back to the iterate
    from geosaddle.manifolds import GeodesicNotUniqueError, Tangent

    sphere = Sphere(3)
    flat = Euclidean(1)

    def grad(x, y):
        gx = sphere.random_tangent(x, np.random.default_rng(0), scale=math.pi)
        return gx, Tangent(y, np.zeros(1))

    p = SaddleProblem(m_min=sphere, m_max=flat, grad=grad)
    st = initial_state(p, sphere.point([1.0, 0.0, 0.0]), flat.point([0.0]))
    with pytest.raises(GeodesicNotUniqueError):
        rceg_step(p, st, 1.0)


# -- the joint point -------------------------------------------------------------------


def spd_pair_problem(d=3, seed=2):
    """Both sides on one Spd descriptor: d(X, A)^2 - d(Y, B)^2 + d(X, Y)^2 / 4, whose joint point is SPD^2."""
    spd = Spd(d)
    rng = np.random.default_rng(seed)
    a, b = spd.random_point(rng), spd.random_point(rng)
    return SaddleProblem(
        m_min=spd,
        m_max=spd,
        grad=lambda x, y: (
            spd.log(x, a) * -2.0 + spd.log(x, y) * -0.5,
            spd.log(y, b) * 2.0 + spd.log(y, x) * -0.5,
        ),
    )


_JOINT_PROBLEMS = {
    "karcher": lambda: make_karcher(KarcherInstance.generate(d=3, n_anchors=5, gamma=3.0, seed=2)),
    "rpca": lambda: make_rpca(RpcaInstance.generate(d=4, n=6, alpha=3.0, seed=2)),
    "bilinear": lambda: bilinear_problem(k=3, coupling=np.random.default_rng(2).standard_normal((3, 3))),
    "spd-pair": spd_pair_problem,
}


def _joint_start(p, seed):
    rng = np.random.default_rng(seed)
    return initial_state(p, p.m_min.random_point(rng), p.m_max.random_point(rng))


def _oracle(p, sigma):
    return None if sigma is None else stochastic_oracle(p, NoiseModel(sigma, seed=6))


def _assert_points_equal(got, want):
    for a, b in zip(got, want):
        assert a.manifold == b.manifold
        np.testing.assert_array_equal(a.value, b.value)


def test_joint_manifold_stacks_the_robust_mean_pair_and_pairs_the_others():
    karcher, rpca = _JOINT_PROBLEMS["karcher"](), _JOINT_PROBLEMS["rpca"]()
    assert karcher.joint == Product((karcher.m_min,) * 6) and karcher.joint._power == karcher.m_min
    assert rpca.joint == Product((rpca.m_min, rpca.m_max)) and rpca.joint._power is None
    st = _joint_start(karcher, 3)
    z = karcher.join(st.x, st.y)
    np.testing.assert_array_equal(z.value, np.concatenate((st.x.value[None], st.y.value)))
    x, y = karcher.split(z)
    assert x.value.base is z.value and y.value.base is z.value  # views of the joint stack
    _assert_points_equal((x, y), (st.x, st.y))
    st = _joint_start(rpca, 3)
    a, b = rpca.join(st.x, st.y).value
    assert a is st.x.value and b is st.y.value


def test_joint_manifold_of_one_spd_on_both_sides_is_spd2():
    p = _JOINT_PROBLEMS["spd-pair"]()
    assert p.joint == Product((p.m_min,) * 2) and p.joint._power == p.m_min
    st = _joint_start(p, 3)
    z = p.join(st.x, st.y)
    np.testing.assert_array_equal(z.value, np.stack((st.x.value, st.y.value)))
    x, y = p.split(z)
    assert x.value.shape == y.value.shape == (3, 3)
    assert x.value.base is z.value and y.value.base is z.value
    _assert_points_equal((x, y), (st.x, st.y))


@pytest.mark.parametrize("which", list(_JOINT_PROBLEMS))
def test_joint_distances_keep_the_bits_of_per_side_distances(which):
    p = _JOINT_PROBLEMS[which]()
    st, to = _joint_start(p, 7), _joint_start(p, 8)
    want = p.m_min.distance(st.x, to.x), p.m_max.distance(st.y, to.y)
    assert p.distances(st.x, st.y, to.x, to.y) == want
    assert p.distance_gap(st.x, st.y, (to.x, to.y)) == want[0] ** 2 + want[1] ** 2


@pytest.mark.parametrize("sigma", [None, 0.3], ids=["exact", "noise"])
@pytest.mark.parametrize("which", list(_JOINT_PROBLEMS))
def test_joint_steps_keep_the_bits_of_per_side_steps(which, sigma):
    p, eta = _JOINT_PROBLEMS[which](), 0.05
    st = _joint_start(p, 4)
    mx, my = p.m_min, p.m_max

    oracle = _oracle(p, sigma) or (lambda x, y, stream: p.grad(x, y))
    gx, gy = oracle(st.x, st.y, 0)
    x_half, y_half = mx.exp(st.x, (-eta) * gx), my.exp(st.y, eta * gy)
    gx_h, gy_h = oracle(x_half, y_half, 1)
    x_next = mx.exp(x_half, (-eta) * gx_h + mx.log(x_half, st.x))
    y_next = my.exp(y_half, eta * gy_h + my.log(y_half, st.y))
    got = rceg_step(p, st, eta, _oracle(p, sigma))
    _assert_points_equal((got.x_half, got.y_half, got.x, got.y), (x_half, y_half, x_next, y_next))

    oracle = _oracle(p, sigma) or (lambda x, y, stream: p.grad(x, y))
    gx, gy = oracle(st.x, st.y, 0)
    got = rgda_step(p, st, eta, _oracle(p, sigma))
    _assert_points_equal((got.x, got.y), (mx.exp(st.x, (-eta) * gx), my.exp(st.y, eta * gy)))

    new = rceg_step(p, got, eta)
    for t in (1, 4):
        x_bar, y_bar = p.split(running_mean_update(p.joint, p.join(got.x, got.y), p.join(new.x, new.y), t))
        want = running_mean_update(mx, got.x, new.x, t), running_mean_update(my, got.y, new.y, t)
        _assert_points_equal((x_bar, y_bar), want)


def test_joint_step_failure_names_the_joint_slice():
    # X is slice 0 of the joint stack and Y_k is slice k+1.
    p = _JOINT_PROBLEMS["karcher"]()
    st = _joint_start(p, 5)
    ys = st.y.value.copy()
    ys[3] = np.diag([1.0, 1.0, -1.0])
    bad = replace(st, y=Point(p.m_max, ys))
    for step in (rceg_step, rgda_step):
        with pytest.raises(NumericError, match="SPD point: eigenvalue .* of slice 4 below the PD threshold"):
            step(p, bad, 0.05)


# -- running mean ---------------------------------------------------------------------


def test_running_mean_is_arithmetic_mean_on_flat_space():
    m = Euclidean(1)
    inputs = [1.0, 2.0, 3.0]
    bar = m.point([inputs[0]])
    for t, v in enumerate(inputs[1:], start=1):
        bar = running_mean_update(m, bar, m.point([v]), t)
    assert abs(bar.value[0] - 2.0) < 1e-12

    rng = np.random.default_rng(8)
    vals = rng.standard_normal(100)
    bar = m.point([vals[0]])
    for t in range(1, 100):
        bar = running_mean_update(m, bar, m.point([vals[t]]), t)
    assert abs(bar.value[0] - vals.mean()) < 1e-12


def test_running_mean_fixed_point():
    m = Euclidean(2)
    bar = m.point([0.5, -0.5])
    out = running_mean_update(m, bar, bar, 3)
    assert np.allclose(out.value, bar.value, atol=1e-15)


def test_running_mean_on_sphere_fixed_point():
    m = Sphere(3)
    e1 = m.point([1.0, 0.0, 0.0])
    out = running_mean_update(m, e1, e1, 1)
    assert np.allclose(out.value, e1.value, atol=1e-15)


def test_running_mean_requires_t_at_least_one():
    m = Euclidean(1)
    with pytest.raises(ValueError):
        running_mean_update(m, m.point([0.0]), m.point([1.0]), 0)


# -- schedules ---------------------------------------------------------------------


def test_schedule_rceg_scsc_values():
    assert abs(schedule_rceg_scsc(1.0, 1.0, 1.0, 1.0) - 0.5) < 1e-12
    assert abs(schedule_rceg_scsc(10.0, 1.0, 4.0, 1.0) - 1.0 / 40.0) < 1e-12
    # flat practical choice: tau0 = xi = 1 and ell = mu gives 1/(2 ell)
    assert abs(schedule_rceg_scsc(3.0, 3.0, 1.0, 1.0) - 1.0 / 6.0) < 1e-12


def test_schedule_rceg_scsc_rejects_bad_inputs():
    with pytest.raises(ValueError):
        schedule_rceg_scsc(-1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        schedule_rceg_scsc(1.0, 1.0, 0.5, 1.0)  # tau0 < 1
    with pytest.raises(ValueError):
        schedule_rceg_scsc(1.0, 1.0, 1.0, 1.5)  # xi_lower0 > 1


def test_schedule_srceg_scsc_values():
    # all three branches evaluated: min{1/24, 1/2, 2 log(100)/100} = 1/24
    got = schedule_srceg_scsc(1.0, 1.0, 1.0, 1.0, T=100, D0=1.0, sigma=1.0)
    assert abs(got - 1.0 / 24.0) < 1e-12
    third = 2.0 * math.log(100.0) / 100.0
    assert third > 1.0 / 24.0
    # sigma -> 0 drops the third branch
    got = schedule_srceg_scsc(1.0, 1.0, 1.0, 1.0, T=100, D0=1.0, sigma=0.0)
    assert got == min(1.0 / 24.0, 0.5)
    # nonpositive log argument drops it too
    got = schedule_srceg_scsc(1.0, 1.0, 1.0, 1.0, T=1, D0=0.5, sigma=2.0)
    assert got == min(1.0 / 24.0, 0.5)
    assert schedule_srceg_scsc(1.0, 1.0, 1.0, 1.0, T=1, D0=1.0, sigma=1.0) > 0


def test_schedule_srceg_cc_values():
    assert abs(schedule_srceg_cc(1.0, 1.0, 1.0, T=16, D0=1.0, sigma=1.0) - 0.25) < 1e-12
    assert schedule_srceg_cc(1.0, 1.0, 1.0, T=16, D0=1.0, sigma=0.0) == 0.25
    big_t = schedule_srceg_cc(1.0, 1.0, 1.0, T=10**8, D0=1.0, sigma=1.0)
    assert big_t == min(0.25, math.sqrt(1.0 / 10**8))


def test_schedule_rgda_scsc_values():
    assert schedule_rgda_scsc(1.0, 1) == 1.0
    assert abs(schedule_rgda_scsc(2.0, 8) - 1.0 / 8.0) < 1e-12
    assert schedule_rgda_scsc(1.0, 0) == 1.0
    assert schedule_rgda_scsc(1.0, 2) == 1.0


def test_schedule_rgda_cc_values():
    assert abs(schedule_rgda_cc(1.0, 1, 2.0, 1.0) - 1.0) < 1e-12
    base = schedule_rgda_cc(2.0, 100, 1.0, 1.3)
    quad = schedule_rgda_cc(2.0, 400, 1.0, 1.3)
    assert abs(quad - base / 2.0) < 1e-15


def test_schedule_srgda_cc_values():
    assert abs(schedule_srgda_cc(1.0, 0.0, 1, 4.0, 1.0) - 1.0) < 1e-12
    same = schedule_srgda_cc(1.0, 1.0, 10, 1.0, 1.0)
    assert abs(same - 0.5 * math.sqrt(1.0 / (2.0 * 10))) < 1e-15
    assert schedule_srgda_cc(1.0, 0.0, 10**9, 1.0, 1.0) < 1e-4


def test_schedule_practical_values():
    assert schedule_practical(1.0, 1.0, 0) == 0.5
    assert abs(schedule_practical(1.0, 1.0, 4) - 0.25) < 1e-15
    assert schedule_practical(1.0, 3.0, 10**6) == 3.0 / 10**6


def test_schedule_wrappers():
    def built(**kw):
        cfg = RunConfig(seed=3, iters=10, **kw)
        return build_schedule(cfg, build_problem(cfg))

    sched, _ = built(problem="bilinear", solver="rceg", eta=0.2)
    assert sched(17) == 0.2
    # identity coupling: the sampled smoothness is below 1, so the a/t branch
    # of min{1/(2 l^), a/t} binds from t = 2 on
    sched, meta = built(problem="bilinear", solver="srceg", sigma=0.1, eta="auto", a=1.0)
    assert meta["kind"] == "practical" and meta["ell_hat"] < 1.0
    assert sched(0) == 1.0 / (2.0 * meta["ell_hat"]) and sched(4) == 0.25
    sched, meta = built(problem="karcher", solver="rgda", d=2, n_anchors=3, gamma=3.0, eta="auto")
    assert meta["kind"] == "rgda-scsc"
    assert sched(0) == sched(2) == 1.0 / meta["mu_hat"] and sched(8) == 0.25 / meta["mu_hat"]


# -- oracle accounting and the run driver ---------------------------------------------


def counting_problem(base: SaddleProblem):
    calls = {"n": 0}

    def grad(x, y):
        calls["n"] += 1
        return base.grad(x, y)

    return replace(base, grad=grad), calls


def test_oracle_calls_per_step():
    base = bilinear_problem(k=2)
    p, calls = counting_problem(base)
    st = euclid_state(p, [1.0, 0.0], [0.0, 1.0])
    rceg_step(p, st, 0.1)
    assert calls["n"] == 2
    calls["n"] = 0
    rgda_step(p, st, 0.1)
    assert calls["n"] == 1
    calls["n"] = 0
    rceg_step(p, st, 0.1, stochastic_oracle(p, NoiseModel(0.1, seed=0)))
    assert calls["n"] == 2
    calls["n"] = 0
    rgda_step(p, st, 0.1, stochastic_oracle(p, NoiseModel(0.1, seed=0)))
    assert calls["n"] == 1


@pytest.mark.parametrize(
    "solver, average, per_iter",
    [
        ("rceg", True, 3),
        ("rceg", False, 2),
        ("rgda", True, 2),
        ("rgda", False, 1),
        ("srceg", True, 3),
        ("srceg", False, 2),
        ("srgda", True, 2),
        ("srgda", False, 1),
    ],
)
def test_run_reuses_the_metric_gradient(solver, average, per_iter):
    # each row evaluates the exact gradient at the iterate (plus one at the
    # average), which the next step's first oracle call reuses; the first
    # average is a point whose gradient was just evaluated (the half-iterate,
    # or the start), so it costs nothing
    p, calls = counting_problem(bilinear_problem(k=2))
    sigma = 0.1 if SOLVER_KINDS[solver].stochastic else None
    iters = 12
    run(p, solver, lambda t: 0.05, iters, seed=1, sigma=sigma, track_average=average)
    assert calls["n"] == 1 + per_iter * iters - average


def test_run_minibatch_oracle_takes_no_reused_gradient():
    inst = RpcaInstance.generate(d=3, n=5, alpha=3.0, seed=2)
    p, calls = counting_problem(make_rpca(inst, batch_size=2))
    iters = 6
    run(p, "srceg", lambda t: 0.05, iters, seed=3)
    # only the two metric gradients per row are full ones
    assert calls["n"] == 1 + 2 * iters


@pytest.mark.parametrize("solver, calls", [("srceg", 2), ("srgda", 1)])
@pytest.mark.parametrize("sigma", [None, 0.1], ids=["minibatch", "noise"])
def test_run_counts_data_passes_of_the_oracle_in_use(solver, calls, sigma):
    # the problem carries a minibatch sampler either way; sigma noise runs on
    # full gradients, so each of its calls is one whole pass
    inst = RpcaInstance.generate(d=3, n=4, alpha=3.0, seed=2)
    p = make_rpca(inst, batch_size=2)
    trace, _ = run(p, solver, lambda t: 0.05, 5, seed=3, sigma=sigma)
    per_call = 1.0 if sigma is not None else 2 / 4
    assert trace.column("data_passes") == [calls * t * per_call for t in range(6)]


def hand_loop_rows(problem, solver, eta, iters, seed, sigma):
    """``run``'s gradient-norm columns and final state, from steps on the bare ``problem.grad``."""
    noise = None if sigma is None else NoiseModel(sigma, seed=seed)
    init_ss, stream_ss = np.random.SeedSequence(seed).spawn(2)
    init_rng = np.random.default_rng(init_ss)
    x0 = problem.m_min.random_point(init_rng)
    y0 = problem.m_max.random_point(init_rng)
    st = initial_state(problem, x0, y0)
    kind = SOLVER_KINDS[solver]
    oracle = stochastic_oracle(problem, noise, np.random.default_rng(stream_ss)) if kind.stochastic else None
    rows = [problem.grad_norms(st.x, st.y) + (None,)]
    for t in range(iters):
        if kind.extragradient:
            st = rceg_step(problem, st, eta, oracle)
            ax, ay = st.x_half, st.y_half
        else:
            ax, ay = st.x, st.y
            st = rgda_step(problem, st, eta, oracle)
        if st.x_bar is None:
            st = replace(st, x_bar=ax, y_bar=ay)
        else:
            st = replace(
                st,
                x_bar=running_mean_update(problem.m_min, st.x_bar, ax, t),
                y_bar=running_mean_update(problem.m_max, st.y_bar, ay, t),
            )
        rows.append(problem.grad_norms(st.x, st.y) + (problem.grad_norms(st.x_bar, st.y_bar)[0],))
    return rows, st


def _payloads(p):
    return p.value if isinstance(p.value, tuple) else (p.value,)


@pytest.mark.parametrize("solver", list(SOLVER_KINDS))
@pytest.mark.parametrize("which", ["bilinear", "karcher", "spd-pair"])
def test_run_rows_equal_hand_loop_without_reuse(solver, which):
    if which == "bilinear":
        p = bilinear_problem(k=3, coupling=np.random.default_rng(8).standard_normal((3, 3)))
    elif which == "karcher":
        p = make_karcher(KarcherInstance.generate(d=2, n_anchors=3, gamma=3.0, seed=4))
    else:
        p = spd_pair_problem(d=2, seed=4)
    stochastic = SOLVER_KINDS[solver].stochastic
    iters, seed = 9, 13
    sigma = 0.2 if stochastic else None
    trace, state = run(p, solver, lambda t: 0.05, iters, seed=seed, sigma=sigma)
    rows, st = hand_loop_rows(p, solver, 0.05, iters, seed, sigma)
    got = [(r.grad_norm, r.grad_norm_x, r.grad_norm_y, r.grad_norm_avg) for r in trace.rows]
    assert got == rows
    for a, b in zip(_payloads(state.x) + _payloads(state.y), _payloads(st.x) + _payloads(st.y)):
        assert np.array_equal(a, b)


def test_run_from_another_runs_points_matches_a_run_from_their_payloads():
    # The reference solve returns points that its last exp made; the run reads them again, so their
    # payloads alone decide its bits.
    p = make_karcher(KarcherInstance.generate(d=3, n_anchors=4, gamma=3.0, seed=5))
    x, ys, _, _ = solve_reference(p, tol=1e-6, seed=5)
    starts = ((x, ys), (p.m_min.point(x.value), p.m_max.point(ys.value)))
    ends = [run(p, "rceg", lambda t: 0.05, 20, seed=5, x0=a, y0=b, track_average=False)[0].rows[-1] for a, b in starts]
    assert ends[0].grad_norm == ends[1].grad_norm


def test_initial_state_reads_given_points_again_and_draws_missing_ones():
    # A point that exp made is read again; a point that Manifold.point made keeps its factor, the same bits.
    p = make_karcher(KarcherInstance.generate(d=3, n_anchors=4, gamma=3.0, seed=5))
    x0 = p.m_min.random_point(np.random.default_rng(1))
    st = initial_state(p, x0, None, np.random.default_rng(2))
    assert st.x is x0
    np.testing.assert_array_equal(st.y.value, p.m_max.random_point(np.random.default_rng(2)).value)
    x1 = p.m_min.exp(x0, p.m_min.random_tangent(x0, np.random.default_rng(3), 0.5))
    z = p.join(x0, st.y)
    _, y1 = p.split(p.joint.exp(z, p.joint.random_tangent(z, np.random.default_rng(4), 0.5)))  # a joint exp's side
    for x, y in ((x1, y1), (Point(p.m_min, x0.value), Point(p.m_max, st.y.value))):
        again = initial_state(p, x, y)
        for given, got in ((x, again.x), (y, again.y)):
            assert got is not given and np.array_equal(got.value, given.value)
            fresh = given.manifold.point(given.value).factor
            assert np.array_equal(got.factor.g, fresh.g) and np.array_equal(got.factor.g_inv, fresh.g_inv)
    with pytest.raises(ValueError, match="point belongs to"):
        initial_state(p, st.y, st.x)


def test_run_rejects_zero_iters():
    p = bilinear_problem()
    with pytest.raises(ValueError):
        run(p, "rceg", lambda t: 0.1, 0, seed=1)


def test_run_rejects_unknown_solver():
    p = bilinear_problem()
    with pytest.raises(ValueError):
        run(p, "newton", lambda t: 0.1, 5, seed=1)


def test_run_with_tol_records_every_25th_row_and_the_last():
    p = bilinear_problem(k=2)
    trace, state = run(p, "rceg", lambda t: 0.1, 60, seed=3, tol=1e-300)
    assert [r.iter for r in trace.rows] == [0, 25, 50, 60]
    assert state.t == 60
    full, _ = run(p, "rceg", lambda t: 0.1, 60, seed=3)
    assert trace.column("grad_norm") == [full.rows[i].grad_norm for i in (0, 25, 50, 60)]


def test_run_with_tol_stops_at_the_first_recorded_row_below_it():
    p = bilinear_problem(k=2)
    full, _ = run(p, "rceg", lambda t: 0.1, 200, seed=3)
    tol = full.rows[60].grad_norm  # reached between two checks, so the stop is at 75
    trace, state = run(p, "rceg", lambda t: 0.1, 200, seed=3, tol=tol)
    assert [r.iter for r in trace.rows] == [0, 25, 50, 75]
    assert state.t == 75
    assert trace.rows[-1].grad_norm == full.rows[75].grad_norm <= tol < full.rows[50].grad_norm


def test_run_bilinear_rceg_contracts():
    p = bilinear_problem(k=2)
    trace, state = run(p, "rceg", lambda t: 0.1, 100, seed=3)
    assert trace.rows[-1].grad_norm < trace.rows[0].grad_norm
    assert state.t == 100
    assert len(trace.rows) == 101


def test_run_is_deterministic():
    p = bilinear_problem(k=2)
    t1, _ = run(p, "srceg", lambda t: 0.05, 40, seed=11, sigma=0.3)
    t2, _ = run(p, "srceg", lambda t: 0.05, 40, seed=11, sigma=0.3)
    assert [r.grad_norm for r in t1.rows] == [r.grad_norm for r in t2.rows]
    assert [r.eta for r in t1.rows] == [r.eta for r in t2.rows]


def test_runs_on_one_minibatch_problem_equal_runs_on_fresh_problems():
    # 10 srceg steps draw 20 batches of 3 from n = 7, ending mid-epoch; the next run on the
    # same problem starts a fresh epoch from its own generator instead of finishing this one
    inst = RpcaInstance.generate(d=4, n=7, alpha=3.0, seed=2)

    def grad_norms(problem, seed):
        trace, _ = run(problem, "srceg", lambda t: 0.05, 10, seed=seed)
        return trace.column("grad_norm")

    shared = make_rpca(inst, batch_size=3)
    fresh = [grad_norms(make_rpca(inst, batch_size=3), seed) for seed in (1, 2, 2)]
    assert [grad_norms(shared, seed) for seed in (1, 2, 2)] == fresh


@pytest.mark.parametrize("solver", ["rceg", "rgda"])
def test_run_rejects_sigma_on_an_exact_solver(solver):
    with pytest.raises(ValueError, match="reads no sigma"):
        run(bilinear_problem(), solver, lambda t: 0.1, 5, seed=1, sigma=0.3)


def test_run_data_passes_accounting():
    p = bilinear_problem(k=2)
    trace, _ = run(p, "rceg", lambda t: 0.1, 10, seed=0)
    assert trace.rows[-1].data_passes == 20.0  # 2 oracle calls per step
    trace, _ = run(p, "rgda", lambda t: 0.1, 10, seed=0)
    assert trace.rows[-1].data_passes == 10.0


def test_run_averages_half_iterates_for_eg_and_iterates_for_gda():
    p = bilinear_problem(k=1)
    trace, state = run(p, "rceg", lambda t: 0.1, 3, seed=5)
    # by induction the mean equals the arithmetic mean of the half-iterates
    st = euclid_state(p, state_x0(p, 5)[0], state_x0(p, 5)[1])
    halves = []
    for _ in range(3):
        st = rceg_step(p, st, 0.1)
        halves.append(st.x_half.value[0])
    assert abs(state.x_bar.value[0] - np.mean(halves)) < 1e-12

    trace, state = run(p, "rgda", lambda t: 0.1, 3, seed=5)
    st = euclid_state(p, state_x0(p, 5)[0], state_x0(p, 5)[1])
    iters = [st.x.value[0]]
    for _ in range(2):
        st = rgda_step(p, st, 0.1)
        iters.append(st.x.value[0])
    assert abs(state.x_bar.value[0] - np.mean(iters)) < 1e-12


# Small instances of each problem; rpca's stochastic solvers draw minibatches of 2, the others add noise.
_FUZZ_PROBLEMS = {
    "rpca": make_rpca(RpcaInstance.generate(d=3, n=5, alpha=1.0, seed=1), batch_size=2),
    "karcher": make_karcher(KarcherInstance.generate(d=2, n_anchors=3, gamma=2.0, seed=1)),
    "bilinear": bilinear_problem(k=2),
}


@pytest.mark.filterwarnings("error")
@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    name=hst.sampled_from(sorted(_FUZZ_PROBLEMS)),
    solver=hst.sampled_from(sorted(SOLVER_KINDS)),
    eta=hst.floats(-3.0, 3.0).map(lambda e: 10.0**e),
    seed=hst.integers(0, 2**16),
)
def test_run_returns_finite_rows_or_diverges_with_finite_rows(name, solver, eta, seed):
    problem = _FUZZ_PROBLEMS[name]
    sigma = 0.1 if SOLVER_KINDS[solver].stochastic and name != "rpca" else None
    try:
        trace, _ = run(problem, solver, lambda t: eta, 20, seed, sigma=sigma)
    except DivergenceError as e:
        trace = e.trace
    values = [
        v
        for r in trace.rows
        for v in (r.data_passes, r.eta, r.grad_norm, r.grad_norm_x, r.grad_norm_y, r.grad_norm_avg)
        if v is not None
    ]
    assert trace.rows and all(math.isfinite(v) for v in values)


def state_x0(problem, seed):
    init_ss, _ = np.random.SeedSequence(seed).spawn(2)
    rng = np.random.default_rng(init_ss)
    return problem.m_min.random_point(rng).value, problem.m_max.random_point(rng).value


# -- theorem-level behavior on a strongly convex-concave instance ----------------------


@pytest.fixture(scope="module")
def karcher_setup():
    inst = KarcherInstance.generate(d=3, n_anchors=5, gamma=3.0, seed=11)
    prob = make_karcher(inst)
    x_star, y_star, gn, _ = solve_reference(prob, tol=1e-10, seed=5)
    assert gn <= 1e-10
    ell = estimate_smoothness(prob, 64, np.random.default_rng(7))
    mu = estimate_strong_monotonicity(prob, 128, np.random.default_rng(8))
    assert mu > 0
    return prob, (x_star, y_star), ell, mu


def test_rceg_contraction_on_karcher(karcher_setup):
    prob, ref, ell, mu = karcher_setup
    k = constants_at(prob.m_min.kappa_min, prob.m_min.kappa_max, 3.0)
    eta = schedule_rceg_scsc(ell, mu, k.tau0, k.xi_lower0)
    rng = np.random.default_rng(123)
    st = initial_state(prob, prob.m_min.random_point(rng), prob.m_max.random_point(rng))
    gaps = [prob.distance_gap(st.x, st.y, ref)]
    for _ in range(300):
        st = rceg_step(prob, st, eta)
        gaps.append(prob.distance_gap(st.x, st.y, ref))
    floor = 1e-20  # squared-distance resolution of the eigh-based kernels
    for a, b in zip(gaps, gaps[1:]):
        if a > floor:
            assert b <= a * (1.0 + 1e-12)
    live = [g for g in gaps if g > floor]
    window = live[len(live) // 2 :]
    slope = np.polyfit(np.arange(len(window)), np.log(window), 1)[0]
    assert slope <= -1e-3


def test_rgda_one_over_t_envelope_on_karcher(karcher_setup):
    prob, ref, _ell, mu = karcher_setup
    rng = np.random.default_rng(5)
    st = initial_state(prob, prob.m_min.random_point(rng), prob.m_max.random_point(rng))
    gaps = [prob.distance_gap(st.x, st.y, ref)]
    for t in range(2000):
        st = rgda_step(prob, st, schedule_rgda_scsc(mu, t))
        gaps.append(prob.distance_gap(st.x, st.y, ref))
    envelope = 2 * gaps[2] * 1.1
    for t in range(2, 2001):
        assert gaps[t] * t <= envelope
