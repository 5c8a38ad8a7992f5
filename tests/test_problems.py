"""Problem oracles: values, gradients vs finite differences, data generation."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geosaddle.manifolds import NumericError, Point, Product, Spd, Sphere, _sym, random_orthogonal
from geosaddle.problems import (
    _SUBGRAD_TOL,
    _sampled_pairs,
    BilinearInstance,
    KarcherInstance,
    MinibatchOracle,
    RpcaInstance,
    SaddleProblem,
    estimate_smoothness,
    estimate_strong_monotonicity,
    gen_spd_data,
    instance_from_json,
    instance_to_json,
    karcher_grad,
    karcher_value,
    make_bilinear,
    make_karcher,
    make_rpca,
    rpca_grad,
    rpca_value,
)
from geosaddle.manifolds import Euclidean, Tangent


def fd_directional(value_fn, manifold, point, tangent, h=1e-6):
    """Central finite difference of value_fn along a geodesic perturbation."""
    fp = value_fn(manifold.exp(point, h * tangent))
    fm = value_fn(manifold.exp(point, (-h) * tangent))
    return (fp - fm) / (2.0 * h)


# -- data generation ------------------------------------------------------------


def test_gen_spd_data_eigenvalue_range():
    for m in gen_spd_data(6, 20, seed=4):
        w = np.linalg.eigvalsh(m)
        assert w[0] >= 0.2 - 1e-12
        assert w[-1] <= 4.5 + 1e-12


def test_gen_spd_data_symmetry_and_determinism():
    a = gen_spd_data(4, 5, seed=9)
    b = gen_spd_data(4, 5, seed=9)
    for ma, mb in zip(a, b):
        assert np.array_equal(ma, mb)
        assert np.linalg.norm(ma - ma.T) <= 1e-12


def test_gen_spd_data_rejects_bad_range():
    with pytest.raises(ValueError):
        gen_spd_data(3, 2, eig_lo=0.0, eig_hi=1.0)
    with pytest.raises(ValueError):
        gen_spd_data(3, 2, eig_lo=2.0, eig_hi=1.0)


# -- robust PCA -----------------------------------------------------------------


def test_rpca_value_identity_data():
    d, n = 4, 3
    inst = RpcaInstance(d=d, n=n, alpha=1.0, data=tuple(np.eye(d) for _ in range(n)))
    spd, sph = Spd(d), Sphere(d)
    x = sph.random_point(np.random.default_rng(0))
    assert abs(rpca_value(inst, x, spd.point(np.eye(d))) - (-1.0)) < 1e-12


def test_rpca_value_scalar_case():
    # the unit sphere in ambient dimension 1 is the pair {-1, +1}; feed the
    # two signs as plain 1-vectors (rpca_value only consumes the payload)
    inst = RpcaInstance(d=1, n=1, alpha=1.0, data=(np.array([[1.0]]),))
    m = Spd(1).point([[math.exp(2.0)]])
    want = -math.exp(2.0) - 2.0
    for sign in (1.0, -1.0):
        x = Euclidean(1).point([sign])
        assert abs(rpca_value(inst, x, m) - want) < 1e-12


def test_rpca_alpha_scales_penalty_linearly():
    d, n = 3, 4
    data = tuple(gen_spd_data(d, n, seed=1))
    sph, spd = Sphere(d), Spd(d)
    rng = np.random.default_rng(2)
    m, x = spd.random_point(rng), sph.random_point(rng)
    v1 = rpca_value(RpcaInstance(d=d, n=n, alpha=1.0, data=data), x, m)
    v2 = rpca_value(RpcaInstance(d=d, n=n, alpha=2.0, data=data), x, m)
    quad = -float(x.value @ m.value @ x.value)
    assert abs((v2 - quad) - 2.0 * (v1 - quad)) < 1e-10


def test_rpca_value_reads_its_distances_from_the_spd_manifold():
    d, n = 25, 40
    inst = RpcaInstance.generate(d=d, n=n, alpha=1.5, seed=3)
    spd = Spd(d)
    rng = np.random.default_rng(4)
    m, x = spd.random_point(rng), Sphere(d).random_point(rng)
    penalty = sum(spd.distance(m, spd.point(mi)) for mi in inst.data)
    want = -float(x.value @ m.value @ x.value) - (inst.alpha / n) * penalty
    assert abs(rpca_value(inst, x, m) - want) < 1e-12


def test_rpca_sphere_gradient_is_tangent():
    inst = RpcaInstance.generate(d=5, n=6, alpha=1.0, seed=3)
    sph, spd = Sphere(5), Spd(5)
    rng = np.random.default_rng(4)
    for _ in range(20):
        m, x = spd.random_point(rng), sph.random_point(rng)
        gx, _ = rpca_grad(inst, x, m)
        assert abs(float(np.dot(x.value, gx.value))) < 1e-10


def assert_rpca_gradient_matches_finite_differences(inst, rng, samples):
    sph, spd = Sphere(inst.d), Spd(inst.d)
    for _ in range(samples):
        m, x = spd.random_point(rng), sph.random_point(rng)
        gx, gm = rpca_grad(inst, x, m)
        v = spd.random_tangent(m, rng, scale=1.0)
        fd = fd_directional(lambda p: rpca_value(inst, x, p), spd, m, v)
        an = spd.inner(gm, v)
        assert abs(fd - an) <= 1e-5 * max(1.0, abs(fd))
        w = sph.random_tangent(x, rng, scale=1.0)
        fd = fd_directional(lambda p: rpca_value(inst, p, m), sph, x, w)
        an = sph.inner(gx, w)
        assert abs(fd - an) <= 1e-5 * max(1.0, abs(fd))


def test_rpca_gradient_matches_finite_differences():
    inst = RpcaInstance.generate(d=3, n=4, alpha=1.3, seed=5)
    assert_rpca_gradient_matches_finite_differences(inst, np.random.default_rng(6), 100)


def test_rpca_gradient_matches_finite_differences_at_benchmark_size():
    # The instance of the rpca-eg and rpca-minibatch benchmark workloads.
    inst = RpcaInstance.generate(d=25, n=40, alpha=6.0, seed=7)
    assert_rpca_gradient_matches_finite_differences(inst, np.random.default_rng(8), 20)


def test_rpca_subgradient_zero_at_data_point():
    data = tuple(gen_spd_data(3, 3, seed=7))
    inst = RpcaInstance(d=3, n=3, alpha=1.0, data=data)
    spd = Spd(3)
    sph = Sphere(3)
    x = sph.random_point(np.random.default_rng(8))
    m = spd.point(data[0])
    _, gm = rpca_grad(inst, x, m)  # distance term for i=0 takes the 0 subgradient
    inst_rest = RpcaInstance(d=3, n=2, alpha=2.0 / 3.0, data=data[1:])  # same weight per term
    _, gm_rest = rpca_grad(inst_rest, x, m)
    assert np.allclose(gm.value, gm_rest.value, atol=1e-12)


# -- the stacked distance kernel against the per-term loop ----------------------------


def rpca_grad_per_term(inst, x_point, m_point, batch=None):
    """Reference: one SPD log, one distance and one sandwich per data matrix."""
    spd, sph = m_point.manifold, x_point.manifold
    m, x = m_point.value, x_point.value
    gx = sph.project_tangent(x, -2.0 * (m @ x))
    gm = -_sym(m @ np.outer(x, x) @ m)
    idx = range(inst.n) if batch is None else [int(i) for i in batch]
    weight = inst.alpha / len(idx)
    for i in idx:
        di = spd._distance(m, inst.data[i])
        if di > _SUBGRAD_TOL:
            gm = gm + (weight / di) * spd._log(m, inst.data[i])
    return gx, gm


def assert_matches_per_term(inst, m, x, batch=None):
    gx, gm = rpca_grad(inst, x, m, batch=batch)
    ref_gx, ref_gm = rpca_grad_per_term(inst, x, m, batch=batch)
    np.testing.assert_allclose(gm.value, ref_gm, rtol=1e-10, atol=1e-10 * np.abs(ref_gm).max())
    np.testing.assert_allclose(gx.value, ref_gx, rtol=1e-10, atol=1e-10 * np.abs(ref_gx).max())


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 7), n=st.integers(1, 9))
def test_rpca_grad_matches_per_term_loop(seed, d, n):
    rng = np.random.default_rng(seed)
    inst = RpcaInstance.generate(d=d, n=n, alpha=float(rng.uniform(0.5, 6.0)), seed=seed % 10_000)
    spd, sph = Spd(d), Sphere(d)
    m, x = spd.random_point(rng), sph.random_point(rng)
    assert_matches_per_term(inst, m, x)
    batch = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
    assert_matches_per_term(inst, m, x, batch=batch)
    # at M = M_j term j takes the zero subgradient, with or without a batch
    on_data = spd.point(inst.data[int(rng.integers(n))])
    assert_matches_per_term(inst, on_data, x)
    assert_matches_per_term(inst, on_data, x, batch=batch)


def test_rpca_grad_matches_per_term_loop_at_benchmark_size():
    inst = RpcaInstance.generate(d=25, n=40, alpha=6.0, seed=7)
    spd, sph = Spd(25), Sphere(25)
    rng = np.random.default_rng(7)
    for _ in range(3):
        assert_matches_per_term(inst, spd.random_point(rng), sph.random_point(rng))
    assert_matches_per_term(inst, spd.point(inst.data[3]), sph.random_point(rng), batch=np.array([3, 17, 0, 39]))


def test_rpca_kernel_rejects_near_singular_slice():
    # a data slice of condition number 5e11 passes the instance check, but
    # whitened by this M its condition number is 1e13, past the PD threshold
    d = 4
    q = random_orthogonal(d, np.random.default_rng(21))
    thin = _sym((q * np.array([1.0, 0.8, 0.6, 2e-12])) @ q.T)
    data = (*gen_spd_data(d, 3, seed=22), thin)
    inst = RpcaInstance(d=d, n=4, alpha=1.0, data=data)
    m = Spd(d).point(_sym((q * np.array([1.0, 1.0, 1.0, 20.0])) @ q.T))
    x = Sphere(d).random_point(np.random.default_rng(23))
    with pytest.raises(NumericError, match="slice 3"):
        rpca_grad(inst, x, m)
    with pytest.raises(NumericError):
        rpca_value(inst, x, m)
    with pytest.raises(NumericError, match="slice 1"):
        rpca_grad(inst, x, m, batch=np.array([0, 3]))
    rpca_grad(inst, x, m, batch=np.array([0, 1, 2]))  # the batch that skips it is fine
    with pytest.raises(NumericError):
        rpca_grad_per_term(inst, x, m)  # the per-term loop rejects it too


def test_make_rpca_orientation():
    inst = RpcaInstance.generate(d=3, n=4, alpha=1.0, seed=9)
    p = make_rpca(inst)
    assert isinstance(p.m_min, Sphere) and isinstance(p.m_max, Spd)
    rng = np.random.default_rng(10)
    x, m = p.m_min.random_point(rng), p.m_max.random_point(rng)
    assert abs(p.value(x, m) - rpca_value(inst, x, m)) < 1e-12
    gx, gm = p.grad(x, m)
    assert gx.base is x and gm.base is m


# -- minibatch oracle --------------------------------------------------------------


def test_minibatch_full_batch_equals_exact():
    inst = RpcaInstance.generate(d=3, n=5, alpha=1.0, seed=11)
    p = make_rpca(inst, batch_size=5)
    rng = np.random.default_rng(12)
    x, m = p.m_min.random_point(rng), p.m_max.random_point(rng)
    sgx, sgm = p.stochastic_grad(x, m, rng)
    gx, gm = p.grad(x, m)
    assert np.allclose(sgx.value, gx.value, atol=1e-14)
    assert np.allclose(sgm.value, gm.value, atol=1e-14)


def test_minibatch_is_unbiased():
    inst = RpcaInstance.generate(d=2, n=6, alpha=1.0, seed=13)
    p = make_rpca(inst, batch_size=2)
    rng = np.random.default_rng(14)
    x, m = p.m_min.random_point(rng), p.m_max.random_point(rng)
    gx, gm = p.grad(x, m)
    draws = 10_000
    acc = np.zeros_like(gm.value)
    sq = 0.0
    for _ in range(draws):
        _, sgm = p.stochastic_grad(x, m, rng)
        acc += sgm.value
        sq += np.sum((sgm.value - gm.value) ** 2)
    mean = acc / draws
    # componentwise: |mean - exact| within 3 standard errors
    comp_var = sq / draws
    se = math.sqrt(comp_var / draws)
    assert np.linalg.norm(mean - gm.value) <= 3.0 * se + 1e-12


def test_minibatch_pass_accounting():
    inst = RpcaInstance.generate(d=2, n=8, alpha=1.0, seed=15)
    oracle = MinibatchOracle(inst, 2)
    assert abs(oracle.passes_per_call - 0.25) < 1e-15
    assert abs(4 * oracle.passes_per_call - 1.0) < 1e-15


def test_minibatch_epoch_covers_all_indices():
    inst = RpcaInstance.generate(d=2, n=6, alpha=1.0, seed=16)
    oracle = MinibatchOracle(inst, 2)
    rng = np.random.default_rng(17)
    seen = []
    for _ in range(3):
        seen.extend(oracle._next_batch(rng).tolist())
    assert sorted(seen) == list(range(6))


def test_minibatch_rejects_bad_batch_size():
    inst = RpcaInstance.generate(d=2, n=4, alpha=1.0, seed=18)
    for bad in (0, 5):
        with pytest.raises(ValueError):
            MinibatchOracle(inst, bad)


# -- robust matrix mean -------------------------------------------------------------


def test_karcher_value_zero_at_coincident_points():
    a = gen_spd_data(3, 1, seed=19)[0]
    inst = KarcherInstance(d=3, n_anchors=1, gamma=0.7, anchors=(a,))
    p = make_karcher(inst)
    x = p.m_min.point(a)
    ys = p.m_max.point((a,))
    assert abs(karcher_value(inst, x, ys)) < 1e-18
    gx, gys = karcher_grad(inst, x, ys)
    assert p.m_min.norm(gx) < 1e-12
    assert p.m_max.norm(gys) < 1e-12


def test_karcher_value_scalar_case():
    inst = KarcherInstance(d=1, n_anchors=1, gamma=1.0, anchors=(np.array([[math.exp(2.0)]]),))
    p = make_karcher(inst)
    x = p.m_min.point([[1.0]])
    ys = p.m_max.point(([[math.exp(2.0)]],))
    assert abs(karcher_value(inst, x, ys) - 4.0) < 1e-12


def assert_karcher_gradient_matches_finite_differences(inst, rng, samples):
    p = make_karcher(inst)
    for _ in range(samples):
        x = p.m_min.random_point(rng)
        ys = p.m_max.random_point(rng)
        gx, gys = karcher_grad(inst, x, ys)
        v = p.m_min.random_tangent(x, rng, scale=1.0)
        fd = fd_directional(lambda q: karcher_value(inst, q, ys), p.m_min, x, v)
        assert abs(fd - p.m_min.inner(gx, v)) <= 1e-5 * max(1.0, abs(fd))
        w = p.m_max.random_tangent(ys, rng, scale=1.0)
        fd = fd_directional(lambda q: karcher_value(inst, x, q), p.m_max, ys, w)
        assert abs(fd - p.m_max.inner(gys, w)) <= 1e-5 * max(1.0, abs(fd))


def test_karcher_gradient_matches_finite_differences():
    inst = KarcherInstance.generate(d=2, n_anchors=3, gamma=1.7, seed=20)
    assert_karcher_gradient_matches_finite_differences(inst, np.random.default_rng(21), 50)


def test_karcher_gradient_matches_finite_differences_at_benchmark_size():
    # The instance of the karcher-ref benchmark workload.
    inst = KarcherInstance.generate(d=3, n_anchors=20, gamma=3.0, seed=5)
    assert_karcher_gradient_matches_finite_differences(inst, np.random.default_rng(22), 50)


def karcher_grad_per_factor(inst, x_point, ys_point):
    """Reference: three SPD logs per anchor, accumulated one factor at a time."""
    spd, x = x_point.manifold, x_point.value
    gx = np.zeros((inst.d, inst.d))
    gys = []
    for yi, ai in zip(ys_point.value, inst.anchors):
        gx = gx - 2.0 * spd._log(x, yi)
        gys.append(-2.0 * spd._log(yi, x) + 2.0 * inst.gamma * spd._log(yi, ai))
    return gx, gys


def karcher_value_per_factor(inst, x_point, ys_point):
    """Reference: two SPD distances per anchor, accumulated one factor at a time."""
    spd, x = x_point.manifold, x_point.value
    total = 0.0
    for yi, ai in zip(ys_point.value, inst.anchors):
        total += spd._distance(x, yi) ** 2
        total -= inst.gamma * spd._distance(yi, ai) ** 2
    return total


def assert_karcher_matches_per_factor(inst, x, ys, zero_block=None):
    gx, gys = karcher_grad(inst, x, ys)
    ref_gx, ref_gys = karcher_grad_per_factor(inst, x, ys)
    np.testing.assert_allclose(gx.value, ref_gx, rtol=1e-10, atol=1e-10 * np.abs(ref_gx).max())
    assert len(gys.value) == len(ref_gys)
    for i, (g, ref) in enumerate(zip(gys.value, ref_gys)):
        if i == zero_block:  # exactly 0; both sides hold only roundoff, which the two formulas round differently
            np.testing.assert_allclose(g, 0.0, atol=1e-12)
        else:
            np.testing.assert_allclose(g, ref, rtol=1e-10, atol=1e-10 * np.abs(ref).max())
    np.testing.assert_allclose(karcher_value(inst, x, ys), karcher_value_per_factor(inst, x, ys), rtol=1e-10, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 5), n=st.integers(1, 25))
def test_karcher_oracle_matches_per_factor_loop(seed, d, n):
    rng = np.random.default_rng(seed)
    inst = KarcherInstance.generate(d=d, n_anchors=n, gamma=float(rng.uniform(0.5, 4.0)), seed=seed % 10_000)
    p = make_karcher(inst)
    assert_karcher_matches_per_factor(inst, p.m_min.random_point(rng), p.m_max.random_point(rng))
    # at Y = A the anchor logs vanish; at X = Y_j log_X(Y_j) does, and so does the block gradient of Y_j
    ys = p.m_max.point(inst.anchors)
    j = int(rng.integers(n))
    assert_karcher_matches_per_factor(inst, p.m_min.point(inst.anchors[j]), ys, zero_block=j)


def karcher_grad_two_logs(inst, x_point, ys_point):
    """Reference: the two stacked log calls, log_X over the Y stack and one log at the Y stack."""
    spd, x, ys = x_point.manifold, x_point.value, ys_point.value
    gx = (-2.0 * spd._log(x, ys)).sum(axis=0)
    logs = spd._log(ys, np.stack((np.broadcast_to(x, ys.shape), inst.anchors)))
    return gx, -2.0 * logs[0] + 2.0 * inst.gamma * logs[1]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 4), n=st.integers(1, 25))
def test_karcher_grad_on_the_joint_stack_keeps_the_bits_of_two_logs(seed, d, n):
    # grad_X keeps the bits of the log call over the Y stack. grad_Y reads log_{Y_i}(X) from the X
    # whitening (the identity of test_karcher_log_toward_x_matches_the_y_whitening), so it matches to 1e-12.
    rng = np.random.default_rng(seed)
    inst = KarcherInstance.generate(d=d, n_anchors=n, gamma=float(rng.uniform(0.5, 4.0)), seed=seed % 10_000)
    p = make_karcher(inst)
    x, ys = p.m_min.random_point(rng), p.m_max.random_point(rng)
    gx, gys = karcher_grad(inst, x, ys)
    ref_gx, ref_gys = karcher_grad_two_logs(inst, x, ys)
    np.testing.assert_array_equal(gx.value, ref_gx)
    assert np.linalg.norm(gys.value - ref_gys) <= 1e-12 * np.linalg.norm(ref_gys)
    # Points built without factors are decomposed side by side, with the bits of Manifold.point.
    bare_gx, bare_gys = karcher_grad(inst, Point(p.m_min, x.value), Point(p.m_max, ys.value))
    np.testing.assert_array_equal(bare_gx.value, gx.value)
    np.testing.assert_array_equal(bare_gys.value, gys.value)


@pytest.mark.parametrize("d, n", [(3, 20), (25, 4)])
def test_karcher_log_toward_x_matches_the_y_whitening(d, n):
    # At a joint point that exp made, so the factors are not symmetric: log_{Y_i}(X) read from the
    # X whitening matches the log whitened at Y_i to 1e-12.
    inst = KarcherInstance.generate(d=d, n_anchors=n, gamma=3.0, seed=d)
    p, rng = make_karcher(inst), np.random.default_rng(d)
    z = p.join(p.m_min.random_point(rng), p.m_max.random_point(rng))
    x, ys = p.split(p.joint.exp(z, 0.3 * p.joint.standard_gaussian_tangent(z, rng)))
    g = x.factor.g
    assert np.linalg.norm(g - g.T) > 0.1 * np.linalg.norm(g)  # not symmetric
    _, gys = karcher_grad(inst, x, ys)
    want = -2.0 * p.m_min._log(ys.value, np.broadcast_to(x.value, ys.value.shape))
    want += 2.0 * inst.gamma * p.m_min._log(ys.value, inst.anchors)
    assert np.linalg.norm(gys.value - want) <= 1e-12 * np.linalg.norm(want)


def test_make_karcher_shape():
    inst = KarcherInstance.generate(d=2, n_anchors=4, gamma=2.0, seed=22)
    p = make_karcher(inst)
    assert isinstance(p.m_min, Spd)
    assert isinstance(p.m_max, Product) and len(p.m_max.factors) == 4


def test_karcher_stationarity_self_consistency():
    # solve to 1e-10 through the problem wrapper, then re-check the module-level
    # gradient functions at the returned point
    from geosaddle.harness import solve_reference

    inst = KarcherInstance.generate(d=2, n_anchors=3, gamma=3.0, seed=30)
    p = make_karcher(inst)
    x, ys, gn, _ = solve_reference(p, tol=1e-10, seed=31)
    assert gn <= 1e-10
    gx, gys = karcher_grad(inst, x, ys)
    assert p.m_min.norm(gx) <= 1e-9
    assert p.m_max.norm(gys) <= 1e-9


def test_rpca_rest_point_is_eigenvector_configuration():
    # with a well-conditioned penalty weight the solver reaches a rest point:
    # the sphere gradient vanishes and x sits in an eigendirection of the
    # final M (its Rayleigh quotient matches an eigenvalue of M exactly);
    # which eigendirection is init-dependent, and need not be the extreme one
    from geosaddle.harness import solve_reference

    inst = RpcaInstance.generate(d=4, n=6, alpha=3.0, seed=21)
    p = make_rpca(inst)
    x, m, gn, _ = solve_reference(p, tol=1e-8, max_iters=20_000, seed=2, eta=0.15)
    gx, gm = rpca_grad(inst, x, m)
    assert p.m_min.norm(gx) <= 1e-6
    rayleigh = float(x.value @ m.value @ x.value)
    eigs = np.linalg.eigvalsh(m.value)
    assert min(abs(rayleigh - lam) for lam in eigs) <= 1e-6


# -- bilinear -------------------------------------------------------------------------


def test_bilinear_value_and_grad():
    inst = BilinearInstance(k=2, coupling=np.array([[1.0, 2.0], [0.0, 1.0]]))
    p = make_bilinear(inst)
    x = p.m_min.point([1.0, -1.0])
    y = p.m_max.point([0.5, 2.0])
    assert abs(p.value(x, y) - float(x.value @ inst.coupling @ y.value)) < 1e-15
    gx, gy = p.grad(x, y)
    assert np.allclose(gx.value, inst.coupling @ y.value)
    assert np.allclose(gy.value, inst.coupling.T @ x.value)


# -- empirical constants ----------------------------------------------------------------


def quadratic_problem(k=3):
    """f(x, y) = |x|^2/2 - |y|^2/2 on flat space; ell = mu = 1."""
    m = Euclidean(k)

    def value(x, y):
        return 0.5 * float(x.value @ x.value) - 0.5 * float(y.value @ y.value)

    def grad(x, y):
        return Tangent(x, x.value.copy()), Tangent(y, -y.value.copy())

    return SaddleProblem(m_min=m, m_max=m, value=value, grad=grad)


def test_estimate_smoothness_on_quadratic():
    p = quadratic_problem()
    got = estimate_smoothness(p, 4000, np.random.default_rng(23))
    assert 0.9 < got <= 1.0 + 1e-12


def test_estimate_smoothness_on_scalar_bilinear():
    p = make_bilinear(BilinearInstance(k=1))
    got = estimate_smoothness(p, 2000, np.random.default_rng(24))
    assert 0.9 < got <= 1.0 + 1e-12


def test_estimate_smoothness_nondecreasing_in_samples():
    p = quadratic_problem()
    a = estimate_smoothness(p, 50, np.random.default_rng(25))
    b = estimate_smoothness(p, 200, np.random.default_rng(25))
    assert b >= a


def test_estimators_compute_one_gradient_per_sampled_point():
    # 64 pairs among 12 points (66 >= 64 > 55) and 128 among 17 (136 >= 128 > 120).
    base = make_rpca(RpcaInstance.generate(d=3, n=4, alpha=2.0, seed=31))
    calls = []
    p = dataclasses.replace(base, grad=lambda x, y: calls.append(1) or base.grad(x, y))
    estimate_smoothness(p, 64, np.random.default_rng(32))
    assert len(calls) == 12
    calls.clear()
    estimate_strong_monotonicity(p, 128, np.random.default_rng(33))
    assert len(calls) == 17


def _pair_arrays(pair):
    (x1, y1, gx1, gy1), (x2, y2, gx2, gy2), dx, dy = pair
    return [x1.value, y1.value, gx1.value, gy1.value, x2.value, y2.value, gx2.value, gy2.value, dx, dy]


def test_sampled_pairs_of_a_smaller_count_are_a_prefix_of_a_larger_one():
    p = make_karcher(KarcherInstance.generate(d=2, n_anchors=3, gamma=3.0, seed=34))
    few = [_pair_arrays(pair) for pair in _sampled_pairs(p, 45, np.random.default_rng(35))]
    many = [_pair_arrays(pair) for pair in _sampled_pairs(p, 100, np.random.default_rng(35))]
    assert len(few) == 45 and len(many) == 100
    for a, b in zip(few, many[:45]):
        assert all(np.array_equal(u, v) for u, v in zip(a, b))
    # Each new point pairs with every earlier one: pair 0 is (1, 0), pairs 1-2 are (2, 0) and (2, 1).
    assert np.array_equal(few[0][4], few[1][4]) and np.array_equal(few[1][0], few[2][0])


def test_estimate_strong_monotonicity_on_quadratic():
    p = quadratic_problem()
    got = estimate_strong_monotonicity(p, 300, np.random.default_rng(26))
    assert abs(got - 1.0) < 1e-9


def test_estimate_strong_monotonicity_flags_bilinear_as_not_strong():
    p = make_bilinear(BilinearInstance(k=2))
    got = estimate_strong_monotonicity(p, 300, np.random.default_rng(27))
    assert got < 0.05  # bilinear coupling is monotone but not strongly so


# -- serialization ------------------------------------------------------------------------


def test_instance_json_roundtrip_bit_exact():
    rp = RpcaInstance.generate(d=3, n=4, alpha=1.5, seed=28)
    back = instance_from_json(instance_to_json(rp))
    assert back.alpha == rp.alpha
    # Each instance holds its matrices as one float (k, d, d) stack, and so does its reload.
    assert rp.data.dtype == back.data.dtype == float and rp.data.shape == back.data.shape == (4, 3, 3)
    assert np.array_equal(rp.data, back.data)

    ka = KarcherInstance.generate(d=2, n_anchors=3, gamma=0.9, seed=29)
    back = instance_from_json(instance_to_json(ka))
    assert back.gamma == ka.gamma
    assert ka.anchors.dtype == back.anchors.dtype == float and ka.anchors.shape == back.anchors.shape == (3, 2, 2)
    assert np.array_equal(ka.anchors, back.anchors)

    bi = BilinearInstance(k=2, coupling=np.array([[0.0, 1.0], [2.0, 3.0]]))
    back = instance_from_json(instance_to_json(bi))
    assert np.array_equal(back.coupling, bi.coupling)


def test_instances_keep_a_read_only_copy_of_their_matrices():
    a = np.stack([np.eye(2)] * 3)
    rp = RpcaInstance(d=2, n=3, alpha=1.0, data=a)
    ka = KarcherInstance(d=2, n_anchors=3, gamma=1.0, anchors=a)
    a[1] = [[1.0, 0.0], [0.0, -1.0]]  # a later write by the caller reaches neither instance
    assert np.array_equal(rp.data, np.stack([np.eye(2)] * 3))
    assert np.array_equal(ka.anchors, np.stack([np.eye(2)] * 3))
    for stack in (rp.data, ka.anchors):
        with pytest.raises(ValueError, match="read-only"):
            stack[1] = [[1.0, 0.0], [0.0, -1.0]]


def test_instance_validation():
    with pytest.raises(ValueError):
        RpcaInstance(d=2, n=1, alpha=-1.0, data=(np.eye(2),))
    with pytest.raises(ValueError):
        RpcaInstance(d=2, n=2, alpha=1.0, data=(np.eye(2),))
    with pytest.raises(ValueError):
        KarcherInstance(d=2, n_anchors=1, gamma=0.0, anchors=(np.eye(2),))
