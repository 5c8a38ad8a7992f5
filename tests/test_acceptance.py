"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 5-8 pin benchmark constants (robust-mean trade-off 0.5, robust PCA
penalty weight 1.0) under which the pinned instances provably lack the
strong convex-concave structure the convergence claims need; those tests
are implemented faithfully as stated and report their failure evidence.
The same machinery passes the identical checks on well-posed instances
(see test_solvers.py / the gamma=3 and alpha=3 runs there).
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from geosaddle.cli import main
from geosaddle.curvature import GeodesicTriangle, constants_at, tci_holds_lower, tci_holds_upper
from geosaddle.harness import (
    RunConfig,
    grid_search,
    solve_reference,
)
from geosaddle.manifolds import Euclidean, Product, Spd, Sphere
from geosaddle.problems import (
    BilinearInstance,
    KarcherInstance,
    RpcaInstance,
    estimate_smoothness,
    estimate_strong_monotonicity,
    make_bilinear,
    make_karcher,
    make_rpca,
)
from geosaddle.solvers import (
    DivergenceError,
    NoiseModel,
    initial_state,
    rceg_step,
    rgda_step,
    run,
    schedule_practical,
    schedule_rceg_scsc,
    schedule_rgda_cc,
    schedule_rgda_scsc,
    schedule_srceg_cc,
    schedule_srceg_scsc,
    schedule_srgda_cc,
)


def report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


# -- criterion 1: geometry suite ---------------------------------------------------


def test_criterion_01_geometry_suite():
    started = time.perf_counter()
    cases = 500
    suites = {
        "Sphere(25)": (Sphere(25), 0.5 * math.pi),
        "SPD(5)": (Spd(5), 1.0),
        "Euclidean(25)": (Euclidean(25), 1.0),
        "Sphere(7)xSPD(3)": (Product((Sphere(7), Spd(3))), 0.7),
    }
    worst = {"roundtrip": 0.0, "isometry": 0.0, "consistency": 0.0, "affine": 0.0}
    for name, (m, scale) in suites.items():
        rng = np.random.default_rng(hash(name) % 2**32)
        for _ in range(cases):
            x = m.random_point(rng)
            v = m.random_tangent(x, rng, scale=scale * rng.uniform(0.05, 1.0))
            w = m.log(x, m.exp(x, v))
            worst["roundtrip"] = max(worst["roundtrip"], m.norm(w - v) / max(1.0, m.norm(v)))

            y = m.random_point(rng)
            u1 = m.random_tangent(x, rng, scale=scale)
            u2 = m.random_tangent(x, rng, scale=scale)
            lhs = m.inner(u1, u2)
            rhs = m.inner(m.transport(x, y, u1), m.transport(x, y, u2))
            worst["isometry"] = max(worst["isometry"], abs(lhs - rhs) / (1.0 + abs(lhs)))

            d = m.distance(x, y)
            worst["consistency"] = max(
                worst["consistency"], abs(d - m.norm(m.log(x, y))) / (1.0 + d)
            )
    spd = Spd(5)
    rng = np.random.default_rng(77)
    for _ in range(cases):
        x, y = spd.random_point(rng), spd.random_point(rng)
        a = rng.standard_normal((5, 5)) + 0.5 * np.eye(5)
        da = spd.distance(spd.point(a.T @ x.value @ a), spd.point(a.T @ y.value @ a))
        worst["affine"] = max(worst["affine"], abs(da - spd.distance(x, y)))
    elapsed = time.perf_counter() - started
    ok = (
        worst["roundtrip"] <= 1e-9
        and worst["isometry"] <= 1e-9
        and worst["consistency"] <= 1e-10
        and worst["affine"] <= 1e-8
        and elapsed < 30.0
    )
    report(
        1,
        ok,
        f"500 cases/manifold: roundtrip {worst['roundtrip']:.1e} (<=1e-9), "
        f"isometry {worst['isometry']:.1e} (<=1e-9), consistency {worst['consistency']:.1e} "
        f"(<=1e-10), affine {worst['affine']:.1e} (<=1e-8), {elapsed:.1f}s (<30s)",
    )


# -- criterion 2: TCI suite --------------------------------------------------------


def _random_triangle_rejection(m, rng, leg_max, side_max):
    while True:
        p = m.random_point(rng)
        q = m.exp(p, m.random_tangent(p, rng, scale=rng.uniform(0.02, leg_max)))
        r = m.exp(p, m.random_tangent(p, rng, scale=rng.uniform(0.02, leg_max)))
        tri = GeodesicTriangle.from_vertices(m, p, q, r)
        if max(tri.a, tri.b, tri.c) < side_max:
            return tri


def test_criterion_02_tci_suite():
    sphere = Sphere(3)
    rng = np.random.default_rng(2023)
    lower_ok = 0
    for _ in range(1000):
        tri = _random_triangle_rejection(sphere, rng, 0.49 * math.pi, 0.5 * math.pi)
        if tci_holds_lower(sphere, tri).satisfied:
            lower_ok += 1

    spd = Spd(2, kappa_min=-0.5, kappa_max=0.0)
    upper_ok = 0
    for _ in range(1000):
        tri = _random_triangle_rejection(spd, rng, 1.8, 3.6)
        if tci_holds_upper(spd, tri).satisfied:
            upper_ok += 1

    euc = Euclidean(4)
    eq_worst = 0.0
    for _ in range(200):
        tri = _random_triangle_rejection(euc, rng, 2.0, 4.0)
        lo = tci_holds_lower(euc, tri)
        hi = tci_holds_upper(euc, tri)
        eq_worst = max(eq_worst, abs(lo.lhs - lo.rhs), abs(hi.lhs - hi.rhs))

    ok = lower_ok == 1000 and upper_ok == 1000 and eq_worst <= 1e-10
    report(
        2,
        ok,
        f"sphere lower TCI {lower_ok}/1000, SPD(2) upper TCI {upper_ok}/1000, "
        f"euclidean equality residual {eq_worst:.1e} (<=1e-10)",
    )


# -- criterion 3: schedule formulas --------------------------------------------------


def test_criterion_03_schedule_formulas():
    checks = [
        (schedule_rceg_scsc(1, 1, 1, 1), 0.5),
        (schedule_rceg_scsc(10, 1, 4, 1), 1 / 40),
        (schedule_rceg_scsc(3, 3, 1, 1), 1 / 6),  # flat case: 1/(2 ell)
        (schedule_srceg_scsc(1, 1, 1, 1, T=100, D0=1, sigma=1), 1 / 24),
        (schedule_srceg_cc(1, 1, 1, T=16, D0=1, sigma=1), 0.25),
        (schedule_rgda_scsc(1, 1), 1.0),
        (schedule_rgda_scsc(2, 8), 1 / 8),
        (schedule_rgda_scsc(1, 0), 1.0),
        (schedule_rgda_cc(1, 1, 2, 1), 1.0),
        (schedule_srgda_cc(1, 0, 1, 4, 1), 1.0),
        (schedule_practical(1, 1, 0), 0.5),
        (schedule_practical(1, 1, 4), 0.25),
    ]
    worst = max(abs(got - want) for got, want in checks)

    exact = (
        schedule_srceg_scsc(1, 1, 1, 1, T=100, D0=1, sigma=0) == min(1 / 24, 0.5)
        and schedule_srceg_cc(1, 1, 1, T=16, D0=1, sigma=0) == 0.25
        and schedule_rgda_cc(2, 400, 1, 1.3) == schedule_rgda_cc(2, 100, 1, 1.3) / 2
        and schedule_practical(1, 3, 10**6) == 3 / 10**6
        and schedule_rceg_scsc(2, 2, 1, 1) == 1 / 4
    )
    ok = worst <= 1e-12 and exact
    report(3, ok, f"hand-evaluated schedules max err {worst:.1e} (<=1e-12), limits exact: {exact}")


# -- criterion 4: Euclidean equivalence ------------------------------------------------


def test_criterion_04_euclidean_equivalence():
    rng = np.random.default_rng(4)
    b = rng.standard_normal((3, 3))
    p = make_bilinear(BilinearInstance(k=3, coupling=b))
    x0, y0 = rng.standard_normal(3), rng.standard_normal(3)
    eta = 0.06

    st = initial_state(p, p.m_min.point(x0), p.m_max.point(y0))
    fx, fy = x0.copy(), y0.copy()
    worst_eg = 0.0
    for _ in range(100):
        st = rceg_step(p, st, eta)
        xh = fx - eta * (b @ fy)
        yh = fy + eta * (b.T @ fx)
        fx = fx - eta * (b @ yh)
        fy = fy + eta * (b.T @ xh)
        worst_eg = max(worst_eg, np.max(np.abs(st.x.value - fx)), np.max(np.abs(st.y.value - fy)))

    st = initial_state(p, p.m_min.point(x0), p.m_max.point(y0))
    gx, gy = x0.copy(), y0.copy()
    worst_gda = 0.0
    for _ in range(100):
        st = rgda_step(p, st, eta)
        gx, gy = gx - eta * (b @ gy), gy + eta * (b.T @ gx)
        worst_gda = max(worst_gda, np.max(np.abs(st.x.value - gx)), np.max(np.abs(st.y.value - gy)))

    pid = make_bilinear(BilinearInstance(k=1))
    s_g = initial_state(pid, pid.m_min.point([1.0]), pid.m_max.point([1.0]))
    s_e = initial_state(pid, pid.m_min.point([1.0]), pid.m_max.point([1.0]))
    d_g = [math.sqrt(2.0)]
    d_e = [math.sqrt(2.0)]
    for _ in range(100):
        s_g = rgda_step(pid, s_g, 0.1)
        s_e = rceg_step(pid, s_e, 0.1)
        d_g.append(math.hypot(s_g.x.value[0], s_g.y.value[0]))
        d_e.append(math.hypot(s_e.x.value[0], s_e.y.value[0]))
    gda_increasing = all(bb > aa for aa, bb in zip(d_g, d_g[1:]))
    eg_decreasing = all(bb < aa for aa, bb in zip(d_e[1:], d_e[2:]))

    ok = worst_eg <= 1e-12 and worst_gda <= 1e-12 and gda_increasing and eg_decreasing
    report(
        4,
        ok,
        f"RCEG vs flat EG {worst_eg:.1e} (<=1e-12), RGDA vs flat GDA {worst_gda:.1e} (<=1e-12), "
        f"GDA distance strictly up: {gda_increasing}, RCEG strictly down after step 1: {eg_decreasing}",
    )


# -- criteria 5 and 6: pinned robust-mean instance -------------------------------------


@pytest.fixture(scope="module")
def pinned_karcher():
    """The pinned instance: d=3, N=5, gamma=0.5. The max side is not concave at
    this trade-off (the anchor penalty is outweighed by the spread term), so the
    reference solve is expected to diverge; the fixture reports what happened."""
    inst = KarcherInstance.generate(d=3, n_anchors=5, gamma=0.5, seed=11)
    prob = make_karcher(inst)
    try:
        x, y, gn, iters = solve_reference(prob, tol=1e-10, max_iters=20_000, seed=5)
        return prob, (x, y), None
    except (DivergenceError, RuntimeError) as e:
        return prob, None, e


def test_criterion_05_theorem1_contraction_on_pinned_instance(pinned_karcher):
    started = time.perf_counter()
    prob, ref, failure = pinned_karcher
    if ref is None:
        report(5, False, f"reference solve failed on the gamma=0.5 instance: {failure}")
        return
    ell = estimate_smoothness(prob, 64, np.random.default_rng(7))
    mu = estimate_strong_monotonicity(prob, 128, np.random.default_rng(8))
    if mu <= 0:
        report(5, False, f"estimated strong-monotonicity modulus {mu:.3e} is not positive")
        return
    k = constants_at(prob.m_min.kappa_min, prob.m_min.kappa_max, 3.0)
    eta = schedule_rceg_scsc(ell, mu, k.tau0, k.xi_lower0)
    rng = np.random.default_rng(123)
    st = initial_state(prob, prob.m_min.random_point(rng), prob.m_max.random_point(rng))
    gaps = [prob.distance_gap(st.x, st.y, ref)]
    for _ in range(300):
        st = rceg_step(prob, st, eta)
        gaps.append(prob.distance_gap(st.x, st.y, ref))
    nonincreasing = all(bb <= aa * (1 + 1e-12) for aa, bb in zip(gaps, gaps[1:]))
    slope = np.polyfit(np.arange(150, 301), np.log(gaps[150:]), 1)[0]
    elapsed = time.perf_counter() - started
    ok = nonincreasing and slope <= -1e-3 and elapsed < 60.0
    report(5, ok, f"gap nonincreasing: {nonincreasing}, log-slope {slope:.2e} (<=-1e-3), {elapsed:.0f}s")


def test_criterion_06_rgda_envelope_on_pinned_instance(pinned_karcher):
    prob, ref, failure = pinned_karcher
    if ref is None:
        report(6, False, f"reference solve failed on the gamma=0.5 instance: {failure}")
        return
    mu = estimate_strong_monotonicity(prob, 128, np.random.default_rng(8))
    if mu <= 0:
        report(6, False, f"estimated strong-monotonicity modulus {mu:.3e} is not positive")
        return
    rng = np.random.default_rng(5)
    st = initial_state(prob, prob.m_min.random_point(rng), prob.m_max.random_point(rng))
    gaps = [prob.distance_gap(st.x, st.y, ref)]
    for t in range(2000):
        st = rgda_step(prob, st, schedule_rgda_scsc(mu, t))
        gaps.append(prob.distance_gap(st.x, st.y, ref))
    envelope = 2 * gaps[2] * 1.1
    worst = max(gaps[t] * t / envelope for t in range(2, 2001))
    ok = worst <= 1.0
    report(6, ok, f"sup_t t*gap(t) / (1.1 * 2*gap(2)) = {worst:.3f} (<=1)")


# -- criteria 7 and 8: robust PCA figure reproduction ------------------------------------


FIG1_ITERS = 1200


@pytest.fixture(scope="module")
def figure1_run():
    """Deterministic RCEG on the pinned RPCA setting d=25, n=40, alpha=1.0."""
    inst = RpcaInstance.generate(d=25, n=40, alpha=1.0, seed=0)
    prob = make_rpca(inst)
    ell = estimate_smoothness(prob, 64, np.random.default_rng(0xE57))
    eta = 1.0 / (2.0 * ell)
    started = time.perf_counter()
    trace, _ = run(prob, "rceg", lambda t: eta, FIG1_ITERS, seed=7)
    elapsed = time.perf_counter() - started
    return inst, trace, elapsed


def test_criterion_07_figure1_deterministic(figure1_run):
    _inst, trace, elapsed = figure1_run
    gn = trace.column("grad_norm")
    gn_avg = trace.column("grad_norm_avg")
    reached = min(gn)
    cut = int(0.2 * FIG1_ITERS)
    ordered = all(
        gn[t] <= gn_avg[t] for t in range(cut, FIG1_ITERS + 1) if gn_avg[t] is not None
    )
    ok = reached <= 1e-6 and ordered and elapsed < 300.0
    report(
        7,
        ok,
        f"min last-iterate grad norm {reached:.3e} (<=1e-6), last<=avg from 20% on: {ordered}, "
        f"{elapsed:.0f}s (<300s)",
    )


def test_criterion_08_figure2_stochastic(figure1_run):
    inst, det_trace, _ = figure1_run
    cfg = RunConfig(
        problem="rpca", solver="srceg", seed=0, iters=400, d=25, n=40, alpha=1.0,
        batch_size=4, eta="auto", data_seed=0,
    )
    best, _rows = grid_search(cfg, a_grid=[0.25, 0.5, 1.0, 2.0])
    a_star = best["param"]

    prob = make_rpca(inst, batch_size=4)
    ell = estimate_smoothness(prob, 64, np.random.default_rng(0xE57))
    curves = []
    final_log_gaps = []
    for seed in range(5):
        trace, _ = run(
            prob,
            "srceg",
            lambda t: schedule_practical(ell, a_star, t),
            1500,
            seed=seed,
        )
        curves.append(trace.column("grad_norm"))
        last, avg = trace.rows[-1].grad_norm, trace.rows[-1].grad_norm_avg
        final_log_gaps.append(math.log(avg / last))
    mean_curve = np.mean(np.asarray(curves), axis=0)
    reached = float(np.min(mean_curve))

    det_last, det_avg = det_trace.rows[-1].grad_norm, det_trace.rows[-1].grad_norm_avg
    det_gap = math.log(det_avg / det_last)
    stoc_gap = float(np.mean(final_log_gaps))
    ok = reached <= 1e-2 and stoc_gap < det_gap
    report(
        8,
        ok,
        f"mean-of-5-seeds min grad norm {reached:.3e} (<=1e-2) at a*={a_star}, "
        f"stochastic last-vs-avg log gap {stoc_gap:.2f} < deterministic {det_gap:.2f}: {stoc_gap < det_gap}",
    )


# -- criterion 9: noise contract -----------------------------------------------------


def test_criterion_09_noise_contract():
    inst = RpcaInstance.generate(d=5, n=4, alpha=1.0, seed=9)
    prob = make_rpca(inst)
    rng = np.random.default_rng(10)
    x = prob.m_min.random_point(rng)
    y = prob.m_max.random_point(rng)
    sigma = 1.3
    noise = NoiseModel(sigma=sigma, seed=31)
    n = 10_000
    total = 0.0
    mean_x = np.zeros_like(x.value)
    mean_y = np.zeros_like(y.value)
    for _ in range(n):
        nx, ny = noise.draw(prob, x, y, 0)
        total += prob.m_min.norm(nx) ** 2 + prob.m_max.norm(ny) ** 2
        mean_x += nx.value
        mean_y += ny.value
    emp = total / n
    lo, hi = 0.94 * sigma**2, 1.06 * sigma**2
    se_x = math.sqrt((sigma**2 / 2) / n)
    mean_x_norm = float(np.linalg.norm(mean_x / n))
    # the y block lives in the affine-invariant metric at y
    my = prob.m_max
    mean_y_norm = my.norm(my.tangent(y, 0.5 * (mean_y + mean_y.T) / n))
    ok = lo <= emp <= hi and mean_x_norm <= 3 * se_x and mean_y_norm <= 3 * se_x
    report(
        9,
        ok,
        f"E|xi|^2 = {emp:.4f} in [{lo:.4f}, {hi:.4f}], mean norms ({mean_x_norm:.2e}, "
        f"{mean_y_norm:.2e}) <= 3se = {3 * se_x:.2e}",
    )


# -- criterion 10: CLI determinism ----------------------------------------------------


def test_criterion_10_cli_determinism(tmp_path):
    def byte_identical(args_builder) -> bool:
        outs = []
        for tag in ("a", "b"):
            paths = args_builder(tag)
            code = main(paths["argv"])
            assert code == 0, f"command failed: {paths['argv']}"
            outs.append(tuple(Path(p).read_bytes() for p in paths["files"]))
        return outs[0] == outs[1]

    def run_cmd(tag):
        out = tmp_path / f"run_{tag}.csv"
        return {
            "argv": [
                "run", "--problem", "rpca", "--d", "4", "--n", "6", "--alpha", "1.0",
                "--solver", "srceg", "--batch-size", "2", "--eta", "0.2", "--iters",
                "25", "--seed", "13", "--out", str(out),
            ],
            "files": [out],
        }

    def grid_cmd(tag):
        out = tmp_path / f"grid_{tag}.csv"
        return {
            "argv": [
                "grid-search", "--problem", "bilinear", "--d", "2", "--solver", "rceg",
                "--seed", "3", "--iters", "40", "--ell-grid", "0.5,1.0,2.0",
                "--out", str(out),
            ],
            "files": [out],
        }

    def ref_cmd(tag):
        out = tmp_path / f"ref_{tag}.json"
        return {
            "argv": [
                "reference", "--problem", "karcher", "--d", "2", "--n-anchors", "2",
                "--gamma", "3.0", "--seed", "4", "--tol", "1e-9", "--out", str(out),
            ],
            "files": [out],
        }

    trace_for_plot = tmp_path / "plot_input.csv"
    assert main(
        ["run", "--problem", "bilinear", "--d", "2", "--solver", "rceg", "--eta", "0.2",
         "--iters", "30", "--seed", "6", "--out", str(trace_for_plot)]
    ) == 0

    def plot_cmd(tag):
        out_csv = tmp_path / f"plot_{tag}.csv"
        out_svg = tmp_path / f"plot_{tag}.svg"
        return {
            "argv": [
                "plot", "--series", f"{trace_for_plot}:grad_norm:RCEG-last",
                "--series", f"{trace_for_plot}:grad_norm_avg:RCEG-avg",
                "--out", str(out_csv), "--svg", str(out_svg),
            ],
            "files": [out_csv, out_svg],
        }

    results = {
        "run": byte_identical(run_cmd),
        "grid-search": byte_identical(grid_cmd),
        "reference": byte_identical(ref_cmd),
        "plot": byte_identical(plot_cmd),
    }
    ok = all(results.values())
    report(10, ok, f"byte-identical reruns: {results}")
