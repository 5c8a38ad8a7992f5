"""Harness and CLI: configs, trace files, metrics, grid search, references, plots."""

import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

import geosaddle
from geosaddle import harness, solvers
from geosaddle.cli import build_parser, main
from geosaddle.harness import (
    ConfigError,
    PlotSeries,
    RunConfig,
    build_problem,
    emit_plot_data,
    execute_run,
    grid_search,
    load_reference,
    read_trace_csv,
    solve_reference,
    write_reference,
    write_trace_csv,
)
from geosaddle.problems import (
    BilinearInstance,
    KarcherInstance,
    RpcaInstance,
    SaddleProblem,
    instance_to_json,
    make_bilinear,
    make_karcher,
)
from geosaddle.manifolds import Euclidean, Sphere, Tangent
from geosaddle.solvers import DivergenceError


# -- config validation -------------------------------------------------------------


def test_config_rejects_stochastic_without_noise_source():
    cfg = RunConfig(problem="bilinear", solver="srgda", seed=1, iters=5, d=2)
    with pytest.raises(ConfigError):
        cfg.validate()


def test_config_rejects_batch_for_non_rpca():
    cfg = RunConfig(problem="karcher", solver="srceg", seed=1, iters=5, batch_size=2)
    with pytest.raises(ConfigError):
        cfg.validate()


def test_config_rejects_bad_eta_and_unknown_keys():
    with pytest.raises(ConfigError):
        RunConfig(problem="bilinear", solver="rceg", seed=1, iters=5, eta="fast").validate()
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"problem": "bilinear", "solver": "rceg", "seed": 1, "iters": 5, "nope": 1})


def test_config_batch_size_range_checked():
    cfg = RunConfig(problem="rpca", solver="srceg", seed=1, iters=5, d=2, n=4, batch_size=9)
    with pytest.raises(ConfigError):
        cfg.validate()


# -- metrics ------------------------------------------------------------------------


def test_metric_gradient_norm_bilinear():
    p = make_bilinear(BilinearInstance(k=1))
    x = p.m_min.point([1.0])
    y = p.m_max.point([1.0])
    combined, x_part, y_part = p.grad_norms(x, y)
    assert abs(combined - math.sqrt(2.0)) < 1e-12
    assert abs(combined**2 - (x_part**2 + y_part**2)) < 1e-12
    origin = p.m_min.point([0.0])
    assert p.grad_norms(origin, origin)[0] <= 1e-12


def test_metric_distance_gap_bilinear():
    p = make_bilinear(BilinearInstance(k=1))
    one = p.m_min.point([1.0])
    zero = p.m_min.point([0.0])
    assert p.distance_gap(one, one, (zero, zero)) == pytest.approx(2.0)
    assert p.distance_gap(one, one, (one, one)) == 0.0
    assert p.distance_gap(one, zero, (zero, zero)) == p.distance_gap(zero, one, (zero, zero))


# -- trace CSV -----------------------------------------------------------------------


def test_trace_csv_roundtrip_exact(tmp_path):
    cfg = RunConfig(problem="bilinear", solver="rceg", seed=2, iters=12, d=2, eta=0.1)
    trace, meta = execute_run(cfg)
    path = tmp_path / "t.csv"
    write_trace_csv(trace, str(path), meta=meta)
    meta2, trace2 = read_trace_csv(str(path))
    assert meta2 == json.loads(json.dumps(meta))
    assert len(trace2.rows) == len(trace.rows)
    for a, b in zip(trace.rows, trace2.rows):
        assert a == b


@pytest.mark.parametrize("row", ["0,0.0,0.0,1.0", "0,0.0,,1.0,1.0,1.0,,,0.0"], ids=["short", "empty-eta"])
def test_read_trace_csv_rejects_malformed_rows(tmp_path, row):
    path = tmp_path / "t.csv"
    header = "iter,data_passes,eta,grad_norm,grad_norm_x,grad_norm_y,grad_norm_avg,dist_gap,elapsed_ms"
    path.write_text(f"{header}\n{row}\n")
    with pytest.raises(ValueError):
        read_trace_csv(str(path))


def test_trace_row_count_matches_contract(tmp_path):
    out = tmp_path / "trace.csv"
    cfg = RunConfig(problem="rpca", solver="rceg", seed=7, iters=20, d=3, n=5, eta=0.1, out=str(out))
    trace, _ = execute_run(cfg)
    assert len(trace.rows) == 21  # row 0 holds the initial metrics
    assert trace.rows[0].iter == 0 and trace.rows[0].data_passes == 0.0
    lines = out.read_text().splitlines()
    data_lines = [l for l in lines if l and not l.startswith("#") and not l.startswith("iter")]
    assert len(data_lines) == 21


def test_run_header_records_constants_and_seed(tmp_path):
    out = tmp_path / "trace.csv"
    cfg = RunConfig(
        problem="karcher", solver="rceg", seed=5, iters=5, d=2, n_anchors=2, gamma=3.0,
        eta=0.05, out=str(out), diameter=2.0,
    )
    _, meta = execute_run(cfg)
    assert meta["seed"] == 5
    assert meta["schedule"]["kind"] == "constant"
    side = meta["curvature"]["min_side"]
    assert side["at_c"] == 2.0
    assert side["xi_lower0"] == 1.0 and side["xi_upper0"] > 1.0
    assert abs(side["tau0"] - side["xi_upper0"]) < 1e-12
    assert meta["version"]
    assert meta["empirical_d_max_from_init"] > 0.0


def test_divergence_flushes_partial_trace(tmp_path):
    out = tmp_path / "t.csv"
    cfg = RunConfig(problem="bilinear", solver="rgda", seed=3, iters=4000, d=2, eta=0.9, out=str(out))
    with pytest.raises(DivergenceError):
        execute_run(cfg)
    meta, trace = read_trace_csv(str(out))
    assert meta["status"] == "numeric-failure"
    assert 0 < len(trace.rows) < 4001
    assert trace.rows[-1].grad_norm > 1e6


# -- reference saddles ------------------------------------------------------------------


def test_solve_reference_bilinear_reaches_origin(tmp_path):
    p = make_bilinear(BilinearInstance(k=2))
    x, y, gn, iters = solve_reference(p, tol=1e-10, seed=4)
    assert gn <= 1e-10
    assert np.linalg.norm(x.value) <= 1e-8
    assert np.linalg.norm(y.value) <= 1e-8
    path = tmp_path / "ref.json"
    write_reference(str(path), x, y, gn, iters)
    rx, ry, payload = load_reference(str(path), p.m_min, p.m_max)
    assert np.array_equal(rx.value, x.value)
    assert payload["grad_norm"] == gn


def scalar_karcher_stationarity(anchor: float, gamma: float) -> float:
    """1-D oracle: solve the coupled stationarity by bisection in log space.

    With u = log X and v = log Y the field vanishes when u = v and
    gamma * (v - log A) = 0; bisection on the v-residual keeps this honest.
    """
    a = math.log(anchor)

    def residual(v):
        return -2.0 * gamma * (v - a)  # ascent direction for Y at u = v

    lo, hi = a - 5.0, a + 5.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if residual(lo) * residual(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return math.exp(0.5 * (lo + hi))


def test_solve_reference_karcher_scalar_matches_bisection():
    anchor = 1.9
    inst = KarcherInstance(d=1, n_anchors=1, gamma=2.0, anchors=(np.array([[anchor]]),))
    p = make_karcher(inst)
    x, y, gn, _ = solve_reference(p, tol=1e-10, seed=6)
    want = scalar_karcher_stationarity(anchor, 2.0)
    assert abs(x.value[0, 0] - want) < 1e-6
    assert abs(y.value[0][0, 0] - want) < 1e-6


def test_solve_reference_rerun_refines(tmp_path):
    p = make_bilinear(BilinearInstance(k=2))
    x, y, gn, _ = solve_reference(p, tol=1e-6, seed=7)
    x2, y2, gn2, _ = solve_reference(p, tol=1e-12, seed=7, x0=x, y0=y)
    assert gn2 <= gn


def test_solve_reference_karcher_bits_at_350_iterations():
    inst = KarcherInstance.generate(d=3, n_anchors=20, gamma=3.0, seed=5)
    _, _, gn, iters = solve_reference(make_karcher(inst), tol=1e-10, max_iters=2000, seed=5, eta=0.02)
    assert iters == 350
    assert gn == 6.326481040142486e-11  # 6.331575725430216e-11 before exp carried its factor


def test_failed_reference_solve_carries_its_partial_trace():
    # The auto step 1/(2 l^) = 0.377 leaves the PD cone before the first recorded row past 0.
    p = build_problem(RunConfig(problem="rpca", d=5, n=8, alpha=3.0, seed=7))
    with pytest.raises(DivergenceError, match="^geometry kernel failed at iteration 14: ") as err:
        solve_reference(p, tol=1e-8, seed=7)
    rows = err.value.trace.rows
    assert [r.iter for r in rows] == [0]
    assert all(math.isfinite(r.grad_norm) for r in rows)


def test_failed_reference_solve_at_a_fixed_step_carries_every_recorded_row():
    p = build_problem(RunConfig(problem="rpca", d=5, n=8, alpha=3.0, seed=7))
    with pytest.raises(DivergenceError, match="^geometry kernel failed at iteration 50: ") as err:
        solve_reference(p, tol=1e-8, seed=7, eta=0.36)
    rows = err.value.trace.rows
    assert [r.iter for r in rows] == [0, 25, 50]
    assert all(math.isfinite(r.grad_norm) for r in rows)


def test_solve_reference_budget_exhaustion_raises():
    p = make_bilinear(BilinearInstance(k=2))
    with pytest.raises(DivergenceError, match="^reference solve stopped above tolerance"):
        solve_reference(p, tol=1e-300, max_iters=50, seed=8)


def test_reference_budget_exhaustion_carries_its_partial_run():
    inst = KarcherInstance.generate(d=3, n_anchors=4, gamma=3.0, seed=5)
    with pytest.raises(DivergenceError, match="^reference solve stopped above tolerance") as err:
        solve_reference(make_karcher(inst), tol=1e-12, max_iters=5, seed=5)
    assert [r.iter for r in err.value.trace.rows] == [0, 5]
    assert err.value.state.t == 5


# -- grid search ---------------------------------------------------------------------


def test_grid_search_singleton():
    cfg = RunConfig(problem="bilinear", solver="rceg", seed=9, iters=30, d=2, eta=0.1)
    best, rows = grid_search(cfg, ell_grid=[2.0])
    assert len(rows) == 1
    assert best["param"] == 2.0 and best["status"] == "ok"


def test_grid_search_prefers_convergent_candidate(tmp_path):
    cfg = RunConfig(problem="bilinear", solver="rceg", seed=9, iters=60, d=2, eta=0.1)
    # ell = 0.05 gives eta = 10 (diverges); ell = 2 gives eta = 0.25 (converges)
    best, rows = grid_search(cfg, ell_grid=[0.05, 2.0], out=str(tmp_path / "rank.csv"))
    assert best["param"] == 2.0
    statuses = {r["param"]: r["status"] for r in rows}
    assert statuses[0.05] == "diverged"
    ranking = (tmp_path / "rank.csv").read_text().splitlines()
    assert ranking[0] == "rank,param_name,param,eta0,final_grad_norm,status"
    assert len(ranking) == 3


def test_grid_search_deterministic():
    cfg = RunConfig(problem="bilinear", solver="rceg", seed=10, iters=40, d=2, eta=0.1)
    a = grid_search(cfg, ell_grid=[0.5, 1.0, 2.0])[1]
    b = grid_search(cfg, ell_grid=[0.5, 1.0, 2.0])[1]
    assert a == b


def test_grid_search_all_divergent_raises():
    cfg = RunConfig(problem="bilinear", solver="rceg", seed=11, iters=60, d=2, eta=0.1)
    with pytest.raises(DivergenceError):
        grid_search(cfg, ell_grid=[0.01, 0.02])


def test_grid_search_all_divergent_carries_the_last_candidates_run():
    cfg = RunConfig(problem="bilinear", solver="rgda", seed=3, iters=200, d=2)
    with pytest.raises(DivergenceError, match="^every grid candidate diverged$") as err:
        grid_search(cfg, ell_grid=[0.2, 0.3])
    rows = err.value.trace.rows
    assert rows and rows[-1].grad_norm > 1e6
    assert err.value.state.t == rows[-1].iter
    # the last candidate (ell = 0.3) run alone fails with the same trace
    with pytest.raises(DivergenceError) as alone:
        solvers.run(build_problem(cfg), "rgda", lambda t: 1.0 / 0.6, 200, 3, track_average=False)
    assert alone.value.trace.rows == rows


def test_grid_search_requires_exactly_one_grid():
    cfg = RunConfig(problem="bilinear", solver="rceg", seed=1, iters=5, d=2, eta=0.1)
    with pytest.raises(ConfigError):
        grid_search(cfg)
    with pytest.raises(ConfigError):
        grid_search(cfg, ell_grid=[1.0], a_grid=[1.0])


@pytest.mark.parametrize("solver", ["rceg", "rgda", "srgda"])
def test_grid_search_a_grid_needs_srceg(solver):
    # only the srceg auto schedule reads a; elsewhere every candidate would run
    # the same schedule and the ranking would only reflect the tie-break
    sigma = 0.1 if solver == "srgda" else None  # rceg/rgda reject --sigma on their own
    cfg = RunConfig(problem="karcher", solver=solver, seed=1, iters=5, d=2, gamma=3.0, sigma=sigma)
    with pytest.raises(ConfigError, match="an a grid cannot rank"):
        grid_search(cfg, a_grid=[0.1, 1.0])


def test_grid_candidate_ranks_by_last_iterate_when_the_mean_fails(monkeypatch):
    # On the circle, grad_x = -(4 pi/3) J x turns x by 2 pi/3 per rgda step at eta = 1/2, so at
    # t = 2 the running mean of x0 and x1 is antipodal to x2. Candidates keep no running mean.
    turn = np.array([[0.0, -1.0], [1.0, 0.0]])

    def grad(x, y):
        return Tangent(x, (-4.0 * math.pi / 3.0) * (turn @ x.value)), Tangent(y, np.zeros(1))

    problem = SaddleProblem(m_min=Sphere(2), m_max=Euclidean(1), value=lambda x, y: 0.0, grad=grad)
    monkeypatch.setattr(harness, "build_problem", lambda cfg, inst=None: problem)
    cfg = RunConfig(problem="bilinear", solver="rgda", seed=3, iters=6, d=1)
    best, _rows = grid_search(cfg, ell_grid=[1.0])
    assert best["status"] == "ok"
    assert best["final_grad_norm"] == 4.1887902047863905


def test_grid_ranking_equals_each_candidate_run_alone(monkeypatch):
    # 7 srceg steps draw 14 minibatches of 2 from n = 5, ending mid-epoch. Every candidate runs on
    # the one problem the grid builds, whose sampler starts a fresh epoch for each run's generator.
    built = []
    build = harness.build_problem
    monkeypatch.setattr(harness, "build_problem", lambda *a: built.append(1) or build(*a))
    cfg = RunConfig(problem="rpca", solver="srceg", seed=4, iters=7, d=3, n=5, alpha=3.0, batch_size=2)
    _best, rows = grid_search(cfg, ell_grid=[8.0, 16.0, 32.0])
    assert len(built) == 1
    assert [r["status"] for r in rows] == ["ok"] * 3
    for r in rows:
        alone, _ = execute_run(replace(cfg, eta=1.0 / (2.0 * r["param"])))
        assert r["final_grad_norm"] == alone.rows[-1].grad_norm


def test_grid_search_estimates_once_and_never_averages(monkeypatch):
    calls = []
    estimate = harness.estimate_smoothness
    monkeypatch.setattr(harness, "estimate_smoothness", lambda *a: calls.append(1) or estimate(*a))
    monkeypatch.setattr(harness, "execute_run", None)
    monkeypatch.setattr(solvers, "running_mean_update", None)
    cfg = RunConfig(problem="bilinear", solver="srceg", seed=2, iters=10, d=2, sigma=0.1)
    _best, rows = grid_search(cfg, a_grid=[0.25, 0.5, 1.0])
    assert len(rows) == 3 and len(calls) == 1


# -- CLI ------------------------------------------------------------------------------


def test_cli_run_contract(tmp_path):
    out = tmp_path / "t.csv"
    code = main(
        [
            "run", "--problem", "rpca", "--d", "3", "--n", "5", "--alpha", "1.0",
            "--solver", "rceg", "--eta", "auto", "--iters", "15", "--seed", "7",
            "--out", str(out),
        ]
    )
    assert code == 0
    _, trace = read_trace_csv(str(out))
    assert len(trace.rows) == 16


def test_cli_rejects_invalid_flag_combination(tmp_path):
    out = tmp_path / "t.csv"
    code = main(
        [
            "run", "--problem", "bilinear", "--d", "2", "--solver", "srgda",
            "--iters", "5", "--seed", "1", "--out", str(out),
        ]
    )
    assert code == 2
    assert not out.exists()


# Problem flags only, for `reference`, which takes no --iters.
_SMALL_RPCA_PROBLEM = ["--problem", "rpca", "--d", "2", "--n", "4", "--seed", "1"]
_SMALL_RPCA = [*_SMALL_RPCA_PROBLEM, "--iters", "5"]
# The same with the instance from an --instance file, which takes no generation flags.
_LOADED_RPCA = ["--problem", "rpca", "--seed", "1", "--iters", "5"]
# x would live on the sphere S^0, which holds two points and no geodesics.
_RPCA_D1 = ["--problem", "rpca", "--d", "1", "--n", "3", "--seed", "1"]
_NOT_PD = [[1.0, 0.0], [0.0, -1.0]]


def _bad_input_files(tmp_path) -> dict:
    """Input files that parse as JSON but hold payloads the problem must reject."""
    inst = instance_to_json(RpcaInstance.generate(d=2, n=4, alpha=1.0, seed=1))
    files = {
        "missing": tmp_path / "missing.json",
        "instance4": tmp_path / "inst4.json",
        "instance_not_pd": tmp_path / "inst.json",
        "init_not_pd": tmp_path / "init.json",
        "ref4": tmp_path / "ref4.json",
        "config_rgda": tmp_path / "rgda.json",
        "config_run_only": tmp_path / "run_only.json",
        "config_not_grid": tmp_path / "not_grid.json",
        "zero_coupling": tmp_path / "zero.json",
        "config_anchors": tmp_path / "anchors.json",
        "config_data_seed": tmp_path / "data_seed.json",
    }
    files["instance4"].write_text(json.dumps(inst))
    inst["data"][1] = _NOT_PD
    files["config_rgda"].write_text(json.dumps({"solver": "rgda"}))
    # keys of RunConfig fields whose flags the command does not register
    run_only = {"save_instance": str(files["missing"]), "iters": 7, "timing": True}
    files["config_run_only"].write_text(json.dumps(run_only))
    files["config_not_grid"].write_text(json.dumps({"reference": "nope.json", "diameter": 3.0, "eta": 0.5}))
    files["config_anchors"].write_text(json.dumps({"n_anchors": 3}))
    files["config_data_seed"].write_text(json.dumps({"data_seed": 2}))
    # zero gradients everywhere, so the sampled smoothness is 0
    files["zero_coupling"].write_text(json.dumps({"problem": "bilinear", "k": 2, "coupling": [[0, 0], [0, 0]]}))
    files["instance_not_pd"].write_text(json.dumps(inst))
    init = {"x": {"kind": "sphere", "payload": [1.0, 0.0]}, "y": {"kind": "spd", "payload": _NOT_PD}}
    files["init_not_pd"].write_text(json.dumps(init))
    # a saddle file of the 4-anchor problem, one Y matrix more than the 3-anchor problem holds
    problem = make_karcher(KarcherInstance.generate(d=2, n_anchors=4, gamma=3.0, seed=1))
    rng = np.random.default_rng(1)
    write_reference(str(files["ref4"]), problem.m_min.random_point(rng), problem.m_max.random_point(rng), 0.0, 0)
    return files


@pytest.mark.parametrize(
    "argv",
    [
        ["run", *_SMALL_RPCA, "--solver", "rceg", "--eta", "inf"],
        ["run", *_SMALL_RPCA, "--solver", "srceg", "--batch-size", "2", "--eta", "auto", "--a", "inf"],
        ["run", *_SMALL_RPCA, "--solver", "srceg", "--sigma", "nan", "--eta", "0.1"],
        ["grid-search", *_SMALL_RPCA, "--solver", "rceg", "--ell-grid", "1,x"],
        ["run", *_LOADED_RPCA, "--solver", "rceg", "--eta", "0.1", "--instance", "{missing}"],
        ["run", *_SMALL_RPCA, "--solver", "rceg", "--eta", "0.1", "--init-from", "{missing}"],
        ["reference", *_SMALL_RPCA_PROBLEM, "--init-from", "{missing}"],
        ["run", *_SMALL_RPCA, "--solver", "rceg", "--eta", "0.1", "--reference", "{missing}"],
        [
            "run", *_SMALL_RPCA, "--solver", "rceg", "--eta", "0.1", "--init-from", "{init_not_pd}",
            "--save-instance", "{missing}",
        ],
        ["run", *_SMALL_RPCA, "--solver", "rceg", "--batch-size", "2", "--eta", "0.05"],
        ["run", *_SMALL_RPCA, "--solver", "srceg", "--sigma", "0.1", "--batch-size", "2", "--eta", "0.05"],
        ["run", *_SMALL_RPCA, "--solver", "rceg", "--sigma", "0.1", "--eta", "0.05"],
        ["run", *_SMALL_RPCA, "--solver", "rgda", "--sigma", "0.1", "--eta", "0.05"],
        ["reference", *_SMALL_RPCA_PROBLEM, "--solver", "rgda"],
        ["reference", *_SMALL_RPCA_PROBLEM, "--solver", "srceg", "--sigma", "0.1"],
        ["reference", *_SMALL_RPCA_PROBLEM, "--solver", "srgda", "--sigma", "0.5"],
        ["run", *_LOADED_RPCA, "--solver", "rceg", "--eta", "0.1", "--instance", "{instance_not_pd}"],
        ["run", *_SMALL_RPCA, "--solver", "rceg", "--eta", "0.1", "--init-from", "{init_not_pd}"],
        [
            "reference", "--problem", "karcher", "--d", "2", "--n-anchors", "3", "--gamma", "3.0",
            "--seed", "1", "--tol", "1e-8", "--init-from", "{ref4}",
        ],
        ["run", *_SMALL_RPCA, "--solver", "rceg", "--eta", "0.1", "--seed", "-1"],
        ["grid-search", *_SMALL_RPCA, "--solver", "rceg", "--ell-grid", "1,2", "--seed", "-1"],
        ["reference", *_SMALL_RPCA_PROBLEM, "--seed", "-1"],
        ["run", *_SMALL_RPCA, "--solver", "rceg", "--eta", "0.1", "--data-seed", "-2"],
        ["reference", *_SMALL_RPCA_PROBLEM, "--tol", "nan"],
        ["reference", *_SMALL_RPCA_PROBLEM, "--tol", "-1"],
        ["reference", *_SMALL_RPCA_PROBLEM, "--max-iters", "0"],
        ["run", *_SMALL_RPCA, "--solver", "rceg", "--eta", "0.1", "--diameter", "nan"],
        ["run", *_SMALL_RPCA, "--solver", "rceg", "--eta", "0.1", "--diameter", "inf"],
        ["reference", *_SMALL_RPCA_PROBLEM, "--config", "{config_rgda}"],
        [
            "reference", "--problem", "bilinear", "--d", "2", "--seed", "1", "--tol", "1e-8",
            "--config", "{config_run_only}",
        ],
        [
            "grid-search", "--problem", "bilinear", "--d", "2", "--seed", "1", "--solver", "rceg", "--iters", "5",
            "--ell-grid", "1,2", "--config", "{config_not_grid}",
        ],
        ["run", *_SMALL_RPCA, "--solver", "rceg", "--eta", "0.1", "--a", "9"],
        ["run", *_SMALL_RPCA, "--solver", "srceg", "--batch-size", "2", "--eta", "0.1", "--a", "2"],
        ["run", *_SMALL_RPCA, "--solver", "rceg", "--eta", "auto", "--a", "2"],
        ["reference", *_SMALL_RPCA_PROBLEM, "--save-instance", "{missing}"],
        ["reference", *_SMALL_RPCA_PROBLEM, "--iters", "5"],
        ["grid-search", *_SMALL_RPCA, "--solver", "rceg", "--ell-grid", "1,2", "--save-instance", "{missing}"],
        ["grid-search", *_SMALL_RPCA, "--solver", "rceg", "--ell-grid", "1,2", "--reference", "{missing}"],
        ["grid-search", *_SMALL_RPCA, "--solver", "rceg", "--ell-grid", "1,2", "--eta", "0.1"],
        [
            "grid-search", "--problem", "bilinear", "--seed", "1", "--iters", "5", "--instance", "{zero_coupling}",
            "--solver", "srceg", "--sigma", "0.1", "--a-grid", "0.5,1",
        ],
        ["reference", "--problem", "bilinear", "--seed", "1", "--instance", "{zero_coupling}"],
        [
            "run", "--problem", "karcher", "--d", "2", "--n-anchors", "3", "--seed", "1", "--iters", "5",
            "--solver", "rceg", "--eta", "0.05", "--alpha", "9", "--n", "77",
        ],
        ["reference", "--problem", "bilinear", "--d", "2", "--seed", "1", "--gamma", "2.0"],
        ["grid-search", *_SMALL_RPCA, "--solver", "rceg", "--ell-grid", "1,2", "--n-anchors", "3"],
        ["run", *_SMALL_RPCA, "--solver", "rceg", "--eta", "0.1", "--config", "{config_anchors}"],
        [
            "run", *_LOADED_RPCA, "--solver", "rceg", "--eta", "0.1", "--instance", "{instance4}",
            "--n", "77", "--alpha", "9",
        ],
        ["run", *_LOADED_RPCA, "--solver", "rceg", "--eta", "0.1", "--instance", "{instance4}", "--d", "7"],
        [
            "run", *_LOADED_RPCA, "--solver", "rceg", "--eta", "0.1", "--instance", "{instance4}",
            "--config", "{config_data_seed}",
        ],
        ["run", *_LOADED_RPCA, "--solver", "srceg", "--batch-size", "8", "--eta", "0.1", "--instance", "{instance4}"],
        ["run", *_RPCA_D1, "--iters", "5", "--solver", "rceg", "--eta", "0.1"],
        ["grid-search", *_RPCA_D1, "--iters", "5", "--solver", "rceg", "--ell-grid", "1,2"],
        ["reference", *_RPCA_D1, "--eta", "0.1"],
    ],
    ids=[
        "eta-inf", "a-inf", "sigma-nan", "grid-value",
        "instance-missing", "init-missing", "reference-init-missing", "reference-file-missing",
        "init-not-pd-save-instance",
        "batch-size-exact-solver", "sigma-with-batch-size",
        "sigma-rceg", "sigma-rgda",
        "reference-rgda", "reference-srceg", "reference-srgda",
        "instance-not-pd", "init-not-pd", "reference-init-extra-anchor",
        "run-seed-negative", "grid-seed-negative", "reference-seed-negative", "data-seed-negative",
        "reference-tol-nan", "reference-tol-negative", "reference-max-iters-zero",
        "diameter-nan", "diameter-inf",
        "reference-config-rgda", "reference-config-unread", "grid-config-unread",
        "a-rceg", "a-explicit-eta", "a-rceg-auto",
        "reference-save-instance", "reference-iters", "grid-save-instance", "grid-reference", "grid-eta",
        "grid-a-smoothness-zero", "reference-smoothness-zero",
        "karcher-rpca-flags", "bilinear-gamma", "rpca-n-anchors", "rpca-config-n-anchors",
        "instance-n-alpha", "instance-d", "instance-config-data-seed", "instance-batch-size-over-n",
        "rpca-d1-run", "rpca-d1-grid", "rpca-d1-reference",
    ],
)
def test_cli_bad_input_exits_2(tmp_path, argv):
    out = tmp_path / "out"
    files = _bad_input_files(tmp_path)
    argv = [a.format(**files) for a in argv]
    assert main([*argv, "--out", str(out)]) == 2
    assert not out.exists()
    assert not files["missing"].exists()


def test_cli_commands_register_only_the_flags_they_read():
    commands = next(a for a in build_parser()._actions if a.dest == "command").choices
    flags = {
        name: {a.option_strings[-1] for a in p._actions if a.option_strings and a.dest != "help"}
        for name, p in commands.items()
    }
    assert [len(flags[c]) for c in ("run", "grid-search", "reference")] == [23, 18, 15]
    assert flags["run"] - flags["grid-search"] == {
        "--save-instance", "--eta", "--a", "--diameter", "--reference", "--timing", "--no-average",
    }
    assert flags["run"] - flags["reference"] == {
        "--save-instance", "--solver", "--a", "--sigma", "--batch-size", "--iters",
        "--diameter", "--reference", "--timing", "--no-average",
    }


def test_cli_exp_overflow_exits_3_with_partial_trace(tmp_path):
    # eta 1e200 makes the first half-step tangent infinite in the sphere exp
    out = tmp_path / "t.csv"
    argv = [
        "run", "--problem", "rpca", "--d", "3", "--n", "4", "--alpha", "1.0", "--solver", "rceg",
        "--eta", "1e200", "--iters", "5", "--seed", "1", "--out", str(out),
    ]
    with np.errstate(over="ignore"):
        assert main(argv) == 3
    meta, trace = read_trace_csv(str(out))
    assert meta["status"] == "numeric-failure"
    assert [r.iter for r in trace.rows] == [0]


@pytest.mark.parametrize(
    "argv",
    [
        [
            "run", "--problem", "rpca", "--d", "3", "--n", "4", "--alpha", "1.0", "--solver", "rceg",
            "--eta", "1e200", "--iters", "5", "--seed", "1", "--out", "t.csv",
        ],
        [
            "run", "--problem", "rpca", "--d", "3", "--n", "5", "--solver", "rgda", "--seed", "1",
            "--eta", "1000", "--out", "t.csv",
        ],
    ],
    ids=["spd-exp", "rpca-grad"],
)
def test_cli_exp_overflow_prints_only_the_error_line(tmp_path, argv):
    # warnings are errors in the child, so any numpy RuntimeWarning on the way
    # to the NumericError would end it with exit 1 and a traceback
    env = dict(os.environ, PYTHONPATH=str(Path(geosaddle.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "geosaddle", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 3, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERROR"), proc.stderr


def test_cli_unknown_flag_exits_2(capsys):
    assert main(["run", "--bogus", "1"]) == 2
    capsys.readouterr()


def test_cli_has_no_verbose_flag(tmp_path, capsys):
    out = tmp_path / "t.csv"
    argv = ["run", "--problem", "bilinear", "--d", "2", "--solver", "rceg", "--eta", "0.1", "--iters", "3",
            "--seed", "1", "--out", str(out)]
    assert main(["-v", *argv]) == 2
    assert "unrecognized arguments: -v" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, written",
    [
        (
            [
                "reference", "--problem", "karcher", "--d", "3", "--n-anchors", "4", "--gamma", "3.0",
                "--seed", "5", "--tol", "1e-12", "--max-iters", "5", "--out", "r.json",
            ],
            [],
        ),
        (
            [
                "grid-search", "--problem", "bilinear", "--d", "2", "--seed", "3", "--solver", "rgda",
                "--iters", "200", "--ell-grid", "0.2,0.3",
            ],
            [],
        ),
        (
            [
                "run", "--problem", "bilinear", "--d", "2", "--solver", "rgda", "--eta", "0.9",
                "--iters", "4000", "--seed", "3", "--out", "t.csv",
            ],
            ["t.csv"],
        ),
    ],
    ids=["reference-above-tol", "grid-all-diverged", "run-diverged"],
)
def test_cli_numeric_failure_prints_one_error_line(tmp_path, argv, written):
    env = dict(os.environ, PYTHONPATH=str(Path(geosaddle.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "geosaddle", *argv], cwd=tmp_path, env=env, capture_output=True, text=True, check=False
    )
    assert proc.returncode == 3, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERROR geosaddle: numeric failure: "), proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == written


def test_cli_track_average_is_one_setting_from_flag_or_config(tmp_path):
    argv = ["run", "--problem", "bilinear", "--d", "2", "--solver", "rceg", "--eta", "0.2", "--iters", "10",
            "--seed", "2"]
    off, on = tmp_path / "off.json", tmp_path / "on.json"
    off.write_text(json.dumps({"track_average": False}))
    on.write_text(json.dumps({"track_average": True}))
    variants = {
        "flag": ["--no-average"],
        "config": ["--config", str(off)],
        "flag-over-config": ["--config", str(on), "--no-average"],
        "averaged": ["--config", str(on)],
    }
    traces = {}
    for name, extra in variants.items():
        out = tmp_path / f"{name}.csv"
        assert main([*argv, *extra, "--out", str(out)]) == 0
        traces[name] = out.read_bytes()
    assert traces["flag"] == traces["config"] == traces["flag-over-config"] != traces["averaged"]
    assert all(r.grad_norm_avg is None for r in read_trace_csv(str(tmp_path / "flag.csv"))[1].rows)


def test_cli_numeric_failure_exits_3(tmp_path):
    out = tmp_path / "t.csv"
    code = main(
        [
            "run", "--problem", "bilinear", "--d", "2", "--solver", "rgda",
            "--eta", "0.9", "--iters", "4000", "--seed", "3", "--out", str(out),
        ]
    )
    assert code == 3
    assert out.exists()  # partial trace flushed


def test_cli_byte_identical_reruns(tmp_path):
    args = [
        "run", "--problem", "rpca", "--d", "3", "--n", "5", "--alpha", "1.0",
        "--solver", "srceg", "--sigma", "0.2", "--eta", "0.2", "--iters", "12",
        "--seed", "21",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_config_file_with_override(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(
        json.dumps(
            {
                "problem": "bilinear", "solver": "rceg", "seed": 5, "iters": 8,
                "d": 2, "eta": 0.1,
            }
        )
    )
    out = tmp_path / "t.csv"
    code = main(
        ["run", "--config", str(cfg_file), "--problem", "bilinear", "--seed", "5",
         "--iters", "4", "--out", str(out)]
    )
    assert code == 0
    _, trace = read_trace_csv(str(out))
    assert len(trace.rows) == 5  # CLI --iters 4 overrides the file's 8


@pytest.mark.parametrize(
    "key, value",
    [
        ("iters", 5.5), ("d", 2.0), ("seed", "7"), ("sigma", "0.1"), ("iters", True), ("timing", 1), ("d", None),
        ("eta", True), ("eta", [0.1]), ("eta", {"value": 0.1}),
    ],
    ids=[
        "iters-float", "d-float", "seed-str", "sigma-str", "iters-bool", "timing-int", "d-null",
        "eta-bool", "eta-list", "eta-object",
    ],
)
def test_cli_config_value_of_the_wrong_json_type_exits_2(tmp_path, caplog, key, value):
    good = {"problem": "bilinear", "solver": "srceg", "seed": 7, "iters": 5, "d": 2, "sigma": 0.1, "eta": 0.1}
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({**good, key: value}))
    out = tmp_path / "t.csv"
    assert main(["run", "--config", str(cfg_file), "--out", str(out)]) == 2
    assert not out.exists()
    assert f"config key {key!r} must be" in caplog.text


def test_config_reads_eta_as_a_number_a_numeric_string_or_auto():
    base = {"problem": "rpca", "seed": 1}
    for raw, want in ((1, 1.0), (0.25, 0.25), ("0.25", 0.25), ("auto", "auto")):
        eta = RunConfig.from_dict({**base, "eta": raw}).eta
        assert eta == want and type(eta) is type(want)
    # A JSON bool, list or object is rejected in test_cli_config_value_of_the_wrong_json_type_exits_2.
    for raw in (None, "fast", 10**400):
        with pytest.raises(ConfigError, match="^config key 'eta' must be a number or 'auto', got "):
            RunConfig.from_dict({**base, "eta": raw})


@pytest.mark.parametrize(
    "case, message",
    [
        ("plot-foreign-columns", "unexpected trace columns"),
        ("run-no-problem", "--problem is required (flag or config file)"),
        ("run-no-seed", "--seed is required (flag or config file)"),
        ("config-array", "config file must hold a JSON object"),
        ("instance-of-another-problem", "instance file holds a RpcaInstance, config wants karcher"),
        ("run-no-out", "--out is required for run (flag or config file)"),
        ("reference-no-out", "--out is required for reference (flag or config file)"),
    ],
)
def test_cli_input_errors_exit_2_with_their_message(tmp_path, caplog, case, message):
    (tmp_path / "foreign.csv").write_text("iter,grad_norm\n0,1.0\n")
    (tmp_path / "array.json").write_text(json.dumps([{"problem": "bilinear", "seed": 1}]))
    (tmp_path / "rpca.json").write_text(json.dumps(instance_to_json(RpcaInstance.generate(d=2, n=4, alpha=1.0))))
    out = str(tmp_path / "out.csv")
    run = ["run", "--solver", "rceg", "--eta", "0.1", "--iters", "2", "--out", out]
    argv = {
        "plot-foreign-columns": ["plot", "--series", str(tmp_path / "foreign.csv"), "--out", out],
        "run-no-problem": [*run, "--seed", "1"],
        "run-no-seed": [*run, "--problem", "bilinear"],
        "config-array": [*run, "--config", str(tmp_path / "array.json")],
        "instance-of-another-problem": [
            *run, "--problem", "karcher", "--seed", "1", "--instance", str(tmp_path / "rpca.json"),
        ],
        "run-no-out": [*run[:-2], "--problem", "bilinear", "--seed", "1"],
        "reference-no-out": ["reference", "--problem", "bilinear", "--seed", "1"],
    }[case]
    assert main(argv) == 2
    assert not Path(out).exists()
    assert message in caplog.text


def test_config_takes_an_integer_where_a_float_is_expected():
    cfg = RunConfig.from_dict({"problem": "rpca", "solver": "srceg", "seed": 1, "d": 2, "n": 4, "alpha": 3, "sigma": 0})
    assert (cfg.alpha, cfg.sigma) == (3, 0)
    assert type(cfg.alpha) is float and type(cfg.sigma) is float
    with pytest.raises(ConfigError, match="^config key 'sigma' is out of float range$"):
        RunConfig.from_dict({"problem": "bilinear", "solver": "srceg", "sigma": 10**400})


def test_cli_integer_sigma_from_a_config_file_writes_the_bytes_of_the_flag(tmp_path):
    # The trace header records sigma; a JSON integer used to be written as 1 where the flag writes 1.0.
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"sigma": 1}))
    argv = ["run", "--problem", "bilinear", "--d", "2", "--solver", "srceg", "--eta", "0.1", "--iters", "3", "--seed", "3"]
    assert main([*argv, "--config", str(cfg_file), "--out", str(tmp_path / "config.csv")]) == 0
    assert main([*argv, "--sigma", "1", "--out", str(tmp_path / "flag.csv")]) == 0
    assert (tmp_path / "config.csv").read_bytes() == (tmp_path / "flag.csv").read_bytes()


def test_cli_exp_result_that_is_not_pd_fails_in_exp(tmp_path, caplog):
    # exp checks its own result once its condition bound beta passes 1e10, so the failure names exp and
    # beta; it used to surface one kernel later as "SPD point: eigenvalue -3.716e-08 below the PD threshold".
    argv = ["run", "--problem", "rpca", "--d", "3", "--n", "5", "--solver", "rgda", "--seed", "1", "--eta", "30"]
    assert main([*argv, "--out", str(tmp_path / "t.csv")]) == 3
    assert (
        "numeric failure: geometry kernel failed at iteration 0: SPD exp: eigenvalue -6.942e-09 below the PD"
        " threshold (condition bound 5.125e+25)"
    ) in caplog.text


def test_run_after_unrelated_runs_writes_the_bytes_of_a_fresh_process(tmp_path):
    # A point's SPD factor comes from the exp that made it, through the roots memo; what earlier runs
    # left in the memo must not reach a run's bytes.
    argv = ["run", "--problem", "karcher", "--d", "3", "--n-anchors", "4", "--gamma", "3.0", "--seed", "5",
            "--iters", "40", "--solver", "rceg", "--eta", "0.05"]
    env = dict(os.environ, PYTHONPATH=str(Path(geosaddle.__file__).resolve().parent.parent))
    subprocess.run([sys.executable, "-m", "geosaddle", *argv, "--out", "fresh.csv"], cwd=tmp_path, env=env, check=True)
    for before in (
        ["run", *_SMALL_RPCA, "--solver", "rceg", "--eta", "0.1"],
        [*argv[:10], "6", *argv[11:]],  # another seed
        argv,  # the same run: its start point and every iterate meet their own entries
    ):
        assert main([*before, "--out", str(tmp_path / "before.csv")]) == 0
    assert main([*argv, "--out", str(tmp_path / "after.csv")]) == 0
    assert (tmp_path / "after.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()


def test_run_from_a_reference_written_in_process_writes_the_bytes_of_a_fresh_process(tmp_path):
    # The reference's last point is an exp result whose factor the memo still holds; read back from its
    # file it is a point from outside, and gets a fresh factor as it would in a new process.
    problem = ["--problem", "karcher", "--d", "3", "--n-anchors", "4", "--gamma", "3.0", "--seed", "5"]
    argv = ["run", *problem, "--iters", "20", "--solver", "rceg", "--eta", "0.05", "--init-from", "ref.json"]
    assert main(["reference", *problem, "--tol", "1e-6", "--out", str(tmp_path / "ref.json")]) == 0
    env = dict(os.environ, PYTHONPATH=str(Path(geosaddle.__file__).resolve().parent.parent))
    subprocess.run([sys.executable, "-m", "geosaddle", *argv, "--out", "fresh.csv"], cwd=tmp_path, env=env, check=True)
    argv[-1] = str(tmp_path / "ref.json")
    assert main([*argv, "--out", str(tmp_path / "after.csv")]) == 0
    assert (tmp_path / "after.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()


def test_cli_run_from_init_from_decomposes_as_often_as_from_a_drawn_start(tmp_path, monkeypatch):
    # A loaded start point keeps the factor that its load made; it used to be decomposed again (12 calls, not 10).
    problem = ["--problem", "karcher", "--d", "3", "--n-anchors", "4", "--gamma", "3.0", "--seed", "1"]
    assert main(["reference", *problem, "--tol", "1e-6", "--out", str(tmp_path / "ref.json")]) == 0
    argv = ["run", *problem, "--iters", "1", "--solver", "rceg", "--eta", "0.05", "--out", str(tmp_path / "t.csv")]
    eigh, calls = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    counts = []
    for init in ([], ["--init-from", str(tmp_path / "ref.json")]):
        calls.clear()
        assert main([*argv, *init]) == 0
        counts.append(len(calls))
    assert counts == [10, 10]


def test_cli_grid_search_writes_ranking_to_config_out(tmp_path):
    rank = tmp_path / "rank.csv"
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"problem": "bilinear", "d": 2, "seed": 1, "solver": "rceg", "out": str(rank)}))
    assert main(["grid-search", "--config", str(cfg_file), "--iters", "5", "--ell-grid", "1,2"]) == 0
    assert rank.read_text().startswith("rank,param_name,")


def test_cli_run_and_reference_write_to_config_out(tmp_path):
    trace, ref = tmp_path / "t.csv", tmp_path / "ref.json"
    base = {"problem": "bilinear", "d": 2, "seed": 4}
    (tmp_path / "run.json").write_text(json.dumps({**base, "solver": "rceg", "eta": 0.2, "out": str(trace)}))
    (tmp_path / "ref_cfg.json").write_text(json.dumps({**base, "out": str(ref)}))
    assert main(["run", "--config", str(tmp_path / "run.json"), "--iters", "3"]) == 0
    assert main(["reference", "--config", str(tmp_path / "ref_cfg.json"), "--tol", "1e-9"]) == 0
    assert len(read_trace_csv(str(trace))[1].rows) == 4
    p = make_bilinear(BilinearInstance(k=2))
    _x, _y, payload = load_reference(str(ref), p.m_min, p.m_max)
    assert payload["grad_norm"] <= 1e-9


def test_cli_reference_and_gap_metric(tmp_path):
    ref = tmp_path / "ref.json"
    code = main(
        ["reference", "--problem", "bilinear", "--d", "2", "--seed", "4",
         "--tol", "1e-9", "--out", str(ref)]
    )
    assert code == 0
    out = tmp_path / "t.csv"
    code = main(
        ["run", "--problem", "bilinear", "--d", "2", "--solver", "rceg", "--eta", "0.2",
         "--iters", "10", "--seed", "4", "--reference", str(ref), "--out", str(out)]
    )
    assert code == 0
    _, trace = read_trace_csv(str(out))
    gaps = [r.dist_gap for r in trace.rows]
    assert all(g is not None for g in gaps)
    assert gaps[-1] < gaps[0]


def test_cli_init_from_pins_the_start_point(tmp_path):
    ref = tmp_path / "ref.json"
    assert main(
        ["reference", "--problem", "bilinear", "--d", "2", "--seed", "4",
         "--tol", "1e-9", "--out", str(ref)]
    ) == 0
    out = tmp_path / "t.csv"
    assert main(
        ["run", "--problem", "bilinear", "--d", "2", "--solver", "rceg", "--eta", "0.2",
         "--iters", "5", "--seed", "99", "--init-from", str(ref), "--out", str(out)]
    ) == 0
    _, trace = read_trace_csv(str(out))
    assert trace.rows[0].grad_norm <= 1e-9  # started exactly at the stored saddle


def test_cli_grid_search_and_plot(tmp_path):
    rank = tmp_path / "rank.csv"
    code = main(
        ["grid-search", "--problem", "bilinear", "--d", "2", "--solver", "rceg",
         "--seed", "2", "--iters", "30", "--ell-grid", "0.5,1.0,2.0", "--out", str(rank)]
    )
    assert code == 0
    assert rank.exists()

    trace_path = tmp_path / "t.csv"
    assert main(
        ["run", "--problem", "bilinear", "--d", "2", "--solver", "rceg", "--eta", "0.2",
         "--iters", "40", "--seed", "2", "--out", str(trace_path)]
    ) == 0
    plot_csv = tmp_path / "plot.csv"
    svg = tmp_path / "plot.svg"
    code = main(
        ["plot", "--series", f"{trace_path}:grad_norm:RCEG-last",
         "--series", f"{trace_path}:grad_norm_avg:RCEG-avg",
         "--out", str(plot_csv), "--svg", str(svg)]
    )
    assert code == 0
    lines = plot_csv.read_text().splitlines()
    assert lines[0] == "series,data_passes,grad_norm"
    labels = {l.split(",")[0] for l in lines[1:]}
    assert labels == {"RCEG-last", "RCEG-avg"}
    body = svg.read_text()
    assert body.startswith("<svg") and "polyline" in body

    # plotting the same traces twice is byte-identical
    plot2, svg2 = tmp_path / "p2.csv", tmp_path / "s2.svg"
    main(["plot", "--series", f"{trace_path}:grad_norm:RCEG-last",
          "--series", f"{trace_path}:grad_norm_avg:RCEG-avg",
          "--out", str(plot2), "--svg", str(svg2)])
    assert plot2.read_bytes() == plot_csv.read_bytes()
    assert svg2.read_bytes() == svg.read_bytes()


def test_cli_plot_rejects_unknown_column(tmp_path):
    trace_path = tmp_path / "t.csv"
    main(["run", "--problem", "bilinear", "--d", "2", "--solver", "rceg", "--eta", "0.2",
          "--iters", "5", "--seed", "2", "--out", str(trace_path)])
    assert main(["plot", "--series", f"{trace_path}:nonsense", "--out", str(tmp_path / "p.csv")]) == 2


def test_cli_plot_rejects_a_label_that_splits_the_csv_row(tmp_path):
    # the label defaults to the file stem, here "x,y", which would write four cells under a three-column header
    trace_path = tmp_path / "x,y.csv"
    main(["run", "--problem", "bilinear", "--d", "2", "--solver", "rceg", "--eta", "0.2",
          "--iters", "5", "--seed", "2", "--out", str(trace_path)])
    out = tmp_path / "p.csv"
    assert main(["plot", "--series", str(trace_path), "--out", str(out)]) == 2
    assert not out.exists()
    with pytest.raises(ConfigError, match="line break"):
        emit_plot_data([PlotSeries(label="a\nb", data_passes=(0.0,), values=(1.0,))], str(out))
    assert not out.exists()


def test_cli_plot_escapes_svg_labels(tmp_path):
    trace_path = tmp_path / "t.csv"
    main(["run", "--problem", "bilinear", "--d", "2", "--solver", "rceg", "--eta", "0.2",
          "--iters", "5", "--seed", "2", "--out", str(trace_path)])
    svg = tmp_path / "p.svg"
    assert main(["plot", "--series", f"{trace_path}:grad_norm:a<b&c", "--out", str(tmp_path / "p.csv"),
                 "--svg", str(svg)]) == 0
    texts = [el.text for el in ElementTree.parse(svg).iter("{http://www.w3.org/2000/svg}text")]
    assert "a<b&c" in texts


def test_cli_save_and_reload_instance(tmp_path):
    inst_path = tmp_path / "inst.json"
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(
        ["run", "--problem", "rpca", "--d", "3", "--n", "4", "--solver", "rceg",
         "--eta", "0.1", "--iters", "6", "--seed", "13", "--out", str(out1),
         "--save-instance", str(inst_path)]
    ) == 0
    assert main(
        ["run", "--problem", "rpca", "--solver", "rceg",
         "--eta", "0.1", "--iters", "6", "--seed", "13", "--out", str(out2),
         "--instance", str(inst_path)]
    ) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_batch_size_is_checked_against_the_loaded_instance(tmp_path):
    # 11 is above the --n default of 10, and within the 12 matrices of the loaded instance.
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(instance_to_json(RpcaInstance.generate(d=2, n=12, alpha=3.0, seed=1))))
    out = tmp_path / "t.csv"
    argv = [
        "run", *_LOADED_RPCA, "--solver", "srceg", "--batch-size", "11", "--eta", "0.1",
        "--instance", str(inst_path), "--out", str(out),
    ]
    assert main(argv) == 0
    assert read_trace_csv(str(out))[1].rows[-1].data_passes == pytest.approx(5 * 2 * 11 / 12)
