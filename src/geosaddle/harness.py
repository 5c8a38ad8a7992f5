"""Experiment harness: configs, trace files, grid search, references, plots.

Everything a benchmark run needs around the solvers: a flat config (one
JSON file shared by the CLI commands, each of which mirrors as flags only
the keys it reads), step-size schedules built from it,
deterministic CSV traces with a metadata header, step-size grid search,
reference-saddle computation and persistence, and long-format plot data
with an optional SVG rendering. Runs, grid candidates and reference solves
all go through the one driver loop, :func:`~geosaddle.solvers.run`. A grid
candidate is a bare driver call: no running mean, trace file or metadata,
since its ranking reads only the last row. A reference solve is rceg run
to a gradient-norm tolerance. The gradient-norm and distance-gap metrics
are methods of :class:`~geosaddle.problems.SaddleProblem`.

File formats:

- trace CSV: '#'-prefixed metadata lines (one JSON object), then a header
  row and one row per iteration; row 0 carries the metrics of the initial
  state. UTF-8, '.' decimal separator, '\n' line endings. By default the
  elapsed_ms column is written as 0.0 so that fixed-seed reruns are
  byte-identical; pass ``timing=True`` (CLI ``--timing``) to record wall
  time at the cost of reproducible bytes.
- reference JSON: serialized saddle points plus the gradient norm they
  were solved to.
- plot CSV: long format with columns series, data_passes, grad_norm.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from . import __version__
from .manifolds import GeometryError, Manifold, Point, point_from_json, point_to_json
from .problems import (
    PROBLEM_KINDS,
    BilinearInstance,
    KarcherInstance,
    RpcaInstance,
    SaddleProblem,
    estimate_smoothness,
    estimate_strong_monotonicity,
    instance_from_json,
    instance_to_json,
    make_bilinear,
    make_karcher,
    make_rpca,
)
from .solvers import (
    SOLVER_KINDS,
    DivergenceError,
    Trace,
    TraceRow,
    _drive,
    constants_at,
    initial_state,
    run,
    schedule_practical,
    schedule_rgda_scsc,
)

__all__ = [
    "ConfigError",
    "RunConfig",
    "build_problem",
    "build_schedule",
    "write_trace_csv",
    "read_trace_csv",
    "execute_run",
    "grid_search",
    "solve_reference",
    "write_reference",
    "load_reference",
    "emit_plot_data",
    "PlotSeries",
]

_SMOOTHNESS_SAMPLES = 64
_MONOTONICITY_SAMPLES = 128


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration (CLI exit code 2)."""


@dataclass(frozen=True)
class RunConfig:
    """One experiment: problem, solver, schedule, budget, and output paths."""

    problem: str
    seed: int
    solver: str = "rceg"
    iters: int = 100
    d: int = 2
    n: int = 10
    alpha: float = 1.0
    gamma: float = 2.0
    n_anchors: int = 3
    eta: object = "auto"  # positive float or the string "auto"
    a: Optional[float] = None  # read by the srceg auto schedule only; None there means 1.0
    sigma: Optional[float] = None
    batch_size: Optional[int] = None
    data_seed: Optional[int] = None
    diameter: Optional[float] = None
    out: Optional[str] = None
    reference: Optional[str] = None
    init_from: Optional[str] = None
    instance: Optional[str] = None
    save_instance: Optional[str] = None
    timing: bool = False
    track_average: bool = True

    def validate(self) -> None:
        if self.problem not in PROBLEM_KINDS:
            raise ConfigError(f"unknown problem {self.problem!r}")
        if self.solver not in SOLVER_KINDS:
            raise ConfigError(f"unknown solver {self.solver!r}")
        if self.iters < 1:
            raise ConfigError("iters must be >= 1")
        if self.seed < 0 or (self.data_seed is not None and self.data_seed < 0):
            raise ConfigError("seed and data_seed must be >= 0")
        if self.d < 1:
            raise ConfigError("d must be >= 1")
        if self.problem == "rpca":
            if self.n < 1:
                raise ConfigError("n must be >= 1")
            if not _positive_finite(self.alpha):
                raise ConfigError("alpha must be positive and finite")
        if self.problem == "karcher":
            if not _positive_finite(self.gamma):
                raise ConfigError("gamma must be positive and finite")
            if self.n_anchors < 1:
                raise ConfigError("n_anchors must be >= 1")
        if SOLVER_KINDS[self.solver].stochastic:
            if self.sigma is None and self.batch_size is None:
                raise ConfigError(f"{self.solver} requires --sigma or --batch-size")
            if self.batch_size is not None and self.problem != "rpca":
                raise ConfigError("--batch-size is only available for the rpca problem")
            if self.sigma is not None and self.batch_size is not None:
                # The noise oracle would run on full gradients while data_passes counted minibatches.
                raise ConfigError("--sigma and --batch-size select different oracles; pass one")
        elif self.batch_size is not None:
            raise ConfigError(f"--batch-size selects a stochastic oracle, which {self.solver} does not use")
        elif self.sigma is not None:
            # The noise model is built only for stochastic solvers; the header would record noise that never ran.
            raise ConfigError(f"--sigma sets the noise of a stochastic oracle, which {self.solver} does not use")
        # Only rpca gets this far with a batch size; a loaded instance's n is checked by build_problem.
        if self.batch_size is not None and self.instance is None and not (1 <= self.batch_size <= self.n):
            raise ConfigError(f"batch_size must be in [1, {self.n}]")
        if self.sigma is not None and not (self.sigma >= 0 and math.isfinite(self.sigma)):
            raise ConfigError("sigma must be nonnegative and finite")
        if isinstance(self.eta, str):
            if self.eta != "auto":
                raise ConfigError(f"eta must be a positive number or 'auto', got {self.eta!r}")
        elif not _positive_finite(float(self.eta)):
            raise ConfigError("eta must be positive and finite")
        if self.a is not None:
            kind = SOLVER_KINDS[self.solver]
            if not (kind.extragradient and kind.stochastic and self.eta == "auto"):
                # Like --sigma on rceg: the header would record a decay that never ran.
                raise ConfigError("--a sets the decay of the srceg auto schedule; no other schedule reads it")
            if not _positive_finite(self.a):
                raise ConfigError("a must be positive and finite")
        if self.diameter is not None and not _positive_finite(self.diameter):
            raise ConfigError("diameter must be positive and finite")

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        types = {f.name: f.type for f in fields(cls)}
        unknown = set(data) - set(types)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        data = {key: _json_value(key, types[key], value) for key, value in data.items()}
        try:
            cfg = cls(**data)
        except TypeError as e:
            raise ConfigError(str(e)) from e
        cfg.validate()
        return cfg


# The JSON values each annotated RunConfig field takes: a bool is no int, and an integer is a float.
_JSON_TYPES = {"int": int, "float": (int, float), "str": str, "bool": bool}


def _eta_value(value):
    """An eta from a flag or a config file: 'auto', or a number or numeric string as a float."""
    if value == "auto":
        return value
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            return float(value)
        except (OverflowError, ValueError):
            pass
    raise ConfigError(f"config key 'eta' must be a number or 'auto', got {type(value).__name__} {value!r}")


def _json_value(key: str, annotation: str, value):
    """``value`` checked against a field's annotation; an integer in a float field becomes a float, as from a flag."""
    if key == "eta":
        return _eta_value(value)
    want = annotation.removeprefix("Optional[").removesuffix("]")
    if value is None and want != annotation:
        return value
    if isinstance(value, _JSON_TYPES[want]) and not (isinstance(value, bool) and want in ("int", "float")):
        if want != "float":
            return value
        try:
            return float(value)
        except OverflowError as e:
            raise ConfigError(f"config key {key!r} is out of float range") from e
    null = " or null" if want != annotation else ""
    raise ConfigError(f"config key {key!r} must be {want}{null}, got {type(value).__name__} {value!r}")


def _positive_finite(v: float) -> bool:
    return v > 0 and math.isfinite(v)


def _read_json(path: str, what: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read {what} file {path!r}: {e}") from e


def load_config_file(path: str) -> dict:
    data = _read_json(path, "config")
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    return data


def build_instance(cfg: RunConfig):
    if cfg.instance is not None:
        data = _read_json(cfg.instance, "instance")
        try:
            inst = instance_from_json(data)
        except (AttributeError, KeyError, TypeError, ValueError, GeometryError) as e:
            raise ConfigError(f"instance file {cfg.instance!r} does not hold an instance: {e!r}") from e
        if not isinstance(inst, PROBLEM_KINDS[cfg.problem]):
            raise ConfigError(f"instance file holds a {type(inst).__name__}, config wants {cfg.problem}")
        return inst
    data_seed = cfg.seed if cfg.data_seed is None else cfg.data_seed
    if cfg.problem == "rpca":
        return RpcaInstance.generate(d=cfg.d, n=cfg.n, alpha=cfg.alpha, seed=data_seed)
    if cfg.problem == "karcher":
        return KarcherInstance.generate(d=cfg.d, n_anchors=cfg.n_anchors, gamma=cfg.gamma, seed=data_seed)
    return BilinearInstance(k=cfg.d)


def build_problem(cfg: RunConfig, inst=None) -> SaddleProblem:
    inst = build_instance(cfg) if inst is None else inst
    if cfg.problem == "rpca":
        try:
            return make_rpca(inst, batch_size=cfg.batch_size)
        except ValueError as e:  # the sphere needs d >= 2, and a minibatch at most the instance's n matrices
            raise ConfigError(f"rpca instance with d={inst.d}, n={inst.n}: {e}") from e
    if cfg.problem == "karcher":
        return make_karcher(inst)
    return make_bilinear(inst)


def build_schedule(cfg: RunConfig, problem: SaddleProblem) -> tuple[Callable[[int], float], dict]:
    """Resolve the schedule spec into a callable plus metadata for the header.

    ``--eta auto`` picks the benchmark defaults: the 1/(2l) cap for the
    extragradient solvers (with the a/t decay for the stochastic one, both
    with an empirically estimated smoothness) and the (1/mu) min{1, 2/t}
    decay for descent-ascent with an empirically estimated modulus.
    """
    if not isinstance(cfg.eta, str):
        eta = float(cfg.eta)
        return (lambda t: eta), {"kind": "constant", "eta": eta}
    kind = SOLVER_KINDS[cfg.solver]
    if kind.extragradient and not kind.stochastic:
        eta, ell_hat = _rceg_auto_eta(problem, cfg.seed)
        return (lambda t: eta), {"kind": "constant", "eta": eta, "ell_hat": ell_hat}
    if kind.extragradient:
        ell_hat = _estimated_smoothness(problem, cfg.seed)
        a = 1.0 if cfg.a is None else cfg.a
        return (lambda t: schedule_practical(ell_hat, a, t)), {"kind": "practical", "ell_hat": ell_hat, "a": a}
    mu_hat = estimate_strong_monotonicity(problem, _MONOTONICITY_SAMPLES, _estimation_rng(cfg.seed))
    if mu_hat <= 0:
        raise ConfigError(
            f"strong-monotonicity estimate {mu_hat:.3e} is not positive; "
            "the decaying descent-ascent schedule needs mu > 0 (pass an explicit eta)"
        )
    return (lambda t: schedule_rgda_scsc(mu_hat, t)), {"kind": "rgda-scsc", "mu_hat": mu_hat}


def _estimation_rng(seed: int) -> np.random.Generator:
    # One stream for every empirical constant of a seed, so a run, its grid
    # search and its reference solve all see the same estimate.
    return np.random.default_rng(np.random.SeedSequence([seed, 0xE57]))


def _estimated_smoothness(problem: SaddleProblem, seed: int) -> float:
    ell_hat = estimate_smoothness(problem, _SMOOTHNESS_SAMPLES, _estimation_rng(seed))
    if not ell_hat > 0:
        raise ConfigError("smoothness estimate collapsed to zero; pass an explicit eta")
    return ell_hat


def _rceg_auto_eta(problem: SaddleProblem, seed: int) -> tuple[float, float]:
    """The ``--eta auto`` constant step of rceg, also solve_reference's default: 1/(2 l) at the smoothness
    estimate l of the seed, returned with l."""
    ell_hat = _estimated_smoothness(problem, seed)
    return 1.0 / (2.0 * ell_hat), ell_hat


# -- trace files ---------------------------------------------------------------

_FIELDS = fields(TraceRow)
_COLUMNS = tuple(f.name for f in _FIELDS)


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, int):
        return str(v)
    return repr(float(v))


def write_trace_csv(trace: Trace, path: str, meta: Optional[dict] = None) -> None:
    """Write a trace with a '#'-prefixed JSON metadata header."""
    buf = io.StringIO()
    if meta:
        buf.write("# " + json.dumps(meta, sort_keys=True) + "\n")
    buf.write(",".join(_COLUMNS) + "\n")
    for r in trace.rows:
        buf.write(",".join(_fmt(getattr(r, c)) for c in _COLUMNS) + "\n")
    Path(path).write_text(buf.getvalue(), encoding="utf-8", newline="\n")


def _parse_row(line: str) -> TraceRow:
    # Inverse of _fmt per field: int or float by the annotation, and an
    # empty cell is None where the field defaults to None.
    cells = line.split(",")
    if len(cells) != len(_FIELDS):
        raise ValueError(f"trace row has {len(cells)} cells, expected {len(_FIELDS)}")
    return TraceRow(
        **{
            f.name: None if raw == "" and f.default is None else (int if f.type in (int, "int") else float)(raw)
            for f, raw in zip(_FIELDS, cells)
        }
    )


def read_trace_csv(path: str) -> tuple[dict, Trace]:
    """Parse a trace file back into metadata and rows (exact round trip)."""
    meta: dict = {}
    rows: list[TraceRow] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header: Optional[list[str]] = None
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                payload = line.lstrip("# ")
                if payload:
                    meta = json.loads(payload)
                continue
            if header is None:
                header = line.split(",")
                if tuple(header) != _COLUMNS:
                    raise ValueError(f"unexpected trace columns {header!r}")
                continue
            rows.append(_parse_row(line))
    return meta, Trace(rows=rows)


# -- reference saddles -----------------------------------------------------------


def solve_reference(
    problem: SaddleProblem,
    tol: float = 1e-10,
    max_iters: int = 200_000,
    seed: int = 0,
    eta: Optional[float] = None,
    x0: Optional[Point] = None,
    y0: Optional[Point] = None,
) -> tuple[Point, Point, float, int]:
    """Drive the corrected extragradient to a high-accuracy saddle.

    The loop of :func:`~geosaddle.solvers.run`, for rceg without averaging, from
    (x0, y0) or from points drawn from the seed, stopped by ``tol``.
    Returns (x*, y*, final combined gradient norm, iterations used). A
    divergence, a geometry failure or a budget that ends above tolerance
    raises ``DivergenceError``, whose partial trace holds a row every 25
    iterations and after the last one.
    """
    if eta is None:
        eta, _ = _rceg_auto_eta(problem, seed)
    start = initial_state(problem, x0, y0, np.random.default_rng(np.random.SeedSequence([seed, 0x1717])))
    trace, state = _drive(problem, "rceg", lambda t: eta, max_iters, seed, start.x, start.y, sigma=None,
                          reference=None, track_average=False, timing=False, tol=tol)
    gn = trace.rows[-1].grad_norm
    if gn > tol:
        raise DivergenceError(
            f"reference solve stopped above tolerance: gradient norm {gn:.3e} > {tol:.1e} "
            f"after {max_iters} iterations (best seen {min(trace.column('grad_norm')):.3e})",
            trace,
            state,
        )
    return state.x, state.y, gn, state.t


def write_reference(path: str, x: Point, y: Point, grad_norm: float, iters: int) -> None:
    payload = {
        "x": point_to_json(x),
        "y": point_to_json(y),
        "grad_norm": grad_norm,
        "iters": iters,
        "version": __version__,
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8", newline="\n")


def load_reference(path: str, m_min: Manifold, m_max: Manifold) -> tuple[Point, Point, dict]:
    data = _read_json(path, "saddle")
    try:
        return point_from_json(m_min, data["x"]), point_from_json(m_max, data["y"]), data
    except (KeyError, TypeError, ValueError, GeometryError) as e:
        raise ConfigError(f"saddle file {path!r} does not hold a saddle of this problem: {e!r}") from e


# -- run execution ---------------------------------------------------------------


def start_points(cfg: RunConfig, problem: SaddleProblem) -> tuple[Optional[Point], Optional[Point]]:
    """The ``--init-from`` pair, or (None, None) for a start drawn from the seed."""
    if not cfg.init_from:
        return None, None
    x0, y0, _ = load_reference(cfg.init_from, problem.m_min, problem.m_max)
    return x0, y0


def _curvature_meta(m: Manifold, c: Optional[float]) -> Optional[dict]:
    """The curvature constants at the run's ``--diameter`` ``c``; None without one or at/past pi/sqrt(kappa_max)."""
    if c is None:
        return None
    try:
        k = constants_at(m.kappa_min, m.kappa_max, c)
    except ValueError:
        return None
    return {"kappa_min": m.kappa_min, "kappa_max": m.kappa_max, **asdict(k)}


def execute_run(cfg: RunConfig) -> tuple[Trace, dict]:
    """Run one configured experiment and (when ``cfg.out`` is set) write the trace.

    On divergence the partial trace is flushed to ``cfg.out`` before the
    exception propagates, so a failed run still leaves its evidence behind.
    """
    cfg.validate()
    inst = build_instance(cfg)
    problem = build_problem(cfg, inst)
    schedule, sched_meta = build_schedule(cfg, problem)
    reference = load_reference(cfg.reference, problem.m_min, problem.m_max)[:2] if cfg.reference else None
    x0, y0 = start_points(cfg, problem)

    # Written only once every input file has loaded, so a config error (exit 2) leaves no output.
    if cfg.save_instance:
        Path(cfg.save_instance).write_text(
            json.dumps(instance_to_json(inst), sort_keys=True) + "\n", encoding="utf-8", newline="\n"
        )

    meta = {
        "version": __version__,
        "problem": cfg.problem,
        "solver": cfg.solver,
        "seed": cfg.seed,
        "iters": cfg.iters,
        "schedule": sched_meta,
        "sigma": cfg.sigma,
        "batch_size": cfg.batch_size,
        "curvature": {
            "min_side": _curvature_meta(problem.m_min, cfg.diameter),
            "max_side": _curvature_meta(problem.m_max, cfg.diameter),
        },
    }

    try:
        trace, state = run(
            problem,
            cfg.solver,
            schedule,
            cfg.iters,
            cfg.seed,
            x0=x0,
            y0=y0,
            sigma=cfg.sigma,
            reference=reference,
            track_average=cfg.track_average,
            timing=cfg.timing,
        )
    except DivergenceError as e:
        meta["status"] = "numeric-failure"
        meta["error"] = str(e)
        meta["empirical_d_max_from_init"] = e.trace.max_dist_from_init
        if cfg.out:
            write_trace_csv(e.trace, cfg.out, meta=meta)
        raise
    meta["status"] = "ok"
    meta["empirical_d_max_from_init"] = trace.max_dist_from_init
    if cfg.out:
        write_trace_csv(trace, cfg.out, meta=meta)
    return trace, meta


# -- grid search -----------------------------------------------------------------


def grid_search(
    cfg: RunConfig,
    ell_grid: Optional[Sequence[float]] = None,
    a_grid: Optional[Sequence[float]] = None,
    out: Optional[str] = None,
) -> tuple[dict, list[dict]]:
    """Rank schedule candidates by the final gradient norm of a short run.

    Exactly one of ``ell_grid`` (constant steps 1/(2 ell)) or ``a_grid``
    (practical decay around an estimated smoothness cap; srceg only) must
    be given. The problem, the ``--init-from`` pair and the smoothness
    estimate are built once. Each candidate is one call of the run driver on
    that problem with the config's seed, sigma and start, and without a
    running mean, which the ranking does not read. A candidate therefore
    ranks by its last iterate even where the running mean would hit a
    geometry failure. Diverged candidates rank last; ties break toward the
    smaller step.
    Returns (best row, all rows ranked); optionally writes a ranking CSV.
    """
    if (ell_grid is None) == (a_grid is None):
        raise ConfigError("provide exactly one of ell_grid or a_grid")
    grid = list(ell_grid if ell_grid is not None else a_grid)
    if not grid:
        raise ConfigError("the candidate grid is empty")
    if any(not _positive_finite(g) for g in grid):
        raise ConfigError("grid values must be positive and finite")
    cfg.validate()
    kind = SOLVER_KINDS[cfg.solver]
    if a_grid is not None and not (kind.extragradient and kind.stochastic):
        raise ConfigError(f"only the srceg auto schedule reads a, so an a grid cannot rank {cfg.solver}")

    problem = build_problem(cfg)
    x0, y0 = start_points(cfg, problem)
    ell_hat = None if a_grid is None else _estimated_smoothness(problem, cfg.seed)

    rows = []
    failure = None
    for g in grid:
        if ell_grid is not None:
            eta0 = 1.0 / (2.0 * g)
            schedule = lambda t, eta=eta0: eta
            param_name = "ell"
        else:
            schedule = lambda t, a=g: schedule_practical(ell_hat, a, t)
            eta0 = schedule(1)  # step actually taken at t = 1
            param_name = "a"
        try:
            trace, _ = run(
                problem, cfg.solver, schedule, cfg.iters, cfg.seed, x0=x0, y0=y0, sigma=cfg.sigma, track_average=False
            )
            final = trace.rows[-1].grad_norm
            status = "ok"
        except DivergenceError as e:
            failure = e
            final = math.inf
            status = "diverged"
        rows.append(
            {
                "param_name": param_name,
                "param": g,
                "eta0": eta0,
                "final_grad_norm": final,
                "status": status,
            }
        )

    rows.sort(key=lambda r: (r["final_grad_norm"], r["eta0"]))
    if out:
        _write_ranking(out, rows)
    if all(r["status"] == "diverged" for r in rows):
        # The last candidate's partial run stands for the grid.
        raise DivergenceError("every grid candidate diverged", failure.trace, failure.state) from failure
    return rows[0], rows


def _write_ranking(path: str, rows: list[dict]) -> None:
    buf = io.StringIO()
    buf.write("rank,param_name,param,eta0,final_grad_norm,status\n")
    for i, r in enumerate(rows, start=1):
        fgn = "inf" if not math.isfinite(r["final_grad_norm"]) else repr(r["final_grad_norm"])
        buf.write(f"{i},{r['param_name']},{_fmt(r['param'])},{_fmt(r['eta0'])},{fgn},{r['status']}\n")
    Path(path).write_text(buf.getvalue(), encoding="utf-8", newline="\n")


# -- plot data -------------------------------------------------------------------


@dataclass(frozen=True)
class PlotSeries:
    label: str
    data_passes: tuple[float, ...]
    values: tuple[float, ...]


def series_from_trace(trace: Trace, column: str, label: str) -> PlotSeries:
    xs, ys = [], []
    for r in trace.rows:
        v = getattr(r, column)
        if v is None:
            continue
        xs.append(r.data_passes)
        ys.append(v)
    return PlotSeries(label=label, data_passes=tuple(xs), values=tuple(ys))


def emit_plot_data(series: Sequence[PlotSeries], out_csv: str, svg_path: Optional[str] = None) -> None:
    """Write long-format plot data and, optionally, a log-scale SVG line plot."""
    if not series:
        raise ConfigError("no plot series given")
    for s in series:
        if any(c in s.label for c in ",\r\n"):
            raise ConfigError(f"plot label {s.label!r} would split its CSV row; it must hold no comma or line break")
    buf = io.StringIO()
    buf.write("series,data_passes,grad_norm\n")
    for s in series:
        for x, y in zip(s.data_passes, s.values):
            buf.write(f"{s.label},{_fmt(x)},{_fmt(y)}\n")
    Path(out_csv).write_text(buf.getvalue(), encoding="utf-8", newline="\n")
    if svg_path:
        Path(svg_path).write_text(_render_svg(series), encoding="utf-8", newline="\n")


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _render_svg(series: Sequence[PlotSeries]) -> str:
    """Deterministic hand-rolled SVG: linear x (data passes), log10 y."""
    width, height = 720.0, 480.0
    ml, mr, mt, mb = 70.0, 20.0, 20.0, 50.0
    pw, ph = width - ml - mr, height - mt - mb

    pts = [(x, y) for s in series for x, y in zip(s.data_passes, s.values) if y > 0]
    if not pts:
        raise ConfigError("plot series contain no positive values for the log scale")
    x_min = min(p[0] for p in pts)
    x_max = max(p[0] for p in pts)
    y_lo = math.floor(math.log10(min(p[1] for p in pts)))
    y_hi = math.ceil(math.log10(max(p[1] for p in pts)))
    if x_max <= x_min:
        x_max = x_min + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1

    def sx(x: float) -> float:
        return ml + pw * (x - x_min) / (x_max - x_min)

    def sy(y: float) -> float:
        return mt + ph * (y_hi - math.log10(y)) / (y_hi - y_lo)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<rect x="{ml:.1f}" y="{mt:.1f}" width="{pw:.1f}" height="{ph:.1f}" '
        'fill="none" stroke="#333333" stroke-width="1"/>',
    ]
    for decade in range(int(y_lo), int(y_hi) + 1):
        yy = sy(10.0**decade)
        out.append(
            f'<line x1="{ml:.1f}" y1="{yy:.2f}" x2="{ml + pw:.1f}" y2="{yy:.2f}" '
            'stroke="#dddddd" stroke-width="0.5"/>'
        )
        out.append(
            f'<text x="{ml - 8:.1f}" y="{yy + 4:.2f}" text-anchor="end" font-size="11" '
            f'font-family="sans-serif">1e{decade}</text>'
        )
    for i in range(5):
        xv = x_min + (x_max - x_min) * i / 4.0
        xx = sx(xv)
        out.append(
            f'<text x="{xx:.2f}" y="{mt + ph + 18:.1f}" text-anchor="middle" font-size="11" '
            f'font-family="sans-serif">{xv:.6g}</text>'
        )
    out.append(
        f'<text x="{ml + pw / 2:.1f}" y="{height - 12:.1f}" text-anchor="middle" font-size="12" '
        'font-family="sans-serif">data passes</text>'
    )
    out.append(
        f'<text x="16" y="{mt + ph / 2:.1f}" text-anchor="middle" font-size="12" '
        f'font-family="sans-serif" transform="rotate(-90 16 {mt + ph / 2:.1f})">gradient norm</text>'
    )
    for i, s in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        coords = " ".join(
            f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(s.data_passes, s.values) if y > 0
        )
        if coords:
            out.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        ly = mt + 16 + 16 * i
        out.append(
            f'<line x1="{ml + pw - 150:.1f}" y1="{ly:.1f}" x2="{ml + pw - 120:.1f}" y2="{ly:.1f}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        # Escaped as xml.sax.saxutils.escape does, without the urllib imports that module pulls in.
        label = s.label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        out.append(
            f'<text x="{ml + pw - 114:.1f}" y="{ly + 4:.1f}" font-size="11" '
            f'font-family="sans-serif">{label}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
