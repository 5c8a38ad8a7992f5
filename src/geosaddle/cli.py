"""Command-line front end: run, grid-search, reference, plot.

Exit codes: 0 on success, 2 on configuration errors (including argparse
failures), 3 on numeric failures (divergence, reference solves that do not
reach tolerance). Numeric failures still flush whatever partial output
exists, since a divergent run is itself a reportable result.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from dataclasses import fields
from pathlib import Path

from . import __version__
from .harness import (
    ConfigError,
    RunConfig,
    build_problem,
    emit_plot_data,
    execute_run,
    grid_search,
    load_config_file,
    read_trace_csv,
    series_from_trace,
    solve_reference,
    start_points,
    write_reference,
)
from .manifolds import GeometryError
from .problems import PROBLEM_KINDS
from .solvers import SOLVER_KINDS, DivergenceError

logger = logging.getLogger("geosaddle")


# Flags default to None (absent) so that the merge precedence is exact:
# RunConfig defaults < config file < explicitly passed flags.


def _add_problem_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--problem", choices=tuple(PROBLEM_KINDS))
    p.add_argument("--d", type=int, help="problem dimension")
    p.add_argument("--n", type=int, help="rpca: number of data matrices")
    p.add_argument("--alpha", type=float, help="rpca: penalty weight")
    p.add_argument("--gamma", type=float, help="karcher: anchor trade-off weight")
    p.add_argument("--n-anchors", type=int, help="karcher: number of anchors")
    p.add_argument("--seed", type=int, help="run seed (required)")
    p.add_argument("--data-seed", type=int, help="instance seed (defaults to --seed)")
    p.add_argument("--instance", help="load a pinned instance JSON instead of generating")
    p.add_argument("--init-from", help="JSON file with pinned initial points")
    p.add_argument("--config", help="JSON config file; explicit flags override it")


def _add_oracle_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--solver", choices=tuple(SOLVER_KINDS))
    p.add_argument("--sigma", type=float, help="additive gradient-noise bound")
    p.add_argument("--batch-size", type=int, help="rpca minibatch size")
    p.add_argument("--iters", type=int, help="iteration budget")


def _add_eta_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eta", help="step size, or 'auto' for the benchmark default")


def _add_run_only_flags(p: argparse.ArgumentParser) -> None:
    # Read by run alone: the srceg auto decay, the instance copy, and the trace header and metric columns.
    p.add_argument("--a", type=float, help="srceg with --eta auto: decay numerator of the practical schedule")
    p.add_argument("--save-instance", help="write the generated instance to this path")
    p.add_argument("--diameter", type=float, help="length at which curvature constants are reported")
    p.add_argument("--reference", help="reference saddle JSON for the distance-gap metric")
    p.add_argument("--timing", action="store_true", default=None,
                   help="record wall time (breaks byte determinism)")
    p.add_argument("--no-average", action="store_true", default=None,
                   help="skip running-mean upkeep and metrics")


def _parse_eta(raw) -> object:
    if isinstance(raw, (int, float)):
        return float(raw)
    if raw == "auto":
        return "auto"
    try:
        return float(raw)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"eta must be a number or 'auto', got {raw!r}") from e


def _parse_grid(raw: str | None, flag: str) -> list[float] | None:
    if not raw:
        return None
    try:
        return [float(v) for v in raw.split(",")]
    except ValueError as e:
        raise ConfigError(f"{flag} must be comma-separated numbers, got {raw!r}") from e


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    # A RunConfig field takes the flag of the same name, or --no-average for track_average.
    # The config file may set only the fields whose flag the command registers.
    dests = {f.name: f.name for f in fields(RunConfig)} | {"track_average": "no_average"}
    cli_map = {name: getattr(args, dest) for name, dest in dests.items() if hasattr(args, dest)}
    if cli_map.get("track_average") is not None:
        cli_map["track_average"] = not cli_map["track_average"]
    merged = load_config_file(args.config) if args.config else {}
    unread = sorted(set(merged) - set(cli_map))
    if unread:
        raise ConfigError(f"{args.command} does not read config keys {unread}")
    merged.update({k: v for k, v in cli_map.items() if v is not None})
    if merged.get("problem") is None:
        raise ConfigError("--problem is required (flag or config file)")
    if merged.get("seed") is None:
        raise ConfigError("--seed is required (flag or config file)")
    if "eta" in merged:
        merged["eta"] = _parse_eta(merged["eta"])
    return RunConfig.from_dict(merged)


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    if not cfg.out:
        raise ConfigError("--out is required for run")
    try:
        trace, meta = execute_run(cfg)
    except DivergenceError as e:
        logger.error("numeric failure: %s (partial trace flushed to %s)", e, cfg.out)
        return 3
    logger.info("wrote %d rows to %s", len(trace.rows), cfg.out)
    return 0


def _cmd_grid_search(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    ell_grid = _parse_grid(args.ell_grid, "--ell-grid")
    a_grid = _parse_grid(args.a_grid, "--a-grid")
    best, _rows = grid_search(cfg, ell_grid=ell_grid, a_grid=a_grid, out=cfg.out)
    logger.info("best candidate: %(param_name)s=%(param)s (final grad norm %(final_grad_norm).3e)", best)
    print(json.dumps(best, sort_keys=True))
    return 0


def _cmd_reference(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    if not (args.tol > 0 and math.isfinite(args.tol)):
        raise ConfigError(f"tol must be positive and finite, got {args.tol!r}")
    if args.max_iters < 1:
        raise ConfigError("max_iters must be >= 1")
    problem = build_problem(cfg)
    x0, y0 = start_points(cfg, problem)
    eta = None if isinstance(cfg.eta, str) else float(cfg.eta)
    try:
        x, y, gn, iters = solve_reference(
            problem, tol=args.tol, max_iters=args.max_iters, seed=cfg.seed, eta=eta, x0=x0, y0=y0
        )
    except RuntimeError as e:  # DivergenceError included
        logger.error("reference solve failed: %s", e)
        return 3
    write_reference(args.out, x, y, gn, iters)
    logger.info("reference saddle written to %s (grad norm %.3e, %d iterations)", args.out, gn, iters)
    return 0


def _parse_series(spec: str) -> tuple[str, str, str | None]:
    parts = spec.split(":")
    if len(parts) == 1:
        return parts[0], "grad_norm", None
    if len(parts) == 2:
        return parts[0], parts[1], None
    if len(parts) == 3:
        return parts[0], parts[1], parts[2]
    raise ConfigError(f"bad series spec {spec!r}; expected FILE[:COLUMN[:LABEL]]")


def _cmd_plot(args: argparse.Namespace) -> int:
    series = []
    for spec in args.series:
        path, column, label = _parse_series(spec)
        if column not in ("grad_norm", "grad_norm_x", "grad_norm_y", "grad_norm_avg", "dist_gap"):
            raise ConfigError(f"unknown trace column {column!r}")
        try:
            _meta, trace = read_trace_csv(path)
        except (OSError, ValueError) as e:
            raise ConfigError(f"cannot read trace {path!r}: {e}") from e
        if label is None:
            label = Path(path).stem if column == "grad_norm" else f"{Path(path).stem}:{column}"
        series.append(series_from_trace(trace, column, label))
    if not any(s.values for s in series):
        raise ConfigError("the given traces produced no plottable points")
    emit_plot_data(series, args.out, svg_path=args.svg)
    logger.info("plot data written to %s%s", args.out, f" and {args.svg}" if args.svg else "")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="geosaddle", description=__doc__)
    parser.add_argument("--version", action="version", version=f"geosaddle {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one solver configuration and write a trace CSV")
    _add_problem_flags(p_run)
    _add_oracle_flags(p_run)
    _add_eta_flag(p_run)
    _add_run_only_flags(p_run)
    p_run.add_argument("--out", required=True, help="trace CSV output path")
    p_run.set_defaults(fn=_cmd_run)

    p_grid = sub.add_parser("grid-search", help="rank step-size candidates on short runs")
    _add_problem_flags(p_grid)
    _add_oracle_flags(p_grid)
    p_grid.add_argument("--ell-grid", default=None, help="comma-separated smoothness candidates (eta = 1/(2 ell))")
    p_grid.add_argument("--a-grid", default=None, help="comma-separated decay numerators for the practical schedule")
    p_grid.add_argument("--out", default=None, help="ranking CSV output path")
    p_grid.set_defaults(fn=_cmd_grid_search)

    p_ref = sub.add_parser("reference", help="solve a high-accuracy reference saddle")
    _add_problem_flags(p_ref)
    _add_eta_flag(p_ref)
    p_ref.add_argument("--tol", type=float, default=1e-10, help="target combined gradient norm")
    p_ref.add_argument("--max-iters", type=int, default=200_000)
    p_ref.add_argument("--out", required=True, help="reference JSON output path")
    p_ref.set_defaults(fn=_cmd_reference)

    p_plot = sub.add_parser("plot", help="emit long-format plot data (and optional SVG) from traces")
    p_plot.add_argument("--series", action="append", required=True, metavar="FILE[:COLUMN[:LABEL]]")
    p_plot.add_argument("--out", required=True, help="long-format CSV output path")
    p_plot.add_argument("--svg", default=None, help="optional SVG output path")
    p_plot.set_defaults(fn=_cmd_plot)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors and 0 on --help; pass both through.
        return int(e.code or 0)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.fn(args)
    except ConfigError as e:
        logger.error("config error: %s", e)
        return 2
    except DivergenceError as e:
        logger.error("numeric failure: %s", e)
        return 3
    except GeometryError as e:
        logger.error("numeric failure in a geometry kernel: %s", e)
        return 3


def console_main() -> None:  # pragma: no cover - thin wrapper
    raise SystemExit(main())


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
